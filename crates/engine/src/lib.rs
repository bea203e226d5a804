//! # mqa-engine
//!
//! The concurrent query engine: MQA's interactive sessions stop sharing a
//! single serial query path and instead submit turns to a fixed pool of
//! worker threads behind a bounded submission queue (backpressure, not
//! unbounded memory) with graceful shutdown (drop drains the backlog and
//! joins every worker).
//!
//! The engine works over any [`RetrievalFramework`] — MUST, MR, or JE —
//! because frameworks are `Send + Sync` by contract. A worker searches the
//! way every other thread does, through [`RetrievalFramework::search`],
//! which borrows the thread's pooled search scratch, so a worker reuses
//! its per-thread search state instead of allocating per query.
//!
//! ```
//! # use mqa_engine::{EngineOptions, QueryEngine};
//! # use mqa_retrieval::{FrameworkKind, MultiModalQuery, RetrievalFramework, RetrievalOutput};
//! # struct Echo;
//! # impl RetrievalFramework for Echo {
//! #     fn kind(&self) -> FrameworkKind { FrameworkKind::Must }
//! #     fn search(&self, _q: &MultiModalQuery, k: usize, _ef: usize) -> RetrievalOutput {
//! #         RetrievalOutput { results: vec![mqa_vector::Candidate::new(k as u32, 0.0)], ..Default::default() }
//! #     }
//! #     fn describe(&self) -> String { "echo".into() }
//! # }
//! let engine = QueryEngine::new(std::sync::Arc::new(Echo), EngineOptions::default());
//! let ticket = engine.submit(MultiModalQuery::text("storm over the bay"), 5, 32).unwrap();
//! let answer = ticket.wait().unwrap();   // runs on a worker thread
//! assert_eq!(answer.ids(), vec![5]);
//! ```
//!
//! One [`BoundedQueue`] is the only thing between `submit` and a worker,
//! and its mutex is the engine's only lock: a [`Ticket`] is a one-slot
//! `std::sync::mpsc` channel, and no lock is held while a job runs.
//! Configuring [`sched`] admission control (see
//! [`EngineOptions::with_sched`]) sizes that queue to the watermark and
//! turns overload into typed [`TicketError::Rejected`] /
//! [`TicketError::Expired`] outcomes, never a block or a silent drop.
//!
//! Instrumentation (all through `mqa-obs`): `engine.pool.queue_depth` gauge,
//! `engine.query.latency_us` latency histogram, `engine.query.submitted` counter,
//! per-worker `engine.worker.<i>.jobs` counters, and the shed counters
//! `engine.sched.{shed_rejected,shed_expired}`.

pub mod pool;
pub mod queue;
pub mod sched;
pub mod ticket;

pub use pool::{Job, WorkerPool};
pub use queue::BoundedQueue;
pub use sched::{Deadline, SchedOptions};
pub use ticket::{oneshot, Ticket, TicketError, TicketSender};

use mqa_retrieval::{MultiModalQuery, RetrievalFramework, RetrievalOutput};
use std::sync::Arc;

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Worker threads.
    pub workers: usize,
    /// Submission-queue capacity (backpressure threshold) when no
    /// admission control is configured.
    pub queue_cap: usize,
    /// When set, admission control: the queue holds
    /// [`SchedOptions::watermark`] jobs (`queue_cap` is not consulted) and
    /// a submission that finds it full is shed with
    /// [`TicketError::Rejected`]. `None` blocks the submitter instead.
    pub sched: Option<SchedOptions>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_cap: 64,
            sched: None,
        }
    }
}

impl EngineOptions {
    /// Options with `workers` threads and the default queue capacity.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }

    /// The same options with admission control enabled.
    #[must_use]
    pub fn with_sched(mut self, sched: SchedOptions) -> Self {
        self.sched = Some(sched);
        self
    }
}

/// The engine: a retrieval framework served by a worker pool behind one
/// bounded queue.
pub struct QueryEngine {
    pool: WorkerPool,
    /// Whether a full queue sheds the submission ([`sched`] configured)
    /// or blocks the submitter.
    shed_when_full: bool,
    framework: Arc<dyn RetrievalFramework>,
}

impl QueryEngine {
    /// Spawns the worker pool over `framework`.
    ///
    /// # Panics
    /// Panics if `options.workers == 0` or the queue capacity in force
    /// (`sched.watermark` when configured, `queue_cap` otherwise) is 0.
    pub fn new(framework: Arc<dyn RetrievalFramework>, options: EngineOptions) -> Self {
        let capacity = options.sched.map_or(options.queue_cap, |s| s.watermark);
        Self {
            pool: WorkerPool::new(options.workers, capacity),
            shed_when_full: options.sched.is_some(),
            framework,
        }
    }

    fn job(
        &self,
        query: MultiModalQuery,
        k: usize,
        ef: usize,
        deadline: Option<Deadline>,
    ) -> (Ticket<RetrievalOutput>, pool::Job) {
        let (ticket, sender) = ticket::oneshot();
        let framework = Arc::clone(&self.framework);
        // Inherit the caller's trace when one is active (the session path
        // began it); otherwise mint a detached root so raw engine
        // submissions still produce a complete trace. The context crosses
        // the queue inside the job closure and is re-adopted on the worker.
        let (ctx, owned) = match mqa_obs::trace::current() {
            Some(ctx) => (Some(ctx), None),
            None => {
                let handle = mqa_obs::trace::begin_detached("engine.query");
                (handle.as_ref().map(mqa_obs::TraceHandle::context), handle)
            }
        };
        // ALLOC: per-query control-plane rendezvous (the boxed job); the worker-side search it carries is allocation-free (graph tests/alloc_free.rs).
        let queue_sw = mqa_obs::Stopwatch::start();
        let job: pool::Job = Box::new(move || {
            let adopted = ctx.as_ref().map(mqa_obs::TraceContext::adopt);
            if let Some(d) = deadline {
                mqa_obs::trace::note_deadline_budget(d.budget_us());
                // Last-look expiry check: the deadline may have passed
                // while the job sat in the queue. Shedding here (no
                // search run, no queue-wait sample recorded) keeps the
                // served-query latency histograms clean, and `fail`
                // resolves the ticket typed.
                if d.expired() {
                    mqa_obs::counter("engine.sched.shed_expired").inc();
                    sender.fail(TicketError::Expired);
                    drop(adopted);
                    // A detached trace (owned handle) finalizes on drop
                    // with outcome "canceled" — still a complete trace.
                    return;
                }
            }
            let queue_us = queue_sw.elapsed_us();
            mqa_obs::histogram("engine.query.queue_wait_us").record(queue_us);
            mqa_obs::trace::note_queue_wait(queue_us);
            let service_sw = mqa_obs::Stopwatch::start();
            let out = {
                let _service = match ctx.as_ref() {
                    Some(c) => mqa_obs::span_under("engine.query.service", c.root()),
                    None => mqa_obs::span("engine.query.service"),
                };
                framework.search(&query, k, ef)
            };
            let service_us = service_sw.elapsed_us();
            mqa_obs::trace::note_service(service_us);
            mqa_obs::trace::note_engine_total(queue_sw.elapsed_us());
            let latency = mqa_obs::histogram("engine.query.latency_us");
            match ctx.as_ref() {
                Some(c) => latency.record_with_exemplar(service_us, c.id()),
                None => latency.record(service_us),
            }
            drop(adopted);
            // Detached traces finalize before the ticket resolves, so a
            // caller that observed `wait()` can already read the trace.
            if let Some(handle) = owned {
                handle.finish();
            }
            sender.send(out);
        });
        (ticket, job)
    }

    /// Submits a query; blocks while the queue is full (backpressure).
    /// With admission control configured the submission never blocks —
    /// overload resolves to [`TicketError::Rejected`] instead.
    ///
    /// # Errors
    /// Returns [`TicketError::Canceled`] if the engine closed, or
    /// [`TicketError::Rejected`] when admission control sheds the query.
    pub fn submit(
        &self,
        query: MultiModalQuery,
        k: usize,
        ef: usize,
    ) -> Result<Ticket<RetrievalOutput>, TicketError> {
        self.submit_with_deadline(query, k, ef, None)
    }

    /// Submits a query carrying an optional deadline, checked here and
    /// again on the worker as the job leaves the queue.
    ///
    /// # Errors
    /// The typed shed outcome: [`TicketError::Expired`] if the deadline
    /// already passed, [`TicketError::Rejected`] if admission control is
    /// configured and the queue is at the watermark,
    /// [`TicketError::Canceled`] if the engine is shutting down.
    pub fn submit_with_deadline(
        &self,
        query: MultiModalQuery,
        k: usize,
        ef: usize,
        deadline: Option<Deadline>,
    ) -> Result<Ticket<RetrievalOutput>, TicketError> {
        // A shed submission's ticket is never handed out, so dropping the
        // job (and with it the ticket's sender) is all the cleanup it needs.
        let (ticket, job) = self.job(query, k, ef, deadline);
        if deadline.is_some_and(|d| d.expired()) {
            mqa_obs::counter("engine.sched.shed_expired").inc();
            return Err(TicketError::Expired);
        }
        let pushed = if self.shed_when_full {
            self.pool.try_submit(job)
        } else {
            self.pool.submit(job)
        };
        if pushed == Err(TicketError::Rejected) {
            mqa_obs::counter("engine.sched.shed_rejected").inc();
        }
        pushed?;
        mqa_obs::counter("engine.query.submitted").inc();
        Ok(ticket)
    }

    /// Submit-and-wait convenience: one query, answered on a worker.
    ///
    /// # Errors
    /// Returns what [`QueryEngine::submit`] refused with, or
    /// [`TicketError::Canceled`] if the job was abandoned.
    pub fn retrieve(
        &self,
        query: MultiModalQuery,
        k: usize,
        ef: usize,
    ) -> Result<RetrievalOutput, TicketError> {
        self.submit(query, k, ef)?.wait()
    }

    /// Answers a whole batch concurrently, preserving input order.
    ///
    /// # Errors
    /// Returns the first submission or wait error encountered.
    pub fn retrieve_batch(
        &self,
        queries: Vec<MultiModalQuery>,
        k: usize,
        ef: usize,
    ) -> Result<Vec<RetrievalOutput>, TicketError> {
        let tickets: Vec<Ticket<RetrievalOutput>> = queries
            .into_iter()
            // ALLOC: the batch API materializes one ticket/result list per call.
            .map(|q| self.submit(q, k, ef))
            .collect::<Result<_, _>>()?;
        tickets
            .into_iter()
            .map(Ticket::wait)
            // ALLOC: the batch API materializes one ticket/result list per call.
            .collect()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_retrieval::FrameworkKind;
    use mqa_vector::Candidate;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A framework whose answer encodes (k, query text length) — enough to
    /// verify routing and ordering without a corpus.
    struct Probe {
        calls: AtomicUsize,
        delay: std::time::Duration,
    }

    impl RetrievalFramework for Probe {
        fn kind(&self) -> FrameworkKind {
            FrameworkKind::Must
        }

        fn search(&self, query: &MultiModalQuery, k: usize, _ef: usize) -> RetrievalOutput {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            let len = query.text.as_deref().map_or(0, str::len);
            RetrievalOutput {
                results: vec![Candidate::new(k as u32, len as f32)],
                ..Default::default()
            }
        }

        fn describe(&self) -> String {
            "probe".into()
        }
    }

    fn probe(delay_ms: u64) -> Arc<Probe> {
        Arc::new(Probe {
            calls: AtomicUsize::new(0),
            delay: std::time::Duration::from_millis(delay_ms),
        })
    }

    #[test]
    fn retrieve_routes_through_framework() {
        let f = probe(0);
        let engine = QueryEngine::new(Arc::<Probe>::clone(&f), EngineOptions::with_workers(2));
        let out = engine
            .retrieve(MultiModalQuery::text("abc"), 7, 32)
            .unwrap();
        assert_eq!(out.ids(), vec![7]);
        assert_eq!(out.results[0].dist, 3.0);
        assert_eq!(f.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn batch_preserves_input_order() {
        let engine = QueryEngine::new(probe(1), EngineOptions::with_workers(4));
        let queries: Vec<MultiModalQuery> = (1..=12)
            .map(|i| MultiModalQuery::text("x".repeat(i)))
            .collect();
        let outs = engine.retrieve_batch(queries, 3, 16).unwrap();
        let lens: Vec<f32> = outs.iter().map(|o| o.results[0].dist).collect();
        let expect: Vec<f32> = (1..=12).map(|i| i as f32).collect();
        assert_eq!(lens, expect, "batch answers must keep submission order");
    }

    #[test]
    fn shutdown_completes_accepted_work() {
        let engine = QueryEngine::new(probe(5), EngineOptions::with_workers(2));
        let tickets: Vec<_> = (0..8)
            .map(|_| engine.submit(MultiModalQuery::text("q"), 1, 1).unwrap())
            .collect();
        drop(engine);
        for t in tickets {
            assert!(t.wait().is_ok(), "accepted work must finish on shutdown");
        }
    }

    #[test]
    fn instruments_are_populated() {
        let engine = QueryEngine::new(probe(0), EngineOptions::with_workers(2));
        for _ in 0..6 {
            engine.retrieve(MultiModalQuery::text("q"), 1, 1).unwrap();
        }
        assert!(mqa_obs::counter("engine.query.submitted").get() >= 6);
        assert!(mqa_obs::histogram("engine.query.latency_us").count() >= 6);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(TicketError::Canceled.to_string().contains("abandoned"));
        assert!(TicketError::Rejected.to_string().contains("admission"));
        assert!(TicketError::Expired.to_string().contains("deadline"));
    }
}
