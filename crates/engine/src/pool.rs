//! The fixed worker pool.
//!
//! `workers` OS threads draining one [`BoundedQueue`] — the shared-nothing
//! design: no lock is held while a job runs, and a job that searches
//! borrows its thread's pooled scratch (`mqa_graph::with_pooled`), so the
//! per-query visited set never reallocates in steady state. Dropping the
//! pool closes the queue, drains the backlog, and joins every thread.

use crate::queue::{BoundedQueue, PushError};
use crate::TicketError;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A unit of work, run once on a worker thread.
pub type Job = Box<dyn FnOnce() + Send>;

/// The pool. Worker threads live exactly as long as this value.
pub struct WorkerPool {
    queue: Arc<BoundedQueue<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads behind a queue of `queue_cap` slots.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `queue_cap == 0`.
    pub fn new(workers: usize, queue_cap: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(queue_cap));
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    mqa_obs::trace::set_worker_id(u64::try_from(i).unwrap_or(u64::MAX));
                    let jobs = mqa_obs::counter(&format!("engine.worker.{i}.jobs"));
                    let depth = mqa_obs::gauge("engine.pool.queue_depth");
                    while let Some(job) = queue.pop() {
                        depth.set(queue.len() as f64);
                        // A panicking job must not take the worker down:
                        // the unwind drops the job's [`TicketSender`]
                        // (resolving its ticket as Canceled) and this
                        // thread moves on to the backlog. A pooled scratch
                        // the job borrowed is dropped by the unwind, not
                        // returned mid-epoch. The span stack is reset:
                        // guards leaked by the unwind would otherwise pin
                        // a stale parent onto the next job's spans.
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        if caught.is_err() {
                            mqa_obs::counter("engine.worker.job_panics").inc();
                            mqa_obs::span::reset_thread_stack();
                        }
                        jobs.inc();
                    }
                })
            })
            .collect();
        Self { queue, handles }
    }

    /// Blocking submit: applies backpressure while the queue is full.
    ///
    /// # Errors
    /// Returns [`TicketError::Canceled`] if the pool closed.
    pub fn submit(&self, job: Job) -> Result<(), TicketError> {
        self.admitted(self.queue.push(job))
    }

    /// Non-blocking submit: a full queue refuses the job instead of
    /// waiting for a slot.
    ///
    /// # Errors
    /// Returns [`TicketError::Rejected`] if the queue is at capacity, or
    /// [`TicketError::Canceled`] if the pool closed.
    pub fn try_submit(&self, job: Job) -> Result<(), TicketError> {
        self.admitted(self.queue.try_push(job))
    }

    /// The typed outcome of one push; a refused job is dropped here (its
    /// ticket resolves through its sender's drop).
    fn admitted(&self, pushed: Result<(), PushError<Job>>) -> Result<(), TicketError> {
        match pushed {
            Ok(()) => {
                mqa_obs::gauge("engine.pool.queue_depth").set(self.queue.len() as f64);
                Ok(())
            }
            Err(PushError::Full(_)) => Err(TicketError::Rejected),
            Err(PushError::Closed(_)) => Err(TicketError::Canceled),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.handles.drain(..) {
            // A worker that panicked already surfaced its ticket as
            // Canceled; shutdown itself must not cascade the panic.
            drop(handle.join());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_submitted_job_runs_before_drop_returns() {
        let ran = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(3, 8);
        for _ in 0..20 {
            let ran = Arc::clone(&ran);
            pool.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn workers_reports_thread_count() {
        let pool = WorkerPool::new(4, 4);
        assert_eq!(pool.workers(), 4);
    }
}
