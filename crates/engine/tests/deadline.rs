//! Deadline and admission semantics, end to end: expired-at-submit
//! shedding, order preservation across partially-shed batches, exact
//! agreement between the `engine.sched.shed_*` instruments and the typed
//! ticket outcomes callers observe, and the one queue's two full-queue
//! behaviours (shed at the watermark, block at `queue_cap`).
//!
//! The shed counters live in the global metrics registry, so every test
//! here serializes on [`scenario_lock`] and measures counter *deltas*.

use mqa_engine::{Deadline, EngineOptions, QueryEngine, SchedOptions, TicketError};
use mqa_retrieval::{FrameworkKind, MultiModalQuery, RetrievalFramework, RetrievalOutput};
use mqa_vector::Candidate;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn scenario_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Answers after a fixed delay — and, when [`gated`], not before
/// [`Probe::open`] — with the query's text length as the distance: enough
/// to pin per-slot identity. Logs the order queries were served in.
struct Probe {
    calls: AtomicUsize,
    delay: Duration,
    open: Mutex<bool>,
    opened: Condvar,
    served: Mutex<Vec<usize>>,
}

impl Probe {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl RetrievalFramework for Probe {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::Must
    }

    fn search(&self, query: &MultiModalQuery, k: usize, _ef: usize) -> RetrievalOutput {
        self.calls.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        let len = query.text.as_deref().map_or(0, str::len);
        self.served.lock().unwrap().push(len);
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
        delay: Duration::from_millis(delay_ms),
        open: Mutex::new(true),
        opened: Condvar::new(),
        served: Mutex::new(Vec::new()),
    })
}

/// A probe whose searches park until [`Probe::open`].
fn gated() -> Arc<Probe> {
    let f = probe(0);
    *f.open.lock().unwrap() = false;
    f
}

fn sched_options() -> EngineOptions {
    EngineOptions::with_workers(1).with_sched(SchedOptions { watermark: 4 })
}

/// Property: a deadline that is already expired at submit time is shed
/// with typed `Expired` before any work happens — with and without
/// admission control, for every budget, and the framework is never
/// invoked for the shed query.
#[test]
fn already_expired_deadline_is_rejected_at_submit() {
    let _guard = scenario_lock();
    for use_sched in [false, true] {
        let opts = if use_sched {
            sched_options()
        } else {
            EngineOptions::with_workers(1)
        };
        let f = probe(0);
        let engine = QueryEngine::new(Arc::<Probe>::clone(&f), opts);
        for budget_us in [0u64, 1, 5, 50, 500, 2_000] {
            let deadline = Deadline::in_us(budget_us);
            // Let the budget drain fully so the deadline is expired by
            // the time submit sees it.
            std::thread::sleep(Duration::from_millis(5));
            assert!(deadline.expired(), "budget {budget_us}us must be spent");
            let before = f.calls.load(Ordering::SeqCst);
            let got =
                engine.submit_with_deadline(MultiModalQuery::text("stale"), 3, 16, Some(deadline));
            assert!(
                matches!(got, Err(TicketError::Expired)),
                "sched={use_sched} budget={budget_us}: expected Expired, got {:?}",
                got.err()
            );
            assert_eq!(
                f.calls.load(Ordering::SeqCst),
                before,
                "a shed query must never reach the framework"
            );
        }
        // A live deadline on the same engine still serves normally.
        let live = Some(Deadline::in_us(5_000_000));
        let out = engine
            .submit_with_deadline(MultiModalQuery::text("fresh"), 3, 16, live)
            .and_then(|ticket| ticket.wait())
            .expect("live-deadline query is served");
        assert_eq!(out.ids(), vec![3]);
    }
}

/// A vector of `submit_with_deadline` tickets preserves input order even
/// when some resolve `Expired`: slot `i` of the result is query `i`'s
/// outcome, and every served slot carries its own query's fingerprint.
#[test]
fn batch_preserves_order_when_some_tickets_expire() {
    let _guard = scenario_lock();
    let engine = QueryEngine::new(probe(15), sched_options());
    // One 15 ms worker against a 40 ms budget for 8 queries: the head of
    // the batch is served, the tail expires in the queue.
    let queries: Vec<MultiModalQuery> = (1..=8)
        .map(|i| MultiModalQuery::text("x".repeat(i)))
        .collect();
    let deadline = Some(Deadline::in_us(40_000));
    let tickets: Vec<_> = queries
        .into_iter()
        .map(|q| engine.submit_with_deadline(q, 3, 16, deadline))
        .collect();
    let outcomes: Vec<_> = tickets
        .into_iter()
        .map(|ticket| ticket.and_then(|t| t.wait()))
        .collect();
    assert_eq!(outcomes.len(), 8, "one outcome slot per query");
    let mut served = 0usize;
    let mut expired = 0usize;
    for (i, got) in outcomes.iter().enumerate() {
        match got {
            Ok(out) => {
                assert_eq!(
                    out.results[0].dist,
                    (i + 1) as f32,
                    "slot {i} answered with another query's result"
                );
                served += 1;
            }
            Err(TicketError::Expired) | Err(TicketError::Rejected) => expired += 1,
            Err(e) => panic!("slot {i}: untyped outcome {e}"),
        }
    }
    assert_eq!(served + expired, 8, "every ticket resolved exactly once");
    assert!(served >= 1, "the batch head must beat a 40 ms budget");
    assert!(expired >= 1, "a 15 ms/query worker must shed the tail");
}

/// The shed fraction the instruments report equals the typed outcomes
/// callers observed — exactly, not approximately: every `Rejected` or
/// `Expired` outcome increments its counter once, and nothing else does.
#[test]
fn shed_counters_equal_observed_ticket_outcomes_exactly() {
    let _guard = scenario_lock();
    let rejected_before = mqa_obs::counter("engine.sched.shed_rejected").get();
    let expired_before = mqa_obs::counter("engine.sched.shed_expired").get();

    let engine = QueryEngine::new(probe(10), sched_options());
    let mut tickets = Vec::new();
    let mut submit_rejected = 0u64;
    let mut submit_expired = 0u64;
    // 24 submissions against watermark 4 and a 10 ms worker: some are
    // rejected at admission, some expire in the queue, the rest serve.
    for i in 0..24 {
        let deadline = Some(Deadline::in_us(if i % 6 == 5 { 0 } else { 60_000 }));
        match engine.submit_with_deadline(MultiModalQuery::text("q"), 1, 8, deadline) {
            Ok(t) => tickets.push(t),
            Err(TicketError::Rejected) => submit_rejected += 1,
            Err(TicketError::Expired) => submit_expired += 1,
            Err(e) => panic!("unexpected submit outcome {e}"),
        }
    }
    let mut served = 0u64;
    let mut wait_expired = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(_) => served += 1,
            Err(TicketError::Expired) => wait_expired += 1,
            Err(e) => panic!("unexpected wait outcome {e}"),
        }
    }
    drop(engine);

    let rejected = mqa_obs::counter("engine.sched.shed_rejected").get() - rejected_before;
    let expired = mqa_obs::counter("engine.sched.shed_expired").get() - expired_before;
    assert_eq!(
        rejected, submit_rejected,
        "shed_rejected must equal observed Rejected outcomes"
    );
    assert_eq!(
        expired,
        submit_expired + wait_expired,
        "shed_expired must equal observed Expired outcomes"
    );
    assert_eq!(
        served + submit_rejected + submit_expired + wait_expired,
        24,
        "every submission resolved to exactly one typed outcome"
    );
    assert!(
        submit_expired >= 1,
        "the zero-budget submissions must shed at submit"
    );
}

/// With admission control the admitted backlog *is* the watermark: one
/// job in service plus `watermark` queued, and every further submission
/// is `Rejected` on the spot — no second queue admits more behind it.
#[test]
fn admitted_backlog_is_the_watermark() {
    let _guard = scenario_lock();
    let rejected_before = mqa_obs::counter("engine.sched.shed_rejected").get();
    let f = gated();
    let engine = QueryEngine::new(Arc::<Probe>::clone(&f), sched_options());
    let mut outcomes = Vec::new();
    for i in 1..=12 {
        let query = MultiModalQuery::text("x".repeat(i));
        outcomes.push(engine.submit_with_deadline(query, 3, 16, None));
        // The worker is parked inside query 1 before the rest arrive.
        while f.calls.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
    }
    let rejected = mqa_obs::counter("engine.sched.shed_rejected").get() - rejected_before;
    // Everything observed; release the worker before any assertion can
    // fail, so a red run reports instead of hanging in the engine's drop.
    f.open();

    let admitted: Vec<usize> = (0..12).filter(|&i| outcomes[i].is_ok()).collect();
    assert_eq!(admitted, [0, 1, 2, 3, 4], "1 in service + 4 queued");
    assert!(
        outcomes[5..]
            .iter()
            .all(|got| matches!(got, Err(TicketError::Rejected))),
        "every submission past the watermark is Rejected"
    );
    assert_eq!(rejected, 7, "one shed_rejected per Rejected outcome");
    for (i, ticket) in outcomes.into_iter().take(5).enumerate() {
        let out = ticket.and_then(|t| t.wait()).expect("admitted work serves");
        assert_eq!(out.results[0].dist, (i + 1) as f32);
    }
    assert_eq!(*f.served.lock().unwrap(), [1, 2, 3, 4, 5], "FIFO service");
}

/// Without admission control a full queue is backpressure: the submitter
/// blocks at `queue_cap` (nothing is rejected) and every submission
/// completes once the worker drains.
#[test]
fn engine_without_admission_control_blocks_at_queue_cap() {
    let _guard = scenario_lock();
    let f = gated();
    let options = EngineOptions {
        workers: 1,
        queue_cap: 2,
        sched: None,
    };
    let engine = QueryEngine::new(Arc::<Probe>::clone(&f), options);
    let returned = AtomicUsize::new(0);
    let (returned_while_full, tickets) = std::thread::scope(|s| {
        let submitter = s.spawn(|| {
            let submit = |i| {
                let ticket = engine.submit(MultiModalQuery::text("x".repeat(i)), 3, 16);
                returned.fetch_add(1, Ordering::SeqCst);
                ticket
            };
            (1..=6).map(submit).collect::<Vec<_>>()
        });
        // 1 in service + 2 queued return; the 4th submit has no slot, and
        // stays blocked for as long as the worker is parked.
        while returned.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(30));
        let returned_while_full = returned.load(Ordering::SeqCst);
        f.open();
        (returned_while_full, submitter.join().unwrap())
    });
    assert_eq!(returned_while_full, 3, "the 4th submit must block");
    for (i, ticket) in tickets.into_iter().enumerate() {
        let out = ticket.expect("a blocking submit is never rejected").wait();
        assert_eq!(out.expect("served").results[0].dist, (i + 1) as f32);
    }
}
