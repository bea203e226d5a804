//! Deadline semantics, end to end: expired-at-submit shedding, order
//! preservation across partially-shed batches, and exact agreement
//! between the `engine.sched.shed_*` instruments and the typed ticket
//! outcomes callers observe.
//!
//! The shed counters live in the global metrics registry, so every test
//! here serializes on [`scenario_lock`] and measures counter *deltas*.

use mqa_engine::{Deadline, EngineOptions, QueryEngine, SchedOptions, TicketError};
use mqa_retrieval::{FrameworkKind, MultiModalQuery, RetrievalFramework, RetrievalOutput};
use mqa_vector::Candidate;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn scenario_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Answers after a fixed delay with the query's text length as the
/// distance — enough to pin per-slot identity in batch outcomes.
struct SlowProbe {
    calls: AtomicUsize,
    delay: Duration,
}

impl RetrievalFramework for SlowProbe {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::Must
    }

    fn search(&self, query: &MultiModalQuery, k: usize, ef: usize) -> RetrievalOutput {
        mqa_graph::with_pooled(|scratch| self.search_scratch(query, k, ef, scratch))
    }

    fn search_scratch(
        &self,
        query: &MultiModalQuery,
        k: usize,
        _ef: usize,
        _scratch: &mut mqa_graph::SearchScratch,
    ) -> RetrievalOutput {
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
        "slow probe".into()
    }
}

fn probe(delay_ms: u64) -> Arc<SlowProbe> {
    Arc::new(SlowProbe {
        calls: AtomicUsize::new(0),
        delay: Duration::from_millis(delay_ms),
    })
}

fn sched_options() -> EngineOptions {
    EngineOptions::with_workers(1).with_sched(SchedOptions {
        watermark: 4,
        max_batch: 2,
    })
}

/// Property: a deadline that is already expired at submit time is shed
/// with typed `Expired` before any work happens — on both the scheduler
/// path and the direct path, for every budget, and the framework is
/// never invoked for the shed query.
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
        let engine = QueryEngine::new(Arc::<SlowProbe>::clone(&f), opts);
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
