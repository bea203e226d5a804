//! Deterministic-schedule regression tests for the engine primitives.
//!
//! Every test sweeps seeded interleavings with `mqa-check`: thread
//! bodies yield at `step()` and wrap genuinely blocking engine calls in
//! `blocking()`, so the scheduler explores grant orders the OS would
//! almost never produce and converts any hang into a replayable
//! `Failure::Stuck { seed }` instead of a wedged test run.

use mqa_check::{explore, run_schedule, CheckOptions, Failure, ThreadBody};
use mqa_engine::{oneshot, BoundedQueue, TicketError, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn opts() -> CheckOptions {
    CheckOptions {
        stuck_timeout: Duration::from_millis(150),
        ..CheckOptions::default()
    }
}

/// Regression (shutdown edge 1): `close()` racing a blocked `push` never
/// loses an accepted job — every `Ok` push is eventually popped, every
/// refused push hands the item back via `Closed`.
#[test]
fn close_racing_blocked_push_never_loses_accepted_jobs() {
    let mut traces = std::collections::HashSet::new();
    for seed in 0x5EED_0001u64..0x5EED_0001 + 120 {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let accepted = Arc::new(AtomicUsize::new(0));
        let popped = Arc::new(AtomicUsize::new(0));
        let mut bodies: Vec<ThreadBody> = Vec::new();

        for p in 0..2u32 {
            let q = Arc::clone(&q);
            let accepted = Arc::clone(&accepted);
            bodies.push(Box::new(move |token| {
                for i in 0..2u32 {
                    token.step();
                    if token.blocking(|| q.push(p * 10 + i)).is_ok() {
                        accepted.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        {
            let q = Arc::clone(&q);
            bodies.push(Box::new(move |token| {
                token.step();
                q.close();
            }));
        }
        {
            let q = Arc::clone(&q);
            let popped = Arc::clone(&popped);
            bodies.push(Box::new(move |token| loop {
                token.step();
                if token.blocking(|| q.pop()).is_none() {
                    break;
                }
                popped.fetch_add(1, Ordering::SeqCst);
            }));
        }

        // The invariant is checked here, after every thread finished, so
        // producer bookkeeping cannot race the check itself.
        let outcome = run_schedule(seed, &opts(), bodies);
        assert!(outcome.is_ok(), "seed {seed} failed: {:?}", outcome.failure);
        assert_eq!(
            popped.load(Ordering::SeqCst),
            accepted.load(Ordering::SeqCst),
            "an accepted push vanished across close() (replay seed {seed}, trace {:?})",
            outcome.trace
        );
        traces.insert(outcome.trace);
    }
    assert!(
        traces.len() >= 60,
        "sweep barely explored: {}",
        traces.len()
    );
}

/// Regression (shutdown edge 2): a worker panic mid-job surfaces
/// `Canceled` on the ticket instead of hanging `wait()`, and the worker
/// survives to serve the job queued behind it.
///
/// The pool's worker is a real thread outside the checker, so this test
/// orders it with gates instead of a wall-clock window: the job panics
/// only once the `opener` body — scheduled like any other thread, so the
/// seed decides whether that is before, between or after the two submits
/// — opens its gate, and the submitter learns the unwind is over from the
/// queued job reporting that it started (one worker, FIFO queue). Both
/// tickets are therefore only waited on once they must already have
/// resolved, and a `wait()` that blocks at all is the defect.
///
/// History: the earlier form waited on the panicking job's ticket inside
/// `blocking()` against the shared 150 ms `stuck_timeout` and failed about
/// one run in six. That was the timeout alone, not a late resolution: the
/// ticket resolves when the unwind drops the job's sender, which is after
/// the panic hook has run, and with `RUST_BACKTRACE=1` the first panic of
/// a process symbolises a backtrace on the worker — 55–77 ms on an idle
/// host against ~1 ms for every later one (and ≤ 3 ms with backtraces
/// off), enough to cross 150 ms once other tests share the two cores.
/// The timeout left here only turns a genuine hang into `Failure::Stuck`.
#[test]
fn worker_panic_cancels_ticket_instead_of_hanging() {
    use std::sync::mpsc;

    let make = || -> Vec<ThreadBody> {
        let (open_gate, gate) = mpsc::channel::<()>();
        let submitter: ThreadBody = Box::new(move |token| {
            let pool = WorkerPool::new(1, 4);
            let (panicked_ticket, sender) = oneshot::<u32>();
            token.step();
            pool.submit(Box::new(move || {
                let _carry_into_job = sender;
                // Opened or abandoned, the job panics all the same.
                let _ = gate.recv();
                panic!("deliberate mid-job panic");
            }))
            .expect("healthy pool must accept work");

            let (queued_ticket, queued_sender) = oneshot::<u32>();
            let (started, queued_job_started) = mpsc::channel::<()>();
            token.step();
            pool.submit(Box::new(move || {
                let _ = started.send(());
                queued_sender.send(5);
            }))
            .expect("queue has capacity");

            token.step();
            token
                .blocking(|| queued_job_started.recv())
                .expect("the worker must outlive the panic and reach the backlog");
            assert_eq!(panicked_ticket.wait(), Err(TicketError::Canceled));
            drop(pool);
            assert_eq!(queued_ticket.wait(), Ok(5));
        });
        let opener: ThreadBody = Box::new(move |token| {
            token.step();
            let _ = open_gate.send(());
        });
        vec![submitter, opener]
    };
    let hang_only = CheckOptions {
        stuck_timeout: Duration::from_secs(60),
        ..opts()
    };
    let report = explore(0x5EED_0002, 20, &hang_only, make);
    assert!(report.all_ok(), "worker-panic edge: {}", report.failures[0]);
    assert!(
        report.distinct_traces >= 3,
        "the gate must open before, between and after the submits: {} orders",
        report.distinct_traces
    );
}

/// A `TicketSender` consumed racing `Ticket::wait` resolves the waiter to
/// exactly the outcome it was consumed with: `Canceled` when dropped
/// unfulfilled, the typed error when failed — never a hang, never a
/// phantom value.
#[test]
fn sender_drop_racing_wait_always_cancels() {
    for fail in [None, Some(TicketError::Expired)] {
        let expect = fail.unwrap_or(TicketError::Canceled);
        let make = || -> Vec<ThreadBody> {
            let (ticket, sender) = oneshot::<u32>();
            vec![
                Box::new(move |token| {
                    token.step();
                    assert_eq!(token.blocking(|| ticket.wait()), Err(expect));
                }),
                Box::new(move |token| {
                    token.step();
                    match fail {
                        Some(err) => sender.fail(err),
                        None => drop(sender),
                    }
                }),
            ]
        };
        let report = explore(0x5EED_0003, 60, &opts(), make);
        assert!(report.all_ok(), "{expect:?} race: {}", report.failures[0]);
    }
}

/// The coverage gate from the issue: a producer/consumer/closer pipeline
/// over `BoundedQueue` + `Ticket` must reach >= 200 distinct schedules in
/// under 30 s, holding the end-to-end invariant (accepted work is
/// answered, refused work is canceled) in every one of them.
#[test]
fn pipeline_sweep_reaches_200_distinct_schedules() {
    let make = || -> Vec<ThreadBody> {
        let q: Arc<BoundedQueue<mqa_engine::TicketSender<u32>>> = Arc::new(BoundedQueue::new(2));
        let mut bodies: Vec<ThreadBody> = Vec::new();

        for _ in 0..2 {
            let q = Arc::clone(&q);
            bodies.push(Box::new(move |token| {
                for _ in 0..2 {
                    token.step();
                    let (ticket, sender) = oneshot::<u32>();
                    let accepted = token.blocking(|| q.push(sender)).is_ok();
                    let got = token.blocking(|| ticket.wait());
                    if accepted {
                        assert_eq!(got, Ok(7), "accepted work must be answered");
                    } else {
                        assert_eq!(
                            got,
                            Err(TicketError::Canceled),
                            "refused work must cancel, not hang"
                        );
                    }
                }
            }));
        }
        for _ in 0..2 {
            let q = Arc::clone(&q);
            bodies.push(Box::new(move |token| {
                while let Some(sender) = token.blocking(|| q.pop()) {
                    token.step();
                    sender.send(7);
                }
            }));
        }
        {
            let q = Arc::clone(&q);
            bodies.push(Box::new(move |token| {
                token.step();
                token.step();
                q.close();
            }));
        }
        bodies
    };

    let started = Instant::now();
    let report = explore(0x5EED_0004, 240, &opts(), make);
    let elapsed = started.elapsed();
    assert!(
        report.all_ok(),
        "pipeline invariant broke: {}",
        report.failures[0]
    );
    assert!(
        report.distinct_traces >= 200,
        "only {} distinct schedules (need >= 200)",
        report.distinct_traces
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "sweep took {elapsed:?} (budget 30s)"
    );
}

/// Publish-while-search coverage for the online-mutation path: a single
/// writer inserting and tombstoning objects while two searchers run must
/// (a) never surface an object that was dead before the schedule started,
/// (b) show each reader a non-decreasing epoch, and (c) land on the exact
/// scripted end state regardless of interleaving — swept across >= 200
/// distinct seeded schedules.
#[test]
fn publish_while_search_never_surfaces_dead_objects() {
    use mqa_graph::{IndexAlgorithm, UnifiedIndex};
    use mqa_vector::{Metric, MultiVector, MultiVectorStore, Schema, Weights};

    let schema = Schema::text_image(4, 4);
    let object = |tag: usize| -> MultiVector {
        let part = |m: usize| -> Vec<f32> {
            (0..4usize)
                .map(|d| ((tag * 31 + m * 13 + d * 7) % 17) as f32 / 17.0 - 0.5)
                .collect()
        };
        MultiVector::complete(&schema, vec![part(0), part(1)])
    };

    let mut traces = std::collections::HashSet::new();
    for seed in 0x5EED_0006u64..0x5EED_0006 + 240 {
        let mut store = MultiVectorStore::new(schema.clone());
        for i in 0..48 {
            store.push(&object(i));
        }
        let idx = Arc::new(UnifiedIndex::build(
            store,
            Weights::normalized(&[1.0, 1.0]),
            Metric::L2,
            &IndexAlgorithm::mqa_graph(),
        ));
        // Dead before the schedule starts; ids are never reclaimed, so no
        // interleaving may ever surface them again.
        idx.remove_objects(&[1, 5]).expect("pre-kill");

        let mut bodies: Vec<ThreadBody> = Vec::new();
        {
            let idx = Arc::clone(&idx);
            let fresh: Vec<MultiVector> = (100..102).map(object).collect();
            bodies.push(Box::new(move |token| {
                token.step();
                idx.add_objects(&fresh[..1]).expect("insert batch 1");
                token.step();
                idx.remove_objects(&[2]).expect("tombstone 2");
                token.step();
                idx.add_objects(&fresh[1..]).expect("insert batch 2");
                token.step();
                idx.remove_objects(&[7]).expect("tombstone 7");
            }));
        }
        for _ in 0..2 {
            let idx = Arc::clone(&idx);
            let query = object(3);
            bodies.push(Box::new(move |token| {
                let mut last_epoch = 0u64;
                for _ in 0..3 {
                    token.step();
                    let pinned = idx.current();
                    assert!(
                        pinned.epoch() >= last_epoch,
                        "epoch went backwards: {last_epoch} -> {}",
                        pinned.epoch()
                    );
                    last_epoch = pinned.epoch();
                    let ids = idx.search(&query, None, 5, 24).ids();
                    assert!(!ids.is_empty(), "live objects must keep answering");
                    assert!(
                        ids.iter().all(|&id| id != 1 && id != 5),
                        "schedule surfaced a pre-killed object: {ids:?}"
                    );
                }
            }));
        }

        let outcome = run_schedule(seed, &opts(), bodies);
        assert!(outcome.is_ok(), "seed {seed} failed: {:?}", outcome.failure);
        // End state is interleaving-independent: 1 pre-kill publish + 4
        // writer publishes; 48 seeded + 2 inserted slots, 4 tombstoned.
        assert_eq!(idx.epoch(), 5, "replay seed {seed}");
        assert_eq!(idx.len(), 50, "replay seed {seed}");
        assert_eq!(idx.live_len(), 46, "replay seed {seed}");
        traces.insert(outcome.trace);
    }
    assert!(
        traces.len() >= 200,
        "only {} distinct schedules (need >= 200)",
        traces.len()
    );
}

/// The checker catches a reintroduced lost wakeup: this queue copy is the
/// real `BoundedQueue` close path with `notify_one` in place of
/// `notify_all` — with two consumers parked in `pop`, close wakes only
/// one and the other sleeps forever. The sweep must report `Stuck` with
/// a seed that replays to the same failure.
#[test]
fn lost_wakeup_on_close_is_caught_with_replayable_seed() {
    use std::sync::{Condvar, Mutex};

    struct BuggyQueue {
        state: Mutex<(Vec<u32>, bool)>,
        not_empty: Condvar,
    }

    impl BuggyQueue {
        fn new() -> Self {
            Self {
                state: Mutex::new((Vec::new(), false)),
                not_empty: Condvar::new(),
            }
        }

        fn pop(&self) -> Option<u32> {
            let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = s.0.pop() {
                    return Some(v);
                }
                if s.1 {
                    return None;
                }
                s = self.not_empty.wait(s).unwrap_or_else(|p| p.into_inner());
            }
        }

        fn close(&self) {
            let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
            s.1 = true;
            // THE BUG: `notify_one` strands every waiter but the first.
            self.not_empty.notify_one();
        }
    }

    let make = || -> Vec<ThreadBody> {
        let q = Arc::new(BuggyQueue::new());
        let mut bodies: Vec<ThreadBody> = Vec::new();
        for _ in 0..2 {
            let q = Arc::clone(&q);
            bodies.push(Box::new(move |token| {
                let _ = token.blocking(|| q.pop());
            }));
        }
        {
            let q = Arc::clone(&q);
            bodies.push(Box::new(move |token| {
                token.step();
                token.step();
                q.close();
            }));
        }
        bodies
    };

    let sweep_opts = CheckOptions {
        stuck_timeout: Duration::from_millis(80),
        ..CheckOptions::default()
    };
    let report = explore(0x5EED_0005, 60, &sweep_opts, make);
    let failure = report
        .failures
        .first()
        .expect("a 60-seed sweep must reach the both-consumers-parked interleaving");
    assert!(
        matches!(failure.failure, Failure::Stuck { .. }),
        "expected Stuck, got {failure}"
    );

    let replay = run_schedule(failure.seed, &sweep_opts, make());
    assert!(
        matches!(replay.failure, Some(Failure::Stuck { .. })),
        "failing seed {} did not replay to Stuck: {:?}",
        failure.seed,
        replay.failure
    );
}

/// Pin for the `BoundedQueue::pop` wakeup protocol (the `// INVARIANT:`
/// discharge at the `notify_one` site): with N>1 pushers blocked on a
/// full queue, K pops must deliver K wakeups to K *distinct* pushers —
/// a lost wakeup would strand a pusher and the schedule would report
/// `Stuck`. Swept across >= 200 distinct seeded interleavings.
#[test]
fn wakeup_protocol_survives_multiple_blocked_pushers() {
    let mut traces = std::collections::HashSet::new();
    for seed in 0x5EED_0007u64..0x5EED_0007 + 260 {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        q.try_push(0).expect("seed item fills the queue");
        let accepted = Arc::new(AtomicUsize::new(0));
        let mut bodies: Vec<ThreadBody> = Vec::new();

        // Three pushers contend for a single slot: at most one can be in
        // the buffer at a time, so up to three sit blocked in `push`
        // together and each freed slot must wake a distinct one.
        for p in 1..=3u32 {
            let q = Arc::clone(&q);
            let accepted = Arc::clone(&accepted);
            bodies.push(Box::new(move |token| {
                token.step();
                if token.blocking(|| q.push(p)).is_ok() {
                    accepted.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        {
            let q = Arc::clone(&q);
            bodies.push(Box::new(move |token| {
                for _ in 0..4 {
                    token.step();
                    assert!(
                        token.blocking(|| q.pop()).is_some(),
                        "open queue with a pending push must pop"
                    );
                }
            }));
        }

        let outcome = run_schedule(seed, &opts(), bodies);
        assert!(
            outcome.is_ok(),
            "lost wakeup under blocked pushers (replay seed {seed}): {:?}",
            outcome.failure
        );
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            3,
            "every blocked pusher must eventually be admitted (seed {seed})"
        );
        traces.insert(outcome.trace);
    }
    assert!(
        traces.len() >= 200,
        "only {} distinct schedules (need >= 200)",
        traces.len()
    );
}
