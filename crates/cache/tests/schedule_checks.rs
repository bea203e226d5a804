//! Deterministic-schedule model checks for one cache shard.
//!
//! `mqa-check` drives concurrent `touch` traffic on a tiny shard through
//! seeded interleavings, so insert/evict races that the OS scheduler
//! would need millions of runs to produce are explored directly — and
//! any failure replays from its seed.

use mqa_cache::{CacheShard, ProbeCore, Touch};
use mqa_check::{run_schedule, CheckOptions, ThreadBody};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn opts() -> CheckOptions {
    CheckOptions {
        stuck_timeout: Duration::from_millis(150),
        ..CheckOptions::default()
    }
}

/// Bookkeeping shared by the model's threads.
#[derive(Default)]
struct Tally {
    hits: AtomicU64,
    misses: AtomicU64,
    admitted: AtomicU64,
    evictions: AtomicU64,
}

/// Three threads hammer overlapping keys on a capacity-2 shard. In every
/// explored interleaving the shard's accounting must balance: a miss
/// admits at most one entry (none when the key loses the frequency
/// comparison), each eviction removes exactly one and only to make room
/// for an admission, so `admitted - evictions == len` and residency
/// never exceeds capacity.
#[test]
fn insert_evict_races_keep_accounting_balanced() {
    let mut traces = std::collections::HashSet::new();
    for seed in 0xCAC4_E001_u64..0xCAC4_E001 + 150 {
        let shard = Arc::new(CacheShard::new(ProbeCore::new(2)));
        let tally = Arc::new(Tally::default());
        let mut bodies: Vec<ThreadBody> = Vec::new();
        for t in 0..3u64 {
            let shard = Arc::clone(&shard);
            let tally = Arc::clone(&tally);
            bodies.push(Box::new(move |token| {
                // Overlapping key sets: thread t touches {t, t+1, t+2}.
                for key in t..t + 3 {
                    token.step();
                    let Touch {
                        hit,
                        admitted,
                        evicted,
                    } = shard.touch(key);
                    assert!(!(hit && admitted), "a hit admits nothing");
                    assert!(admitted || !evicted, "evicted for a rejected key");
                    if hit {
                        tally.hits.fetch_add(1, Ordering::SeqCst);
                    } else {
                        tally.misses.fetch_add(1, Ordering::SeqCst);
                    }
                    if admitted {
                        tally.admitted.fetch_add(1, Ordering::SeqCst);
                    }
                    if evicted {
                        tally.evictions.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }

        let outcome = run_schedule(seed, &opts(), bodies);
        assert!(outcome.is_ok(), "seed {seed} failed: {:?}", outcome.failure);
        let hits = tally.hits.load(Ordering::SeqCst);
        let misses = tally.misses.load(Ordering::SeqCst);
        let admitted = tally.admitted.load(Ordering::SeqCst);
        let evictions = tally.evictions.load(Ordering::SeqCst);
        assert_eq!(hits + misses, 9, "every touch reports hit xor miss");
        assert!(admitted <= misses, "only a miss admits (seed {seed})");
        assert!(shard.len() <= 2, "capacity exceeded (seed {seed})");
        assert_eq!(
            admitted - evictions,
            shard.len() as u64,
            "admissions minus evictions must equal residency \
             (seed {seed}, trace {:?})",
            outcome.trace
        );
        traces.insert(outcome.trace);
    }
    assert!(
        traces.len() >= 40,
        "sweep barely explored: {}",
        traces.len()
    );
}

/// The same seed must replay to the same interleaving and therefore the
/// same hit/miss totals — the property that makes a failing seed a
/// reproducible bug report.
#[test]
fn same_seed_replays_to_identical_counts() {
    let run = |seed: u64| {
        let shard = Arc::new(CacheShard::new(ProbeCore::new(2)));
        let hits = Arc::new(AtomicU64::new(0));
        let mut bodies: Vec<ThreadBody> = Vec::new();
        for t in 0..3u64 {
            let shard = Arc::clone(&shard);
            let hits = Arc::clone(&hits);
            bodies.push(Box::new(move |token| {
                for key in t..t + 3 {
                    token.step();
                    if shard.touch(key).hit {
                        hits.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        let outcome = run_schedule(seed, &opts(), bodies);
        assert!(outcome.is_ok(), "seed {seed}: {:?}", outcome.failure);
        (outcome.trace, hits.load(Ordering::SeqCst))
    };
    for seed in [1u64, 7, 42, 0xCAFE] {
        let (trace_a, hits_a) = run(seed);
        let (trace_b, hits_b) = run(seed);
        assert_eq!(trace_a, trace_b, "seed {seed} replayed a different trace");
        assert_eq!(hits_a, hits_b, "seed {seed} replayed different hit counts");
    }
}

/// Exactly-one-admission: when every thread touches the *same* key, one
/// interleaving position gets the miss and everyone else must hit — in
/// every explored schedule. A racy admit-check-insert would double-count
/// the miss; a lost insert would surface as a second miss.
#[test]
fn single_key_admitted_exactly_once_across_schedules() {
    let mut traces = std::collections::HashSet::new();
    for seed in 0xCAC4_E777_u64..0xCAC4_E777 + 120 {
        let shard = Arc::new(CacheShard::new(ProbeCore::new(2)));
        let misses = Arc::new(AtomicU64::new(0));
        let mut bodies: Vec<ThreadBody> = Vec::new();
        for _ in 0..3 {
            let shard = Arc::clone(&shard);
            let misses = Arc::clone(&misses);
            bodies.push(Box::new(move |token| {
                for _ in 0..3 {
                    token.step();
                    if !shard.touch(7).hit {
                        misses.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        let outcome = run_schedule(seed, &opts(), bodies);
        assert!(outcome.is_ok(), "seed {seed} failed: {:?}", outcome.failure);
        assert_eq!(
            misses.load(Ordering::SeqCst),
            1,
            "the key must be admitted exactly once (seed {seed}, trace {:?})",
            outcome.trace
        );
        assert_eq!(shard.len(), 1);
        traces.insert(outcome.trace);
    }
    assert!(
        traces.len() >= 40,
        "sweep barely explored: {}",
        traces.len()
    );
}
