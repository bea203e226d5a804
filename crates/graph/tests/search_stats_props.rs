//! Property tests for `SearchStats::merge`: over all five counter fields
//! the operation must be commutative and associative (with the default
//! record as identity), since the experiment harness folds per-query stats
//! in arbitrary grouping and order.

use mqa_graph::SearchStats;
use mqa_rng::StdRng;

fn random_stats(rng: &mut StdRng) -> SearchStats {
    SearchStats {
        hops: rng.gen_range(0..1_000_000u64),
        evals: rng.gen_range(0..1_000_000u64),
        pruned: rng.gen_range(0..1_000_000u64),
        pages_read: rng.gen_range(0..1_000_000u64),
        pages_cached: rng.gen_range(0..1_000_000u64),
        device_waits: rng.gen_range(0..1_000_000u64),
    }
}

fn merged(a: &SearchStats, b: &SearchStats) -> SearchStats {
    let mut out = *a;
    out.merge(b);
    out
}

#[test]
fn merge_is_commutative() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..200 {
        let a = random_stats(&mut rng);
        let b = random_stats(&mut rng);
        assert_eq!(merged(&a, &b), merged(&b, &a));
    }
}

#[test]
fn merge_is_associative() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..200 {
        let a = random_stats(&mut rng);
        let b = random_stats(&mut rng);
        let c = random_stats(&mut rng);
        assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c)),
            "grouping must not matter"
        );
    }
}

#[test]
fn default_is_merge_identity() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..50 {
        let a = random_stats(&mut rng);
        assert_eq!(merged(&a, &SearchStats::default()), a);
        assert_eq!(merged(&SearchStats::default(), &a), a);
    }
}

#[test]
fn total_distance_work_sums_completed_and_abandoned() {
    let s = SearchStats {
        hops: 3,
        evals: 10,
        pruned: 4,
        pages_read: 0,
        pages_cached: 0,
        device_waits: 0,
    };
    assert_eq!(s.total_distance_work(), 14);
    assert_eq!(SearchStats::default().total_distance_work(), 0);
}
