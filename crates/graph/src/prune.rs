//! Neighbour-selection (edge pruning) strategies.
//!
//! This is the pipeline's third stage and where the navigation-graph family
//! members differ most: given a candidate pool around a vertex, choose a
//! bounded, *diverse* out-neighbour set. Diversity (not keeping two
//! candidates that cover the same direction) is what lets greedy routing
//! escape local neighbourhoods with few hops.
//!
//! Selection is where construction spends its distance evaluations, so
//! [`robust_prune`] and [`robust_reprune`] share one loop written in *pull*
//! form: each candidate, best first, is tested against the neighbours
//! already selected and the loop stops at the degree bound — nothing
//! ranked after the last pick is ever looked at.

use mqa_vector::{ops, Candidate, VecId, VectorStore};

/// Keeps the `r` nearest candidates — no diversification. The baseline
/// selection (and what a raw kNN graph amounts to). Sorts and deduplicates
/// `candidates` in place.
pub fn select_nearest(candidates: &mut Vec<Candidate>, r: usize) -> Vec<VecId> {
    candidates.sort_unstable();
    candidates.dedup_by_key(|c| c.id);
    candidates.iter().take(r).map(|c| c.id).collect()
}

#[cfg(test)]
thread_local! {
    /// Distance evaluations made by this thread's selection calls — what
    /// the work-pinning tests read.
    static DISTANCE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The one distance call site of the α-rule routines (counted under test).
#[inline]
fn distance(store: &VectorStore, a: VecId, b: VecId) -> f32 {
    #[cfg(test)]
    DISTANCE_CALLS.with(|c| c.set(c.get() + 1));
    ops::l2_sq(store.get(a), store.get(b))
}

/// The ids of `list` tagged with their distance to `v`.
pub(crate) fn candidates_of<'a>(
    store: &'a VectorStore,
    v: VecId,
    list: &'a [VecId],
) -> impl Iterator<Item = Candidate> + 'a {
    list.iter()
        .map(move |&w| Candidate::new(w, distance(store, v, w)))
}

/// The best-candidate-first selection loop under the α rule.
///
/// `pool` yields candidates around the vertex in ascending order, each
/// tagged *clean* or not. A candidate `q` is dropped when an already
/// selected `p` has `alpha · d(p, q) <= d(v, q)` — `q` is reachable
/// *through* `p`, so the direct edge is redundant. Selected neighbours are
/// tried in selection order and the first dominator ends the scan; a pair
/// of clean candidates is known not to dominate and is never evaluated.
fn select_undominated(
    store: &VectorStore,
    pool: impl Iterator<Item = (Candidate, bool)>,
    alpha: f32,
    r: usize,
) -> Vec<VecId> {
    let mut selected: Vec<VecId> = Vec::with_capacity(r);
    let mut selected_clean: Vec<bool> = Vec::with_capacity(r);
    for (q, q_clean) in pool {
        if selected.len() == r {
            break;
        }
        let dominated = selected.iter().zip(&selected_clean).any(|(&p, &p_clean)| {
            !(p_clean && q_clean) && alpha * distance(store, p, q.id) <= q.dist
        });
        if !dominated {
            selected.push(q.id);
            selected_clean.push(q_clean);
        }
    }
    selected
}

/// The α-robust pruning rule of Vamana/DiskANN; with `alpha = 1.0` it is
/// the MRNG rule NSG uses.
///
/// Walks the candidates by increasing distance and keeps one unless a
/// closer, already kept `p` has `alpha · d(p, q) <= d(v, q)`, until `r` are
/// kept. Larger `alpha` keeps more long edges (denser graph, easier
/// routing, more memory). The result is sorted by distance to `v` and
/// pairwise undominated — a *clean* list in [`crate::Adjacency`]'s terms.
/// Sorts and deduplicates `candidates` in place.
///
/// # Panics
/// Panics if `alpha < 1.0` (would prune the closest candidate's own
/// certificate) or `r == 0`.
pub fn robust_prune(
    store: &VectorStore,
    v: VecId,
    candidates: &mut Vec<Candidate>,
    alpha: f32,
    r: usize,
) -> Vec<VecId> {
    assert!(alpha >= 1.0, "robust prune requires alpha >= 1.0");
    assert!(r > 0, "robust prune requires r >= 1");
    candidates.sort_unstable();
    candidates.dedup_by_key(|c| c.id);
    candidates.retain(|c| c.id != v);
    let pool = candidates.iter().map(|&c| (c, false));
    select_undominated(store, pool, alpha, r)
}

/// [`robust_prune`] of `v`'s own out-list, given that its first `clean`
/// entries are the unmodified output of an earlier prune around `v` under
/// the same `alpha` (see [`crate::Adjacency::clean_len`]): returns exactly
/// what pruning the whole list from scratch would, without re-testing the
/// clean entries against each other. The common overflow — a full clean
/// list plus one reverse edge — costs one distance per entry plus at most
/// one test per clean entry, instead of one per pair.
///
/// `clean` only tags positions, so a forged record (even one past the list
/// length) cannot index out of bounds; it can only make the result differ
/// from a from-scratch prune, and [`crate::validate::check_clean_prefixes`]
/// reports it.
///
/// # Panics
/// As [`robust_prune`].
pub fn robust_reprune(
    store: &VectorStore,
    v: VecId,
    list: &[VecId],
    clean: usize,
    alpha: f32,
    r: usize,
) -> Vec<VecId> {
    assert!(alpha >= 1.0, "robust prune requires alpha >= 1.0");
    assert!(r > 0, "robust prune requires r >= 1");
    let mut pool: Vec<(Candidate, bool)> = candidates_of(store, v, list)
        .enumerate()
        .map(|(i, c)| (c, i < clean))
        .collect();
    pool.sort_unstable_by_key(|c| c.0);
    pool.dedup_by_key(|c| c.0.id);
    pool.retain(|c| c.0.id != v);
    select_undominated(store, pool.into_iter(), alpha, r)
}

/// HNSW's `SELECT-NEIGHBORS-HEURISTIC`: scan candidates by increasing
/// distance; keep one only if it is closer to `v` than to every neighbour
/// already kept.
pub fn hnsw_heuristic(
    store: &VectorStore,
    v: VecId,
    mut candidates: Vec<Candidate>,
    m: usize,
) -> Vec<VecId> {
    assert!(m > 0, "heuristic selection requires m >= 1");
    candidates.sort_unstable();
    candidates.dedup_by_key(|c| c.id);
    candidates.retain(|c| c.id != v);

    let mut selected: Vec<VecId> = Vec::with_capacity(m);
    for c in &candidates {
        if selected.len() == m {
            break;
        }
        let cv = store.get(c.id);
        let dominated = selected
            .iter()
            .any(|&s| ops::l2_sq(cv, store.get(s)) < c.dist);
        if !dominated {
            selected.push(c.id);
        }
    }
    // HNSW keeps discarded candidates as fallback to fill up to m.
    if selected.len() < m {
        for c in &candidates {
            if selected.len() == m {
                break;
            }
            if !selected.contains(&c.id) {
                selected.push(c.id);
            }
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points on a line: 0,1,2,...; candidate distances from v=0.
    fn line_store(n: usize) -> VectorStore {
        let mut s = VectorStore::new(1);
        for i in 0..n {
            s.push(&[i as f32]);
        }
        s
    }

    fn cands(store: &VectorStore, v: VecId, ids: &[VecId]) -> Vec<Candidate> {
        candidates_of(store, v, ids).collect()
    }

    #[test]
    fn select_nearest_takes_closest() {
        let store = line_store(10);
        let mut c = cands(&store, 0, &[5, 1, 9, 2]);
        assert_eq!(select_nearest(&mut c, 2), vec![1, 2]);
    }

    #[test]
    fn select_nearest_dedups() {
        let store = line_store(5);
        let mut c = cands(&store, 0, &[1, 2]);
        c.extend(cands(&store, 0, &[1]));
        assert_eq!(select_nearest(&mut c, 5), vec![1, 2]);
    }

    #[test]
    fn robust_prune_drops_collinear() {
        // On a line from v=0: candidates 1,2,3. 1 covers 2 and 3
        // (d(1,2)=1 <= d(0,2)=4), so only 1 survives with alpha=1.
        let store = line_store(4);
        let mut c = cands(&store, 0, &[1, 2, 3]);
        assert_eq!(robust_prune(&store, 0, &mut c, 1.0, 3), vec![1]);
    }

    #[test]
    fn robust_prune_keeps_diverse_directions() {
        // v at origin; candidates at +1 and -1 cannot cover each other.
        let mut store = VectorStore::new(1);
        store.push(&[0.0]); // v = 0
        store.push(&[1.0]);
        store.push(&[-1.0]);
        let mut c = cands(&store, 0, &[1, 2]);
        let sel = robust_prune(&store, 0, &mut c, 1.0, 4);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn higher_alpha_keeps_more_edges() {
        let store = line_store(6);
        let mut c = cands(&store, 0, &[1, 2, 3, 4, 5]);
        let strict = robust_prune(&store, 0, &mut c, 1.0, 5);
        let loose = robust_prune(&store, 0, &mut c, 2.0, 5);
        assert!(loose.len() >= strict.len());
    }

    #[test]
    fn robust_prune_respects_degree_cap() {
        let mut store = VectorStore::new(2);
        store.push(&[0.0, 0.0]);
        // diverse directions so nothing is pruned by the rule itself
        store.push(&[1.0, 0.0]);
        store.push(&[-1.0, 0.0]);
        store.push(&[0.0, 1.0]);
        store.push(&[0.0, -1.0]);
        let mut c = cands(&store, 0, &[1, 2, 3, 4]);
        assert_eq!(robust_prune(&store, 0, &mut c, 1.0, 2).len(), 2);
    }

    #[test]
    fn robust_prune_excludes_self() {
        let store = line_store(3);
        let mut c = cands(&store, 0, &[0, 1]);
        assert_eq!(robust_prune(&store, 0, &mut c, 1.0, 3), vec![1]);
    }

    #[test]
    #[should_panic(expected = "alpha >= 1.0")]
    fn alpha_below_one_panics() {
        let store = line_store(2);
        robust_prune(&store, 0, &mut vec![], 0.5, 1);
    }

    /// The selection routine as it stood before the pull-form rewrite,
    /// kept as the oracle: every committed neighbour scans the whole
    /// remaining pool and marks what it dominates. Its distance calls go
    /// through the same counted [`distance`] so work can be compared.
    fn robust_prune_push_form(
        store: &VectorStore,
        v: VecId,
        mut candidates: Vec<Candidate>,
        alpha: f32,
        r: usize,
    ) -> Vec<VecId> {
        candidates.sort_unstable();
        candidates.dedup_by_key(|c| c.id);
        candidates.retain(|c| c.id != v);
        let mut selected: Vec<VecId> = Vec::with_capacity(r);
        let mut alive = vec![true; candidates.len()];
        for i in 0..candidates.len() {
            let p = candidates[i];
            if !alive[i] {
                continue;
            }
            selected.push(p.id);
            if selected.len() == r {
                break;
            }
            for (j, q) in candidates.iter().enumerate().skip(i + 1) {
                if alive[j] && alpha * distance(store, p.id, q.id) <= q.dist {
                    alive[j] = false;
                }
            }
        }
        selected
    }

    /// Runs `f` and returns its result with the distance calls it made.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = DISTANCE_CALLS.with(std::cell::Cell::get);
        let out = f();
        (out, DISTANCE_CALLS.with(std::cell::Cell::get) - before)
    }

    /// A store whose coordinates sit on a coarse integer grid (so distance
    /// ties and coincident points are common) when `grid`, else in general
    /// position.
    fn seeded_store(rng: &mut mqa_rng::StdRng, n: usize, dim: usize, grid: bool) -> VectorStore {
        let mut s = VectorStore::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim)
                .map(|_| {
                    if grid {
                        rng.gen_range(0..4) as f32
                    } else {
                        rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect();
            s.push(&v);
        }
        s
    }

    /// A pool around `v` drawn with replacement (duplicate ids), sometimes
    /// holding `v` itself, sometimes one id under two different distances
    /// (so the copies are not adjacent after the sort).
    fn seeded_pool(rng: &mut mqa_rng::StdRng, store: &VectorStore, v: VecId) -> Vec<Candidate> {
        let n = store.len();
        let len = rng.gen_range(0..3 * n);
        let mut ids: Vec<VecId> = (0..len).map(|_| rng.gen_range(0..n) as VecId).collect();
        if rng.gen_range(0..2) == 0 {
            ids.push(v);
        }
        let mut pool = cands(store, v, &ids);
        if let (true, Some(first)) = (rng.gen_range(0..4) == 0, pool.first().copied()) {
            pool.push(Candidate::new(first.id, first.dist + 1.0));
        }
        pool
    }

    #[test]
    fn pull_form_equals_push_form_with_no_more_work() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9011);
        let (mut pools, mut pull_total, mut push_total) = (0usize, 0u64, 0u64);
        for case in 0..90 {
            let n = rng.gen_range(2usize..60);
            let store = seeded_store(&mut rng, n, 1 + case % 5, case % 2 == 0);
            let v = rng.gen_range(0..n) as VecId;
            let pool = seeded_pool(&mut rng, &store, v);
            for alpha in [1.0f32, 1.2, 2.0] {
                for r in [1usize, 4, 24, pool.len() + 1] {
                    let (want, push) =
                        counted(|| robust_prune_push_form(&store, v, pool.clone(), alpha, r));
                    let (got, pull) =
                        counted(|| robust_prune(&store, v, &mut pool.clone(), alpha, r));
                    assert_eq!(got, want, "case {case}, alpha {alpha}, r {r}");
                    assert!(pull <= push, "case {case}: pull {pull} > push {push} calls");
                    pools += 1;
                    pull_total += pull;
                    push_total += push;
                }
            }
        }
        assert!(pools >= 1000, "only {pools} pools compared");
        // Not merely "no more": nothing ranked after the last pick is
        // looked at, so whenever the bound is reached early the total is
        // strictly lower (the line that fails if the push form comes back).
        assert!(
            pull_total < push_total,
            "pull form made {pull_total} calls, push form {push_total}"
        );
    }

    /// A construction-shaped pool: ~450 candidates around a vertex in 16
    /// dimensions pruned to 24 — the case the refinement loop runs 2 000
    /// times per build.
    #[test]
    fn pull_form_halves_the_work_on_a_construction_sized_pool() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9012);
        let store = seeded_store(&mut rng, 451, 16, false);
        let ids: Vec<VecId> = (1..451).collect();
        let pool = cands(&store, 0, &ids);
        let (want, push) = counted(|| robust_prune_push_form(&store, 0, pool.clone(), 1.2, 24));
        let (got, pull) = counted(|| robust_prune(&store, 0, &mut pool.clone(), 1.2, 24));
        assert_eq!(got, want);
        assert_eq!(got.len(), 24);
        assert!(pull * 2 <= push, "pull {pull} vs push {push} calls");
    }

    /// The common reverse-edge overflow: a full clean list plus one new
    /// edge. One distance per entry to rank them, then only pairs that
    /// involve the new entry.
    #[test]
    fn one_dirty_entry_reprunes_in_linear_work() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9013);
        let store = seeded_store(&mut rng, 400, 16, false);
        let mut checked = 0usize;
        for v in 0..100 as VecId {
            let ids: Vec<VecId> = (0..300).filter(|&u| u != v).collect();
            let mut list = robust_prune(&store, v, &mut cands(&store, v, &ids), 1.2, 24);
            if list.len() < 24 {
                continue;
            }
            for extra in 300..310 as VecId {
                list.push(extra);
                let (got, calls) = counted(|| robust_reprune(&store, v, &list, 24, 1.2, 24));
                assert!(calls <= 49, "24 clean + 1 dirty cost {calls} calls");
                let (want, scratch_calls) =
                    counted(|| robust_prune(&store, v, &mut cands(&store, v, &list), 1.2, 24));
                assert_eq!(got, want, "vertex {v}, extra {extra}");
                assert!(scratch_calls > 49, "from scratch is the dearer route");
                list.pop();
                checked += 1;
            }
        }
        assert!(checked >= 100, "only {checked} full lists exercised");
    }

    #[test]
    fn reprune_equals_from_scratch_for_any_dirty_tail() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9014);
        for case in 0..300 {
            let n = rng.gen_range(8usize..80);
            let store = seeded_store(&mut rng, n, 2 + case % 4, case % 3 == 0);
            let v = rng.gen_range(0..n) as VecId;
            let alpha = [1.0f32, 1.2, 2.0][case % 3];
            let r = [1usize, 4, 24][case % 3];
            let first = seeded_pool(&mut rng, &store, v);
            let mut list = robust_prune(&store, v, &mut first.clone(), alpha, r);
            let clean = list.len();
            for _ in 0..rng.gen_range(0..6) {
                let u = rng.gen_range(0..n) as VecId;
                if u != v && !list.contains(&u) {
                    list.push(u);
                }
            }
            let got = robust_reprune(&store, v, &list, clean, alpha, r);
            let want = robust_prune(&store, v, &mut cands(&store, v, &list), alpha, r);
            assert_eq!(got, want, "case {case}");
        }
    }

    /// A clean length that lies (longer than the list, or covering dirty
    /// entries) can cost the diversity guarantee but must not panic or
    /// break the shape of the result.
    #[test]
    fn forged_clean_length_cannot_panic_the_reprune() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9015);
        let store = seeded_store(&mut rng, 30, 3, true);
        let list: Vec<VecId> = (1..30).collect();
        for clean in [0usize, 7, 29, 30, usize::MAX] {
            let got = robust_reprune(&store, 0, &list, clean, 1.2, 8);
            assert!(!got.is_empty() && got.len() <= 8);
            assert!(got.iter().all(|u| list.contains(u)));
        }
        assert!(robust_reprune(&store, 0, &[], 5, 1.2, 8).is_empty());
    }

    #[test]
    fn heuristic_prefers_diversity_then_fills() {
        // v=0; candidates 1 (near), 2 (collinear behind 1), -1 direction.
        let mut store = VectorStore::new(1);
        store.push(&[0.0]);
        store.push(&[1.0]);
        store.push(&[2.0]);
        store.push(&[-1.5]);
        let c = cands(&store, 0, &[1, 2, 3]);
        let sel = hnsw_heuristic(&store, 0, c, 3);
        // 1 kept; 2 dominated by 1 but refilled afterwards; 3 kept (diverse)
        assert_eq!(sel[0], 1);
        assert!(sel.contains(&3));
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn heuristic_cap() {
        let store = line_store(10);
        let c = cands(&store, 0, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(hnsw_heuristic(&store, 0, c, 2).len(), 2);
    }
}
