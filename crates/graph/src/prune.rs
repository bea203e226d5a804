//! Neighbour-selection (edge pruning) strategies.
//!
//! This is the pipeline's third stage and where the navigation-graph family
//! members differ most: given a candidate pool around a vertex, choose a
//! bounded, *diverse* out-neighbour set. Diversity (not keeping two
//! candidates that cover the same direction) is what lets greedy routing
//! escape local neighbourhoods with few hops.
//!
//! Selection is where construction spends its distance evaluations, so
//! both rules — the α rule of [`robust_prune`] and HNSW's
//! [`hnsw_heuristic`] — and both of their re-prunes share one loop written
//! in *pull* form: each candidate, best first, is tested against the
//! neighbours already selected, and the loop stops at the degree bound:
//! nothing ranked after the last pick is ever looked at. A re-prune of a
//! held list ([`Reprune`]) tags each entry with what the list's records
//! say of it ([`crate::Adjacency::clean_len`],
//! [`crate::Adjacency::filler_len`]) and skips every test whose answer the
//! prune that installed the list already established. Every routine
//! returns its picks with their distances from the vertex, which
//! [`crate::Adjacency`] stores beside the edges, so a list re-pruned later
//! is ranked without evaluating a distance.

use mqa_vector::{ops, Candidate, VecId, VectorStore};

thread_local! {
    /// Selection and ranking distances this thread computed since its last
    /// [`record_construction`] — what the work-pinning tests read.
    static DISTANCE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The one distance call site of selection and ranking (counted).
#[inline]
pub(crate) fn distance(store: &VectorStore, a: VecId, b: VecId) -> f32 {
    DISTANCE_CALLS.with(|c| c.set(c.get() + 1));
    ops::l2_sq(store.get(a), store.get(b))
}

/// Adds one construction step's distance evaluations — `walk_evals` from
/// its searches plus this thread's selection and ranking distances since
/// the last step — to `graph.construct.distance_evals`. Called once per
/// link, repair attachment or rewired vertex, never once per distance.
pub(crate) fn record_construction(walk_evals: u64) {
    let selected = DISTANCE_CALLS.with(|c| c.replace(0));
    ConstructionCounter::get().evals.add(walk_evals + selected);
}

/// The counter [`record_construction`] writes, resolved once per process
/// (the `search.rs` idiom): a step is one relaxed add, with no registry
/// lookup.
struct ConstructionCounter {
    evals: mqa_obs::Counter,
}

impl ConstructionCounter {
    fn get() -> &'static Self {
        static COUNTER: std::sync::OnceLock<ConstructionCounter> = std::sync::OnceLock::new();
        COUNTER.get_or_init(|| ConstructionCounter {
            evals: mqa_obs::counter("graph.construct.distance_evals"),
        })
    }
}

/// The ids of `list` tagged with their distance to `v`, each evaluated —
/// the from-scratch ranking the stored distances replace, kept for the
/// checks that compare against it.
#[cfg(test)]
pub(crate) fn candidates_of<'a>(
    store: &'a VectorStore,
    v: VecId,
    list: &'a [VecId],
) -> impl Iterator<Item = Candidate> + 'a {
    list.iter()
        .map(move |&w| Candidate::new(w, distance(store, v, w)))
}

/// A neighbour-selection rule: when an already selected `p` *dominates* a
/// candidate `q` around the vertex `v` — `q` is reachable through `p`, so
/// the direct edge is redundant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// The α rule of Vamana/DiskANN (MRNG's with `alpha = 1.0`): `p`
    /// dominates `q` when `alpha · d(p, q) <= d(v, q)`. Keeps only what no
    /// pick dominates.
    Alpha(f32),
    /// HNSW's `SELECT-NEIGHBORS-HEURISTIC`: `p` dominates `q` when
    /// `d(q, p) < d(v, q)`, strictly. Back-fills the list to the degree
    /// bound with the nearest dominated candidates.
    Hnsw,
}

impl Rule {
    /// Whether a pick at distance `d_pq` from the candidate `q` dominates
    /// it, `q` being at `d_vq` from the vertex.
    #[inline]
    pub fn dominates(self, d_pq: f32, d_vq: f32) -> bool {
        match self {
            Rule::Alpha(alpha) => alpha * d_pq <= d_vq,
            Rule::Hnsw => d_pq < d_vq,
        }
    }
}

/// What a held list's records say about one of its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// Kept by the prune that installed the list: no other kept entry
    /// dominates it.
    Kept,
    /// Back-filled by that prune: a kept entry ranked before it dominates
    /// it.
    Filler,
    /// Appended since, or unrecorded: nothing is known.
    Dirty,
}

/// The selection loop of both rules.
///
/// `pool` yields candidates around the vertex in ascending order, each
/// tagged; the picks go to `picks` (`known[i]`: pick `i` is tagged kept)
/// and the number of undominated picks is returned. A candidate is tested
/// against the picks so far, and the first dominator ends the test:
///
/// - a pair of kept candidates is known not to dominate and is never
///   evaluated;
/// - a filler is known to be dominated, by a kept entry ranked before it
///   that is still picked — unless a kept candidate was itself dominated
///   earlier in this pass, after which fillers are tested like the rest;
/// - under [`Rule::Alpha`] the picks are tried latest first (whether `q`
///   survives does not depend on the order, only what it costs, and on
///   clustered data the pick nearest `q` in rank is the likeliest
///   dominator); under [`Rule::Hnsw`] in selection order, which costs that
///   strict rule fewer tests.
///
/// Under [`Rule::Hnsw`], when the pool runs out before `r` picks, the
/// dominated candidates fill the list up to `r`, nearest first, behind
/// the undominated ones.
fn select(
    store: &VectorStore,
    pool: impl Iterator<Item = (Candidate, Tag)> + Clone,
    rule: Rule,
    r: usize,
    picks: &mut Vec<Candidate>,
    known: &mut Vec<bool>,
) -> usize {
    picks.clear();
    known.clear();
    let mut demoted = false;
    for (q, tag) in pool.clone() {
        if picks.len() == r {
            return r;
        }
        let dominated = match tag {
            Tag::Filler if !demoted => true,
            _ => {
                let q_kept = tag == Tag::Kept;
                let test = |(&p, &p_kept): (&Candidate, &bool)| {
                    !(p_kept && q_kept) && rule.dominates(distance(store, p.id, q.id), q.dist)
                };
                let mut tried = picks.iter().zip(known.iter());
                match rule {
                    Rule::Alpha(_) => tried.rev().any(test),
                    Rule::Hnsw => tried.any(test),
                }
            }
        };
        if !dominated {
            picks.push(q);
            known.push(tag == Tag::Kept);
        } else if tag == Tag::Kept {
            demoted = true;
        }
    }
    let kept = picks.len();
    if rule == Rule::Hnsw {
        for (q, _) in pool {
            if picks.len() == r {
                break;
            }
            if !picks.iter().any(|p| p.id == q.id) {
                picks.push(q);
            }
        }
    }
    kept
}

/// Sorts `candidates` and drops repeated ids and `v` itself, in place.
fn rank(v: VecId, candidates: &mut Vec<Candidate>) {
    candidates.sort_unstable();
    candidates.dedup_by_key(|c| c.id);
    candidates.retain(|c| c.id != v);
}

/// The α-robust pruning rule of Vamana/DiskANN; with `alpha = 1.0` it is
/// the MRNG rule NSG uses.
///
/// Walks the candidates by increasing distance and keeps one unless a
/// closer, already kept `p` has `alpha · d(p, q) <= d(v, q)`, until `r` are
/// kept. Larger `alpha` keeps more long edges (denser graph, easier
/// routing, more memory). The result — the picks with their distances —
/// is sorted by distance to `v` and pairwise undominated: a *clean* list
/// in [`crate::Adjacency`]'s terms. Sorts and deduplicates `candidates` in
/// place.
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
) -> Vec<Candidate> {
    assert!(alpha >= 1.0, "robust prune requires alpha >= 1.0");
    assert!(r > 0, "robust prune requires r >= 1");
    rank(v, candidates);
    let (mut picks, mut known) = (Vec::with_capacity(r), Vec::with_capacity(r));
    let pool = candidates.iter().map(|&c| (c, Tag::Dirty));
    select(store, pool, Rule::Alpha(alpha), r, &mut picks, &mut known);
    picks
}

/// HNSW's `SELECT-NEIGHBORS-HEURISTIC`: scan candidates by increasing
/// distance; keep one only if it is closer to `v` than to every neighbour
/// already kept ([`Rule::Hnsw`]), then, if fewer than `m` were kept, fill
/// up to `m` with the nearest of the rest. Returns the picks with their
/// distances — the kept ones ascending, then the fillers ascending — and
/// how many were kept: the two records [`crate::Adjacency::set_pruned`]
/// stores, which let [`Reprune`] re-prune the list incrementally when it
/// overflows. Sorts and deduplicates `candidates` in place.
///
/// # Panics
/// Panics if `m == 0`.
pub fn hnsw_heuristic(
    store: &VectorStore,
    v: VecId,
    candidates: &mut Vec<Candidate>,
    m: usize,
) -> (Vec<Candidate>, usize) {
    assert!(m > 0, "heuristic selection requires m >= 1");
    rank(v, candidates);
    let (mut picks, mut known) = (Vec::with_capacity(m), Vec::with_capacity(m));
    let pool = candidates.iter().map(|&c| (c, Tag::Dirty));
    let kept = select(store, pool, Rule::Hnsw, m, &mut picks, &mut known);
    (picks, kept)
}

/// The re-prune of a held list, with buffers that are reused from one
/// call to the next (construction keeps one on its pooled
/// [`crate::SearchScratch`]): once they have grown to the list length, an
/// overflow allocates nothing.
///
/// A list installed by a prune records how many leading entries it *kept*
/// and how many *fillers* follow them ([`crate::Adjacency::clean_len`],
/// [`crate::Adjacency::filler_len`]); entries appended since are dirty.
/// [`Reprune::run`] ranks the list by its stored distances and runs the
/// selection loop with each entry tagged by those records, so it tests
/// only the dirty entries, the kept entries a picked dirty one might
/// dominate, and the fillers ranked after a kept entry that was dominated.
/// The common α overflow — a full clean list plus one reverse edge — costs
/// at most one test per clean entry, instead of one per pair. Under valid
/// records the result equals the from-scratch prune under the same rule
/// and bound, order included (the unit tests assert it at every overflow
/// of both rules); the records only tag positions, so a forged one (even
/// one past the list length) cannot index out of bounds, and
/// [`crate::validate::check_clean_prefixes`] reports it.
#[derive(Debug, Default)]
pub struct Reprune {
    pool: Vec<(Candidate, Tag)>,
    picks: Vec<Candidate>,
    known: Vec<bool>,
}

impl Reprune {
    /// Re-prunes `v`'s out-edges — `edges` in list order with their stored
    /// distances, the first `records.0` kept and the next `records.1`
    /// fillers — under `rule` to at most `r`. Returns the picks and how
    /// many of them were kept (the rest are fillers).
    pub fn run(
        &mut self,
        store: &VectorStore,
        v: VecId,
        edges: impl IntoIterator<Item = Candidate>,
        records: (usize, usize),
        rule: Rule,
        r: usize,
    ) -> (&[Candidate], usize) {
        let (kept, fillers) = records;
        let tag = |i: usize| match i {
            i if i < kept => Tag::Kept,
            i if i - kept < fillers => Tag::Filler,
            _ => Tag::Dirty,
        };
        self.pool.clear();
        self.pool
            .extend(edges.into_iter().enumerate().map(|(i, c)| (c, tag(i))));
        self.pool.sort_unstable_by_key(|c| c.0);
        self.pool.dedup_by_key(|c| c.0.id);
        self.pool.retain(|c| c.0.id != v);
        let pool = self.pool.iter().copied();
        let kept = select(store, pool, rule, r, &mut self.picks, &mut self.known);
        (&self.picks, kept)
    }
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

    fn ids(picks: &[Candidate]) -> Vec<VecId> {
        picks.iter().map(|c| c.id).collect()
    }

    /// The α re-prune of `list` (ids with their distances from `v`, in list
    /// order) whose first `clean` entries are recorded kept.
    fn alpha_reprune(
        store: &VectorStore,
        v: VecId,
        list: impl IntoIterator<Item = Candidate>,
        clean: usize,
        alpha: f32,
        r: usize,
    ) -> Vec<Candidate> {
        let rule = Rule::Alpha(alpha);
        Reprune::default()
            .run(store, v, list, (clean, 0), rule, r)
            .0
            .to_vec()
    }

    #[test]
    fn robust_prune_drops_collinear() {
        // On a line from v=0: candidates 1,2,3. 1 covers 2 and 3
        // (d(1,2)=1 <= d(0,2)=4), so only 1 survives with alpha=1.
        let store = line_store(4);
        let mut c = cands(&store, 0, &[1, 2, 3]);
        let picks = robust_prune(&store, 0, &mut c, 1.0, 3);
        assert_eq!(
            picks,
            vec![Candidate::new(1, 1.0)],
            "the pick keeps its distance"
        );
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
        assert_eq!(ids(&robust_prune(&store, 0, &mut c, 1.0, 3)), vec![1]);
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

    /// The pull form as it stood before the latest-pick-first order: each
    /// candidate is tested against the picks in selection order. Kept as
    /// the work reference the reversed order is measured against.
    fn robust_prune_in_selection_order(
        store: &VectorStore,
        v: VecId,
        mut candidates: Vec<Candidate>,
        alpha: f32,
        r: usize,
    ) -> Vec<Candidate> {
        candidates.sort_unstable();
        candidates.dedup_by_key(|c| c.id);
        candidates.retain(|c| c.id != v);
        let mut selected: Vec<Candidate> = Vec::with_capacity(r);
        for q in candidates {
            if selected.len() == r {
                break;
            }
            if !selected
                .iter()
                .any(|p| alpha * distance(store, p.id, q.id) <= q.dist)
            {
                selected.push(q);
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

    /// `n` points in `dim` dimensions around `clusters` seeded centres.
    fn clustered_store(
        rng: &mut mqa_rng::StdRng,
        n: usize,
        dim: usize,
        clusters: usize,
    ) -> VectorStore {
        let centres = seeded_store(rng, clusters, dim, false);
        let mut s = VectorStore::new(dim);
        for i in 0..n {
            let centre = centres.get((i % clusters) as VecId);
            let v: Vec<f32> = centre
                .iter()
                .map(|&c| 4.0 * c + rng.gen_range(-1.0f32..1.0))
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

    /// Equal picks on every pool, and less work in aggregate. The bound is
    /// not per pool: testing the latest pick first can cost a pool a few
    /// tests more than the push form spends on it (134 of these 1 080
    /// pools), while the total falls well below it.
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
                    assert_eq!(ids(&got), want, "case {case}, alpha {alpha}, r {r}");
                    pools += 1;
                    pull_total += pull;
                    push_total += push;
                }
            }
        }
        assert!(pools >= 1000, "only {pools} pools compared");
        // Nothing ranked after the last pick is looked at, so whenever the
        // bound is reached early the total is lower (the line that fails
        // if the push form comes back).
        assert!(
            pull_total < push_total,
            "pull form made {pull_total} calls, push form {push_total}"
        );
    }

    /// A construction-shaped pool: ~450 candidates around a vertex in 16
    /// dimensions pruned to 24 — the case the refinement loop runs 2 000
    /// times per build. On these uniform points the latest-first order
    /// costs a few tests more than selection order would (663 against
    /// 624); on clustered ones it saves a third (below).
    #[test]
    fn pull_form_halves_the_work_on_a_construction_sized_pool() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9012);
        let store = seeded_store(&mut rng, 451, 16, false);
        let others: Vec<VecId> = (1..451).collect();
        let pool = cands(&store, 0, &others);
        let (want, push) = counted(|| robust_prune_push_form(&store, 0, pool.clone(), 1.2, 24));
        let (got, pull) = counted(|| robust_prune(&store, 0, &mut pool.clone(), 1.2, 24));
        assert_eq!(ids(&got), want);
        assert_eq!(got.len(), 24);
        assert!(pull * 2 <= push, "pull {pull} vs push {push} calls");
    }

    /// The case the latest-pick-first order is for: a construction-sized
    /// pool on clustered points, where the pick nearest in rank is the
    /// likeliest dominator. Same picks, at most three quarters of the
    /// tests selection order makes.
    #[test]
    fn latest_pick_first_saves_a_quarter_on_a_clustered_pool() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9016);
        let store = clustered_store(&mut rng, 451, 32, 20);
        let (mut latest, mut in_order) = (0u64, 0u64);
        for v in 0..20 as VecId {
            let others: Vec<VecId> = (0..451).filter(|&u| u != v).collect();
            let pool = cands(&store, v, &others);
            let (want, slow) =
                counted(|| robust_prune_in_selection_order(&store, v, pool.clone(), 1.2, 24));
            let (got, fast) = counted(|| robust_prune(&store, v, &mut pool.clone(), 1.2, 24));
            assert_eq!(got, want, "vertex {v}");
            latest += fast;
            in_order += slow;
        }
        assert!(
            latest * 4 <= in_order * 3,
            "latest first {latest} vs selection order {in_order} calls"
        );
    }

    /// The common reverse-edge overflow: a full clean list plus one new
    /// edge. The stored distances rank the list, so the only evaluations
    /// are tests of pairs that involve the new entry — at most one per
    /// clean entry.
    #[test]
    fn one_dirty_entry_reprunes_in_linear_work() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9013);
        let store = seeded_store(&mut rng, 400, 16, false);
        let mut checked = 0usize;
        for v in 0..100 as VecId {
            let others: Vec<VecId> = (0..300).filter(|&u| u != v).collect();
            let mut list = robust_prune(&store, v, &mut cands(&store, v, &others), 1.2, 24);
            if list.len() < 24 {
                continue;
            }
            for extra in 300..310 as VecId {
                list.extend(cands(&store, v, &[extra]));
                let (got, calls) = counted(|| alpha_reprune(&store, v, list.clone(), 24, 1.2, 24));
                assert!(calls <= 24, "24 clean + 1 dirty cost {calls} calls");
                let (want, scratch_calls) = counted(|| {
                    robust_prune(&store, v, &mut cands(&store, v, &ids(&list)), 1.2, 24)
                });
                assert_eq!(got, want, "vertex {v}, extra {extra}");
                assert!(scratch_calls > 24, "from scratch is the dearer route");
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
                if u != v && !list.iter().any(|c| c.id == u) {
                    list.extend(cands(&store, v, &[u]));
                }
            }
            let got = alpha_reprune(&store, v, list.clone(), clean, alpha, r);
            let want = robust_prune(&store, v, &mut cands(&store, v, &ids(&list)), alpha, r);
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
        let list = cands(&store, 0, &(1..30).collect::<Vec<_>>());
        for clean in [0usize, 7, 29, 30, usize::MAX] {
            let got = alpha_reprune(&store, 0, list.clone(), clean, 1.2, 8);
            assert!(!got.is_empty() && got.len() <= 8);
            assert!(got.iter().all(|c| list.contains(c)));
        }
        assert!(alpha_reprune(&store, 0, [], 5, 1.2, 8).is_empty());
    }

    /// A list as HNSW holds it: the heuristic's picks over `first` with
    /// their records, then `extra` ids appended behind them (dirty).
    fn hnsw_list(
        store: &VectorStore,
        v: VecId,
        first: &mut Vec<Candidate>,
        extra: &[VecId],
        m: usize,
    ) -> (Vec<Candidate>, (usize, usize)) {
        let (mut list, kept) = hnsw_heuristic(store, v, first, m);
        let records = (kept, list.len() - kept);
        for &u in extra {
            if u != v && !list.iter().any(|c| c.id == u) {
                list.extend(cands(store, v, &[u]));
            }
        }
        (list, records)
    }

    /// The incremental HNSW re-prune equals the heuristic from scratch —
    /// picks, order and kept count — for any dirty tail behind any list the
    /// heuristic installed, on grids full of ties and in general position,
    /// and again on the list it returns with a further tail.
    #[test]
    fn hnsw_reprune_equals_from_scratch_for_any_dirty_tail() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9017);
        let mut reprune = Reprune::default();
        let mut fillers_seen = 0usize;
        for case in 0..400 {
            let n = rng.gen_range(8usize..80);
            let store = seeded_store(&mut rng, n, 2 + case % 4, case % 3 == 0);
            let v = rng.gen_range(0..n) as VecId;
            let m = [1usize, 2, 4, 8, 32][case % 5];
            let mut first = seeded_pool(&mut rng, &store, v);
            let extra: Vec<VecId> = (0..rng.gen_range(0..6))
                .map(|_| rng.gen_range(0..n) as VecId)
                .collect();
            let (mut list, mut records) = hnsw_list(&store, v, &mut first, &extra, m);
            fillers_seen += records.1;
            for round in 0..2 {
                let (got, kept) = reprune.run(&store, v, list.clone(), records, Rule::Hnsw, m);
                let mut all = cands(&store, v, &ids(&list));
                let want = hnsw_heuristic(&store, v, &mut all, m);
                assert_eq!((got.to_vec(), kept), want, "case {case}, round {round}");
                records = (kept, got.len() - kept);
                list = got.to_vec();
                for _ in 0..rng.gen_range(0..4) {
                    let u = rng.gen_range(0..n) as VecId;
                    if u != v && !list.iter().any(|c| c.id == u) {
                        list.extend(cands(&store, v, &[u]));
                    }
                }
            }
        }
        assert!(fillers_seen > 100, "only {fillers_seen} fillers exercised");
    }

    /// The HNSW overflow a build runs tens of thousands of times: a full
    /// base-layer list (cap 32) on clustered points plus one reverse edge.
    /// The records settle every test between two kept entries and every
    /// filler's fate unless a kept entry falls, so the re-prune makes at
    /// most a tenth of the tests the heuristic from scratch makes (1 741
    /// against 35 691 over these 600 overflows) — and evaluates no
    /// distance to rank the list.
    #[test]
    fn one_reverse_edge_reprunes_an_hnsw_list_in_a_tenth_of_the_work() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9018);
        let store = clustered_store(&mut rng, 400, 32, 12);
        let mut reprune = Reprune::default();
        let (mut incremental, mut scratch, mut checked) = (0u64, 0u64, 0usize);
        for v in 0..60 as VecId {
            let near: Vec<VecId> = (0..300).filter(|&u| u != v).collect();
            let mut first = cands(&store, v, &near);
            first.sort_unstable();
            first.truncate(100);
            for extra in (300..400 as VecId).step_by(10) {
                let (list, records) = hnsw_list(&store, v, &mut first.clone(), &[extra], 32);
                if list.len() <= 32 {
                    continue;
                }
                let ((got, kept), fast) = counted(|| {
                    let (got, kept) = reprune.run(&store, v, list.clone(), records, Rule::Hnsw, 32);
                    (got.to_vec(), kept)
                });
                let (want, slow) =
                    counted(|| hnsw_heuristic(&store, v, &mut cands(&store, v, &ids(&list)), 32));
                assert_eq!((got, kept), want, "vertex {v}, extra {extra}");
                incremental += fast;
                // The from-scratch route ranks the list too: one
                // evaluation per entry that the stored distances save.
                scratch += slow - list.len() as u64;
                checked += 1;
            }
        }
        assert!(checked >= 300, "only {checked} overflows exercised");
        assert!(
            incremental * 10 <= scratch,
            "incremental {incremental} vs from-scratch {scratch} tests"
        );
    }

    /// Records that lie — longer than the list, fillers claimed kept, kept
    /// entries claimed fillers — can cost the result its equality with the
    /// heuristic but must not panic or break its shape.
    #[test]
    fn forged_records_cannot_panic_the_hnsw_reprune() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9019);
        let store = seeded_store(&mut rng, 30, 3, true);
        let list = cands(&store, 0, &(1..30).collect::<Vec<_>>());
        let mut reprune = Reprune::default();
        for records in [
            (0, 0),
            (7, 3),
            (0, 29),
            (29, 29),
            (usize::MAX, usize::MAX),
            (3, usize::MAX),
        ] {
            let (got, kept) = reprune.run(&store, 0, list.clone(), records, Rule::Hnsw, 8);
            assert_eq!(got.len(), 8);
            assert!(kept <= got.len());
            assert!(got.iter().all(|c| list.contains(c)));
        }
        let (got, kept) = reprune.run(&store, 0, [], (5, 5), Rule::Hnsw, 8);
        assert!(got.is_empty() && kept == 0);
    }

    #[test]
    fn heuristic_prefers_diversity_then_fills() {
        // v=0; candidates 1 (near), 2 (collinear behind 1), -1 direction.
        let mut store = VectorStore::new(1);
        store.push(&[0.0]);
        store.push(&[1.0]);
        store.push(&[2.0]);
        store.push(&[-1.5]);
        let mut c = cands(&store, 0, &[1, 2, 3]);
        let (sel, kept) = hnsw_heuristic(&store, 0, &mut c, 3);
        // 1 kept; 3 kept (diverse); 2 dominated by 1 but filled in behind
        // the kept ones.
        assert_eq!((ids(&sel), kept), (vec![1, 3, 2], 2));
    }

    #[test]
    fn heuristic_cap() {
        let store = line_store(10);
        let mut c = cands(&store, 0, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(hnsw_heuristic(&store, 0, &mut c, 2).0.len(), 2);
    }
}
