//! The shared beam-search routine (greedy best-first graph traversal).
//!
//! This is the paper's Query Execution core: start from entry vertices,
//! repeatedly expand the closest unexpanded candidate, keep the best `ef`
//! results, stop when the closest unexpanded candidate is strictly farther
//! than the worst retained result. Distance evaluations go through
//! [`crate::traits::DistanceFn`] with the current result bound, so fused
//! multi-modal evaluations can abandon early (incremental scanning); a
//! candidate whose evaluation is abandoned is provably outside the beam and
//! is dropped — the exact same decision a full evaluation would reach.
//!
//! This module owns the **only** best-first loop in the workspace:
//! `walk` is generic over a `WalkGraph` (a flat [`Adjacency`], one HNSW
//! level, or the paged Starling layout, whose per-hop fetch hook reads
//! pages) and over the distance evaluator (so a caller that
//! knows its evaluator's type gets the loop compiled around it, while
//! `&mut dyn DistanceFn` callers share one dynamically dispatched copy),
//! and runs entirely on a caller-supplied [`SearchScratch`]. `WalkMode`
//! selects the evaluation policy (pruning query search or
//! exact-collecting construction search).
//!
//! Two things keep the loop's bookkeeping cheap. The candidates live in
//! one sorted pool (`crate::pool`): its last entry is the bound, a cursor
//! names the next vertex to expand, and candidates that left the pool
//! while still tying the bound wait in its tie list, so the loop expands
//! the same vertices in the same order as a frontier heap beside a result
//! heap would. And each hop first *gathers* the vertex's not-yet-visited
//! neighbours into a scratch buffer — the visited stamp is written
//! unconditionally and the buffer's fill count advances by the returned
//! flag, so no branch depends on whether a neighbour was seen — then hands
//! the whole fresh list to the graph's fetch hook, and only then evaluates
//! and offers them in list order. Marking the whole list before
//! evaluating any of it changes nothing observable: a neighbour's
//! freshness depends on earlier stamps only, never on a distance, so
//! evaluation order, the bound each evaluation sees and the order the
//! paged layout meets pages in are those of the interleaved loop. What
//! the gathered list buys the paged layout is one device submission a
//! hop: the pages the hop misses are in flight together. The hook is also
//! shown the pool's unexpanded candidates as the hop found them (before
//! its offers), closest first, so the paged layout can read ahead for the
//! vertices the walk expands next; the hook returns nothing, so what it
//! does with them cannot steer the walk.

use crate::adjacency::Adjacency;
use crate::scratch::{SearchScratch, VisitedSet};
use crate::traits::DistanceFn;
use mqa_vector::{Candidate, VecId};
use std::sync::{Arc, OnceLock};

/// Work counters of one search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vertices expanded (their neighbour lists were read).
    pub hops: u64,
    /// Distance evaluations that ran to completion.
    pub evals: u64,
    /// Distance evaluations abandoned by incremental scanning.
    pub pruned: u64,
    /// Distinct 4 KiB page reads that went to the (simulated) device,
    /// pages read ahead for upcoming candidates included, whether or not
    /// the walk reached them (populated only by the Starling paged index;
    /// zero elsewhere).
    pub pages_read: u64,
    /// Distinct page touches served by the shared page cache instead of
    /// the device, read-ahead included (zero unless a cache is attached).
    pub pages_cached: u64,
    /// Submissions to the (simulated) device, each waited for once: hops,
    /// the seeds counting as one, whose pages and read-ahead missed at
    /// least one page. Never more than `pages_read`; zero elsewhere than
    /// the paged index.
    pub device_waits: u64,
}

impl SearchStats {
    /// Accumulates another record.
    pub fn merge(&mut self, other: &SearchStats) {
        self.hops += other.hops;
        self.evals += other.evals;
        self.pruned += other.pruned;
        self.pages_read += other.pages_read;
        self.pages_cached += other.pages_cached;
        self.device_waits += other.device_waits;
    }

    /// Total distance-evaluation work: completed plus abandoned
    /// evaluations (each abandoned evaluation still scanned a prefix).
    pub fn total_distance_work(&self) -> u64 {
        self.evals + self.pruned
    }

    /// Folds this record into the global `mqa-obs` registry under the
    /// index algorithm name `algo`: workspace-wide `graph.search.*`
    /// counters plus per-algorithm latency and per-query work histograms,
    /// so paged (Starling) and resident indexes are comparable in one
    /// report.
    pub fn record(&self, algo: &str, elapsed_us: u64) {
        let counters = SearchCounters::get();
        counters.queries.inc();
        counters.hops.add(self.hops);
        counters.evals.add(self.evals);
        counters.pruned.add(self.pruned);
        counters.pages_read.add(self.pages_read);
        counters.pages_cached.add(self.pages_cached);
        counters.device_waits.add(self.device_waits);
        let (latency, work) = algo_histograms(algo);
        latency.record(elapsed_us);
        work.record(self.total_distance_work());
        // Attribute the same work to the active query trace, if any.
        mqa_obs::trace::add_search_work(
            self.hops,
            self.evals,
            self.pruned,
            self.pages_read,
            self.pages_cached,
            self.device_waits,
        );
    }
}

/// The workspace-wide counters [`SearchStats::record`] writes, resolved
/// once per process: a per-query record is then relaxed atomic adds only,
/// with no registry lock, map lookup or `Arc` clone on the search path.
struct SearchCounters {
    queries: mqa_obs::Counter,
    hops: mqa_obs::Counter,
    evals: mqa_obs::Counter,
    pruned: mqa_obs::Counter,
    pages_read: mqa_obs::Counter,
    pages_cached: mqa_obs::Counter,
    device_waits: mqa_obs::Counter,
}

impl SearchCounters {
    fn get() -> &'static Self {
        static COUNTERS: OnceLock<SearchCounters> = OnceLock::new();
        COUNTERS.get_or_init(|| SearchCounters {
            queries: mqa_obs::counter("graph.search.queries"),
            hops: mqa_obs::counter("graph.search.hops"),
            evals: mqa_obs::counter("graph.search.evals"),
            pruned: mqa_obs::counter("graph.search.pruned"),
            pages_read: mqa_obs::counter("graph.search.pages_read"),
            pages_cached: mqa_obs::counter("graph.search.pages_cached"),
            device_waits: mqa_obs::counter("graph.search.device_waits"),
        })
    }
}

/// `(algorithm, (latency histogram, work histogram))` for every index
/// algorithm the workspace ships.
const ALGO_HISTOGRAMS: [(&str, (&str, &str)); 6] = [
    ("flat", ("graph.flat.search_us", "graph.flat.evals")),
    ("hnsw", ("graph.hnsw.search_us", "graph.hnsw.evals")),
    ("nsg", ("graph.nsg.search_us", "graph.nsg.evals")),
    ("vamana", ("graph.vamana.search_us", "graph.vamana.evals")),
    (
        "mqa-graph",
        ("graph.mqa-graph.search_us", "graph.mqa-graph.evals"),
    ),
    (
        "starling",
        ("graph.starling.search_us", "graph.starling.evals"),
    ),
];

/// Any other name passed to [`SearchStats::record`] shares these unlabeled
/// histograms rather than registering a name per caller.
const OTHER_HISTOGRAMS: (&str, &str) = ("graph.other.search_us", "graph.other.evals");

type HistogramPair = (Arc<mqa_obs::Histogram>, Arc<mqa_obs::Histogram>);

/// The histogram pair of `algo`, registered on the algorithm's first
/// search (so a snapshot lists only algorithms that ran) and read with one
/// atomic load afterwards.
fn algo_histograms(algo: &str) -> &'static HistogramPair {
    static RESOLVED: [OnceLock<HistogramPair>; ALGO_HISTOGRAMS.len()] =
        [const { OnceLock::new() }; ALGO_HISTOGRAMS.len()];
    static OTHER: OnceLock<HistogramPair> = OnceLock::new();
    let (names, pair) = ALGO_HISTOGRAMS
        .iter()
        .zip(&RESOLVED)
        .find(|((name, _), _)| *name == algo)
        .map_or((&OTHER_HISTOGRAMS, &OTHER), |((_, names), pair)| {
            (names, pair)
        });
    pair.get_or_init(|| (mqa_obs::histogram(names.0), mqa_obs::histogram(names.1)))
}

/// Result of one search: the `k` best candidates (ascending distance) and
/// the work performed.
#[derive(Debug, Clone, Default)]
pub struct SearchOutput {
    /// Nearest candidates, ascending by distance.
    pub results: Vec<Candidate>,
    /// Work counters.
    pub stats: SearchStats,
}

impl SearchOutput {
    /// Ids of the results, in rank order.
    pub fn ids(&self) -> Vec<VecId> {
        self.results.iter().map(|c| c.id).collect()
    }
}

/// What the walk needs from an index: the population, each vertex's
/// out-neighbours, and a hook run once per hop on the newly visited
/// vertices before any of their distances is evaluated (a no-op
/// everywhere but the paged layout).
pub(crate) trait WalkGraph {
    /// Number of vertices (sizes the visited set).
    fn vertices(&self) -> usize;

    /// Out-neighbours of `v`.
    fn neighbors(&self, v: VecId) -> &[VecId];

    /// Brings in what evaluating `ids` needs: the vertices one hop (or the
    /// seeding) visits for the first time this query, in evaluation order.
    /// `upcoming` names the pool's unexpanded candidates as the hop found
    /// them — after taking its own vertex, before any of its offers —
    /// closest first (none for the seeding): the vertices the walk expands
    /// next unless the hop's offers displace them, which an implementation
    /// may read ahead for. It decides nothing the walk does.
    #[inline]
    fn fetch(
        &self,
        _ids: &[VecId],
        _upcoming: impl Iterator<Item = VecId>,
        _pages: &mut VisitedSet,
        _stats: &mut SearchStats,
    ) {
    }
}

impl WalkGraph for Adjacency {
    fn vertices(&self) -> usize {
        self.len()
    }

    #[inline]
    fn neighbors(&self, v: VecId) -> &[VecId] {
        Adjacency::neighbors(self, v)
    }
}

/// Where a walk starts.
pub(crate) enum Seeds<'a> {
    /// Entry vertices, evaluated exactly (and counted) by the walk.
    Entries(&'a [VecId]),
    /// A start vertex whose distance the caller already evaluated (HNSW's
    /// descent hands its last routing vertex to the layer below).
    Evaluated(Candidate),
}

/// Evaluation policy of the walk.
#[derive(Clone, Copy)]
pub(crate) enum WalkMode {
    /// Query mode: evaluate against the running bound so fused scans can
    /// abandon early; abandoned candidates are counted as pruned.
    Prune,
    /// Construction mode: every touched vertex gets an exact distance and
    /// lands in the scratch's evaluated pool (NSG/Vamana's "visited list"
    /// supplies long-range edge candidates).
    CollectExact,
}

/// The one best-first loop. Keeps the best `ef.max(k)` candidates on
/// `scratch.pool` (ascending), returns the work done, and in
/// [`WalkMode::CollectExact`] appends every evaluated candidate to
/// `scratch.evaluated`. Ids outside the graph's population — possible only
/// in a restored graph that fails validation — are skipped like visited
/// ones.
///
/// # Panics
/// Panics if `k == 0` or `seeds` names no entry vertex.
pub(crate) fn walk<G: WalkGraph, D: DistanceFn + ?Sized>(
    graph: &G,
    seeds: Seeds<'_>,
    dist: &mut D,
    k: usize,
    ef: usize,
    mode: WalkMode,
    scratch: &mut SearchScratch,
) -> SearchStats {
    assert!(k > 0, "search requires k >= 1");
    let mut stats = SearchStats::default();
    scratch.begin(graph.vertices(), ef.max(k));
    let SearchScratch {
        visited,
        pages,
        pool,
        gather,
        evaluated,
        reprune: _,
    } = scratch;
    let collect = matches!(mode, WalkMode::CollectExact);

    match seeds {
        Seeds::Entries(entries) => {
            assert!(
                !entries.is_empty(),
                "beam search requires at least one entry vertex"
            );
            let fresh = gather_fresh(entries, visited, gather);
            graph.fetch(fresh, std::iter::empty(), pages, &mut stats);
            for &e in fresh {
                let c = Candidate::new(e, dist.exact(e));
                stats.evals += 1;
                if collect {
                    evaluated.push(c);
                }
                pool.seed(c);
            }
        }
        Seeds::Evaluated(c) => {
            visited.insert(c.id);
            pool.seed(c);
        }
    }

    while let Some(current) = pool.next() {
        stats.hops += 1;
        let fresh = gather_fresh(graph.neighbors(current.id), visited, gather);
        let upcoming = pool.upcoming().map(|c| c.id);
        graph.fetch(fresh, upcoming, pages, &mut stats);
        for &nb in fresh {
            let c = if collect {
                // Construction needs exact distances for the pool, so no
                // early abandonment here.
                let c = Candidate::new(nb, dist.exact(nb));
                evaluated.push(c);
                c
            } else {
                match dist.eval(nb, pool.bound()) {
                    Some(d) => Candidate::new(nb, d),
                    None => {
                        // Abandoned: distance >= bound, cannot enter the pool.
                        stats.pruned += 1;
                        continue;
                    }
                }
            };
            stats.evals += 1;
            pool.offer(c);
        }
    }
    stats
}

/// Marks every id of `ids` visited and returns those met for the first
/// time, in list order, at the front of `gather`. The stamp is written
/// unconditionally and the fill count advances by the returned flag, so
/// no branch depends on whether an id was seen; a repeated id is fresh
/// once.
#[inline]
fn gather_fresh<'g>(
    ids: &[VecId],
    visited: &mut VisitedSet,
    gather: &'g mut Vec<VecId>,
) -> &'g [VecId] {
    if gather.len() < ids.len() {
        // ALLOC: grows to the longest list seen (the largest degree, or
        // the entry list), then sticks.
        gather.resize(ids.len(), 0);
    }
    let mut fresh = 0;
    for &id in ids {
        // `fresh` never passes the position in the list, which the
        // resize above put inside the buffer.
        if let Some(slot) = gather.get_mut(fresh) {
            *slot = id;
        }
        fresh += usize::from(visited.insert(id));
    }
    gather.get(..fresh).unwrap_or_default()
}

/// Query-mode [`walk`] copying the `k` best into `out` (ascending
/// distance) — the body of every graph family's search.
pub(crate) fn search_into<G: WalkGraph, D: DistanceFn + ?Sized>(
    graph: &G,
    seeds: Seeds<'_>,
    dist: &mut D,
    k: usize,
    ef: usize,
    scratch: &mut SearchScratch,
    out: &mut Vec<Candidate>,
) -> SearchStats {
    let stats = walk(graph, seeds, dist, k, ef, WalkMode::Prune, scratch);
    out.clear();
    // ALLOC: out grows to the largest result set seen, then sticks.
    out.extend(scratch.pool.best().take(k));
    stats
}

/// Beam search over `graph` from `entries`, returning the `k` best
/// candidates using beam width `ef` (clamped to at least `k`).
///
/// # Panics
/// Panics if `entries` is empty or `k == 0`.
pub fn beam_search<D: DistanceFn + ?Sized>(
    graph: &Adjacency,
    entries: &[VecId],
    dist: &mut D,
    k: usize,
    ef: usize,
    scratch: &mut SearchScratch,
) -> SearchOutput {
    // ALLOC: the returned hit list, sized once by the copy.
    let mut results = Vec::new();
    let seeds = Seeds::Entries(entries);
    let stats = search_into(graph, seeds, dist, k, ef, scratch, &mut results);
    SearchOutput { results, stats }
}

/// Beam search that returns **every candidate evaluated** along the way
/// (the "visited list" of the NSG/Vamana papers). Construction uses this
/// pool for neighbour selection: path vertices crossed en route give each
/// vertex long-range edge candidates that the final top-`ef` alone would
/// not contain — without them, tightly clustered data yields graphs whose
/// clusters are mutually unreachable in practice.
///
/// The pool is the scratch's own buffer, lent until the next walk on it:
/// callers select from it (and may append to it) in place, so its
/// capacity survives from one construction search to the next.
///
/// # Panics
/// Panics if `entries` is empty or `ef == 0`.
pub fn beam_search_collect<'s, D: DistanceFn + ?Sized>(
    graph: &Adjacency,
    entries: &[VecId],
    dist: &mut D,
    ef: usize,
    scratch: &'s mut SearchScratch,
) -> &'s mut Vec<Candidate> {
    let seeds = Seeds::Entries(entries);
    walk(graph, seeds, dist, ef, ef, WalkMode::CollectExact, scratch);
    &mut scratch.evaluated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FlatDistance;
    use mqa_vector::VectorStore;

    /// A line of points 0..n at x = id; fully connected chain.
    fn chain(n: usize) -> (VectorStore, Adjacency) {
        let mut store = VectorStore::new(1);
        let mut g = Adjacency::new(n);
        for i in 0..n {
            store.push(&[i as f32]);
        }
        for i in 0..n {
            let mut nb = Vec::new();
            if i > 0 {
                nb.push((i - 1) as VecId);
            }
            if i + 1 < n {
                nb.push((i + 1) as VecId);
            }
            g.set_neighbors(i as VecId, &Adjacency::edges_to(&nb));
        }
        (store, g)
    }

    fn dist_to<'a>(store: &'a VectorStore, q: &'a [f32]) -> FlatDistance<'a> {
        FlatDistance::new(store, q).expect("test query dims match")
    }

    #[test]
    fn finds_nearest_on_chain() {
        let (store, g) = chain(50);
        let q = [31.4f32];
        let mut d = dist_to(&store, &q);
        let out = beam_search(&g, &[0], &mut d, 3, 10, &mut SearchScratch::new());
        assert_eq!(out.ids(), vec![31, 32, 30]);
    }

    #[test]
    fn results_sorted_ascending() {
        let (store, g) = chain(30);
        let q = [12.0f32];
        let mut d = dist_to(&store, &q);
        let out = beam_search(&g, &[29], &mut d, 5, 8, &mut SearchScratch::new());
        for w in out.results.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert_eq!(out.results[0].id, 12);
    }

    #[test]
    fn k_larger_than_population() {
        let (store, g) = chain(4);
        let q = [0.0f32];
        let mut d = dist_to(&store, &q);
        let out = beam_search(&g, &[3], &mut d, 10, 10, &mut SearchScratch::new());
        assert_eq!(out.results.len(), 4);
    }

    #[test]
    fn multiple_entries_deduplicated() {
        let (store, g) = chain(10);
        let q = [5.0f32];
        let mut d = dist_to(&store, &q);
        let out = beam_search(&g, &[0, 0, 9], &mut d, 1, 4, &mut SearchScratch::new());
        assert_eq!(out.results[0].id, 5);
    }

    #[test]
    fn isolated_entry_returns_only_itself() {
        let mut store = VectorStore::new(1);
        for i in 0..3 {
            store.push(&[i as f32]);
        }
        let g = Adjacency::new(3); // no edges
        let q = [2.0f32];
        let mut d = dist_to(&store, &q);
        let out = beam_search(&g, &[0], &mut d, 2, 4, &mut SearchScratch::new());
        assert_eq!(out.ids(), vec![0]);
    }

    #[test]
    fn stats_count_work() {
        let (store, g) = chain(20);
        let q = [10.0f32];
        let mut d = dist_to(&store, &q);
        let out = beam_search(&g, &[0], &mut d, 1, 2, &mut SearchScratch::new());
        assert!(out.stats.evals > 0);
        assert!(out.stats.hops > 0);
        assert_eq!(out.stats.pruned, 0); // flat distance never abandons
    }

    #[test]
    #[should_panic(expected = "entry vertex")]
    fn empty_entries_panics() {
        let (store, g) = chain(3);
        let q = [0.0f32];
        let mut d = dist_to(&store, &q);
        beam_search(&g, &[], &mut d, 1, 1, &mut SearchScratch::new());
    }

    #[test]
    fn ef_widens_exploration() {
        // With a misleading graph shape, a wider beam reaches a better
        // result set; at minimum it never shrinks the evaluation count.
        let (store, g) = chain(100);
        let q = [99.0f32];
        let mut d1 = dist_to(&store, &q);
        let narrow = beam_search(&g, &[0], &mut d1, 1, 1, &mut SearchScratch::new());
        let mut d2 = dist_to(&store, &q);
        let wide = beam_search(&g, &[0], &mut d2, 1, 16, &mut SearchScratch::new());
        assert!(wide.stats.evals >= narrow.stats.evals);
        assert_eq!(wide.results[0].id, 99);
    }

    /// Pins the exact output of `beam_search_collect` on the shared walk:
    /// the walk from vertex 0 toward 5.0 on a
    /// chain of 10 with ef = 3 touches exactly vertices 0..=7 in id order
    /// (the beam dies two steps past the optimum), each with its exact
    /// squared distance. Computed by hand against the pre-refactor loop.
    #[test]
    fn collect_pins_evaluated_pool() {
        let (store, g) = chain(10);
        let q = [5.0f32];
        let mut d = dist_to(&store, &q);
        let mut scratch = SearchScratch::new();
        let pool = beam_search_collect(&g, &[0], &mut d, 3, &mut scratch);
        let ids: Vec<VecId> = pool.iter().map(|c| c.id).collect();
        let dists: Vec<f32> = pool.iter().map(|c| c.dist).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(dists, vec![25.0, 16.0, 9.0, 4.0, 1.0, 0.0, 1.0, 4.0]);
    }

    /// A warm walk allocates nothing: the evaluated list (which used to be
    /// moved out of the scratch, so every construction search regrew it),
    /// the visited stamps, the candidate pool, its tie list and the gather
    /// buffer all sit where the first walk left them.
    #[test]
    fn a_warm_walk_reuses_every_scratch_buffer() {
        let (store, g) = chain(40);
        let q = [20.0f32];
        let mut scratch = SearchScratch::new();
        let mut d = dist_to(&store, &q);
        let first = beam_search_collect(&g, &[0], &mut d, 4, &mut scratch).clone();
        let warm = scratch.buffers();
        assert!(!first.is_empty() && scratch.evaluated.capacity() >= first.len());
        let again = beam_search_collect(&g, &[0], &mut d, 4, &mut scratch).clone();
        assert_eq!(again, first, "same walk, same pool");
        assert_eq!(scratch.buffers(), warm, "collecting walk reallocated");
        // The query-mode walk on the same scratch, writing into a warmed
        // result buffer.
        let mut hits = Vec::new();
        let seeds = || Seeds::Entries(&[0]);
        search_into(&g, seeds(), &mut d, 3, 4, &mut scratch, &mut hits);
        let (ptr, cap) = (hits.as_ptr(), hits.capacity());
        search_into(&g, seeds(), &mut d, 3, 4, &mut scratch, &mut hits);
        assert_eq!(scratch.buffers(), warm, "query walk reallocated");
        assert_eq!((hits.as_ptr(), hits.capacity()), (ptr, cap));
    }
}
