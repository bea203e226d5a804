//! Starling-style disk-resident layout (reference 9 of the paper).
//!
//! Starling's contribution is an **I/O-efficient layout** for graph indexes
//! that live on disk: vertices (vector + adjacency) are packed into fixed
//! 4 KiB pages, and the packing is chosen so that graph *neighbourhoods*
//! share pages. During search, fetching a vertex costs one page read unless
//! its page was already read by this query — so once a page is in, every
//! other vertex on it is free to *fetch* if the same query reaches it
//! later. The search never evaluates a vertex because it happens to sit on
//! a page it read (Starling's block-level expansion would change the
//! answers; here the paged search returns exactly what the in-memory
//! search returns).
//!
//! The reads of one expansion step go to the device together, as they do
//! in Starling and in the DiskANN search under it: the walk hands each
//! hop's newly visited vertices to [`PagedIndex`] as one list, and the
//! pages among them that miss are one submission, waited for once. That
//! submission also reads ahead, as DiskANN's beam of `W` reads in flight
//! does, but with the expansion order left alone: it carries the pages of
//! the neighbours of the next [`LOOKAHEAD`] unexpanded pool candidates, up
//! to [`QUEUE_DEPTH`] pages. Their adjacency is known — their pages were
//! read when they were evaluated — and read-ahead evaluates nothing and
//! marks nothing visited, so only which pages are read, when, and the
//! cache's verdicts on them move; a page is then usually in before the
//! hop that needs it, which waits for nothing.
//!
//! ## Substitution note (see DESIGN.md §2)
//!
//! We simulate the block device: a [`PageLayout`] maps vertices to page
//! ids, and [`PagedIndex::search_paged_into`] counts distinct page reads
//! and device submissions per query.
//! The measured quantity — page reads at matched recall, clustered vs
//! insertion-order layout — is exactly the metric the Starling paper
//! optimizes; only the physical SSD is replaced by counters.

use crate::adjacency::Adjacency;
use crate::scratch::{SearchScratch, VisitedSet};
use crate::search::{search_into, SearchOutput, SearchStats, Seeds, WalkGraph};
use crate::traits::DistanceFn;
use mqa_cache::PageCache;
use mqa_vector::{Candidate, VecId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Reads the simulated device completes side by side: an NVMe-class
/// submission queue. A hop's own reads are at most one per out-neighbour,
/// so no hop of a graph whose degree bound is 32 or less exceeds it; a
/// hop's read-ahead stops when the submission holds this many pages; and a
/// longer list (a hub's, or the seeding's) is served in rounds of this
/// many.
pub const QUEUE_DEPTH: u32 = 32;

/// Upcoming pool candidates whose neighbours' pages a hop's submission
/// reads ahead for (DiskANN's beam width, with the expansion order left
/// alone). Chosen from a sweep on the benchmark's `paged_spill` workload
/// (EXPERIMENTS.md, E13): 8 is the knee — 7.2 waits a query where none
/// waited 23.5 and the best width 6.1 — for 21 % more reads, where reading
/// ahead for every upcoming candidate costs 58 %.
pub const LOOKAHEAD: usize = 8;

/// Timing profile of the simulated block device. The default profile is
/// free (pure counters); a non-zero [`DeviceProfile::read_latency`]
/// charges wall-clock time per submission — the reads of one hop, its
/// read-ahead included, are in flight together and each takes
/// `read_latency` to complete — which is what makes paged search
/// I/O-bound, and what the concurrent engine overlaps across workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Time one 4 KiB page read takes to complete.
    pub read_latency: Duration,
}

impl DeviceProfile {
    /// A device profile with the given per-page read latency.
    pub fn with_read_latency(read_latency: Duration) -> Self {
        Self { read_latency }
    }

    /// How long a submission of `missed` page reads keeps its caller
    /// waiting: one `read_latency` per [`QUEUE_DEPTH`] reads or part
    /// thereof, nothing for an empty submission or a free device.
    pub fn wait_for(&self, missed: u32) -> Duration {
        self.read_latency
            .saturating_mul(missed.div_ceil(QUEUE_DEPTH))
    }
}

/// How vertices are assigned to pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayoutStrategy {
    /// Vertices packed in insertion (id) order — the naive baseline.
    InsertionOrder,
    /// Pages packed by shared neighbours (Starling's block shuffling, one
    /// greedy pass): the breadth-first order supplies each page's seed,
    /// and the page then grows by repeatedly taking the unassigned vertex
    /// with the most edges, in either direction, to the vertices already
    /// on it — lower id on a tie, the next vertex in breadth-first order
    /// when none shares an edge. Every page but the last is full.
    BfsCluster,
}

/// A vertex → page assignment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageLayout {
    page_of: Vec<u32>,
    pages: usize,
    per_page: usize,
    strategy: LayoutStrategy,
}

impl PageLayout {
    /// Builds a layout for `graph` with `per_page` vertices per 4 KiB page.
    ///
    /// `per_page` models `page_size / (vector bytes + adjacency bytes)`;
    /// callers compute it from their dimensionality (see
    /// [`PageLayout::vertices_per_page`]).
    ///
    /// # Panics
    /// Panics if `per_page == 0` or the graph is empty.
    pub fn build(graph: &Adjacency, per_page: usize, strategy: LayoutStrategy) -> Self {
        assert!(per_page > 0, "a page must hold at least one vertex");
        assert!(!graph.is_empty(), "layout over an empty graph");
        let n = graph.len();
        let page_of = match strategy {
            // INVARIANT: per_page >= 1 (asserted above); page numbers fit
            // u32 since pos < n.
            LayoutStrategy::InsertionOrder => (0..n)
                .map(|pos| mqa_vector::cast::vec_id(pos / per_page))
                .collect(),
            LayoutStrategy::BfsCluster => pack_by_shared_neighbours(graph, per_page),
        };
        let pages = n.div_ceil(per_page);
        Self {
            page_of,
            pages,
            per_page,
            strategy,
        }
    }

    /// Vertices that fit a 4 KiB page given vector dimensionality and a
    /// degree bound (f32 vector + u32 neighbour ids + u32 header).
    pub fn vertices_per_page(dim: usize, max_degree: usize) -> usize {
        const PAGE: usize = 4096;
        // INVARIANT: the +4 header byte term keeps per_vertex nonzero.
        let per_vertex = 4 * dim + 4 * max_degree + 4;
        (PAGE / per_vertex).max(1)
    }

    /// Page of vertex `v`.
    #[inline]
    pub fn page(&self, v: VecId) -> u32 {
        // INVARIANT: `page_of` is sized to the vertex count and ids come
        // from the layout's own graph.
        self.page_of[v as usize]
    }

    /// Total number of pages.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Vertices per page.
    pub fn per_page(&self) -> usize {
        self.per_page
    }

    /// The strategy this layout was built with.
    pub fn strategy(&self) -> LayoutStrategy {
        self.strategy
    }
}

/// Every vertex once, breadth-first from vertex 0, restarting at the
/// lowest unseen id whenever a component is exhausted.
fn bfs_order(graph: &Adjacency) -> Vec<VecId> {
    let n = graph.len();
    let mut order = Vec::with_capacity(n);
    let mut seen = VisitedSet::new(n);
    seen.next_epoch();
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as VecId {
        if !seen.insert(start) {
            continue;
        }
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in graph.neighbors(v) {
                if seen.insert(u) {
                    queue.push_back(u);
                }
            }
        }
    }
    order
}

/// The [`LayoutStrategy::BfsCluster`] assignment. A search that reads a
/// page evaluates one vertex on it and then, most likely, that vertex's
/// neighbours; the page is worth most when those are already on it, so
/// each slot goes to the vertex sharing the most edges with the page so
/// far. Scoring scans only the vertices adjacent to the page's members,
/// so the pass is O(n · per_page · degree).
fn pack_by_shared_neighbours(graph: &Adjacency, per_page: usize) -> Vec<u32> {
    const UNASSIGNED: u32 = u32::MAX;
    let n = graph.len();
    // In-neighbours: a new member credits the vertices that point at it
    // as well as those it points at.
    let mut sources: Vec<Vec<VecId>> = vec![Vec::new(); n];
    for (v, u) in graph.edges() {
        // INVARIANT: edge endpoints are vertices of `graph`; so is every
        // id indexing the per-vertex tables below.
        sources[u as usize].push(v);
    }
    let mut page_of = vec![UNASSIGNED; n];
    // Edges between each unassigned vertex and the page being filled,
    // and the vertices for which that count is non-zero.
    let mut shared = vec![0u32; n];
    let mut frontier: Vec<VecId> = Vec::new();
    let order = bfs_order(graph);
    let mut cursor = 0usize;
    for pos in 0..n {
        // INVARIANT: per_page >= 1, asserted by `PageLayout::build`.
        let (page, slot) = (pos / per_page, pos % per_page);
        if slot == 0 {
            // INVARIANT: the frontier holds vertex ids.
            frontier.drain(..).for_each(|u| shared[u as usize] = 0);
        }
        // INVARIANT: `i` ranges over the frontier, which holds vertex ids.
        let best = (0..frontier.len())
            .max_by_key(|&i| (shared[frontier[i] as usize], std::cmp::Reverse(frontier[i])));
        let v = match best {
            Some(i) => frontier.swap_remove(i),
            None => loop {
                // INVARIANT: `order` permutes 0..n and only `pos < n`
                // vertices are placed, so the cursor stops on an
                // unassigned vertex before it runs off the end.
                let u = order[cursor];
                if page_of[u as usize] == UNASSIGNED {
                    break u;
                }
                cursor += 1;
            },
        };
        // INVARIANT: `v` is a vertex id.
        page_of[v as usize] = mqa_vector::cast::vec_id(page);
        for &u in graph.neighbors(v).iter().chain(&sources[v as usize]) {
            // INVARIANT: so are its neighbours in both directions.
            if page_of[u as usize] == UNASSIGNED {
                let count = &mut shared[u as usize];
                if *count == 0 {
                    frontier.push(u);
                }
                *count += 1;
            }
        }
    }
    page_of
}

/// A graph index with a paged on-"disk" layout and per-query I/O counting.
pub struct PagedIndex {
    graph: Adjacency,
    entries: Vec<VecId>,
    layout: PageLayout,
    device: DeviceProfile,
    cache: Option<Arc<PageCache>>,
}

impl PagedIndex {
    /// Wraps a built graph with a layout.
    ///
    /// # Panics
    /// Panics if `entries` is empty or layout size mismatches the graph.
    pub fn new(graph: Adjacency, entries: Vec<VecId>, layout: PageLayout) -> Self {
        assert!(!entries.is_empty(), "paged index requires entry vertices");
        assert_eq!(
            layout.page_of.len(),
            graph.len(),
            "layout/graph size mismatch"
        );
        Self {
            graph,
            entries,
            layout,
            device: DeviceProfile::default(),
            cache: None,
        }
    }

    /// Attaches a timing profile to the simulated device; every
    /// submission — the pages one hop and its read-ahead miss — then costs
    /// [`DeviceProfile::wait_for`] its size of wall-clock time on the
    /// searching thread.
    pub fn with_device(mut self, device: DeviceProfile) -> Self {
        self.device = device;
        self
    }

    /// The device timing profile in use.
    pub fn device(&self) -> DeviceProfile {
        self.device
    }

    /// Attaches a shared block cache over the paged layout: a page whose
    /// id is resident in `cache` costs no device read (it is counted in
    /// [`SearchStats::pages_cached`] instead of
    /// [`SearchStats::pages_read`]). Search *decisions* never consult the
    /// cache, so results are bit-identical with and without one — only
    /// where the time goes changes, exactly like a real block cache.
    pub fn with_page_cache(mut self, cache: Arc<PageCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The layout in use.
    pub fn layout(&self) -> &PageLayout {
        &self.layout
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &Adjacency {
        &self.graph
    }

    /// Beam search that counts page reads: fetching a vertex whose page has
    /// not been read this query costs one read; the page's other residents
    /// are then free to fetch. The hits land in a caller-owned buffer and
    /// the candidate pool, the gather buffer and both visited sets all live
    /// on `scratch`, so a warmed `(scratch, out)` pair serves a query with
    /// **zero heap allocations**, with or without a page cache and a
    /// device — the property the counting allocator of
    /// `tests/alloc_free.rs` pins. Returns the work stats
    /// with `pages_read` / `pages_cached` / `device_waits` populated.
    ///
    /// Over a mutated index, search through
    /// [`crate::live::Tombstones::search_live`]:
    /// tombstoned vertices still route the walk and are dropped at
    /// result-collection time only.
    pub fn search_paged_into(
        &self,
        dist: &mut dyn DistanceFn,
        k: usize,
        ef: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Candidate>,
    ) -> SearchStats {
        let sw = mqa_obs::Stopwatch::start();
        scratch.begin_pages(self.layout.pages());
        let seeds = Seeds::Entries(&self.entries);
        let stats = search_into(self, seeds, dist, k, ef, scratch, out);
        stats.record("starling", sw.elapsed_us());
        stats
    }
}

impl WalkGraph for PagedIndex {
    fn vertices(&self) -> usize {
        self.graph.len()
    }

    #[inline]
    fn neighbors(&self, v: VecId) -> &[VecId] {
        self.graph.neighbors(v)
    }

    /// Reads the pages of `ids`, in list order, that this query has not
    /// read yet. If at least one was new, the submission then reads ahead:
    /// the pages of the neighbours of the first [`LOOKAHEAD`] `upcoming`
    /// candidates, in order, until it holds [`QUEUE_DEPTH`] pages. A page
    /// found in the shared block cache is free; the rest are counted and
    /// go to the device as one submission, waited for once.
    ///
    /// Whether and how far it reads ahead counts pages new to the query,
    /// not misses, so which pages a query touches never depends on the
    /// cache. A visited vertex's page is already in, so no visited check
    /// is needed to skip it.
    fn fetch(
        &self,
        ids: &[VecId],
        upcoming: impl Iterator<Item = VecId>,
        pages: &mut VisitedSet,
        stats: &mut SearchStats,
    ) {
        let ahead = upcoming
            .take(LOOKAHEAD)
            .flat_map(|c| self.graph.neighbors(c));
        let (mut touched, mut missed) = (0u32, 0u32);
        for (at, &v) in ids.iter().chain(ahead).enumerate() {
            if at >= ids.len() && (touched == 0 || touched >= QUEUE_DEPTH) {
                break; // the hop's own pages were all in, or the queue is full
            }
            let page = self.layout.page(v);
            if !pages.insert(page) {
                continue; // already read by this query
            }
            touched += 1;
            match &self.cache {
                Some(cache) if cache.probe(page) => stats.pages_cached += 1,
                _ => missed += 1,
            }
        }
        if missed == 0 {
            return;
        }
        stats.pages_read += u64::from(missed);
        stats.device_waits += 1;
        let wait = self.device.wait_for(missed);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
}

/// A disk-resident index with **PQ-routed two-phase search** — the full
/// DiskANN/Starling architecture:
///
/// * RAM holds the graph topology and the PQ codes (a few bytes/vector);
/// * "disk" (the paged layout) holds the full vectors;
/// * **phase 1** walks the graph scoring candidates from the PQ lookup
///   table — *zero page reads*;
/// * **phase 2** reads only the pages of the beam's survivors and reranks
///   them with exact distances.
///
/// Page reads therefore scale with the *result* candidate count, not with
/// the number of vertices the walk touches — the I/O reduction E7 measures.
/// Phase 2 reads through the wrapped [`PagedIndex`]'s own fetch, so its
/// pages meet the same cache and device, and are counted the same way, as
/// a one-phase search's.
pub struct PqPagedIndex {
    paged: PagedIndex,
    codebook: mqa_vector::PqCodebook,
    codes: mqa_vector::PqCodes,
}

/// Phase-1 evaluator: asymmetric PQ distances from the in-RAM codes.
struct PqDistance<'a> {
    table: mqa_vector::PqTable,
    codes: &'a mqa_vector::PqCodes,
}

impl DistanceFn for PqDistance<'_> {
    fn eval(&mut self, id: VecId, _bound: f32) -> Option<f32> {
        Some(self.table.distance(self.codes.code(id)))
    }
}

impl PqPagedIndex {
    /// Trains a codebook on `store`, encodes it, and routes over `paged`.
    ///
    /// # Panics
    /// Panics if `store` and the paged graph differ in population.
    pub fn build(
        paged: PagedIndex,
        store: &mqa_vector::VectorStore,
        params: &mqa_vector::PqParams,
    ) -> Self {
        let codebook = mqa_vector::PqCodebook::train(store, params);
        let codes = codebook.encode_store(store);
        assert_eq!(codes.len(), paged.graph.len(), "codes/graph size mismatch");
        Self {
            paged,
            codebook,
            codes,
        }
    }

    /// RAM resident bytes of the routing state (codes only; the graph is
    /// common to all variants).
    pub fn code_bytes(&self) -> usize {
        self.codes.bytes()
    }

    /// The page layout in use.
    pub fn layout(&self) -> &PageLayout {
        self.paged.layout()
    }

    /// Two-phase search: PQ-routed beam (no I/O), then exact rerank of the
    /// beam's `ef` survivors, whose pages are one submission.
    ///
    /// `store` plays the disk: it is only consulted for vertices whose
    /// pages phase 2 reads.
    pub fn search_two_phase(
        &self,
        query: &[f32],
        store: &mqa_vector::VectorStore,
        k: usize,
        ef: usize,
        scratch: &mut SearchScratch,
    ) -> SearchOutput {
        let ef = ef.max(k);
        // Phase 1: route on codes.
        let mut pq_dist = PqDistance {
            table: self.codebook.table(query),
            codes: &self.codes,
        };
        let (graph, entries) = (&self.paged.graph, &self.paged.entries);
        let SearchOutput {
            mut results,
            mut stats,
        } = crate::search::beam_search(graph, entries, &mut pq_dist, ef, ef, scratch);

        // Phase 2: read the survivors' pages, rerank exactly.
        scratch.begin_pages(self.paged.layout.pages());
        let SearchScratch { pages, gather, .. } = scratch;
        gather.clear();
        gather.extend(results.iter().map(|c| c.id));
        // Nothing to read ahead for: the survivors are all phase 2 reads.
        let upcoming = std::iter::empty();
        self.paged.fetch(gather, upcoming, pages, &mut stats);
        for c in &mut results {
            c.dist = mqa_vector::ops::l2_sq(query, store.get(c.id));
            stats.evals += 1;
        }
        results.sort_unstable();
        results.truncate(k);
        SearchOutput { results, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::Tombstones;
    use crate::traits::FlatDistance;
    use crate::vamana;
    use mqa_rng::StdRng;
    use mqa_vector::VectorStore;
    use std::sync::Arc;

    /// Phase-2 page reads per query of `two_phase_pq_search_cuts_page_reads`,
    /// recorded from the hand-counted loop phase 2 ran before it read
    /// through `PagedIndex::fetch`.
    const PHASE_TWO_READS: [u64; 15] = [34, 37, 39, 36, 33, 37, 36, 36, 37, 36, 37, 37, 40, 39, 35];

    impl PagedIndex {
        /// `search_paged_into` on the pooled scratch, hits returned.
        fn search(&self, dist: &mut dyn DistanceFn, k: usize, ef: usize) -> SearchOutput {
            let mut results = Vec::new();
            let stats = crate::scratch::with_pooled(|scratch| {
                self.search_paged_into(dist, k, ef, scratch, &mut results)
            });
            SearchOutput { results, stats }
        }
    }

    fn store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        Arc::new(s)
    }

    /// Paged search as a mutated index serves it.
    fn search_live(
        paged: &PagedIndex,
        dist: &mut dyn DistanceFn,
        k: usize,
        ef: usize,
        tomb: &Tombstones,
    ) -> SearchOutput {
        tomb.search_live(k, ef, |k, ef| paged.search(dist, k, ef))
    }

    #[test]
    fn layout_assigns_every_vertex() {
        let mut g = Adjacency::new(10);
        for v in 0..9u32 {
            g.add_edge(v, v + 1, 0.0);
        }
        for strategy in [LayoutStrategy::InsertionOrder, LayoutStrategy::BfsCluster] {
            let l = PageLayout::build(&g, 3, strategy);
            assert_eq!(l.pages(), 4);
            let mut counts = vec![0usize; l.pages()];
            for v in 0..10u32 {
                counts[l.page(v) as usize] += 1;
            }
            assert!(counts.iter().all(|&c| c <= 3), "{strategy:?}: {counts:?}");
            assert_eq!(counts.iter().sum::<usize>(), 10);
        }
    }

    #[test]
    fn vertices_per_page_reasonable() {
        // 128-dim f32 vector (512 B) + 32 neighbours (128 B) -> 6 per page
        assert_eq!(PageLayout::vertices_per_page(128, 32), 6);
        // enormous vertices still get one slot
        assert_eq!(PageLayout::vertices_per_page(4096, 64), 1);
    }

    #[test]
    fn paged_search_matches_unpaged_results() {
        let s = store(500, 8, 1);
        let nav = vamana::build(&s, 12, 32, 1.2, 0);
        let layout = PageLayout::build(nav.graph(), 4, LayoutStrategy::BfsCluster);
        let paged = PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout);
        let q: Vec<f32> = vec![0.1; 8];
        let mut d1 = FlatDistance::new(&s, &q).unwrap();
        let (graph, entries) = (nav.graph(), nav.entries());
        let plain =
            crate::search::beam_search(graph, entries, &mut d1, 5, 32, &mut SearchScratch::new());
        let mut d2 = FlatDistance::new(&s, &q).unwrap();
        let paged_out = paged.search(&mut d2, 5, 32);
        assert_eq!(plain.ids(), paged_out.ids());
        assert!(paged_out.stats.pages_read > 0);
    }

    #[test]
    fn bfs_layout_reads_fewer_pages_than_insertion_order() {
        let s = store(2_000, 16, 2);
        let nav = vamana::build(&s, 16, 48, 1.2, 0);
        // Scramble ids' spatial meaning by hashing: insertion order in this
        // synthetic store is random, so BFS clustering should win clearly.
        let per_page = 4;
        let naive = PagedIndex::new(
            nav.graph().clone(),
            nav.entries().to_vec(),
            PageLayout::build(nav.graph(), per_page, LayoutStrategy::InsertionOrder),
        );
        let clustered = PagedIndex::new(
            nav.graph().clone(),
            nav.entries().to_vec(),
            PageLayout::build(nav.graph(), per_page, LayoutStrategy::BfsCluster),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut naive_reads = 0u64;
        let mut clustered_reads = 0u64;
        for _ in 0..20 {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut d1 = FlatDistance::new(&s, &q).unwrap();
            naive_reads += naive.search(&mut d1, 10, 48).stats.pages_read;
            let mut d2 = FlatDistance::new(&s, &q).unwrap();
            clustered_reads += clustered.search(&mut d2, 10, 48).stats.pages_read;
        }
        // Insertion order read 6 522 pages over the 20 queries; the plain
        // breadth-first fill read 5 705, packing by shared neighbours 5 248.
        // Reads now include each hop's read-ahead: 6 703 against 5 524.
        assert!(
            clustered_reads <= 5_750 && clustered_reads < naive_reads,
            "clustered {clustered_reads} against naive {naive_reads}"
        );
    }

    #[test]
    fn shared_neighbour_packing_reads_fewer_pages_on_clustered_vectors() {
        // 2 000 vectors around 100 centres: twenty to a neighbourhood,
        // three pages' worth, so which twenty-one share those pages counts.
        let mut rng = StdRng::seed_from_u64(23);
        let centres: Vec<Vec<f32>> = (0..100)
            .map(|_| (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let mut s = VectorStore::new(16);
        for i in 0..2_000 {
            let v: Vec<f32> = centres[i % centres.len()]
                .iter()
                .map(|x| x + rng.gen_range(-0.2f32..0.2))
                .collect();
            s.push(&v);
        }
        let s = Arc::new(s);
        let nav = vamana::build(&s, 16, 48, 1.2, 0);
        let paged = PagedIndex::new(
            nav.graph().clone(),
            nav.entries().to_vec(),
            PageLayout::build(nav.graph(), 7, LayoutStrategy::BfsCluster),
        );
        let queries = 40;
        let mut reads = 0u64;
        for _ in 0..queries {
            let near = s.get(rng.gen_range(0..s.len()) as u32);
            let q: Vec<f32> = near
                .iter()
                .map(|x| x + rng.gen_range(-0.05f32..0.05))
                .collect();
            let mut d = FlatDistance::new(&s, &q).unwrap();
            reads += paged.search(&mut d, 10, 48).stats.pages_read;
        }
        // The plain breadth-first fill read 4 853 pages over these 40
        // queries (121.3 a query); packing by shared neighbours read 4 090
        // (102.3). Reads now include each hop's read-ahead: 4 911 (122.8).
        assert!(reads <= 5_250, "{reads} page reads over {queries} queries");
    }

    #[test]
    fn two_phase_pq_search_cuts_page_reads() {
        let s = store(2_000, 16, 5);
        let nav = vamana::build(&s, 16, 48, 1.2, 0);
        let per_page = 4;
        let layout = PageLayout::build(nav.graph(), per_page, LayoutStrategy::BfsCluster);
        let one_phase =
            PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout.clone());
        let two_phase = PqPagedIndex::build(
            PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout),
            &s,
            &mqa_vector::PqParams {
                m: 8,
                iters: 8,
                train_sample: 2_000,
                seed: 0,
            },
        );
        // The routing state is tiny relative to raw vectors.
        assert!(two_phase.code_bytes() * 4 <= s.bytes());

        let mut rng = StdRng::seed_from_u64(11);
        let mut reads_1p = 0u64;
        let mut reads_2p = 0u64;
        let mut per_query_2p = Vec::new();
        let mut hits = 0usize;
        let queries = 15;
        let k = 10;
        for _ in 0..queries {
            let id = rng.gen_range(0..s.len()) as u32;
            let q: Vec<f32> = s
                .get(id)
                .iter()
                .map(|x| x + rng.gen_range(-0.05f32..0.05))
                .collect();
            let mut d = FlatDistance::new(&s, &q).unwrap();
            let exact = one_phase.search(&mut d, k, 48);
            reads_1p += exact.stats.pages_read;
            let approx = two_phase.search_two_phase(&q, &s, k, 48, &mut SearchScratch::new());
            reads_2p += approx.stats.pages_read;
            per_query_2p.push(approx.stats.pages_read);
            // Phase 2's pages are one submission through `fetch`.
            assert_eq!(approx.stats.device_waits, 1, "{:?}", approx.stats);
            hits += approx
                .ids()
                .iter()
                .filter(|x| exact.ids().contains(x))
                .count();
        }
        let recall = hits as f64 / (queries * k) as f64;
        assert!(recall >= 0.85, "two-phase recall {recall}");
        assert_eq!(per_query_2p, PHASE_TWO_READS);
        assert!(
            reads_2p * 2 <= reads_1p,
            "expected >=2x I/O reduction: two-phase {reads_2p} vs one-phase {reads_1p}"
        );
    }

    #[test]
    fn page_cache_keeps_results_bit_identical_and_absorbs_warm_reads() {
        let s = store(800, 8, 7);
        let nav = vamana::build(&s, 12, 32, 1.2, 0);
        let layout = PageLayout::build(nav.graph(), 4, LayoutStrategy::BfsCluster);
        let uncached = PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout.clone());
        let cached = PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout)
            .with_page_cache(Arc::new(mqa_cache::PageCache::new(4096)));
        let mut rng = StdRng::seed_from_u64(13);
        let queries: Vec<Vec<f32>> = (0..10)
            .map(|_| (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        // Cold pass: every page misses, so device reads match the
        // uncached index exactly and results are bit-identical.
        for q in &queries {
            let mut d1 = FlatDistance::new(&s, q).unwrap();
            let plain = uncached.search(&mut d1, 5, 32);
            let mut d2 = FlatDistance::new(&s, q).unwrap();
            let warm = cached.search(&mut d2, 5, 32);
            assert_eq!(plain.results, warm.results);
            assert_eq!(
                plain.stats.pages_read,
                warm.stats.pages_read + warm.stats.pages_cached,
                "every page touch must be either a device read or a cache hit"
            );
        }
        // Warm pass: the same queries touch only resident pages.
        let mut warm_device_reads = 0u64;
        let mut warm_cache_hits = 0u64;
        for q in &queries {
            let mut d1 = FlatDistance::new(&s, q).unwrap();
            let plain = uncached.search(&mut d1, 5, 32);
            let mut d2 = FlatDistance::new(&s, q).unwrap();
            let warm = cached.search(&mut d2, 5, 32);
            assert_eq!(plain.results, warm.results);
            warm_device_reads += warm.stats.pages_read;
            warm_cache_hits += warm.stats.pages_cached;
        }
        assert_eq!(warm_device_reads, 0, "warm repeat queries must be I/O-free");
        assert!(warm_cache_hits > 0);
    }

    #[test]
    fn live_filtered_search_never_surfaces_dead() {
        let s = store(600, 8, 17);
        let nav = vamana::build(&s, 12, 32, 1.2, 0);
        let layout = PageLayout::build(nav.graph(), 4, LayoutStrategy::BfsCluster);
        let paged = PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout);
        let mut tomb = Tombstones::new(600);
        // Quiesced: live-filtered search is exactly the plain path.
        let q: Vec<f32> = vec![0.2; 8];
        let mut d0 = FlatDistance::new(&s, &q).unwrap();
        let plain = paged.search(&mut d0, 5, 32);
        let mut d1 = FlatDistance::new(&s, &q).unwrap();
        let quiesced = search_live(&paged, &mut d1, 5, 32, &tomb);
        assert_eq!(plain.results, quiesced.results);
        // Kill the whole top-5 and search again: none may surface, and
        // the beam still fills k with live objects.
        for &id in &plain.ids() {
            tomb.kill(id);
        }
        let mut d2 = FlatDistance::new(&s, &q).unwrap();
        let filtered = search_live(&paged, &mut d2, 5, 32, &tomb);
        assert_eq!(filtered.ids().len(), 5);
        for id in filtered.ids() {
            assert!(!tomb.is_dead(id), "dead id {id} surfaced");
        }
    }

    #[test]
    fn a_submission_waits_once_per_queue_depth_of_reads() {
        let latency = Duration::from_micros(50);
        let device = DeviceProfile::with_read_latency(latency);
        assert_eq!(device.wait_for(0), Duration::ZERO);
        assert_eq!(device.wait_for(1), latency);
        assert_eq!(device.wait_for(12), latency);
        assert_eq!(device.wait_for(QUEUE_DEPTH), latency);
        assert_eq!(device.wait_for(40), 2 * latency);
        let free = DeviceProfile::default();
        for missed in [0, 1, 12, 40, u32::MAX] {
            assert_eq!(free.wait_for(missed), Duration::ZERO);
        }
    }

    /// A hub pointing at 40 leaves, one vertex a page, no cache.
    fn star(latency: Duration) -> (Arc<VectorStore>, PagedIndex) {
        let leaves = 40u32;
        let mut s = VectorStore::new(1);
        let mut g = Adjacency::new(leaves as usize + 1);
        for v in 0..=leaves {
            s.push(&[v as f32]);
        }
        g.set_neighbors(0, &Adjacency::edges_to(&(1..=leaves).collect::<Vec<_>>()));
        let layout = PageLayout::build(&g, 1, LayoutStrategy::InsertionOrder);
        let paged = PagedIndex::new(g, vec![0], layout)
            .with_device(DeviceProfile::with_read_latency(latency));
        (Arc::new(s), paged)
    }

    #[test]
    fn a_hop_of_forty_misses_is_forty_reads_and_one_wait() {
        let (s, paged) = star(Duration::ZERO);
        // The hop by itself: the hub's whole neighbour list in one fetch.
        let mut pages = VisitedSet::new(paged.layout().pages());
        pages.next_epoch();
        let mut stats = SearchStats::default();
        let hub = paged.graph().neighbors(0);
        paged.fetch(hub, std::iter::empty(), &mut pages, &mut stats);
        assert_eq!((stats.pages_read, stats.device_waits), (40, 1));
        // Asked again, every page is already in: nothing read, no wait.
        paged.fetch(hub, std::iter::empty(), &mut pages, &mut stats);
        assert_eq!((stats.pages_read, stats.device_waits), (40, 1));
        // Read-ahead fills the queue and no further: eight leaves of the
        // hop's own, then the hub's list as what lies ahead.
        pages.next_epoch();
        let mut stats = SearchStats::default();
        paged.fetch(&hub[..8], std::iter::once(0), &mut pages, &mut stats);
        let full = u64::from(QUEUE_DEPTH);
        assert_eq!((stats.pages_read, stats.device_waits), (full, 1));
        // The whole query: the seed's page, then the hub's hop, which
        // fills the queue by itself, so nothing is read ahead; the leaves
        // have no neighbours to fetch.
        let mut d = FlatDistance::new(&s, &[0.0]).unwrap();
        let out = paged.search(&mut d, 5, 64);
        assert_eq!(out.stats.hops, 41);
        assert_eq!((out.stats.pages_read, out.stats.device_waits), (41, 2));
    }

    /// A fork, one vertex a page, no cache: the entry 0 leads to 1 and 2,
    /// 1 leads to 3 and 2 to 4. Vertex 1 is nearest a query at 0.0, so it
    /// is expanded before 2.
    fn fork() -> (Arc<VectorStore>, PagedIndex) {
        let mut s = VectorStore::new(1);
        for x in [10.0, 1.0, 2.0, 30.0, 40.0] {
            s.push(&[x]);
        }
        let mut g = Adjacency::new(5);
        g.set_neighbors(0, &Adjacency::edges_to(&[1, 2]));
        g.set_neighbors(1, &Adjacency::edges_to(&[3]));
        g.set_neighbors(2, &Adjacency::edges_to(&[4]));
        let layout = PageLayout::build(&g, 1, LayoutStrategy::InsertionOrder);
        (Arc::new(s), PagedIndex::new(g, vec![0], layout))
    }

    #[test]
    fn reading_ahead_for_the_next_candidate_saves_a_wait() {
        let (s, paged) = fork();
        let hops = |upcoming: &[VecId]| {
            let mut pages = VisitedSet::new(paged.layout().pages());
            pages.next_epoch();
            let mut stats = SearchStats::default();
            // Expanding 1 with 2 next, then expanding 2.
            let (one, two) = (paged.graph().neighbors(1), paged.graph().neighbors(2));
            paged.fetch(one, upcoming.iter().copied(), &mut pages, &mut stats);
            paged.fetch(two, std::iter::empty(), &mut pages, &mut stats);
            (stats.pages_read, stats.device_waits)
        };
        // Without read-ahead the two hops wait twice; with it, 2's
        // neighbour is in before 2 is expanded.
        assert_eq!(hops(&[]), (2, 2));
        assert_eq!(hops(&[2]), (2, 1));
        // The whole query: the seeding, 0's hop, and 1's hop carrying 4's
        // page; 2's hop then reads nothing. Five pages, three waits where
        // the hop-by-hop submissions waited four times, and the answer of
        // the unpaged walk.
        let mut d = FlatDistance::new(&s, &[0.0]).unwrap();
        let out = paged.search(&mut d, 5, 64);
        assert_eq!(out.ids(), vec![1, 2, 0, 3, 4]);
        assert_eq!(out.stats.hops, 5);
        assert_eq!((out.stats.pages_read, out.stats.device_waits), (5, 3));
    }

    /// The one wall-clock assertion, and a lower bound only (`sleep` never
    /// returns early): each wait costs at least the device latency.
    #[test]
    fn a_query_takes_at_least_its_waits_times_the_latency() {
        let latency = Duration::from_millis(2);
        let (s, paged) = star(latency);
        let mut d = FlatDistance::new(&s, &[0.0]).unwrap();
        let sw = mqa_obs::Stopwatch::start();
        let out = paged.search(&mut d, 5, 64);
        let elapsed_us = sw.elapsed_us();
        // Two waits; the hop's 40 reads are two rounds of the queue.
        assert_eq!(out.stats.device_waits, 2);
        assert!(
            u128::from(elapsed_us) >= latency.as_micros() * u128::from(out.stats.device_waits),
            "{elapsed_us} us for {} waits of {latency:?}",
            out.stats.device_waits
        );
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn zero_per_page_panics() {
        let g = Adjacency::new(1);
        PageLayout::build(&g, 0, LayoutStrategy::InsertionOrder);
    }
}
