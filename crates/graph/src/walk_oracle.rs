//! The two-heap best-first loop the sorted-pool walk replaced, kept as the
//! reference the differential tests below compare [`crate::search::walk`]
//! against: same results, same work counters, same evaluation order and
//! the same fetch calls — including the corner the pool's tie list exists for
//! (a candidate pushed out of a full beam whose distance still equals the
//! bound is expanded, because the stop test is strict).

use crate::scratch::{SearchScratch, VisitedSet};
use crate::search::{walk, SearchStats, Seeds, WalkGraph, WalkMode};
use crate::traits::DistanceFn;
use mqa_vector::{Candidate, TopK, VecId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Everything one oracle walk produced.
#[derive(Debug, Default, PartialEq)]
struct OracleRun {
    /// The best `k`, ascending.
    results: Vec<Candidate>,
    stats: SearchStats,
    /// Every candidate evaluated, in order (`CollectExact` only).
    evaluated: Vec<Candidate>,
    /// Expansions of a candidate that was no longer (or never) in the
    /// beam: the tie corner.
    tie_expansions: u64,
}

/// The pre-pool loop, statement for statement: a frontier min-heap beside
/// a bounded result max-heap, visited check interleaved with evaluation.
/// It notes the vertices each hop (and the seeding) meets for the first
/// time as it meets them and fetches that list when the hop ends — a
/// fetch reads no distance and no evaluation reads a page, so the hop's
/// end is as good as its start. What the fetch is told lies ahead is not
/// as good at the end: the hop's offers reshape the beam. So each hop
/// notes the beam's unexpanded candidates when it starts, and passes that
/// list.
fn two_heap_walk<G: WalkGraph>(
    graph: &G,
    seeds: Seeds<'_>,
    dist: &mut dyn DistanceFn,
    k: usize,
    ef: usize,
    mode: WalkMode,
    pages: &mut VisitedSet,
) -> OracleRun {
    let mut run = OracleRun::default();
    let mut visited = VisitedSet::new(graph.vertices());
    visited.next_epoch();
    let mut frontier: BinaryHeap<Reverse<Candidate>> = BinaryHeap::new();
    let mut beam = TopK::new(ef.max(k));
    let collect = matches!(mode, WalkMode::CollectExact);
    let mut met: Vec<VecId> = Vec::new();
    let mut expanded = VisitedSet::new(graph.vertices());
    expanded.next_epoch();
    let mut ahead: Vec<VecId> = Vec::new();

    match seeds {
        Seeds::Entries(entries) => {
            for &e in entries {
                if !visited.insert(e) {
                    continue;
                }
                met.push(e);
                let c = Candidate::new(e, dist.exact(e));
                run.stats.evals += 1;
                if collect {
                    run.evaluated.push(c);
                }
                beam.offer(c);
                frontier.push(Reverse(c));
            }
            graph.fetch(&met, std::iter::empty(), pages, &mut run.stats);
        }
        Seeds::Evaluated(c) => {
            visited.insert(c.id);
            beam.offer(c);
            frontier.push(Reverse(c));
        }
    }

    while let Some(Reverse(current)) = frontier.pop() {
        if current.dist > beam.bound() {
            break;
        }
        let in_beam = beam.clone().into_sorted();
        if !in_beam.contains(&current) {
            run.tie_expansions += 1;
        }
        expanded.insert(current.id);
        ahead.clear();
        let unexpanded = in_beam.iter().filter(|c| !expanded.contains(c.id));
        ahead.extend(unexpanded.map(|c| c.id));
        run.stats.hops += 1;
        met.clear();
        for &nb in graph.neighbors(current.id) {
            if !visited.insert(nb) {
                continue;
            }
            met.push(nb);
            let c = if collect {
                let c = Candidate::new(nb, dist.exact(nb));
                run.evaluated.push(c);
                c
            } else {
                match dist.eval(nb, beam.bound()) {
                    Some(d) => Candidate::new(nb, d),
                    None => {
                        run.stats.pruned += 1;
                        continue;
                    }
                }
            };
            run.stats.evals += 1;
            if beam.offer(c) {
                frontier.push(Reverse(c));
            }
        }
        graph.fetch(&met, ahead.iter().copied(), pages, &mut run.stats);
    }
    run.results = beam.into_sorted();
    run.results.truncate(k);
    run
}

/// The pool walk's output in the oracle's shape.
fn pool_walk<G: WalkGraph>(
    graph: &G,
    seeds: Seeds<'_>,
    dist: &mut dyn DistanceFn,
    k: usize,
    ef: usize,
    mode: WalkMode,
    scratch: &mut SearchScratch,
) -> OracleRun {
    let stats = walk(graph, seeds, dist, k, ef, mode, scratch);
    OracleRun {
        results: scratch.pool.best().take(k).collect(),
        stats,
        evaluated: scratch.evaluated.clone(),
        tie_expansions: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacency;
    use crate::starling::{LayoutStrategy, PageLayout, PagedIndex};
    use mqa_cache::PageCache;
    use mqa_rng::StdRng;
    use std::cell::RefCell;
    use std::sync::Arc;

    /// Distances read from a table; with `abandon` an evaluation at or
    /// beyond the bound is given up the way the fused scanner would.
    struct TableDistance {
        table: Vec<f32>,
        abandon: bool,
    }

    impl DistanceFn for TableDistance {
        fn eval(&mut self, id: VecId, bound: f32) -> Option<f32> {
            let d = self.table[id as usize];
            (!self.abandon || d < bound).then_some(d)
        }
    }

    /// One fetch call: the fresh ids, and the upcoming candidates it was
    /// told of.
    #[derive(Debug, PartialEq)]
    struct Fetch {
        ids: Vec<VecId>,
        upcoming: Vec<VecId>,
    }

    /// Records every fetch call: what each hop, and the seeding, asked for.
    struct Recording<'a> {
        graph: &'a Adjacency,
        fetched: RefCell<Vec<Fetch>>,
    }

    impl WalkGraph for Recording<'_> {
        fn vertices(&self) -> usize {
            self.graph.len()
        }

        fn neighbors(&self, v: VecId) -> &[VecId] {
            self.graph.neighbors(v)
        }

        fn fetch(
            &self,
            ids: &[VecId],
            upcoming: impl Iterator<Item = VecId>,
            _pages: &mut VisitedSet,
            _stats: &mut SearchStats,
        ) {
            self.fetched.borrow_mut().push(Fetch {
                ids: ids.to_vec(),
                upcoming: upcoming.collect(),
            });
        }
    }

    fn random_graph(n: usize, degree: usize, rng: &mut StdRng) -> Adjacency {
        let mut g = Adjacency::new(n);
        for v in 0..n {
            let mut nb: Vec<VecId> = Vec::new();
            while nb.len() < degree.min(n - 1) {
                let u = rng.gen_range(0..n) as VecId;
                if u as usize != v && !nb.contains(&u) {
                    nb.push(u);
                }
            }
            g.set_neighbors(v as VecId, &Adjacency::edges_to(&nb));
        }
        g
    }

    /// Squared distances from a query on an integer grid: few distinct
    /// values, so ties at the bound are the common case.
    fn grid_table(n: usize, side: i32, rng: &mut StdRng) -> Vec<f32> {
        let q = (rng.gen_range(0..side), rng.gen_range(0..side));
        (0..n)
            .map(|_| {
                let (x, y) = (rng.gen_range(0..side), rng.gen_range(0..side));
                ((x - q.0).pow(2) + (y - q.1).pow(2)) as f32
            })
            .collect()
    }

    /// Random distances, each shared by a run of duplicated vectors.
    fn duplicate_table(n: usize, copies: usize, rng: &mut StdRng) -> Vec<f32> {
        let distinct: Vec<f32> = (0..n.div_ceil(copies))
            .map(|_| rng.gen_range(0.0f32..4.0))
            .collect();
        let mut table: Vec<f32> = (0..n).map(|i| distinct[i / copies]).collect();
        rng.shuffle(&mut table);
        table
    }

    fn seed_shapes(table: &[f32], rng: &mut StdRng) -> Vec<(Vec<VecId>, Option<Candidate>)> {
        let n = table.len();
        let mut pick = || rng.gen_range(0..n) as VecId;
        let (a, b, c) = (pick(), pick(), pick());
        vec![
            (vec![a], None),
            (vec![a, b, a, c, b], None),
            (Vec::new(), Some(Candidate::new(a, table[a as usize]))),
        ]
    }

    fn seeds_of<'a>(shape: &'a (Vec<VecId>, Option<Candidate>)) -> Seeds<'a> {
        match shape.1 {
            Some(c) => Seeds::Evaluated(c),
            None => Seeds::Entries(&shape.0),
        }
    }

    #[test]
    fn pool_walk_matches_the_two_heap_walk_on_tied_distances() {
        let mut rng = StdRng::seed_from_u64(0x5449_4553);
        let mut scratch = SearchScratch::new();
        let (mut cases, mut tie_expansions, mut lookaheads) = (0u64, 0u64, 0usize);
        for round in 0..24 {
            let n = [40, 90, 150][round % 3];
            let graph = random_graph(n, 4 + round % 5, &mut rng);
            let table = if round % 2 == 0 {
                grid_table(n, 3 + (round % 4) as i32, &mut rng)
            } else {
                duplicate_table(n, 2 + round % 4, &mut rng)
            };
            let recording = Recording {
                graph: &graph,
                fetched: RefCell::new(Vec::new()),
            };
            for shape in seed_shapes(&table, &mut rng) {
                for k in [1usize, 5] {
                    for ef in [1, k, 64, n + 10] {
                        for mode in [WalkMode::Prune, WalkMode::CollectExact] {
                            for abandon in [false, true] {
                                let what = format!(
                                    "round {round} seeds {shape:?} k {k} ef {ef} \
                                     collect {} abandon {abandon}",
                                    matches!(mode, WalkMode::CollectExact)
                                );
                                let mut dist = TableDistance {
                                    table: table.clone(),
                                    abandon,
                                };
                                let mut pages = VisitedSet::new(0);
                                let mut want = two_heap_walk(
                                    &recording,
                                    seeds_of(&shape),
                                    &mut dist,
                                    k,
                                    ef,
                                    mode,
                                    &mut pages,
                                );
                                let want_fetched = recording.fetched.take();
                                let got = pool_walk(
                                    &recording,
                                    seeds_of(&shape),
                                    &mut dist,
                                    k,
                                    ef,
                                    mode,
                                    &mut scratch,
                                );
                                let got_fetched = recording.fetched.take();
                                tie_expansions += std::mem::take(&mut want.tie_expansions);
                                cases += 1;
                                assert_eq!(got, want, "{what}");
                                assert_eq!(got_fetched, want_fetched, "{what}: fetch calls");
                                // One call a hop, one more for entry seeds;
                                // no vertex is asked for twice.
                                let seedings = u64::from(shape.1.is_none());
                                assert_eq!(
                                    got_fetched.len() as u64,
                                    got.stats.hops + seedings,
                                    "{what}"
                                );
                                let mut ids: Vec<VecId> =
                                    got_fetched.iter().flat_map(|f| f.ids.clone()).collect();
                                let asked = ids.len();
                                ids.sort_unstable();
                                ids.dedup();
                                assert_eq!(ids.len(), asked, "{what}: an id fetched twice");
                                lookaheads += got_fetched
                                    .iter()
                                    .filter(|f| !f.upcoming.is_empty())
                                    .count();
                            }
                        }
                    }
                }
            }
        }
        assert!(
            tie_expansions > 0,
            "no case made the oracle expand a candidate outside its beam ({cases} cases)"
        );
        assert!(lookaheads > 0, "no hop had an upcoming candidate");
    }

    /// The corner by hand: beam of two, a candidate that ties the worst
    /// with a smaller id pushes it out, and the pushed-out vertex — the
    /// only way to the true nearest — is still expanded.
    #[test]
    fn an_evicted_tie_still_routes_the_walk() {
        // 0 -> {9, 7}; 9 -> {3}; distances: 0:1, 9:2, 7:2, 3:0.5
        let mut g = Adjacency::new(10);
        g.set_neighbors(0, &Adjacency::edges_to(&[9, 7]));
        g.set_neighbors(9, &Adjacency::edges_to(&[3]));
        let mut table = vec![50.0f32; 10];
        for (id, d) in [(0, 1.0), (9, 2.0), (7, 2.0), (3, 0.5)] {
            table[id] = d;
        }
        let mut dist = TableDistance {
            table,
            abandon: false,
        };
        let mut pages = VisitedSet::new(0);
        let want = two_heap_walk(
            &g,
            Seeds::Entries(&[0]),
            &mut dist,
            2,
            2,
            WalkMode::Prune,
            &mut pages,
        );
        assert_eq!(want.tie_expansions, 1, "the oracle expands evicted 9");
        assert_eq!(want.results[0].id, 3);
        let mut got = pool_walk(
            &g,
            Seeds::Entries(&[0]),
            &mut dist,
            2,
            2,
            WalkMode::Prune,
            &mut SearchScratch::new(),
        );
        got.tie_expansions = want.tie_expansions;
        assert_eq!(got, want);
    }

    /// Entry lists may repeat a vertex; the seeding asks for each distinct
    /// entry once, in first-mention order, as one call.
    #[test]
    fn repeated_entry_seeds_are_fetched_once() {
        let mut rng = StdRng::seed_from_u64(0x5345_4544);
        let graph = random_graph(24, 3, &mut rng);
        let recording = Recording {
            graph: &graph,
            fetched: RefCell::new(Vec::new()),
        };
        let entries = [15, 19, 15, 17, 19];
        let mut dist = TableDistance {
            table: grid_table(24, 4, &mut rng),
            abandon: false,
        };
        let mut pages = VisitedSet::new(0);
        let want = two_heap_walk(
            &recording,
            Seeds::Entries(&entries),
            &mut dist,
            3,
            6,
            WalkMode::Prune,
            &mut pages,
        );
        let want_fetched = recording.fetched.take();
        let mut got = pool_walk(
            &recording,
            Seeds::Entries(&entries),
            &mut dist,
            3,
            6,
            WalkMode::Prune,
            &mut SearchScratch::new(),
        );
        got.tie_expansions = want.tie_expansions;
        assert_eq!(got, want);
        let got_fetched = recording.fetched.take();
        let seeding = Fetch {
            ids: vec![15, 19, 17],
            upcoming: Vec::new(),
        };
        assert_eq!(got_fetched.first(), Some(&seeding));
        assert_eq!(got_fetched, want_fetched);
        // Every vertex asked for is evaluated, and nothing else is.
        let asked: usize = got_fetched.iter().map(|f| f.ids.len()).sum();
        assert_eq!(got.stats.total_distance_work(), asked as u64);
    }

    /// Paged layout behind a small shared cache: the cache's verdicts
    /// depend on the exact probe sequence of every earlier query, so equal
    /// `pages_read` / `pages_cached` / `device_waits` per query over a whole
    /// stream means the sequences, and the submissions they were cut into,
    /// were equal.
    #[test]
    fn paged_walk_reads_and_hits_the_same_pages() {
        let mut rng = StdRng::seed_from_u64(0x5041_4745);
        let n = 240;
        let graph = random_graph(n, 8, &mut rng);
        let paged = |cache: usize| {
            let layout = PageLayout::build(&graph, 4, LayoutStrategy::BfsCluster);
            PagedIndex::new(graph.clone(), vec![0, 17, 0], layout)
                .with_page_cache(Arc::new(PageCache::new(cache)))
        };
        let (pool_side, oracle_side) = (paged(12), paged(12));
        let mut scratch = SearchScratch::new();
        let mut oracle_pages = VisitedSet::new(0);
        let (mut read, mut cached) = (0, 0);
        for query in 0..40 {
            let table = if query % 2 == 0 {
                grid_table(n, 5, &mut rng)
            } else {
                duplicate_table(n, 3, &mut rng)
            };
            let (k, ef) = (1 + query % 6, [4, 16, 64][query % 3]);
            let mut dist = TableDistance {
                table,
                abandon: query % 4 < 2,
            };
            let entries = [0, 17, 0];
            oracle_pages.resize(oracle_side.layout().pages());
            oracle_pages.next_epoch();
            let mut want = two_heap_walk(
                &oracle_side,
                Seeds::Entries(&entries),
                &mut dist,
                k,
                ef,
                WalkMode::Prune,
                &mut oracle_pages,
            );
            scratch.begin_pages(pool_side.layout().pages());
            let got = pool_walk(
                &pool_side,
                Seeds::Entries(&entries),
                &mut dist,
                k,
                ef,
                WalkMode::Prune,
                &mut scratch,
            );
            want.tie_expansions = 0;
            assert_eq!(got, want, "query {query}");
            read += got.stats.pages_read;
            cached += got.stats.pages_cached;
        }
        assert!(
            read > 0 && cached > 0,
            "stream exercised both verdicts: {read} read, {cached} cached"
        );
    }
}
