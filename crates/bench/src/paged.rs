//! The paged fixture and worker-pool pass of E12 (`exp_concurrent`'s
//! `paged-io` sweep) and E13 (`exp_cache`).
//!
//! [`PagedFixture`] is a Vamana graph (R 16, L 48, α 1.2) over uniform
//! vectors, laid out 8 vertices a page in BFS order. [`PagedFixture::pass`]
//! submits each query's [`PagedIndex::search_paged_into`] to an n-worker
//! [`WorkerPool`] and returns what every answered query found and cost.
//! The pool catches a job's panic, so a failed query cannot abort a pass:
//! it leaves its slot empty, and [`Pass::answered`] counts the rest.

use mqa_engine::WorkerPool;
use mqa_graph::pipeline::NavGraph;
use mqa_graph::starling::{LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::{FlatDistance, SearchStats};
use mqa_rng::StdRng;
use mqa_vector::{Candidate, VectorStore};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Hits a query asks for.
const K: usize = 10;
/// Beam width of every paged search.
const EF: usize = 32;

/// `n` vectors uniform in `[-1, 1)^dim`, drawn from one seeded stream.
pub fn uniform_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

/// A Vamana graph over a store of uniform vectors and its page layout.
pub struct PagedFixture {
    store: Arc<VectorStore>,
    nav: NavGraph,
    layout: PageLayout,
}

/// What one answered query returned and cost.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The hits, nearest first.
    pub hits: Vec<Candidate>,
    /// Work and I/O counters of the search.
    pub stats: SearchStats,
    /// Wall time of the job, distance setup included (µs).
    pub latency_us: u64,
}

/// One pass of a query set through the pool.
#[derive(Debug)]
pub struct Pass {
    /// One slot a query, in query order. `None` marks a query that was not
    /// answered: the store refused its dimension, it found no hit, its job
    /// panicked or the pool refused it.
    pub answers: Vec<Option<Answer>>,
    /// Wall time from spawning the pool until its workers joined.
    pub wall: Duration,
}

impl PagedFixture {
    /// `n` uniform `dim`-d vectors from `seed`, the Vamana graph over them
    /// and its BFS page layout.
    pub fn uniform(n: usize, dim: usize, seed: u64) -> Self {
        let mut store = VectorStore::new(dim);
        for v in uniform_vectors(n, dim, seed) {
            store.push(&v);
        }
        let store = Arc::new(store);
        let nav = mqa_graph::vamana::build(&store, 16, 48, 1.2, 7);
        let layout = PageLayout::build(nav.graph(), 8, LayoutStrategy::BfsCluster);
        Self { store, nav, layout }
    }

    /// A fresh paged index over the fixture's graph and layout, with no
    /// device profile and no page cache.
    pub fn index(&self) -> PagedIndex {
        PagedIndex::new(
            self.nav.graph().clone(),
            self.nav.entries().to_vec(),
            self.layout.clone(),
        )
    }

    /// Searches every query of `queries` through `index` on a pool of
    /// `workers` threads, one job a query.
    pub fn pass(
        &self,
        index: &Arc<PagedIndex>,
        queries: &Arc<Vec<Vec<f32>>>,
        workers: usize,
    ) -> Pass {
        let (tx, rx) = mpsc::channel();
        let sw = mqa_obs::Stopwatch::start();
        {
            let pool = WorkerPool::new(workers, (2 * queries.len()).max(1));
            for qi in 0..queries.len() {
                let index = Arc::clone(index);
                let store = Arc::clone(&self.store);
                let queries = Arc::clone(queries);
                let tx = tx.clone();
                let job = Box::new(move || {
                    let sw = mqa_obs::Stopwatch::start();
                    let Ok(mut dist) = FlatDistance::new(&store, &queries[qi]) else {
                        return;
                    };
                    let mut hits = Vec::new();
                    let stats = mqa_graph::with_pooled(|scratch| {
                        index.search_paged_into(&mut dist, K, EF, scratch, &mut hits)
                    });
                    if !hits.is_empty() {
                        let latency_us = sw.elapsed_us();
                        drop(tx.send((
                            qi,
                            Answer {
                                hits,
                                stats,
                                latency_us,
                            },
                        )));
                    }
                });
                // A refused submission leaves the query unanswered.
                pool.submit(job).ok();
            }
            // Dropping the pool drains the queue and joins the workers.
        }
        let wall = sw.elapsed();
        drop(tx);
        let mut answers = vec![None; queries.len()];
        for (qi, answer) in rx {
            answers[qi] = Some(answer);
        }
        Pass { answers, wall }
    }
}

impl Pass {
    /// Queries that returned hits.
    pub fn answered(&self) -> usize {
        self.answers.iter().flatten().count()
    }

    /// The pass itself when every query was answered; otherwise reports how
    /// many were not and exits the process with status 1, so an experiment
    /// cannot print a row that silently dropped queries.
    pub fn or_exit(self) -> Self {
        let missing = self.answers.len() - self.answered();
        if missing > 0 {
            eprintln!("{missing} of {} queries unanswered", self.answers.len());
            std::process::exit(1);
        }
        self
    }

    /// The counters of every answered query, summed.
    pub fn total(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for answer in self.answers.iter().flatten() {
            total.merge(&answer.stats);
        }
        total
    }

    /// The `q` quantile of the answered queries' latencies (µs; 0 when
    /// none was answered).
    pub fn latency_us(&self, q: f64) -> u64 {
        let mut lats: Vec<u64> = self
            .answers
            .iter()
            .flatten()
            .map(|a| a.latency_us)
            .collect();
        lats.sort_unstable();
        let idx = (lats.len().saturating_sub(1) as f64 * q).round() as usize;
        lats.get(idx).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_query_of_the_wrong_dimension_is_unanswered() {
        let fixture = PagedFixture::uniform(300, 8, 42);
        let mut queries = uniform_vectors(12, 8, 99);
        queries.insert(5, vec![0.5; 7]);
        let pass = fixture.pass(&Arc::new(fixture.index()), &Arc::new(queries), 2);
        assert_eq!(pass.answered(), 12);
        assert!(pass.answers[5].is_none());
    }

    #[test]
    fn pool_answers_equal_serial_search_at_every_worker_count() {
        let fixture = PagedFixture::uniform(600, 8, 42);
        let queries = Arc::new(uniform_vectors(24, 8, 99));
        let index = Arc::new(fixture.index());
        let mut scratch = mqa_graph::SearchScratch::new();
        let serial: Vec<(Vec<Candidate>, SearchStats)> = queries
            .iter()
            .map(|q| {
                let mut dist = FlatDistance::new(&fixture.store, q).unwrap();
                let mut hits = Vec::new();
                let stats = index.search_paged_into(&mut dist, K, EF, &mut scratch, &mut hits);
                (hits, stats)
            })
            .collect();
        let one = fixture.pass(&index, &queries, 1);
        let four = fixture.pass(&index, &queries, 4);
        assert!(one.total().pages_read > 0);
        assert_eq!(one.total().pages_read, four.total().pages_read);
        for pass in [&one, &four] {
            assert_eq!(pass.answered(), queries.len());
            for (answer, (hits, stats)) in pass.answers.iter().zip(&serial) {
                let answer = answer.as_ref().unwrap();
                assert_eq!(&answer.hits, hits);
                assert_eq!(&answer.stats, stats);
            }
        }
    }
}
