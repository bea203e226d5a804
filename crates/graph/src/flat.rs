//! Exhaustive (brute-force) search: the exactness baseline.
//!
//! Used three ways: as the ground-truth oracle for recall measurements, as
//! the "no index" configuration of the panel, and — because it drives every
//! candidate through [`DistanceFn::eval`] with the running top-k bound — as
//! the cleanest demonstration of incremental-scanning savings (E8).

use crate::scratch::SearchScratch;
use crate::search::{SearchOutput, SearchStats};
use crate::traits::{DistanceFn, GraphSearcher};
use mqa_vector::{Candidate, TopK, VecId};

/// Brute-force searcher over `n` stored vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FlatSearcher {
    n: usize,
}

impl FlatSearcher {
    /// Creates a searcher over a population of `n`.
    pub fn new(n: usize) -> Self {
        Self { n }
    }

    /// The scan itself, compiled around the evaluator's type and around
    /// `keep`: an id it rejects (a tombstoned one, for the live-only recall
    /// oracle) is skipped before it is evaluated, so the result stays
    /// `k`-bounded whatever the delete history.
    pub(crate) fn scan<D: DistanceFn + ?Sized>(
        &self,
        dist: &mut D,
        k: usize,
        keep: impl Fn(VecId) -> bool,
    ) -> SearchOutput {
        assert!(k > 0, "search requires k >= 1");
        let mut stats = SearchStats::default();
        let mut top = TopK::new(k);
        for id in (0..self.n as VecId).filter(|&id| keep(id)) {
            match dist.eval(id, top.bound()) {
                Some(d) => {
                    stats.evals += 1;
                    top.offer(Candidate::new(id, d));
                }
                None => stats.pruned += 1,
            }
        }
        SearchOutput {
            results: top.into_sorted(),
            stats,
        }
    }
}

impl GraphSearcher for FlatSearcher {
    fn search_with(
        &self,
        dist: &mut dyn DistanceFn,
        k: usize,
        _ef: usize,
        _scratch: &mut SearchScratch,
    ) -> SearchOutput {
        // The exhaustive scan keeps no visited state; the scratch is
        // accepted (and ignored) so flat search slots into the same
        // worker-pool plumbing as the graph indexes.
        self.scan(dist, k, |_| true)
    }

    fn len(&self) -> usize {
        self.n
    }

    fn avg_degree(&self) -> f64 {
        0.0
    }

    fn describe(&self) -> String {
        format!("flat exhaustive scan over {} vectors", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FlatDistance;
    use mqa_vector::{Metric, VectorStore};

    #[test]
    fn finds_exact_nearest() {
        let mut store = VectorStore::new(1);
        for x in [5.0f32, 1.0, 3.0, 2.0, 4.0] {
            store.push(&[x]);
        }
        let q = [2.2f32];
        let mut d = FlatDistance::new(&store, &q, Metric::L2).unwrap();
        let out = FlatSearcher::new(5).search(&mut d, 2, 0);
        assert_eq!(out.ids(), vec![3, 2]); // 2.0 then 3.0
        assert_eq!(out.stats.evals, 5);
    }

    #[test]
    fn k_exceeding_population() {
        let mut store = VectorStore::new(1);
        store.push(&[0.0]);
        let q = [1.0f32];
        let mut d = FlatDistance::new(&store, &q, Metric::L2).unwrap();
        let out = FlatSearcher::new(1).search(&mut d, 5, 0);
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn describe_mentions_flat() {
        assert!(FlatSearcher::new(3).describe().contains("flat"));
        assert_eq!(FlatSearcher::new(3).avg_degree(), 0.0);
        assert_eq!(FlatSearcher::new(3).len(), 3);
    }
}
