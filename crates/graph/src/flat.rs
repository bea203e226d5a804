//! Exhaustive (brute-force) search: the exactness baseline.
//!
//! Used three ways: as the ground-truth oracle for recall measurements, as
//! the "no index" configuration of the panel, and — because it drives every
//! candidate through [`DistanceFn::eval`] with the running top-k bound — as
//! the cleanest demonstration of incremental-scanning savings (E8).

use crate::search::{SearchOutput, SearchStats};
use crate::traits::DistanceFn;
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

    /// Size of the scanned population.
    pub(crate) fn len(&self) -> usize {
        self.n
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FlatDistance;
    use mqa_vector::VectorStore;

    #[test]
    fn finds_exact_nearest() {
        let mut store = VectorStore::new(1);
        for x in [5.0f32, 1.0, 3.0, 2.0, 4.0] {
            store.push(&[x]);
        }
        let q = [2.2f32];
        let mut d = FlatDistance::new(&store, &q).unwrap();
        let out = FlatSearcher::new(5).scan(&mut d, 2, |_| true);
        assert_eq!(out.ids(), vec![3, 2]); // 2.0 then 3.0
        assert_eq!(out.stats.evals, 5);
    }

    #[test]
    fn k_exceeding_population() {
        let mut store = VectorStore::new(1);
        store.push(&[0.0]);
        let q = [1.0f32];
        let mut d = FlatDistance::new(&store, &q).unwrap();
        let out = FlatSearcher::new(1).scan(&mut d, 5, |_| true);
        assert_eq!(out.results.len(), 1);
    }
}
