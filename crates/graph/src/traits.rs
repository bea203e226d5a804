//! Core abstractions: distance evaluators and the user-facing
//! [`VectorIndex`] facade.

use crate::pipeline::{BuiltGraph, IndexAlgorithm};
use crate::search::SearchOutput;
use mqa_vector::{ops, VecId, VectorStore};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Typed errors of the query path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// The query's dimensionality differs from the store's.
    DimensionMismatch {
        /// Dimensions the query carries.
        query: usize,
        /// Dimensions the store expects.
        store: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DimensionMismatch { query, store } => write!(
                f,
                "query dimension mismatch: query has {query} dims, store expects {store}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Evaluates distances from an implicit query to stored vectors by id,
/// optionally abandoning early against a pruning bound.
///
/// The beam-search routine is generic over this trait, which is how one
/// search implementation serves plain single-vector indexes
/// ([`FlatDistance`]), the fused multi-modal scanner
/// ([`crate::unified::FusedDistance`]), and the I/O-counting paged
/// evaluator ([`crate::starling`]).
pub trait DistanceFn {
    /// Distance from the query to object `id`, or `None` if the evaluation
    /// was abandoned because the distance is provably `>= bound`.
    fn eval(&mut self, id: VecId, bound: f32) -> Option<f32>;

    /// Distance without pruning.
    fn exact(&mut self, id: VecId) -> f32 {
        // An abandoned evaluation means the distance is provably >= the
        // bound, so `INFINITY` is the faithful answer either way.
        self.eval(id, f32::INFINITY).unwrap_or(f32::INFINITY)
    }
}

/// Plain L2 distance against a [`VectorStore`] — the evaluator for
/// single-vector indexes (JE, the MR per-modality channels, E7's index
/// comparisons).
pub struct FlatDistance<'a> {
    store: &'a VectorStore,
    query: &'a [f32],
}

impl<'a> FlatDistance<'a> {
    /// Creates the evaluator.
    ///
    /// # Errors
    /// Returns [`GraphError::DimensionMismatch`] if the query dimension
    /// does not match the store.
    pub fn new(store: &'a VectorStore, query: &'a [f32]) -> Result<Self, GraphError> {
        if query.len() != store.dim() {
            return Err(GraphError::DimensionMismatch {
                query: query.len(),
                store: store.dim(),
            });
        }
        Ok(Self { store, query })
    }

    /// Evaluator whose query is the stored vector `v` itself — the
    /// construction-time case (refinement, repair, HNSW insertion), where
    /// the dimensions match by definition.
    pub fn for_vertex(store: &'a VectorStore, v: VecId) -> Self {
        Self {
            store,
            query: store.get(v),
        }
    }
}

impl DistanceFn for FlatDistance<'_> {
    fn eval(&mut self, id: VecId, _bound: f32) -> Option<f32> {
        // Single-vector evaluation is one `l2_sq` kernel call; chunked
        // early abandonment pays off only for fused multi-block scans, so
        // the flat evaluator always completes.
        Some(ops::l2_sq(self.query, self.store.get(id)))
    }
}

/// A complete single-vector index: store + built navigation
/// structure. This is what the MR baseline builds per modality and what the
/// JE baseline builds over joint vectors.
pub struct VectorIndex {
    store: Arc<VectorStore>,
    graph: BuiltGraph,
    algorithm: IndexAlgorithm,
    build_time: Duration,
}

impl VectorIndex {
    /// Builds the index over `store` with the chosen algorithm.
    ///
    /// # Panics
    /// Panics if the store is empty — an index over nothing is a
    /// configuration error the coordinator reports before reaching here.
    pub fn build(store: VectorStore, algorithm: &IndexAlgorithm) -> Self {
        assert!(!store.is_empty(), "cannot index an empty vector store");
        let store = Arc::new(store);
        let build_span = mqa_obs::span(format!("graph.{}.build", algorithm.name()));
        let graph = algorithm.build_graph(&store);
        let build_time = build_span.finish();
        Self {
            store,
            graph,
            algorithm: algorithm.clone(),
            build_time,
        }
    }

    /// Searches for the `k` nearest stored vectors to `query` on the
    /// calling thread's pooled scratch.
    ///
    /// # Panics
    /// Panics if the query dimension does not match the store
    /// ([`FlatDistance::new`] is the recoverable check).
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> SearchOutput {
        assert_eq!(query.len(), self.store.dim(), "query dimension mismatch");
        let sw = mqa_obs::Stopwatch::start();
        let mut dist = FlatDistance {
            store: &self.store,
            query,
        };
        let out =
            crate::scratch::with_pooled(|scratch| self.graph.search(&mut dist, k, ef, scratch));
        out.stats.record(self.algorithm.name(), sw.elapsed_us());
        out
    }

    /// The backing store.
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// The algorithm configuration the index was built with.
    pub fn algorithm(&self) -> &IndexAlgorithm {
        &self.algorithm
    }

    /// Wall-clock build time.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Mean out-degree of the graph.
    pub fn avg_degree(&self) -> f64 {
        self.graph.avg_degree()
    }

    /// Status-panel description.
    pub fn describe(&self) -> String {
        self.graph.describe()
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_distance_matches_metric() {
        let mut store = VectorStore::new(2);
        store.push(&[0.0, 0.0]);
        store.push(&[3.0, 4.0]);
        let q = [0.0f32, 0.0];
        let mut d = FlatDistance::new(&store, &q).expect("dims match");
        assert_eq!(d.exact(0), 0.0);
        assert_eq!(d.exact(1), 25.0);
        assert_eq!(d.eval(1, 0.1), Some(25.0)); // flat never abandons
    }

    #[test]
    fn flat_distance_checks_dim() {
        let store = VectorStore::new(3);
        let q = [0.0f32; 2];
        let err = match FlatDistance::new(&store, &q) {
            Err(e) => e,
            Ok(_) => panic!("dims differ"),
        };
        assert_eq!(err, GraphError::DimensionMismatch { query: 2, store: 3 });
        assert!(err.to_string().contains("dimension mismatch"));
    }

    #[test]
    fn for_vertex_matches_new() {
        let mut store = VectorStore::new(2);
        store.push(&[1.0, 2.0]);
        store.push(&[4.0, 6.0]);
        let mut a = FlatDistance::for_vertex(&store, 0);
        let q = [1.0f32, 2.0];
        let mut b = FlatDistance::new(&store, &q).expect("dims match");
        assert_eq!(a.exact(1), b.exact(1));
    }
}
