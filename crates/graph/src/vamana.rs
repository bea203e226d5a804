//! Vamana — the DiskANN graph — as a pipeline instance.
//!
//! Vamana starts from a *random* regular graph (no kNN precomputation),
//! then makes two passes in which every vertex re-acquires candidates by
//! searching the current graph from the medoid and prunes them with the
//! α-robust rule (`α > 1` keeps a fraction of longer "highway" edges,
//! which is what gives DiskANN its low hop counts). The same stages as NSG,
//! differently configured — the point of the five-stage decomposition.

use crate::pipeline::{
    EntryStage, GraphPipeline, InitStage, NavGraph, RefineStage, RepairStage, SelectStage,
};
use mqa_vector::VectorStore;
use std::sync::Arc;

/// The canonical Vamana pipeline configuration.
///
/// * `r` — degree bound;
/// * `l` — construction beam width;
/// * `alpha` — robust-pruning slack (DiskANN defaults to `1.2`);
/// * `seed` — randomness of the initial graph.
pub fn pipeline(r: usize, l: usize, alpha: f32, seed: u64) -> GraphPipeline {
    GraphPipeline {
        init: InitStage::Random { degree: r, seed },
        entry: EntryStage::Medoid,
        refine: RefineStage { l, passes: 2 },
        select: SelectStage { alpha, r },
        repair: RepairStage::GrowFromEntry,
    }
}

/// Builds a Vamana graph over `store`.
pub fn build(store: &Arc<VectorStore>, r: usize, l: usize, alpha: f32, seed: u64) -> NavGraph {
    pipeline(r, l, alpha, seed).run(store, "vamana")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::SearchScratch;
    use crate::search::beam_search;
    use crate::traits::FlatDistance;
    use mqa_rng::StdRng;

    fn store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        Arc::new(s)
    }

    #[test]
    fn vamana_is_connected() {
        let s = store(600, 8, 1);
        let nav = build(&s, 16, 40, 1.2, 0);
        assert!((nav.connectivity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vamana_self_search_finds_self() {
        let s = store(400, 6, 2);
        let nav = build(&s, 16, 40, 1.2, 0);
        let mut scratch = SearchScratch::new();
        for v in (0..400u32).step_by(41) {
            let mut d = FlatDistance::for_vertex(&s, v);
            let out = beam_search(nav.graph(), nav.entries(), &mut d, 1, 32, &mut scratch);
            assert_eq!(out.results[0].id, v, "vertex {v} should find itself");
        }
    }

    #[test]
    fn alpha_above_one_yields_denser_graph_than_nsg_rule() {
        let s = store(500, 8, 3);
        let tight = build(&s, 16, 40, 1.0, 0);
        let loose = build(&s, 16, 40, 1.6, 0);
        assert!(
            loose.graph().avg_degree() >= tight.graph().avg_degree(),
            "alpha 1.6 degree {} < alpha 1.0 degree {}",
            loose.graph().avg_degree(),
            tight.graph().avg_degree()
        );
    }

    #[test]
    fn two_refine_passes_configured() {
        assert_eq!(pipeline(10, 20, 1.2, 0).refine.passes, 2);
    }
}
