//! NSG — Navigating Spreading-out Graph — as a pipeline instance.
//!
//! NSG's recipe: build a kNN graph, pick the medoid as the navigating
//! vertex, re-select every vertex's neighbours by searching the graph and
//! applying the MRNG edge rule (α-robust pruning with `α = 1`), then grow a
//! spanning attachment for unreachable vertices. All four steps are
//! existing pipeline stages — this is exactly the "decompose an existing
//! graph into the pipeline" workflow the paper describes.

use crate::pipeline::{
    EntryStage, GraphPipeline, InitStage, NavGraph, RefineStage, RepairStage, SelectStage,
};
use mqa_vector::VectorStore;
use std::sync::Arc;

/// The canonical NSG pipeline configuration.
///
/// * `r` — degree bound of the final graph;
/// * `l` — construction beam width;
/// * `knn_k` — degree of the initial kNN graph;
/// * `seed` — randomness for the kNN initialization.
pub fn pipeline(r: usize, l: usize, knn_k: usize, seed: u64) -> GraphPipeline {
    GraphPipeline {
        init: InitStage::Knn { k: knn_k, seed },
        entry: EntryStage::Medoid,
        refine: RefineStage { l, passes: 1 },
        select: SelectStage::RobustPrune { alpha: 1.0, r },
        repair: RepairStage::GrowFromEntry,
    }
}

/// Builds an NSG over `store`.
pub fn build(store: &Arc<VectorStore>, r: usize, l: usize, knn_k: usize, seed: u64) -> NavGraph {
    pipeline(r, l, knn_k, seed).run(store, "nsg")
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
    fn nsg_is_connected_and_bounded() {
        let s = store(600, 8, 1);
        let nav = build(&s, 16, 40, 12, 0);
        assert!((nav.connectivity() - 1.0).abs() < 1e-9);
        // Repair may add a handful of overflow edges beyond r.
        assert!(
            nav.graph().max_degree() <= 16 + 4,
            "max {}",
            nav.graph().max_degree()
        );
    }

    #[test]
    fn nsg_self_search_finds_self() {
        let s = store(400, 6, 2);
        let nav = build(&s, 16, 40, 12, 0);
        let mut scratch = SearchScratch::new();
        for v in (0..400u32).step_by(37) {
            let mut d = FlatDistance::for_vertex(&s, v);
            let out = beam_search(nav.graph(), nav.entries(), &mut d, 1, 32, &mut scratch);
            assert_eq!(out.results[0].id, v, "vertex {v} should find itself");
        }
    }

    #[test]
    fn mrng_rule_is_alpha_one() {
        let p = pipeline(10, 20, 8, 0);
        assert_eq!(p.select, SelectStage::RobustPrune { alpha: 1.0, r: 10 });
        assert_eq!(p.refine.passes, 1);
    }
}
