//! **E11 — Ablations of the design choices DESIGN.md §6 calls out.**
//!
//! A. *Construction-pipeline stages* (on the unified multi-vector graph):
//!    entry selection (single medoid vs medoid+random), initialization
//!    (kNN vs random), pruning slack α, and connectivity repair.
//! B. *Weight-learning regularization*: the pull toward uniform weights
//!    that keeps partial-query routing alive (`uniform_reg`).
//! C. *JE partial-query policy*: faithful blank-placeholder encoding vs
//!    the idealized zero-fill upper bound.
//!
//! Each ablation reports the two-round dialogue metrics of the F5
//! protocol, so the numbers compose directly with the headline comparison.
//!
//! ```bash
//! cargo run --release -p mqa-bench --bin exp_ablation [-- --quick]
//! ```

use mqa_bench::{encode, two_round, SetupParams, Table};
use mqa_graph::pipeline::{
    EntryStage, GraphPipeline, InitStage, RefineStage, RepairStage, SelectStage,
};
use mqa_graph::{BuiltGraph, Tombstones, UnifiedIndex};
use mqa_kb::DatasetSpec;
use mqa_retrieval::{JeFramework, JePartialPolicy, MustFramework};
use mqa_weights::{TrainerConfig, WeightLearner};
use std::sync::Arc;

const K: usize = 3;
const EF: usize = 64;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (objects, queries) = if quick { (2_000, 60) } else { (10_000, 200) };
    let params = SetupParams {
        spec: DatasetSpec::weather()
            .objects(objects)
            .concepts(80)
            .styles(4)
            .caption_noise(0.35)
            .image_noise(0.15)
            .seed(2024),
        ..SetupParams::default()
    };
    println!("E11: {objects} objects, {queries} dialogues per cell, k={K}, ef={EF}\n");
    let enc = encode(&params);

    // ── A. pipeline-stage ablations on the unified graph ──
    println!("A. construction-pipeline stages (MUST, learned weights):");
    let mut ta = Table::new(&["variant", "round1", "round2", "avg degree", "connectivity"]);
    let base =
        |entry: EntryStage, init: InitStage, alpha: f32, repair: RepairStage| GraphPipeline {
            init,
            entry,
            refine: RefineStage { l: 64, passes: 2 },
            select: SelectStage { alpha, r: 24 },
            repair,
        };
    let variants: Vec<(&str, GraphPipeline)> = vec![
        (
            "default (knn, medoid+4, a=1.2, repair)",
            base(
                EntryStage::MedoidPlusRandom { extra: 4, seed: 0 },
                InitStage::Knn { k: 20, seed: 0 },
                1.2,
                RepairStage::GrowFromEntry,
            ),
        ),
        (
            "single medoid entry",
            base(
                EntryStage::Medoid,
                InitStage::Knn { k: 20, seed: 0 },
                1.2,
                RepairStage::GrowFromEntry,
            ),
        ),
        (
            "random init (no knn)",
            base(
                EntryStage::MedoidPlusRandom { extra: 4, seed: 0 },
                InitStage::Random {
                    degree: 24,
                    seed: 0,
                },
                1.2,
                RepairStage::GrowFromEntry,
            ),
        ),
        (
            "alpha = 1.0 (MRNG rule)",
            base(
                EntryStage::MedoidPlusRandom { extra: 4, seed: 0 },
                InitStage::Knn { k: 20, seed: 0 },
                1.0,
                RepairStage::GrowFromEntry,
            ),
        ),
        (
            "alpha = 1.6",
            base(
                EntryStage::MedoidPlusRandom { extra: 4, seed: 0 },
                InitStage::Knn { k: 20, seed: 0 },
                1.6,
                RepairStage::GrowFromEntry,
            ),
        ),
        (
            "no connectivity repair",
            base(
                EntryStage::MedoidPlusRandom { extra: 4, seed: 0 },
                InitStage::Knn { k: 20, seed: 0 },
                1.2,
                RepairStage::None,
            ),
        ),
    ];
    for (name, pipeline) in variants {
        let weighted = Arc::new(enc.corpus.store().weighted_store(&enc.learned.weights));
        let nav = pipeline.run(&weighted, name);
        let degree = nav.graph().avg_degree();
        let connectivity = nav.connectivity();
        let store = enc.corpus.store().clone();
        let tombstones = Tombstones::new(store.len());
        let index = UnifiedIndex::from_parts(
            store,
            enc.learned.weights.clone(),
            BuiltGraph::Nav(nav),
            tombstones,
        );
        let must = match MustFramework::from_index(Arc::clone(&enc.corpus), index) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("ablation setup failed: {e}");
                std::process::exit(1);
            }
        };
        let s = two_round(&enc, &must, queries, K, EF, 777);
        ta.row(vec![
            name.to_string(),
            format!("{:.3}", s.round1),
            format!("{:.3}", s.round2),
            format!("{degree:.1}"),
            format!("{connectivity:.3}"),
        ]);
    }
    ta.print();

    // ── B. weight-learning regularization ──
    println!("\nB. weight-learning pull toward uniform (uniform_reg):");
    let mut tb = Table::new(&["uniform_reg", "learned w", "round1", "round2"]);
    let labels = enc.corpus.concept_labels().unwrap();
    for reg in [0.0f32, 0.2, 0.6, 2.0, 8.0] {
        let learned = WeightLearner::new(TrainerConfig {
            uniform_reg: reg,
            ..Default::default()
        })
        .learn(enc.corpus.store(), &labels);
        let must = MustFramework::build(
            Arc::clone(&enc.corpus),
            learned.weights.clone(),
            &params.algo,
        );
        let s = two_round(&enc, &must, queries, K, EF, 777);
        tb.row(vec![
            format!("{reg}"),
            format!(
                "[{:.2},{:.2}]",
                learned.weights.as_slice()[0],
                learned.weights.as_slice()[1]
            ),
            format!("{:.3}", s.round1),
            format!("{:.3}", s.round2),
        ]);
    }
    tb.print();

    // ── C. JE partial-query policy ──
    println!("\nC. JE partial-query policy:");
    let mut tc = Table::new(&["policy", "round1", "round2"]);
    for (name, policy) in [
        ("placeholder (faithful)", JePartialPolicy::Placeholder),
        ("zero-fill (idealized)", JePartialPolicy::ZeroFill),
    ] {
        let je = JeFramework::build_with_policy(Arc::clone(&enc.corpus), &params.algo, policy);
        let s = two_round(&enc, &je, queries, K, EF, 777);
        tc.row(vec![
            name.to_string(),
            format!("{:.3}", s.round1),
            format!("{:.3}", s.round2),
        ]);
    }
    tc.print();
    println!("\nshape check: multi-entry + repair + knn-init each buy recall; moderate");
    println!("alpha balances degree vs routing; uniform_reg trades round-1 routing");
    println!("against round-2 weighting; JE's realism gap comes from its placeholder.");
}
