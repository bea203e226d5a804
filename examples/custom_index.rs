//! Custom navigation graphs through the five-stage backend API.
//!
//! The paper: "users can modify existing navigation graphs (e.g., NSG,
//! HNSW, DiskANN, Starling) or initiate custom graphs via the backend
//! API." This example composes a *new* graph from pipeline stages —
//! random initialization, a single low-effort refinement pass with plain
//! nearest selection, no repair — compares it against the stock
//! algorithms, then persists the best index to JSON and restores it
//! without rebuilding.
//!
//! ```bash
//! cargo run --release --example custom_index
//! ```

use mqa::graph::pipeline::{
    EntryStage, GraphPipeline, InitStage, RefineStage, RepairStage, SelectStage,
};
use mqa::graph::{BuiltGraph, FlatDistance, IndexAlgorithm, SearchScratch, UnifiedIndex};
use mqa::kb::DatasetSpec;
use mqa::retrieval::{EncodedCorpus, EncoderSet, MultiModalQuery};
use mqa::vector::{Metric, Weights};
use std::sync::Arc;

fn main() {
    // Encode a corpus and take its weighted concatenation — the space every
    // unified navigation graph lives in.
    let kb = DatasetSpec::weather()
        .objects(4_000)
        .concepts(60)
        .seed(3)
        .generate();
    let registry = mqa::encoders::EncoderRegistry::new(0);
    let schema = kb.schema().clone();
    let corpus = EncodedCorpus::encode(kb, EncoderSet::default_for(&registry, &schema, 48));
    let weights = Weights::normalized(&[0.8, 1.2]);
    let store = Arc::new(corpus.store().weighted_store(&weights));

    // A custom pipeline: a kNN graph with one light diversification pass —
    // cheaper to build than the stock algorithms, weaker at routing.
    let custom = GraphPipeline {
        init: InitStage::Knn { k: 12, seed: 7 },
        entry: EntryStage::MedoidPlusRandom { extra: 2, seed: 7 },
        refine: RefineStage { l: 24, passes: 1 },
        select: SelectStage::RobustPrune { alpha: 1.1, r: 12 },
        repair: RepairStage::None,
    };
    let t0 = std::time::Instant::now();
    let nav = custom.run(&store, "custom-cheap");
    let (report, connectivity) = (nav.report().clone(), nav.connectivity());
    let nav = BuiltGraph::Nav(nav);
    println!(
        "custom graph: built in {:.2}s, {}, connectivity {connectivity:.3}",
        t0.elapsed().as_secs_f64(),
        nav.describe(),
    );
    for (stage, d) in &report.stage_timings {
        println!("  stage {:<20} {:.1} ms", stage, d.as_secs_f64() * 1e3);
    }

    // Compare recall against stock algorithms at equal ef.
    let queries: Vec<Vec<f32>> = (0..50)
        .map(|i| store.get((i * 37) % store.len() as u32).to_vec())
        .collect();
    println!("\nself-search recall (query = stored vector, k=1, ef=32):");
    let mut scratch = SearchScratch::new();
    let mut hit_rate = |g: &BuiltGraph| {
        let mut hits = 0;
        for (i, q) in queries.iter().enumerate() {
            let mut d = FlatDistance::new(&store, q).expect("query dim matches store");
            let top = g.search(&mut d, 1, 32, &mut scratch).results[0].id;
            if top == ((i as u32 * 37) % store.len() as u32) {
                hits += 1;
            }
        }
        hits as f64 / queries.len() as f64
    };
    println!("  custom-cheap : {:.2}", hit_rate(&nav));
    for algo in [
        IndexAlgorithm::nsg(),
        IndexAlgorithm::vamana(),
        IndexAlgorithm::hnsw(),
    ] {
        let built = algo.build_graph(&store);
        println!("  {:<13}: {:.2}", algo.name(), hit_rate(&built));
    }

    // Persist and restore a full unified index (deployment workflow).
    let index = UnifiedIndex::build(
        corpus.store().clone(),
        weights,
        Metric::L2,
        &IndexAlgorithm::mqa_graph(),
    );
    let json = index.snapshot().to_json().expect("finite index serializes");
    println!(
        "\npersisted unified index: {:.1} MiB of JSON",
        json.len() as f64 / 1048576.0
    );
    let restored = mqa::graph::UnifiedSnapshot::from_json(&json)
        .unwrap()
        .restore();
    let q = corpus
        .encoders()
        .encode_query(&MultiModalQuery::text("golden sunset coast"));
    assert_eq!(
        index.search(&q, None, 5, 48).ids(),
        restored.search(&q, None, 5, 48).ids()
    );
    println!("restored index answers identically — no rebuild needed.");
}
