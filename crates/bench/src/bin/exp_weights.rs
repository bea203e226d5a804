//! **E6 — Vector weight learning ablation.**
//!
//! Sweeps the modality-noise asymmetry of the corpus and compares four
//! weight configurations on exact fused retrieval (no graph, so the effect
//! of *weights alone* is measured):
//!
//! * `learned`  — contrastive vector weight learning (the paper's model);
//! * `uniform`  — equal weights (what JE/MR implicitly assume);
//! * `oracle`   — the best of a weight grid, evaluated on the workload
//!   itself (an upper reference, not a deployable setting);
//! * `user`     — a plausible hand-set override `[1.5, 0.5]`.
//!
//! Expected shape: learned ≈ oracle ≥ user > uniform, with the uniform gap
//! widening as the modalities become more asymmetric.
//!
//! ```bash
//! cargo run --release -p mqa-bench --bin exp_weights [-- --quick]
//! ```

use mqa_bench::{encode, Encoded, SetupParams, Table};
use mqa_kb::{recall_at_k, DatasetSpec, WorkloadSpec};
use mqa_retrieval::MultiModalQuery;
use mqa_vector::{Metric, MultiVector, Weights};

const K: usize = 10;

/// Exact fused recall of a weight setting over a text+image workload.
fn recall_with(enc: &Encoded, queries: &[(MultiVector, u32)], weights: &Weights) -> f64 {
    use mqa_graph::unified::FusedDistance;
    use mqa_graph::{flat::FlatSearcher, BuiltGraph, SearchScratch};
    let flat = BuiltGraph::Flat(FlatSearcher::new(enc.corpus.store().len()));
    let mut scratch = SearchScratch::new();
    let mut total = 0.0;
    for (qv, concept) in queries {
        let mut dist = FusedDistance::new(enc.corpus.store(), qv, weights, Metric::L2);
        let out = flat.search(&mut dist, K, K, &mut scratch);
        total += recall_at_k(&enc.gt, &out.ids(), *concept, K);
    }
    total / queries.len() as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (objects, n_queries) = if quick { (1_000, 60) } else { (5_000, 200) };
    println!("E6: {objects} objects, {n_queries} multi-modal queries, exact fused search, k={K}\n");

    let mut table = Table::new(&[
        "caption noise",
        "image noise",
        "learned w",
        "learned",
        "uniform",
        "oracle",
        "user [1.5,0.5]",
    ]);
    // Sweep from image-favourable to text-favourable asymmetry. Noise
    // levels are high enough that neither modality alone is perfect, so
    // the fused weighting itself carries the recall difference.
    for (cap_noise, img_noise) in [
        (0.02, 1.60),
        (0.30, 1.20),
        (0.60, 0.80),
        (0.85, 0.40),
        (0.95, 0.25),
    ] {
        let enc = encode(&SetupParams {
            spec: DatasetSpec::weather()
                .objects(objects)
                .concepts(240)
                .styles(3)
                .caption_noise(cap_noise)
                .image_noise(img_noise)
                .seed(99),
            dim: 48,
            ..SetupParams::default()
        });
        let (gt, corpus, learned) = (&enc.gt, &enc.corpus, &enc.learned.weights);

        // Workload: round-2-style text + reference image queries.
        let workload = WorkloadSpec::new(n_queries, 31).generate(&enc.info);
        let queries: Vec<(MultiVector, u32)> = workload
            .cases
            .iter()
            .map(|case| {
                let member = gt.members(case.concept)[1 % gt.members(case.concept).len()];
                let img = match corpus.kb().get(member).content(1) {
                    Some(mqa_encoders::RawContent::Image(i)) => i.clone(),
                    _ => unreachable!(),
                };
                let q = MultiModalQuery::text_and_image(&case.round2_text, img);
                (corpus.encoders().encode_query(&q), case.concept)
            })
            .collect();

        let r_learned = recall_with(&enc, &queries, learned);
        let r_uniform = recall_with(&enc, &queries, &Weights::uniform(2));
        let r_user = recall_with(&enc, &queries, &Weights::normalized(&[1.5, 0.5]));
        // Oracle: best of an 11-point weight grid.
        let mut r_oracle = 0.0f64;
        for i in 0..=10 {
            let wt = i as f32 / 10.0;
            let w = Weights::normalized(&[wt.max(0.01), (1.0 - wt).max(0.01)]);
            r_oracle = r_oracle.max(recall_with(&enc, &queries, &w));
        }

        table.row(vec![
            format!("{cap_noise:.2}"),
            format!("{img_noise:.2}"),
            format!(
                "[{:.2},{:.2}]",
                learned.as_slice()[0],
                learned.as_slice()[1]
            ),
            format!("{r_learned:.3}"),
            format!("{r_uniform:.3}"),
            format!("{r_oracle:.3}"),
            format!("{r_user:.3}"),
        ]);
    }
    table.print();
    println!("\nshape check: learned tracks oracle; uniform degrades as asymmetry grows.");
}
