//! **F5 — Figure 5 (comparative analysis).**
//!
//! Two-round dialogues under identical query conditions, answered by MUST,
//! MR, JE, and the generative (GPT-4 + DALL·E 2 stand-in) baseline.
//! Reproduces the figure's qualitative claims as statistics:
//!
//! * MUST delivers the best results in both rounds;
//! * MR matches MUST on the text-only round 1 but falls behind on the
//!   multi-modal round 2;
//! * JE underperforms throughout (fixed equal weighting);
//! * the generative baseline's images are not knowledge-base members and
//!   sit measurably farther from real corpus images than real images sit
//!   from each other ("miss a touch of realism").
//!
//! ```bash
//! cargo run --release -p mqa-bench --bin fig5_comparative [-- --quick]
//! ```

// A fail-fast driver: aborting with the message is the designed behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqa_bench::{build_frameworks, encode, two_round, SetupParams, Table};
use mqa_encoders::RawContent;
use mqa_kb::{DatasetSpec, WorkloadSpec};
use mqa_llm::GenerativeImageModel;
use mqa_retrieval::RetrievalFramework;
use mqa_vector::ops;

const K: usize = 3;
const EF: usize = 64;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (objects, queries) = if quick { (2_000, 60) } else { (10_000, 300) };
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
    println!(
        "F5: {} objects, {} two-round dialogues, k={K}, ef={EF}, index={}",
        objects,
        queries,
        params.algo.name()
    );
    let enc = encode(&params);
    println!(
        "learned weights: {:?} (triplet accuracy {:.2})\n",
        enc.learned.weights.as_slice(),
        enc.learned.triplet_accuracy
    );
    let fws = build_frameworks(&enc, &params.algo);

    let mut table = Table::new(&[
        "framework",
        "round1 recall@3",
        "round2 style-recall@3",
        "good picks",
        "mean latency/round (ms)",
    ]);
    let frameworks: [(&str, &dyn RetrievalFramework); 3] =
        [("MUST", &fws.must), ("MR", &fws.mr), ("JE", &fws.je)];
    for (name, fw) in frameworks {
        let s = two_round(&enc, fw, queries, K, EF, 777);
        table.row(vec![
            name.to_string(),
            format!("{:.3}", s.round1),
            format!("{:.3}", s.round2),
            format!("{:.2}", s.good_picks),
            format!(
                "{:.3}",
                s.elapsed.as_secs_f64() * 1e3 / (2.0 * queries as f64)
            ),
        ]);
    }
    table.print();

    // The generative baseline: per round-1 prompt, synthesize K images and
    // measure (a) knowledge-base membership, (b) the "realism gap" —
    // distance from the generated descriptor to its nearest corpus image,
    // relative to the typical distance between same-style corpus images.
    println!("\ngenerative baseline (GPT-4 + DALL·E-2 stand-in):");
    let raw_dim = enc.corpus.kb().schema().raw_image_dim();
    let generator = GenerativeImageModel::new(0, raw_dim, 0.3);
    let workload = WorkloadSpec::new(queries.min(50), 777).generate(&enc.info);
    let mut members = 0usize;
    let mut total = 0usize;
    let mut gen_nearest = 0.0f64;
    for case in &workload.cases {
        for g in generator.generate_batch(&case.round1_text, K) {
            total += 1;
            let mut nearest = f32::INFINITY;
            let mut exact = false;
            for (_, r) in enc.corpus.kb().iter() {
                if let Some(RawContent::Image(img)) = r.content(1) {
                    let d = ops::l2_sq(g.features(), img.features());
                    nearest = nearest.min(d);
                    exact |= d == 0.0;
                }
            }
            members += exact as usize;
            gen_nearest += nearest as f64;
        }
    }
    // Reference scale: mean distance between two same-style corpus images.
    let mut same_style = 0.0f64;
    let mut pairs = 0usize;
    'outer: for c in 0..10u32 {
        for s in 0..2u32 {
            let m = enc.gt.style_members(c, s);
            if m.len() < 2 {
                continue;
            }
            let img = |id| match enc.corpus.kb().get(id).content(1) {
                Some(RawContent::Image(i)) => i.features().to_vec(),
                _ => unreachable!(),
            };
            same_style += ops::l2_sq(&img(m[0]), &img(m[1])) as f64;
            pairs += 1;
            if pairs >= 40 {
                break 'outer;
            }
        }
    }
    println!("  generated images that are knowledge-base members: {members}/{total}");
    println!(
        "  mean d² to nearest real image: {:.3}  (same-style real pairs: {:.3})",
        gen_nearest / total as f64,
        same_style / pairs as f64
    );
    println!("  → generated outputs are synthetic: never retrievable corpus members,");
    println!("    and geometrically offset from every real image (the realism gap).");
}
