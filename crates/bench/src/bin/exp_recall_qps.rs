//! **E5 — Recall vs QPS frontier: MUST vs MR vs JE.**
//!
//! The quantitative backing for the paper's accuracy+efficiency claim.
//! Sweeps the search beam width `ef` and reports, per framework, semantic
//! recall@10 (concept ground truth) and query throughput on the round-2
//! style multi-modal workload (text + reference image). Expected shape:
//! MUST dominates the frontier — at matched recall it answers with one
//! graph traversal where MR pays one per modality, and JE saturates below
//! the others because equal weighting misranks.
//!
//! ```bash
//! cargo run --release -p mqa-bench --bin exp_recall_qps [-- --quick]
//! ```

// A fail-fast driver: aborting with the message is the designed behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqa_bench::{build_frameworks, encode, SetupParams, Table};
use mqa_encoders::RawContent;
use mqa_kb::{recall_at_k, DatasetSpec, WorkloadSpec};
use mqa_retrieval::{MultiModalQuery, RetrievalFramework};

const K: usize = 10;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (objects, queries) = if quick { (2_000, 80) } else { (20_000, 300) };
    let params = SetupParams {
        spec: DatasetSpec::weather()
            .objects(objects)
            .concepts(100)
            .styles(4)
            .caption_noise(0.35)
            .image_noise(0.15)
            .seed(2024),
        ..SetupParams::default()
    };
    println!(
        "E5: {objects} objects, {queries} multi-modal queries, k={K}, index={}\n",
        params.algo.name()
    );
    let enc = encode(&params);
    let fws = build_frameworks(&enc, &params.algo);
    println!(
        "build times: MUST {:.2}s, MR {:.2}s, JE {:.2}s\n",
        fws.build_times[0].as_secs_f64(),
        fws.build_times[1].as_secs_f64(),
        fws.build_times[2].as_secs_f64()
    );

    // Multi-modal workload: concept text + a same-concept reference image.
    let workload = WorkloadSpec::new(queries, 555).generate(&enc.info);
    let queries_mm: Vec<(MultiModalQuery, u32)> = workload
        .cases
        .iter()
        .map(|case| {
            let member = enc.gt.members(case.concept)[0];
            let img = match enc.corpus.kb().get(member).content(1) {
                Some(RawContent::Image(i)) => i.clone(),
                _ => unreachable!(),
            };
            (
                MultiModalQuery::text_and_image(&case.round2_text, img),
                case.concept,
            )
        })
        .collect();

    let mut table = Table::new(&["framework", "ef", "recall@10", "QPS", "evals/query"]);
    let frameworks: [(&str, &dyn RetrievalFramework); 3] =
        [("MUST", &fws.must), ("MR", &fws.mr), ("JE", &fws.je)];
    for (name, fw) in frameworks {
        for ef in [16usize, 32, 64, 128, 256] {
            let t0 = std::time::Instant::now();
            let mut recall = 0.0f64;
            let mut evals = 0u64;
            for (q, concept) in &queries_mm {
                let out = fw.search(q, K, ef);
                evals += out.stats.evals;
                recall += recall_at_k(&enc.gt, &out.ids(), *concept, K);
            }
            let elapsed = t0.elapsed().as_secs_f64();
            table.row(vec![
                name.to_string(),
                ef.to_string(),
                format!("{:.3}", recall / queries_mm.len() as f64),
                format!("{:.0}", queries_mm.len() as f64 / elapsed),
                format!("{:.0}", evals as f64 / queries_mm.len() as f64),
            ]);
        }
    }
    table.print();
}
