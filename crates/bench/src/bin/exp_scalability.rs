//! **E9 — Scalability: build time and QPS vs corpus size.**
//!
//! The paper's Scalability feature claims the navigation-graph index keeps
//! retrieval efficient "over a vast knowledge base". This experiment grows
//! the corpus and reports index build time, query throughput, recall
//! against exact fused search, and per-query distance evaluations — the
//! expected shape is near-flat evals/query (logarithmic search) while flat
//! scan cost grows linearly.
//!
//! ```bash
//! cargo run --release -p mqa-bench --bin exp_scalability [-- --quick]
//! ```

// A fail-fast driver: aborting with the message is the designed behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqa_bench::{encode, SetupParams, Table};
use mqa_encoders::RawContent;
use mqa_graph::UnifiedIndex;
use mqa_kb::{DatasetSpec, WorkloadSpec};
use mqa_retrieval::MultiModalQuery;
use mqa_vector::Metric;

const K: usize = 10;
const EF: usize = 64;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[1_000, 2_000, 4_000]
    } else {
        &[5_000, 10_000, 20_000, 40_000]
    };
    let n_queries = if quick { 40 } else { 150 };
    println!("E9: sizes {sizes:?}, {n_queries} queries each, k={K}, ef={EF}\n");

    let mut table = Table::new(&[
        "objects",
        "encode (s)",
        "build (s)",
        "QPS (graph)",
        "evals/query (graph)",
        "QPS (flat exact)",
        "recall@10 vs exact",
    ]);
    for &n in sizes {
        let params = SetupParams {
            spec: DatasetSpec::weather()
                .objects(n)
                .concepts(100.min(n / 20))
                .caption_noise(0.35)
                .image_noise(0.15)
                .seed(2024),
            ..SetupParams::default()
        };
        let t0 = std::time::Instant::now();
        let enc = encode(&params);
        let t_encode = t0.elapsed().as_secs_f64();
        let index = UnifiedIndex::build(
            enc.corpus.store().clone(),
            enc.learned.weights.clone(),
            Metric::L2,
            &params.algo,
        );

        let workload = WorkloadSpec::new(n_queries, 606).generate(&enc.info);
        let queries: Vec<mqa_vector::MultiVector> = workload
            .cases
            .iter()
            .map(|case| {
                let member = enc.gt.members(case.concept)[0];
                let img = match enc.corpus.kb().get(member).content(1) {
                    Some(RawContent::Image(i)) => i.clone(),
                    _ => unreachable!(),
                };
                enc.corpus
                    .encoders()
                    .encode_query(&MultiModalQuery::text_and_image(&case.round2_text, img))
            })
            .collect();

        // Graph search.
        let t0 = std::time::Instant::now();
        let mut evals = 0u64;
        let graph_ids: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| {
                let out = index.search(q, None, K, EF);
                evals += out.output.stats.evals;
                out.ids()
            })
            .collect();
        let t_graph = t0.elapsed().as_secs_f64();

        // Exact fused scan (the no-index baseline the panel also offers).
        let t0 = std::time::Instant::now();
        let exact_ids: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| index.search_exact(q, None, K).ids())
            .collect();
        let t_flat = t0.elapsed().as_secs_f64();

        let mut hits = 0usize;
        for (g, e) in graph_ids.iter().zip(&exact_ids) {
            hits += g.iter().filter(|id| e.contains(id)).count();
        }

        table.row(vec![
            n.to_string(),
            format!("{t_encode:.2}"),
            format!("{:.2}", index.build_time().as_secs_f64()),
            format!("{:.0}", n_queries as f64 / t_graph),
            format!("{:.0}", evals as f64 / n_queries as f64),
            format!("{:.0}", n_queries as f64 / t_flat),
            format!("{:.3}", hits as f64 / (n_queries * K) as f64),
        ]);
    }
    table.print();
    println!("\nshape check: graph evals/query grows far slower than corpus size, so the");
    println!("graph-vs-flat QPS gap widens with scale at held recall.");
}
