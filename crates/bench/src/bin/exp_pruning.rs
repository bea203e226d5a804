//! **E8 — Incremental scanning (early-abandon) ablation.**
//!
//! The paper's Query Execution component computes fused distances "via
//! incremental scanning, enhancing efficiency by circumventing unnecessary
//! calculations". This experiment runs identical unified-graph searches
//! with pruning on and off and reports: scalar multiply-accumulate terms
//! per query, the fraction saved, wall-clock speedup, and a verification
//! that the result sets are bit-identical — ids and distance bits — (the
//! abandonment rule is exact, not approximate). Exits non-zero if any
//! query's results differ.
//!
//! ```bash
//! cargo run --release -p mqa-bench --bin exp_pruning [-- --quick]
//! ```

use mqa_bench::{encode, SetupParams, Table};
use mqa_encoders::RawContent;
use mqa_graph::unified::FusedDistance;
use mqa_graph::{DistanceFn, SearchScratch, UnifiedIndex};
use mqa_kb::{DatasetSpec, WorkloadSpec};
use mqa_retrieval::MultiModalQuery;
use mqa_vector::{Metric, VecId};

const K: usize = 10;

/// The unpruned arm's evaluator: the fused scanner handed an infinite bound
/// on every evaluation, so none abandons.
struct Unpruned<'a, 'q>(&'a mut FusedDistance<'q>);

impl DistanceFn for Unpruned<'_, '_> {
    fn eval(&mut self, id: VecId, _bound: f32) -> Option<f32> {
        self.0.eval(id, f32::INFINITY)
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (objects, n_queries) = if quick { (2_000, 60) } else { (20_000, 300) };
    let params = SetupParams {
        spec: DatasetSpec::weather()
            .objects(objects)
            .concepts(100)
            .caption_noise(0.35)
            .image_noise(0.15)
            .seed(2024),
        ..SetupParams::default()
    };
    println!("E8: {objects} objects, {n_queries} multi-modal queries, k={K}\n");
    let enc = encode(&params);
    let index = UnifiedIndex::build(
        enc.corpus.store().clone(),
        enc.learned.weights.clone(),
        Metric::L2,
        &params.algo,
    );

    let workload = WorkloadSpec::new(n_queries, 808).generate(&enc.info);
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

    // Both arms walk the pinned snapshot's graph directly; only the bound
    // the evaluator sees differs. A result is compared whole: id and
    // distance bits.
    let snap = index.current();
    let search = |q: &mqa_vector::MultiVector, ef: usize, prune: bool| {
        let mut dist = FusedDistance::new(snap.store(), q, index.weights(), Metric::L2);
        let mut scratch = SearchScratch::new();
        let out = if prune {
            snap.searcher().search(&mut dist, K, ef, &mut scratch)
        } else {
            let mut unpruned = Unpruned(&mut dist);
            snap.searcher().search(&mut unpruned, K, ef, &mut scratch)
        };
        let hits: Vec<(VecId, u32)> = out
            .results
            .iter()
            .map(|c| (c.id, c.dist.to_bits()))
            .collect();
        (hits, dist.scan_stats())
    };

    let mut table = Table::new(&[
        "ef",
        "terms/query (full)",
        "terms/query (pruned)",
        "saved",
        "speedup",
        "results identical",
    ]);
    let mut all_identical = true;
    for ef in [16usize, 32, 64, 128] {
        let mut terms_full = 0u64;
        let mut terms_pruned = 0u64;
        let mut skipped = 0u64;
        let mut identical = true;

        let t0 = std::time::Instant::now();
        let full_out: Vec<Vec<(VecId, u32)>> = queries
            .iter()
            .map(|q| {
                let (hits, scan) = search(q, ef, false);
                terms_full += scan.terms;
                hits
            })
            .collect();
        let t_full = t0.elapsed().as_secs_f64();

        let t0 = std::time::Instant::now();
        for (q, full_hits) in queries.iter().zip(&full_out) {
            let (hits, scan) = search(q, ef, true);
            terms_pruned += scan.terms;
            skipped += scan.terms_skipped;
            identical &= &hits == full_hits;
        }
        all_identical &= identical;
        let t_pruned = t0.elapsed().as_secs_f64();

        table.row(vec![
            ef.to_string(),
            format!("{:.0}", terms_full as f64 / queries.len() as f64),
            format!("{:.0}", terms_pruned as f64 / queries.len() as f64),
            format!(
                "{:.1}%",
                100.0 * skipped as f64 / (terms_pruned + skipped) as f64
            ),
            format!("{:.2}x", t_full / t_pruned),
            identical.to_string(),
        ]);
    }
    table.print();
    println!("\nshape check: a large fraction of scalar terms is skipped at every ef,");
    println!("with measurable wall-clock speedup and exactly identical results.");
    if !all_identical {
        eprintln!("E8: pruned and unpruned searches returned different results");
        std::process::exit(1);
    }
}
