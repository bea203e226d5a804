//! Cross-framework behavioural checks: the qualitative claims of the
//! paper's Figure 5, verified statistically at integration scale (the
//! full-scale version is the `fig5_comparative` bench harness). The corpus,
//! frameworks and two-round protocol are the bench harness's, built once
//! for the whole suite.

use mqa::graph::IndexAlgorithm;
use mqa::kb::{DatasetSpec, WorkloadSpec};
use mqa::retrieval::{FrameworkKind, MultiModalQuery, MustFramework, RetrievalFramework};
use mqa::vector::Weights;
use mqa_bench::{build_frameworks, encode, two_round, Encoded, Frameworks, SetupParams};
use std::sync::{Arc, OnceLock};

const K: usize = 5;
const EF: usize = 64;
const WORKLOAD_SEED: u64 = 99;

/// Corpus with noisy captions and clean images: modality weighting matters.
fn setup() -> &'static (Encoded, Frameworks) {
    static FIXTURE: OnceLock<(Encoded, Frameworks)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = SetupParams {
            spec: DatasetSpec::weather()
                .objects(1_200)
                .concepts(30)
                .styles(3)
                .caption_noise(0.35)
                .image_noise(0.15)
                .seed(21),
            dim: 48,
            model_seed: 0,
            algo: IndexAlgorithm::mqa_graph(),
        };
        let enc = encode(&params);
        let fws = build_frameworks(&enc, &params.algo);
        (enc, fws)
    })
}

/// Mean (round-1 recall, round-2 style recall) of the Figure 5 protocol.
fn recalls(enc: &Encoded, fw: &dyn RetrievalFramework, queries: usize) -> (f64, f64) {
    let s = two_round(enc, fw, queries, K, EF, WORKLOAD_SEED);
    (s.round1, s.round2)
}

#[test]
fn figure5_shape_must_wins_round2_mr_ties_round1() {
    let (enc, fws) = setup();
    let (must_r1, must_r2) = recalls(enc, &fws.must, 40);
    let (mr_r1, mr_r2) = recalls(enc, &fws.mr, 40);
    let (je_r1, je_r2) = recalls(enc, &fws.je, 40);
    println!("round1: MUST {must_r1:.3} MR {mr_r1:.3} JE {je_r1:.3}");
    println!("round2: MUST {must_r2:.3} MR {mr_r2:.3} JE {je_r2:.3}");

    // MUST delivers optimal results in both rounds.
    assert!(must_r1 >= mr_r1 - 0.05, "MUST r1 {must_r1} < MR r1 {mr_r1}");
    assert!(must_r1 >= je_r1 - 0.05, "MUST r1 {must_r1} < JE r1 {je_r1}");
    assert!(must_r2 >= mr_r2, "MUST r2 {must_r2} < MR r2 {mr_r2}");
    assert!(must_r2 >= je_r2, "MUST r2 {must_r2} < JE r2 {je_r2}");
    // MR matches MUST on text-only input but falls behind on the
    // multi-modal round.
    assert!(
        (mr_r1 - must_r1).abs() < 0.15,
        "MR r1 {mr_r1} vs MUST r1 {must_r1}"
    );
    assert!(
        must_r2 > mr_r2 + 0.05,
        "round-2 gap missing: MUST {must_r2} MR {mr_r2}"
    );
}

#[test]
fn must_graph_search_agrees_with_exact_search() {
    let (enc, fws) = setup();
    let workload = WorkloadSpec::new(15, 5).generate(&enc.info);
    let mut agree = 0usize;
    let mut total = 0usize;
    for case in &workload.cases {
        let q = MultiModalQuery::text(&case.round1_text);
        let approx = fws.must.search(&q, K, 128);
        let qv = enc.corpus.encoders().encode_query(&q);
        let exact = fws.must.index().search_exact(&qv, None, K);
        total += K;
        agree += approx
            .ids()
            .iter()
            .filter(|id| exact.ids().contains(id))
            .count();
    }
    let recall = agree as f64 / total as f64;
    assert!(recall >= 0.9, "graph-vs-exact recall {recall}");
}

#[test]
fn must_reports_incremental_scanning_savings() {
    let (_, fws) = setup();
    let out = fws
        .must
        .search(&MultiModalQuery::text("heavy storm mountain"), K, EF);
    let scan = out.scan.expect("MUST reports scan stats");
    assert!(scan.terms > 0);
    assert!(
        scan.terms_skipped > 0,
        "expected early-abandon savings, got {scan:?}"
    );
}

#[test]
fn framework_kinds_are_distinct() {
    let (_, fws) = setup();
    assert_eq!(fws.must.kind(), FrameworkKind::Must);
    assert_eq!(fws.mr.kind(), FrameworkKind::Mr);
    assert_eq!(fws.je.kind(), FrameworkKind::Je);
    assert_ne!(fws.must.describe(), fws.mr.describe());
}

#[test]
fn learned_weights_beat_uniform_on_round1_recall() {
    let (enc, fws) = setup();
    let uniform = MustFramework::build(
        Arc::clone(&enc.corpus),
        Weights::uniform(2),
        &IndexAlgorithm::mqa_graph(),
    );
    let (learned_r1, _) = recalls(enc, &fws.must, 40);
    let (uniform_r1, _) = recalls(enc, &uniform, 40);
    println!("learned {learned_r1:.3} uniform {uniform_r1:.3}");
    assert!(
        learned_r1 >= uniform_r1 - 0.02,
        "learned {learned_r1} materially worse than uniform {uniform_r1}"
    );
}
