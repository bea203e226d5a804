//! Cross-framework behavioural checks: the qualitative claims of the
//! paper's Figure 5, verified statistically at integration scale (the
//! full-scale version is the `fig5_comparative` bench harness).

use mqa::encoders::{EncoderRegistry, RawContent};
use mqa::graph::IndexAlgorithm;
use mqa::kb::{recall_at_k, round2_recall_at_k, DatasetSpec, GroundTruth, WorkloadSpec};
use mqa::retrieval::{
    EncodedCorpus, EncoderSet, FrameworkKind, JeFramework, MrFramework, MultiModalQuery,
    MustFramework, RetrievalFramework,
};
use mqa::vector::Weights;
use mqa::weights::WeightLearner;
use std::sync::Arc;

const K: usize = 5;
const EF: usize = 64;

struct Bench {
    corpus: Arc<EncodedCorpus>,
    gt: GroundTruth,
    must: MustFramework,
    mr: MrFramework,
    je: JeFramework,
    info: mqa::kb::datasets::DatasetInfo,
}

/// Corpus with noisy captions and clean images: modality weighting matters.
fn setup() -> Bench {
    let (kb, info) = DatasetSpec::weather()
        .objects(1_200)
        .concepts(30)
        .styles(3)
        .caption_noise(0.35)
        .image_noise(0.15)
        .seed(21)
        .generate_with_info();
    let gt = GroundTruth::build(&kb);
    let registry = EncoderRegistry::new(0);
    let schema = kb.schema().clone();
    let encoders = EncoderSet::default_for(&registry, &schema, 48);
    let corpus = Arc::new(EncodedCorpus::encode(kb, encoders));
    let labels = corpus.concept_labels().unwrap();
    let learned = WeightLearner::default().learn(corpus.store(), &labels);
    let algo = IndexAlgorithm::mqa_graph();
    Bench {
        must: MustFramework::build(Arc::clone(&corpus), learned.weights, &algo),
        mr: MrFramework::build(Arc::clone(&corpus), &algo),
        je: JeFramework::build(Arc::clone(&corpus), &algo),
        corpus,
        gt,
        info,
    }
}

/// Runs the Figure 5 two-round protocol for one framework over a workload;
/// returns (mean round-1 recall, mean round-2 style recall).
fn two_round_protocol(b: &Bench, fw: &dyn RetrievalFramework, queries: usize) -> (f64, f64) {
    let workload = WorkloadSpec::new(queries, 99).generate(&b.info);
    let (mut r1_sum, mut r2_sum) = (0.0, 0.0);
    for case in &workload.cases {
        let out1 = fw.search(&MultiModalQuery::text(&case.round1_text), K, EF);
        r1_sum += recall_at_k(&b.gt, &out1.ids(), case.concept, K);
        // The user clicks the first on-concept result (or the top one).
        let pick = out1
            .ids()
            .iter()
            .copied()
            .find(|&id| b.gt.is_relevant(id, case.concept))
            .unwrap_or(out1.ids()[0]);
        let style = b.corpus.kb().get(pick).style.unwrap();
        let img = match b.corpus.kb().get(pick).content(1) {
            Some(RawContent::Image(i)) => i.clone(),
            _ => unreachable!(),
        };
        let out2 = fw.search(
            &MultiModalQuery::text_and_image(&case.round2_text, img),
            K,
            EF,
        );
        r2_sum += round2_recall_at_k(&b.gt, &out2.ids(), pick, case.concept, style, K);
    }
    (r1_sum / queries as f64, r2_sum / queries as f64)
}

#[test]
fn figure5_shape_must_wins_round2_mr_ties_round1() {
    let b = setup();
    let (must_r1, must_r2) = two_round_protocol(&b, &b.must, 40);
    let (mr_r1, mr_r2) = two_round_protocol(&b, &b.mr, 40);
    let (je_r1, je_r2) = two_round_protocol(&b, &b.je, 40);
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
    let b = setup();
    let workload = WorkloadSpec::new(15, 5).generate(&b.info);
    let mut agree = 0usize;
    let mut total = 0usize;
    for case in &workload.cases {
        let q = MultiModalQuery::text(&case.round1_text);
        let approx = b.must.search(&q, K, 128);
        let qv = b.corpus.encoders().encode_query(&q);
        let exact = b.must.index().search_exact(&qv, None, K);
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
    let b = setup();
    let out = b
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
    let b = setup();
    assert_eq!(b.must.kind(), FrameworkKind::Must);
    assert_eq!(b.mr.kind(), FrameworkKind::Mr);
    assert_eq!(b.je.kind(), FrameworkKind::Je);
    assert_ne!(b.must.describe(), b.mr.describe());
}

#[test]
fn learned_weights_beat_uniform_on_round1_recall() {
    let b = setup();
    let uniform = MustFramework::build(
        Arc::clone(&b.corpus),
        Weights::uniform(2),
        &IndexAlgorithm::mqa_graph(),
    );
    let (learned_r1, _) = two_round_protocol(&b, &b.must, 40);
    let (uniform_r1, _) = two_round_protocol(&b, &uniform, 40);
    println!("learned {learned_r1:.3} uniform {uniform_r1:.3}");
    assert!(
        learned_r1 >= uniform_r1 - 0.02,
        "learned {learned_r1} materially worse than uniform {uniform_r1}"
    );
}
