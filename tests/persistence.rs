//! Deployment-path integration tests: snapshot a built unified index,
//! restore it, and serve a MUST framework from it.

use mqa::encoders::EncoderRegistry;
use mqa::graph::{IndexAlgorithm, UnifiedIndex, UnifiedSnapshot};
use mqa::kb::DatasetSpec;
use mqa::retrieval::{
    EncodedCorpus, EncoderSet, MultiModalQuery, MustFramework, RetrievalFramework,
};
use mqa::vector::{Metric, Weights};
use std::sync::Arc;

fn corpus() -> Arc<EncodedCorpus> {
    let kb = DatasetSpec::weather()
        .objects(400)
        .concepts(20)
        .seed(77)
        .generate();
    let registry = EncoderRegistry::new(3);
    let schema = kb.schema().clone();
    Arc::new(EncodedCorpus::encode(
        kb,
        EncoderSet::default_for(&registry, &schema, 32),
    ))
}

#[test]
fn must_framework_served_from_restored_snapshot() {
    let corpus = corpus();
    let weights = Weights::normalized(&[0.9, 1.1]);
    let index = UnifiedIndex::build(
        corpus.store().clone(),
        weights,
        Metric::L2,
        &IndexAlgorithm::mqa_graph(),
    );
    let json = index.snapshot().to_json().expect("finite index serializes");

    let original = MustFramework::from_index(Arc::clone(&corpus), index).expect("sizes match");
    let restored_index = UnifiedSnapshot::from_json(&json)
        .unwrap()
        .restore()
        .expect("sound snapshot");
    let restored =
        MustFramework::from_index(Arc::clone(&corpus), restored_index).expect("sizes match");

    for seed in 0..5u32 {
        let title = corpus.kb().get(seed * 13).title.clone();
        let q = MultiModalQuery::text(title);
        assert_eq!(
            original.search(&q, 5, 48).ids(),
            restored.search(&q, 5, 48).ids(),
            "divergence on query {seed}"
        );
    }
}

#[test]
fn snapshot_json_is_self_describing() {
    let corpus = corpus();
    let index = UnifiedIndex::build(
        corpus.store().clone(),
        Weights::uniform(2),
        Metric::L2,
        &IndexAlgorithm::hnsw(),
    );
    let snap = index.snapshot();
    let json = snap.to_json().expect("finite index serializes");
    assert!(
        json.contains("Hnsw"),
        "algorithm variant visible in snapshot"
    );
    let back = UnifiedSnapshot::from_json(&json).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn snapshot_survives_weight_override_queries() {
    let corpus = corpus();
    let index = UnifiedIndex::build(
        corpus.store().clone(),
        Weights::uniform(2),
        Metric::L2,
        &IndexAlgorithm::nsg(),
    );
    let restored = index.snapshot().restore().expect("sound snapshot");
    let q = corpus
        .encoders()
        .encode_query(&MultiModalQuery::text(corpus.kb().get(0).title.clone()));
    let w = Weights::normalized(&[2.0, 0.1]);
    assert_eq!(
        index.search(&q, Some(&w), 5, 32).ids(),
        restored.search(&q, Some(&w), 5, 32).ids()
    );
}
