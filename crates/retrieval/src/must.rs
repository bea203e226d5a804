//! MUST — the paper's retrieval framework.
//!
//! Objects keep one vector per modality; similarity is the **weighted**
//! fused distance with weights from the contrastive vector-weight-learning
//! model (`mqa-weights`) or the user; one unified navigation graph holds
//! all modalities; a query makes a single merging-free traversal with
//! incremental (early-abandon) distance scanning.

use crate::encoding::{EncodedCorpus, EncoderSet};
use crate::error::RetrievalError;
use crate::framework::{FrameworkKind, RetrievalFramework};
use crate::query::MultiModalQuery;
use crate::result::RetrievalOutput;
use mqa_graph::{IndexAlgorithm, UnifiedIndex};
use mqa_vector::{Metric, Weights};
use std::sync::Arc;

/// The MUST framework instance over one corpus. It keeps the encoders
/// (all a search reads), not the corpus: once `MqaSystem::add_objects`
/// swaps in the grown corpus, the one it was built over must be droppable.
pub struct MustFramework {
    encoders: EncoderSet,
    index: UnifiedIndex,
}

impl MustFramework {
    /// Builds the unified index under `weights` (typically the learned
    /// weights; `Weights::uniform` disables weighting for ablations).
    pub fn build(corpus: Arc<EncodedCorpus>, weights: Weights, algorithm: &IndexAlgorithm) -> Self {
        let index = UnifiedIndex::build(corpus.store().clone(), weights, Metric::L2, algorithm);
        Self {
            encoders: corpus.encoders().clone(),
            index,
        }
    }

    /// Wraps an already-built (or snapshot-restored, or custom-pipeline)
    /// unified index.
    ///
    /// # Errors
    /// Returns [`RetrievalError::IndexCorpusMismatch`] if the index does
    /// not cover the corpus.
    pub fn from_index(
        corpus: Arc<EncodedCorpus>,
        index: UnifiedIndex,
    ) -> Result<Self, RetrievalError> {
        if index.len() != corpus.store().len() {
            return Err(RetrievalError::IndexCorpusMismatch {
                index: index.len(),
                corpus: corpus.store().len(),
            });
        }
        Ok(Self {
            encoders: corpus.encoders().clone(),
            index,
        })
    }

    /// The unified index (exposed for the experiment harness: exact search,
    /// scan statistics).
    pub fn index(&self) -> &UnifiedIndex {
        &self.index
    }

    /// The weights the index was built with.
    pub fn weights(&self) -> &Weights {
        self.index.weights()
    }
}

impl RetrievalFramework for MustFramework {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::Must
    }

    fn search(&self, query: &MultiModalQuery, k: usize, ef: usize) -> RetrievalOutput {
        assert!(query.has_content(), "empty query");
        assert!(k > 0, "k must be >= 1");
        mqa_obs::trace::note_framework("must");
        let outer = mqa_obs::span("retrieval.must.search");
        let qv = {
            let _stage = mqa_obs::span("retrieval.must.encode");
            self.encoders.encode_query(query)
        };
        let override_w = {
            let _stage = mqa_obs::span("retrieval.must.weight_fuse");
            query
                .weight_override
                .as_ref()
                .map(|raw| Weights::normalized(raw))
        };
        let out = {
            let _stage = mqa_obs::span("retrieval.must.index_search");
            self.index.search(&qv, override_w.as_ref(), k, ef)
        };
        RetrievalOutput {
            results: out.output.results,
            stats: out.output.stats,
            scan: Some(out.scan),
            latency: outer.finish(),
        }
    }

    fn add_objects(
        &self,
        objects: &[mqa_vector::MultiVector],
    ) -> Result<mqa_graph::MutationReport, RetrievalError> {
        self.index
            .add_objects(objects)
            .map_err(RetrievalError::Mutation)
    }

    fn remove_objects(
        &self,
        ids: &[mqa_vector::VecId],
    ) -> Result<mqa_graph::MutationReport, RetrievalError> {
        self.index
            .remove_objects(ids)
            .map_err(RetrievalError::Mutation)
    }

    fn describe(&self) -> String {
        format!(
            "MUST: {} (weights {:?})",
            self.index.describe(),
            self.index
                .weights()
                .as_slice()
                .iter()
                .map(|w| (w * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_encoders::EncoderRegistry;
    use mqa_kb::{DatasetSpec, GroundTruth};

    fn corpus() -> Arc<EncodedCorpus> {
        let kb = DatasetSpec::weather()
            .objects(240)
            .concepts(8)
            .caption_noise(0.05)
            .seed(1)
            .generate();
        let registry = EncoderRegistry::new(7);
        let schema = kb.schema().clone();
        let encoders = EncoderSet::default_for(&registry, &schema, 32);
        Arc::new(EncodedCorpus::encode(kb, encoders))
    }

    fn framework() -> (Arc<EncodedCorpus>, MustFramework) {
        let c = corpus();
        let f = MustFramework::build(
            Arc::clone(&c),
            Weights::uniform(2),
            &IndexAlgorithm::mqa_graph(),
        );
        (c, f)
    }

    #[test]
    fn the_index_shares_the_corpus_rows() {
        let (c, f) = framework();
        let (corpus, index) = (c.store().rows(), f.index().store());
        let index = index.rows();
        assert_eq!(corpus.segments().len(), index.segments().len());
        for (a, b) in corpus.segments().iter().zip(index.segments()) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn text_query_finds_concept_members() {
        let (c, f) = framework();
        let gt = GroundTruth::build(c.kb());
        // Use concept 0's canonical keywords from one of its members.
        let member = gt.members(0)[0];
        let title = c.kb().get(member).title.clone();
        let phrase = title.rsplit_once(" #").map(|(p, _)| p.to_string()).unwrap();
        let out = f.search(&MultiModalQuery::text(phrase), 10, 64);
        let hits = out
            .ids()
            .iter()
            .filter(|&&id| gt.is_relevant(id, 0))
            .count();
        assert!(hits >= 7, "MUST text search hit {hits}/10");
        assert!(out.scan.is_some());
        assert!(out.latency.as_nanos() > 0);
    }

    #[test]
    fn image_query_finds_same_style() {
        let (c, f) = framework();
        // reference image = object 0's raw descriptor
        let rec = c.kb().get(0);
        let img = match rec.content(1).unwrap() {
            mqa_encoders::RawContent::Image(i) => i.clone(),
            _ => panic!(),
        };
        let out = f.search(&MultiModalQuery::image(img), 5, 64);
        // object 0 itself must be the top hit (identical descriptor)
        assert_eq!(out.ids()[0], 0);
    }

    #[test]
    fn weight_override_is_respected() {
        let (c, f) = framework();
        let rec = c.kb().get(3);
        let img = match rec.content(1).unwrap() {
            mqa_encoders::RawContent::Image(i) => i.clone(),
            _ => panic!(),
        };
        // text from a *different* concept + image of object 3, image-only
        // weighting: the image must dominate.
        let other_title = c.kb().get(1).title.clone();
        let phrase = other_title
            .rsplit_once(" #")
            .map(|(p, _)| p.to_string())
            .unwrap();
        let q = MultiModalQuery::text_and_image(phrase, img).with_weights(vec![0.0, 1.0]);
        let out = f.search(&q, 1, 64);
        assert_eq!(out.ids()[0], 3);
    }

    #[test]
    fn describe_names_must() {
        let (_, f) = framework();
        assert!(f.describe().starts_with("MUST"));
        assert_eq!(f.kind(), FrameworkKind::Must);
    }

    #[test]
    #[should_panic(expected = "empty query")]
    fn empty_query_panics() {
        framework().1.search(&MultiModalQuery::default(), 5, 32);
    }

    #[test]
    fn from_index_rejects_size_mismatch() {
        let (_, f) = framework();
        let small = DatasetSpec::weather()
            .objects(60)
            .concepts(4)
            .seed(2)
            .generate();
        let registry = EncoderRegistry::new(9);
        let schema = small.schema().clone();
        let encoders = EncoderSet::default_for(&registry, &schema, 32);
        let small_corpus = Arc::new(EncodedCorpus::encode(small, encoders));
        let restored = f.index.snapshot().restore().expect("sound snapshot");
        let err = match MustFramework::from_index(small_corpus, restored) {
            Err(e) => e,
            Ok(_) => panic!("mismatched sizes must be rejected"),
        };
        assert_eq!(
            err,
            RetrievalError::IndexCorpusMismatch {
                index: 240,
                corpus: 60
            }
        );
    }

    #[test]
    fn frameworks_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MustFramework>();
        assert_send_sync::<crate::mr::MrFramework>();
        assert_send_sync::<crate::je::JeFramework>();
        assert_send_sync::<std::sync::Arc<dyn RetrievalFramework>>();
    }

    #[test]
    fn must_supports_online_mutation_through_the_trait() {
        let (c, f) = framework();
        let shared: Arc<dyn RetrievalFramework> = Arc::new(f);
        // Behind the trait object: insert an encoded copy of object 0,
        // then retire the original — searches see only the replacement.
        let qv = c.store().multivector_of(0);
        let report = shared.add_objects(std::slice::from_ref(&qv)).unwrap();
        assert_eq!((report.epoch, report.applied), (1, 1));
        shared.remove_objects(&[0]).unwrap();
        let rec = c.kb().get(0);
        let img = match rec.content(1).unwrap() {
            mqa_encoders::RawContent::Image(i) => i.clone(),
            _ => panic!(),
        };
        let out = shared.search(&MultiModalQuery::image(img), 5, 64);
        assert!(!out.ids().contains(&0), "retired object surfaced");
        assert_eq!(out.ids()[0], 240, "the inserted duplicate must win");
    }

    #[test]
    fn mr_and_je_refuse_mutation() {
        use crate::error::RetrievalError;
        let c = corpus();
        let mr = crate::mr::MrFramework::build(Arc::clone(&c), &IndexAlgorithm::hnsw());
        let qv = c.store().multivector_of(0);
        assert_eq!(
            mr.add_objects(std::slice::from_ref(&qv)),
            Err(RetrievalError::MutationUnsupported {
                framework: FrameworkKind::Mr
            })
        );
        assert_eq!(
            mr.remove_objects(&[0]),
            Err(RetrievalError::MutationUnsupported {
                framework: FrameworkKind::Mr
            })
        );
    }
}
