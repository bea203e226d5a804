//! JE — Joint Embedding (the ARTEMIS-style baseline).
//!
//! Every object is encoded into **one** vector: the concatenation of its
//! modality embeddings, each block scaled `1/sqrt(M)`, unit-normalized.
//! One single-vector index serves all queries; queries are jointly encoded
//! the same way, with missing modalities filled per [`JePartialPolicy`].
//!
//! JE's structural limitations (demonstrated in Figure 5): fixed equal
//! modality weighting (the normalization bakes it in — user weight
//! overrides cannot apply, matching the paper's "lacking multi-modal
//! retrieval configurations" note for single-channel systems), and no
//! native notion of a *missing* modality — a joint encoder must be fed
//! something in every slot (see [`JePartialPolicy`]).

use crate::encoding::EncodedCorpus;
use crate::framework::{FrameworkKind, RetrievalFramework};
use crate::query::MultiModalQuery;
use crate::result::RetrievalOutput;
use mqa_encoders::ImageData;
use mqa_graph::{IndexAlgorithm, VectorIndex};
use mqa_vector::{ops, ModalityKind, MultiVector, VectorStore};
use std::sync::Arc;

/// How JE handles query modalities the user did not supply.
///
/// Joint-embedding models (ARTEMIS/TIRG-style) encode *all* modalities in
/// one pass and have no "absent" input token: a text-only request must be
/// submitted with some stand-in image. The faithful behaviour — and the
/// cause of Figure 5's irrelevant round-1 JE result — is
/// [`JePartialPolicy::Placeholder`]: a blank frame is encoded and its
/// (meaningless) embedding pollutes the joint query. The idealized
/// [`JePartialPolicy::ZeroFill`] (skip the modality entirely) is kept as an
/// ablation upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JePartialPolicy {
    /// Feed a blank placeholder (faithful to real joint encoders).
    #[default]
    Placeholder,
    /// Leave a zero block (idealized; not achievable with a real joint
    /// encoder, but useful to isolate how much the placeholder costs).
    ZeroFill,
}

/// The JE framework instance over one corpus.
pub struct JeFramework {
    corpus: Arc<EncodedCorpus>,
    index: VectorIndex,
    policy: JePartialPolicy,
}

fn joint_vector(corpus: &EncodedCorpus, mv: &MultiVector) -> Vec<f32> {
    let schema = corpus.store().schema();
    let scale = 1.0 / mqa_vector::cast::count_f32(schema.arity()).sqrt();
    let mut flat = mv.concat(schema);
    ops::scale(scale, &mut flat);
    ops::normalize(&mut flat);
    flat
}

impl JeFramework {
    /// Jointly encodes every object and builds one index (with the
    /// faithful [`JePartialPolicy::Placeholder`]).
    pub fn build(corpus: Arc<EncodedCorpus>, algorithm: &IndexAlgorithm) -> Self {
        Self::build_with_policy(corpus, algorithm, JePartialPolicy::default())
    }

    /// [`JeFramework::build`] with an explicit partial-query policy.
    pub fn build_with_policy(
        corpus: Arc<EncodedCorpus>,
        algorithm: &IndexAlgorithm,
        policy: JePartialPolicy,
    ) -> Self {
        let schema = corpus.store().schema().clone();
        let mut joint = VectorStore::with_capacity(schema.total_dim(), corpus.store().len());
        for id in 0..mqa_vector::cast::vec_id(corpus.store().len()) {
            let mv = corpus.store().multivector_of(id);
            joint.push(&joint_vector(&corpus, &mv));
        }
        let index = VectorIndex::build(joint, algorithm);
        Self {
            corpus,
            index,
            policy,
        }
    }

    /// The joint index.
    pub fn index(&self) -> &VectorIndex {
        &self.index
    }

    /// The partial-query policy in force.
    pub fn policy(&self) -> JePartialPolicy {
        self.policy
    }

    /// Fills the query's missing slots according to the policy: blank
    /// grey-frame descriptors for visual fields, empty text for textual
    /// ones.
    fn complete_query(&self, query: &MultiModalQuery) -> MultiModalQuery {
        let mut q = query.clone();
        if self.policy == JePartialPolicy::Placeholder {
            let schema = self.corpus.encoders().content_schema();
            let has_visual = schema
                .fields()
                .iter()
                .any(|f| matches!(f.kind, ModalityKind::Image | ModalityKind::Video));
            if q.image.is_none() && has_visual {
                // ALLOC: joint-embedding completion synthesizes the missing modality once per query.
                q.image = Some(ImageData::new(vec![0.5; schema.raw_image_dim()]));
            }
            let has_text = schema
                .fields()
                .iter()
                .any(|f| matches!(f.kind, ModalityKind::Text | ModalityKind::Audio));
            if q.text.is_none() && has_text {
                // ALLOC: capacity-0 String placeholder; never touches the heap.
                q.text = Some(String::new());
            }
        }
        q
    }
}

impl RetrievalFramework for JeFramework {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::Je
    }

    fn search(&self, query: &MultiModalQuery, k: usize, ef: usize) -> RetrievalOutput {
        assert!(query.has_content(), "empty query");
        assert!(k > 0, "k must be >= 1");
        mqa_obs::trace::note_framework("je");
        let outer = mqa_obs::span("retrieval.je.search");
        // Note: query.weight_override is deliberately ignored — joint
        // embedding has no per-modality weighting hook.
        let joint = {
            let _stage = mqa_obs::span("retrieval.je.encode");
            let completed = self.complete_query(query);
            let qv = self.corpus.encoders().encode_query(&completed);
            joint_vector(&self.corpus, &qv)
        };
        let out = {
            let _stage = mqa_obs::span("retrieval.je.index_search");
            self.index.search(&joint, k, ef)
        };
        RetrievalOutput {
            results: out.results,
            stats: out.stats,
            scan: None,
            latency: outer.finish(),
        }
    }

    fn describe(&self) -> String {
        format!(
            "JE: joint {}-dim embedding, single {} index, fixed equal weighting",
            self.index.store().dim(),
            self.index.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncoderSet;
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

    fn framework() -> JeFramework {
        JeFramework::build(corpus(), &IndexAlgorithm::mqa_graph())
    }

    #[test]
    fn complete_query_identical_to_object_finds_it() {
        let f = framework();
        let rec = f.corpus.kb().get(0);
        let img = match rec.content(1).unwrap() {
            mqa_encoders::RawContent::Image(i) => i.clone(),
            _ => panic!(),
        };
        let caption = match rec.content(0).unwrap() {
            mqa_encoders::RawContent::Text(t) => t.clone(),
            _ => panic!(),
        };
        let out = f.search(&MultiModalQuery::text_and_image(caption, img), 1, 64);
        assert_eq!(out.ids()[0], 0);
    }

    #[test]
    fn text_only_query_still_retrieves_concept() {
        // JE degrades on partial queries but should not collapse entirely.
        let f = framework();
        let gt = GroundTruth::build(f.corpus.kb());
        let member = gt.members(1)[0];
        let title = f.corpus.kb().get(member).title.clone();
        let phrase = title.rsplit_once(" #").map(|(p, _)| p.to_string()).unwrap();
        let out = f.search(&MultiModalQuery::text(phrase), 10, 64);
        let hits = out
            .ids()
            .iter()
            .filter(|&&id| gt.is_relevant(id, 1))
            .count();
        assert!(hits >= 3, "JE text-only hit {hits}/10");
    }

    #[test]
    fn weight_override_is_ignored() {
        let f = framework();
        let title = f.corpus.kb().get(2).title.clone();
        let plain = f.search(&MultiModalQuery::text(title.clone()), 5, 64);
        let weighted = f.search(
            &MultiModalQuery::text(title).with_weights(vec![0.0, 5.0]),
            5,
            64,
        );
        assert_eq!(plain.ids(), weighted.ids());
    }

    #[test]
    fn joint_vectors_are_unit_norm() {
        let f = framework();
        for id in (0..f.index.store().len() as u32).step_by(60) {
            let n = ops::norm(f.index.store().get(id));
            assert!((n - 1.0).abs() < 1e-4, "joint vector {id} norm {n}");
        }
    }

    #[test]
    fn describe_mentions_joint() {
        assert!(framework().describe().contains("joint"));
        assert_eq!(framework().kind(), FrameworkKind::Je);
    }
}
