//! MR — Multi-streamed Retrieval (the Milvus-style baseline).
//!
//! One single-vector index per modality. A query searches every channel it
//! has content for, then **merges the per-channel result lists** with
//! reciprocal-rank fusion (scores from different modality spaces are not
//! directly comparable, so rank-based fusion is the standard merge).
//!
//! The framework's structural weaknesses — the ones the paper's Figure 5
//! demonstrates — are inherent here, not simulated: (1) an object relevant
//! through the *combination* of modalities but mediocre in each individual
//! channel never enters any candidate list; (2) every query pays one graph
//! search per modality; (3) fusion has no notion of modality importance.

use crate::encoding::EncodedCorpus;
use crate::framework::{FrameworkKind, RetrievalFramework};
use crate::query::MultiModalQuery;
use crate::result::RetrievalOutput;
use mqa_graph::{IndexAlgorithm, VectorIndex};
use mqa_kb::ObjectId;
use mqa_vector::Candidate;
use std::collections::HashMap;
use std::sync::Arc;

/// Over-retrieval factor: each channel fetches `k * OVERSAMPLE` candidates
/// before merging.
const OVERSAMPLE: usize = 3;

/// RRF smoothing constant (the conventional value from the literature).
const RRF_K: f64 = 60.0;

/// The MR framework instance over one corpus.
pub struct MrFramework {
    corpus: Arc<EncodedCorpus>,
    channels: Vec<VectorIndex>,
}

impl MrFramework {
    /// Builds one index per modality.
    pub fn build(corpus: Arc<EncodedCorpus>, algorithm: &IndexAlgorithm) -> Self {
        let arity = corpus.store().schema().arity();
        let channels = (0..arity)
            .map(|m| VectorIndex::build(corpus.store().modality_store(m), algorithm))
            .collect();
        Self { corpus, channels }
    }

    /// Per-modality indexes (for the harness's build-cost accounting).
    pub fn channels(&self) -> &[VectorIndex] {
        &self.channels
    }
}

impl RetrievalFramework for MrFramework {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::Mr
    }

    fn search(&self, query: &MultiModalQuery, k: usize, ef: usize) -> RetrievalOutput {
        assert!(query.has_content(), "empty query");
        assert!(k > 0, "k must be >= 1");
        mqa_obs::trace::note_framework("mr");
        let outer = mqa_obs::span("retrieval.mr.search");
        let qv = {
            let _stage = mqa_obs::span("retrieval.mr.encode");
            self.corpus.encoders().encode_query(query)
        };
        let fetch = k * OVERSAMPLE;
        let mut stats = mqa_graph::SearchStats::default();
        // ALLOC: per-query RRF fusion table, bounded by the union of per-leg results.
        let mut rrf: HashMap<ObjectId, f64> = HashMap::new();
        let mut searched = 0usize;
        for (m, part) in qv.present() {
            // A modality with no built channel contributes nothing to the
            // fused ranking rather than panicking.
            let Some(channel) = self.channels.get(m) else {
                continue;
            };
            let channel_span = mqa_obs::span("retrieval.mr.channel_search");
            let out = channel.search(part, fetch, ef.max(fetch));
            let _ = channel_span.finish();
            stats.merge(&out.stats);
            searched += 1;
            for (rank, c) in out.results.iter().enumerate() {
                // ALLOC: RRF table growth, bounded by the union of per-leg results.
                *rrf.entry(c.id).or_insert(0.0) += 1.0 / (RRF_K + rank as f64 + 1.0);
            }
        }
        assert!(searched > 0, "query matched no channel");
        // Merge: descending fused RRF score; expose (1 - score) as the
        // pseudo-distance so lower stays better.
        let merge_span = mqa_obs::span("retrieval.mr.merge");
        let mut merged: Vec<Candidate> = rrf
            .into_iter()
            // INVARIANT: RRF scores live in [0, 1), so the f64 -> f32
            // narrowing loses only sub-epsilon tail precision.
            .map(|(id, score)| Candidate::new(id, (1.0 - score) as f32))
            // ALLOC: the fused result list handed back to the caller.
            .collect();
        merged.sort_unstable();
        merged.truncate(k);
        let _ = merge_span.finish();
        RetrievalOutput {
            results: merged,
            stats,
            scan: None,
            latency: outer.finish(),
        }
    }

    fn describe(&self) -> String {
        format!(
            "MR: {} per-modality indexes ({}), reciprocal-rank fusion",
            self.channels.len(),
            self.channels
                .first()
                .map(|c| c.algorithm().name())
                .unwrap_or("none")
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

    fn framework() -> MrFramework {
        MrFramework::build(corpus(), &IndexAlgorithm::mqa_graph())
    }

    #[test]
    fn builds_one_channel_per_modality() {
        let f = framework();
        assert_eq!(f.channels().len(), 2);
        assert_eq!(f.kind(), FrameworkKind::Mr);
    }

    #[test]
    fn text_only_query_probes_one_channel() {
        let f = framework();
        let gt = GroundTruth::build(f.corpus.kb());
        let member = gt.members(2)[0];
        let title = f.corpus.kb().get(member).title.clone();
        let phrase = title.rsplit_once(" #").map(|(p, _)| p.to_string()).unwrap();
        let out = f.search(&MultiModalQuery::text(phrase), 10, 64);
        let hits = out
            .ids()
            .iter()
            .filter(|&&id| gt.is_relevant(id, 2))
            .count();
        assert!(hits >= 7, "MR text search hit {hits}/10");
    }

    #[test]
    fn multimodal_query_fuses_both_channels() {
        let f = framework();
        let rec = f.corpus.kb().get(0);
        let img = match rec.content(1).unwrap() {
            mqa_encoders::RawContent::Image(i) => i.clone(),
            _ => panic!(),
        };
        let title = rec.title.clone();
        let phrase = title.rsplit_once(" #").map(|(p, _)| p.to_string()).unwrap();
        let out = f.search(&MultiModalQuery::text_and_image(phrase, img), 5, 64);
        // Object 0 tops the image channel outright, but rank fusion with
        // the text channel (where many concept members tie) can demote the
        // exact match — MR's characteristic dilution. The fusion must
        // still keep the result set on-concept.
        let gt = GroundTruth::build(f.corpus.kb());
        let concept = f.corpus.kb().get(0).concept.unwrap();
        let hits = out
            .ids()
            .iter()
            .filter(|&&id| gt.is_relevant(id, concept))
            .count();
        assert!(
            hits >= 4,
            "MR fused top-5 only {hits} on-concept: {:?}",
            out.ids()
        );
        // two channels were searched
        assert!(out.stats.evals > 0);
    }

    #[test]
    fn merged_distances_are_sorted() {
        let f = framework();
        let title = f.corpus.kb().get(5).title.clone();
        let out = f.search(&MultiModalQuery::text(title), 10, 64);
        for w in out.results.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn describe_mentions_channels() {
        assert!(framework().describe().contains("per-modality"));
    }
}
