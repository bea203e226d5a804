//! Shared experiment setup: corpus generation, the system's encoding
//! pipeline, framework builds.

use mqa_core::components::{preprocess, represent};
use mqa_core::Config;
use mqa_graph::IndexAlgorithm;
use mqa_kb::{DatasetInfo, DatasetSpec, GroundTruth};
use mqa_retrieval::{EncodedCorpus, JeFramework, MrFramework, MustFramework};
use mqa_weights::LearnedWeights;
use std::sync::Arc;
use std::time::Duration;

/// Knobs shared by most experiments.
#[derive(Debug, Clone)]
pub struct SetupParams {
    /// Corpus spec (domain, size, noise profile).
    pub spec: DatasetSpec,
    /// Embedding dimensionality per modality.
    pub dim: usize,
    /// Encoder/model seed.
    pub model_seed: u64,
    /// Graph algorithm for all frameworks.
    pub algo: IndexAlgorithm,
}

impl Default for SetupParams {
    fn default() -> Self {
        Self {
            // The Figure 5 profile: noisy captions, clean images — modality
            // weighting matters, and styles are visually separable.
            spec: DatasetSpec::weather()
                .objects(20_000)
                .concepts(100)
                .styles(4)
                .caption_noise(0.35)
                .image_noise(0.15)
                .seed(2024),
            dim: 64,
            model_seed: 0,
            algo: IndexAlgorithm::mqa_graph(),
        }
    }
}

/// An encoded corpus with its generator metadata and ground truth.
pub struct Encoded {
    /// Shared encoded corpus.
    pub corpus: Arc<EncodedCorpus>,
    /// Generator metadata (concept vocabulary).
    pub info: DatasetInfo,
    /// Relevance ground truth.
    pub gt: GroundTruth,
    /// Learned modality weights (trained on the corpus labels).
    pub learned: LearnedWeights,
}

/// Generates the corpus and runs it through the preprocessing and
/// representation components `MqaSystem::build` runs: encoding at
/// `params.dim` dimensions a modality, then modality-weight learning.
pub fn encode(params: &SetupParams) -> Encoded {
    let (kb, info) = params.spec.generate_with_info();
    let gt = GroundTruth::build(&kb);
    let config = Config {
        embedding_dim: params.dim,
        encoder_seed: params.model_seed,
        ..Config::default()
    };
    #[expect(
        clippy::expect_used,
        reason = "benchmark setup only consumes harness-generated corpora, which always carry concept labels"
    )]
    let (corpus, learned) = preprocess::run(kb)
        .and_then(|pre| represent::run(&pre, &config))
        .ok()
        .and_then(|rep| Some((rep.corpus, rep.learned?)))
        .expect("generated corpora are labelled and non-empty");
    Encoded {
        corpus,
        info,
        gt,
        learned,
    }
}

/// The three frameworks built over one corpus, with build times.
pub struct Frameworks {
    /// MUST with learned weights.
    pub must: MustFramework,
    /// Multi-streamed retrieval.
    pub mr: MrFramework,
    /// Joint embedding.
    pub je: JeFramework,
    /// Build wall-clock per framework (MUST, MR, JE).
    pub build_times: [Duration; 3],
}

/// Builds MUST (learned weights), MR, and JE over the encoded corpus.
pub fn build_frameworks(enc: &Encoded, algo: &IndexAlgorithm) -> Frameworks {
    let t0 = std::time::Instant::now();
    let must = MustFramework::build(Arc::clone(&enc.corpus), enc.learned.weights.clone(), algo);
    let t_must = t0.elapsed();
    let t0 = std::time::Instant::now();
    let mr = MrFramework::build(Arc::clone(&enc.corpus), algo);
    let t_mr = t0.elapsed();
    let t0 = std::time::Instant::now();
    let je = JeFramework::build(Arc::clone(&enc.corpus), algo);
    let t_je = t0.elapsed();
    Frameworks {
        must,
        mr,
        je,
        build_times: [t_must, t_mr, t_je],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_setup_builds_everything() {
        let params = SetupParams {
            spec: DatasetSpec::weather().objects(200).concepts(10).seed(1),
            dim: 16,
            ..SetupParams::default()
        };
        let enc = encode(&params);
        assert_eq!(enc.corpus.store().len(), 200);
        assert_eq!(enc.learned.weights.arity(), 2);
        let fws = build_frameworks(&enc, &IndexAlgorithm::Flat);
        assert!(fws.build_times.iter().all(|d| d.as_nanos() > 0));
    }
}
