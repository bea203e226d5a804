//! The configuration panel (① in Figure 3) as a serializable value.
//!
//! Every knob of the paper's frontend is here: encoder selection, the
//! vector-weight-learning toggle, index method and parameters, retrieval
//! framework and result-set size, LLM choice and temperature. A
//! [`Config`] serializes to JSON so panel state can be exported, shared
//! and replayed.

use crate::error::MqaError;
use mqa_encoders::EncoderChoice;
use mqa_graph::IndexAlgorithm;
use mqa_llm::LlmChoice;
use mqa_retrieval::FrameworkKind;
use mqa_vector::Metric;
use mqa_weights::TrainerConfig;
use serde::{Deserialize, Serialize};

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Per-field encoder choices; `None` picks sensible defaults for the
    /// knowledge base's schema at [`Config::embedding_dim`] dimensions.
    pub encoders: Option<Vec<EncoderChoice>>,
    /// Embedding dimensionality used by the default encoder selection.
    pub embedding_dim: usize,
    /// Model seed: all encoders are deterministic in it.
    pub encoder_seed: u64,
    /// The vector-weight-learning toggle. When off (or when the corpus has
    /// no labels to train on), uniform weights are used.
    pub weight_learning: bool,
    /// Hyper-parameters of the weight learner.
    pub trainer: TrainerConfig,
    /// Distance metric: always [`Metric::L2`], the only distance. Kept only
    /// because the benchmark crate still reads it.
    pub metric: Metric,
    /// Index method and parameters.
    pub index: IndexAlgorithm,
    /// Retrieval framework.
    pub framework: FrameworkKind,
    /// Result-set size (`k`).
    pub k: usize,
    /// Search effort (beam width `ef`).
    pub ef: usize,
    /// LLM selection.
    pub llm: LlmChoice,
    /// LLM output-variability control.
    pub temperature: f32,
    /// Dialogue context carry-over: when on, a turn's retrieval text is
    /// augmented with the previous turn's text, so terse refinements
    /// ("more like this one") inherit the session's topic even without a
    /// click.
    pub carry_history: bool,
    /// Result diversification: `Some(λ)` re-ranks an over-fetched pool by
    /// Maximal Marginal Relevance so the QA panel shows `k` *distinct*
    /// options instead of near-duplicates (`λ = 1` ≡ plain ranking; `None`
    /// disables the over-fetch entirely).
    pub diversify: Option<f32>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            encoders: None,
            embedding_dim: 64,
            encoder_seed: 0,
            weight_learning: true,
            trainer: TrainerConfig::default(),
            metric: Metric::L2,
            index: IndexAlgorithm::mqa_graph(),
            framework: FrameworkKind::Must,
            k: 5,
            ef: 64,
            llm: LlmChoice::Mock { seed: 0 },
            temperature: 0.0,
            carry_history: false,
            diversify: None,
        }
    }
}

impl Config {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`MqaError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), MqaError> {
        if self.k == 0 {
            return Err(MqaError::InvalidConfig(
                "result count k must be >= 1".into(),
            ));
        }
        if self.ef < self.k {
            return Err(MqaError::InvalidConfig(format!(
                "search effort ef ({}) must be >= k ({})",
                self.ef, self.k
            )));
        }
        if self.embedding_dim == 0 && self.encoders.is_none() {
            return Err(MqaError::InvalidConfig(
                "embedding dimension must be >= 1".into(),
            ));
        }
        if !(self.temperature.is_finite() && self.temperature >= 0.0) {
            return Err(MqaError::InvalidConfig(
                "temperature must be a finite non-negative number".into(),
            ));
        }
        if let Some(lambda) = self.diversify {
            if !(0.0..=1.0).contains(&lambda) {
                return Err(MqaError::InvalidConfig(format!(
                    "diversification lambda {lambda} must be in [0, 1]"
                )));
            }
        }
        match index_rules(&self.index)
            .into_iter()
            .find(|(_, holds)| !holds)
        {
            Some((rule, _)) => Err(MqaError::InvalidConfig(format!(
                "{} index: {rule}",
                self.index.name()
            ))),
            None => Ok(()),
        }
    }

    /// Exports the panel state as JSON.
    pub fn to_json(&self) -> String {
        // The in-tree serializer writes to a String and cannot fail.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Imports panel state from JSON.
    ///
    /// # Errors
    /// Returns [`MqaError::InvalidConfig`] with the parse error message.
    pub fn from_json(json: &str) -> Result<Self, MqaError> {
        serde_json::from_str(json).map_err(|e| MqaError::InvalidConfig(e.to_string()))
    }
}

/// The index parameters the builders assert on, each named with whether
/// `index` meets it: a configuration that breaks one would panic inside
/// `MqaSystem::build`.
fn index_rules(index: &IndexAlgorithm) -> Vec<(&'static str, bool)> {
    let alpha_rule = |alpha: f32| ("alpha must be >= 1.0", alpha >= 1.0);
    match *index {
        IndexAlgorithm::Flat => Vec::new(),
        IndexAlgorithm::Hnsw(p) => vec![
            ("m must be >= 2", p.m >= 2),
            ("ef_construction must be >= 1", p.ef_construction >= 1),
        ],
        IndexAlgorithm::Nsg { r, l, knn_k, .. } => vec![
            ("r must be >= 1", r >= 1),
            ("l must be >= 1", l >= 1),
            ("knn_k must be >= 1", knn_k >= 1),
        ],
        IndexAlgorithm::Vamana { r, l, alpha, .. } => vec![
            ("r must be >= 1", r >= 1),
            ("l must be >= 1", l >= 1),
            alpha_rule(alpha),
        ],
        IndexAlgorithm::MqaGraph {
            r, l, alpha, knn_k, ..
        } => vec![
            ("r must be >= 1", r >= 1),
            ("l must be >= 1", l >= 1),
            alpha_rule(alpha),
            ("knn_k must be >= 1", knn_k >= 1),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(Config::default().validate().is_ok());
    }

    #[test]
    fn zero_k_rejected() {
        let cfg = Config {
            k: 0,
            ..Config::default()
        };
        assert!(matches!(cfg.validate(), Err(MqaError::InvalidConfig(_))));
    }

    #[test]
    fn ef_below_k_rejected() {
        let cfg = Config {
            k: 10,
            ef: 5,
            ..Config::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn negative_temperature_rejected() {
        let cfg = Config {
            temperature: -0.5,
            ..Config::default()
        };
        assert!(cfg.validate().is_err());
    }

    /// Every index parameter a builder panics or aborts on is a typed
    /// configuration error naming the knob.
    #[test]
    fn index_parameters_that_panic_the_builders_are_rejected() {
        use mqa_graph::hnsw::HnswParams;
        let hnsw = |m, ef_construction| {
            IndexAlgorithm::Hnsw(HnswParams {
                m,
                ef_construction,
                ..HnswParams::default()
            })
        };
        let nsg = |r, l, knn_k| IndexAlgorithm::Nsg {
            r,
            l,
            knn_k,
            seed: 0,
        };
        let vamana = |r, l, alpha| IndexAlgorithm::Vamana {
            r,
            l,
            alpha,
            seed: 0,
        };
        let mqa = |r, l, alpha, knn_k| IndexAlgorithm::MqaGraph {
            r,
            l,
            alpha,
            knn_k,
            seed: 0,
        };
        let rows = [
            (hnsw(0, 100), "m must be"),
            (hnsw(1, 100), "m must be"),
            (hnsw(16, 0), "ef_construction"),
            (nsg(0, 64, 20), "r must be"),
            (nsg(24, 0, 20), "l must be"),
            (nsg(24, 64, 0), "knn_k"),
            (vamana(0, 64, 1.2), "r must be"),
            (vamana(24, 0, 1.2), "l must be"),
            (vamana(24, 64, 0.5), "alpha"),
            (mqa(0, 64, 1.2, 20), "r must be"),
            (mqa(24, 0, 1.2, 20), "l must be"),
            (mqa(24, 64, 0.5, 20), "alpha"),
            (mqa(24, 64, f32::NAN, 20), "alpha"),
            (mqa(24, 64, 1.2, 0), "knn_k"),
        ];
        for (index, knob) in rows {
            let cfg = Config {
                index: index.clone(),
                ..Config::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(&err, MqaError::InvalidConfig(m) if m.contains(knob)),
                "{index:?}: {err:?}"
            );
        }
        for index in [
            hnsw(2, 1),
            nsg(1, 1, 1),
            vamana(1, 1, 1.0),
            mqa(1, 1, 1.0, 1),
        ] {
            let cfg = Config {
                index,
                ..Config::default()
            };
            assert!(cfg.validate().is_ok(), "{:?}", cfg.index);
        }
    }

    #[test]
    fn json_round_trip() {
        let cfg = Config {
            k: 7,
            framework: FrameworkKind::Mr,
            ..Config::default()
        };
        let back = Config::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn bad_json_rejected() {
        assert!(Config::from_json("{").is_err());
    }

    /// A panel export that selects the removed IVF family is a typed
    /// configuration error, not a panic.
    #[test]
    fn removed_ivf_index_rejected() {
        let json = serde_json::to_string(&Config::default()).unwrap();
        let ivf = json.replacen("\"index\":{\"MqaGraph\":", "\"index\":{\"Ivf\":", 1);
        assert_ne!(ivf, json);
        let err = Config::from_json(&ivf).unwrap_err();
        assert!(
            matches!(&err, MqaError::InvalidConfig(m) if m.contains("Ivf")),
            "{err:?}"
        );
    }

    /// A panel export that selects a removed distance (L2 is the only
    /// one) is a typed configuration error, not a panic.
    #[test]
    fn removed_metric_rejected() {
        let json = serde_json::to_string(&Config::default()).unwrap();
        let cosine = json.replacen("\"metric\":\"L2\"", "\"metric\":\"Cosine\"", 1);
        assert_ne!(cosine, json);
        let err = Config::from_json(&cosine).unwrap_err();
        assert!(
            matches!(&err, MqaError::InvalidConfig(m) if m.contains("Cosine")),
            "{err:?}"
        );
    }
}
