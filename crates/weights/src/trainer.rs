//! The projected-SGD training loop producing [`LearnedWeights`].

use crate::contrastive::triplet_loss;
use crate::triplet::{sample_triplets, Triplet};
use mqa_vector::{MultiVectorStore, Weights};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the weight learner. The defaults train in
/// milliseconds on corpora of tens of thousands of objects and are what the
/// configuration panel's "vector weight learning" toggle uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Hinge margin between positive and negative fused distances.
    pub margin: f32,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Number of passes over the sampled triplets.
    pub epochs: usize,
    /// Number of triplets to sample.
    pub n_triplets: usize,
    /// Sampling / shuffling seed.
    pub seed: u64,
    /// Pull toward uniform weights (`λ` of an L2 penalty `λ‖w − 1‖²/2`).
    ///
    /// Without it, one strongly informative modality drives the others'
    /// weights to the floor — optimal for complete-query triplet ranking
    /// but catastrophic for the unified graph's *routing* of partial
    /// queries (a text-only round-1 request must still navigate a graph
    /// whose edges were selected under the learned fused metric). The
    /// default keeps every modality's weight bounded away from zero while
    /// preserving the learned ordering.
    pub uniform_reg: f32,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            margin: 0.5,
            learning_rate: 0.05,
            epochs: 20,
            n_triplets: 2_000,
            seed: 0,
            uniform_reg: 0.6,
        }
    }
}

/// The trained result: normalized weights plus training diagnostics
/// (surfaced by the status-monitoring panel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnedWeights {
    /// Normalized per-modality weights (`Σ w_m = arity`).
    pub weights: Weights,
    /// Mean hinge loss per epoch.
    pub loss_history: Vec<f32>,
    /// Triplet accuracy (fraction with `d(a,p) < d(a,n)`) under the final
    /// weights, over the training triplets.
    pub triplet_accuracy: f64,
}

/// The contrastive weight learner.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightLearner {
    config: TrainerConfig,
}

impl WeightLearner {
    /// Creates a learner with the given hyper-parameters.
    pub fn new(config: TrainerConfig) -> Self {
        Self { config }
    }

    /// The hyper-parameters in use.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Learns modality weights from a labelled store.
    ///
    /// `labels[i]` is the relevance class of object `i` (for generated
    /// corpora, the latent concept id).
    ///
    /// # Panics
    /// Panics if `labels.len() != store.len()`, or if the labels cannot
    /// supply triplets (see [`sample_triplets`]).
    pub fn learn(&self, store: &MultiVectorStore, labels: &[u32]) -> LearnedWeights {
        assert_eq!(
            labels.len(),
            store.len(),
            "one label per stored object required"
        );
        let arity = store.schema().arity();
        let cfg = &self.config;
        let triplets = sample_triplets(labels, cfg.n_triplets, cfg.seed);

        let mut w = vec![1.0f32; arity];
        let mut history = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            // Decay the step size as training progresses.
            let lr = cfg.learning_rate / (1.0 + epoch as f32 * 0.3);
            let mut epoch_loss = 0.0f64;
            for t in &triplets {
                let (loss, grad) = triplet_loss(store, t, &w, cfg.margin);
                epoch_loss += loss as f64;
                if loss > 0.0 {
                    for (wm, g) in w.iter_mut().zip(&grad) {
                        *wm -= lr * (g + cfg.uniform_reg * (*wm - 1.0));
                    }
                    project(&mut w);
                }
            }
            history.push((epoch_loss / triplets.len() as f64) as f32);
        }

        let weights = Weights::normalized(&w);
        let accuracy = triplet_accuracy(store, &triplets, weights.as_slice());
        LearnedWeights {
            weights,
            loss_history: history,
            triplet_accuracy: accuracy,
        }
    }
}

/// Projects raw weights back onto the constraint set: `w_m ≥ 0` (with a
/// small floor so no modality is irrevocably eliminated mid-training) and
/// `Σ w_m = arity`.
fn project(w: &mut [f32]) {
    const FLOOR: f32 = 1e-3;
    for x in w.iter_mut() {
        *x = x.max(FLOOR);
    }
    let sum: f32 = w.iter().sum();
    let scale = w.len() as f32 / sum;
    for x in w.iter_mut() {
        *x *= scale;
    }
}

/// Fraction of triplets ranked correctly (`d_w(a,p) < d_w(a,n)`) under `w`.
pub(crate) fn triplet_accuracy(store: &MultiVectorStore, triplets: &[Triplet], w: &[f32]) -> f64 {
    if triplets.is_empty() {
        return 0.0;
    }
    let fused = |a, b| -> f32 {
        crate::contrastive::modality_distances(store, a, b)
            .iter()
            .zip(w)
            .map(|(d, wm)| d * wm)
            .sum()
    };
    let correct = triplets
        .iter()
        .filter(|t| fused(t.anchor, t.positive) < fused(t.anchor, t.negative))
        .count();
    correct as f64 / triplets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_rng::StdRng;
    use mqa_vector::{MultiVector, Schema};

    /// Builds a corpus where the *text* modality carries all concept signal
    /// and the *image* modality is pure noise.
    fn asymmetric_store(
        n: usize,
        classes: u32,
        informative_noise: f32,
        seed: u64,
    ) -> (MultiVectorStore, Vec<u32>) {
        let schema = Schema::text_image(8, 8);
        let mut store = MultiVectorStore::new(schema.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let gauss = |rng: &mut StdRng| -> f32 {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
        };
        let centers: Vec<Vec<f32>> = (0..classes)
            .map(|_| (0..8).map(|_| gauss(&mut rng)).collect())
            .collect();
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = (i as u32) % classes;
            let text: Vec<f32> = centers[c as usize]
                .iter()
                .map(|x| x + informative_noise * gauss(&mut rng))
                .collect();
            let image: Vec<f32> = (0..8).map(|_| gauss(&mut rng)).collect();
            store.push(&MultiVector::complete(&schema, vec![text, image]));
            labels.push(c);
        }
        (store, labels)
    }

    #[test]
    fn learner_upweights_informative_modality() {
        let (store, labels) = asymmetric_store(200, 5, 0.2, 1);
        let learner = WeightLearner::new(TrainerConfig {
            n_triplets: 1_000,
            epochs: 15,
            ..TrainerConfig::default()
        });
        let out = learner.learn(&store, &labels);
        let w = out.weights.as_slice();
        assert!(
            w[0] > 1.4 && w[1] < 0.6,
            "expected text >> image, got {w:?} (accuracy {})",
            out.triplet_accuracy
        );
        assert!(
            out.triplet_accuracy > 0.85,
            "accuracy {}",
            out.triplet_accuracy
        );
    }

    #[test]
    fn learned_beats_uniform_on_triplet_accuracy() {
        let (store, labels) = asymmetric_store(200, 5, 0.4, 2);
        let learner = WeightLearner::new(TrainerConfig {
            n_triplets: 1_000,
            ..TrainerConfig::default()
        });
        let out = learner.learn(&store, &labels);
        let triplets = sample_triplets(&labels, 1_000, 999);
        let uniform_acc = triplet_accuracy(&store, &triplets, &[1.0, 1.0]);
        let learned_acc = triplet_accuracy(&store, &triplets, out.weights.as_slice());
        assert!(
            learned_acc > uniform_acc,
            "learned {learned_acc} <= uniform {uniform_acc}"
        );
    }

    #[test]
    fn weights_remain_normalized_and_nonnegative() {
        let (store, labels) = asymmetric_store(100, 4, 0.3, 3);
        let out = WeightLearner::default().learn(&store, &labels);
        let w = out.weights.as_slice();
        assert!(w.iter().all(|&x| x >= 0.0));
        assert!((w.iter().sum::<f32>() - 2.0).abs() < 1e-4);
    }

    #[test]
    fn loss_history_trends_downward() {
        let (store, labels) = asymmetric_store(200, 5, 0.2, 4);
        let out = WeightLearner::new(TrainerConfig {
            epochs: 10,
            n_triplets: 500,
            ..TrainerConfig::default()
        })
        .learn(&store, &labels);
        assert_eq!(out.loss_history.len(), 10);
        let first = out.loss_history[0];
        let last = *out.loss_history.last().unwrap();
        assert!(last <= first, "loss went up: {first} -> {last}");
    }

    #[test]
    fn symmetric_modalities_stay_near_uniform() {
        // Both modalities equally informative: copy the same signal block.
        let schema = Schema::text_image(4, 4);
        let mut store = MultiVectorStore::new(schema.clone());
        let mut labels = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..120 {
            let c = i % 4;
            let base: Vec<f32> = (0..4)
                .map(|j| (c * 4 + j) as f32 * 0.5 + rng.gen_range(-0.1f32..0.1))
                .collect();
            store.push(&MultiVector::complete(&schema, vec![base.clone(), base]));
            labels.push(c as u32);
        }
        let out = WeightLearner::default().learn(&store, &labels);
        let w = out.weights.as_slice();
        assert!(
            (w[0] - 1.0).abs() < 0.35 && (w[1] - 1.0).abs() < 0.35,
            "{w:?}"
        );
    }

    #[test]
    fn project_enforces_constraints() {
        let mut w = vec![-1.0f32, 3.0, 0.5];
        project(&mut w);
        assert!(w.iter().all(|&x| x > 0.0));
        assert!((w.iter().sum::<f32>() - 3.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "one label per stored object")]
    fn label_count_mismatch_panics() {
        let (store, _) = asymmetric_store(10, 2, 0.2, 6);
        WeightLearner::default().learn(&store, &[0, 1]);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = TrainerConfig::default();
        let j = serde_json::to_string(&cfg).unwrap();
        let back: TrainerConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(cfg, back);
    }
}
