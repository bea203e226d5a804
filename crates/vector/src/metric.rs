//! The distance of the MQA pipeline: squared Euclidean (L2).
//!
//! Distances are lower-is-closer, so graph search, top-k collection and
//! fused multi-modal scoring share one ordering convention. L2 is the one
//! metric the MUST design rests on: scaling modality block `m` by
//! `sqrt(w_m)` turns the fused weighted distance into one plain L2 per row
//! (see [`crate::Weights::scale_concat`]), and its prefix partial sums are
//! monotone, which is what makes early-abandon incremental scanning sound
//! (see [`crate::scan`]). Every layer computes it with [`crate::ops::l2_sq`].

use crate::ops;
use serde::{Deserialize, Serialize};

/// The distance metric, kept as a configuration value.
///
/// L2 is the only distance; this type remains only because the benchmark
/// crate still names it (`Config::metric` and the `Metric` argument of a
/// few entry points). The next benchmark change deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Metric {
    /// Squared Euclidean distance `Σ (a_i - b_i)^2`.
    #[default]
    L2,
}

impl Metric {
    /// Distance between `a` and `b`: [`ops::l2_sq`].
    ///
    /// # Panics
    /// Panics in debug builds if `a.len() != b.len()`.
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        ops::l2_sq(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_basics() {
        let a = [0.0f32, 0.0];
        let b = [3.0f32, 4.0];
        assert_eq!(Metric::L2.distance(&a, &b), 25.0);
        assert_eq!(Metric::L2.distance(&a, &a), 0.0);
    }

    #[test]
    fn symmetry_l2() {
        let a = [0.3f32, -1.2, 0.7];
        let b = [1.1f32, 0.4, -0.5];
        assert!((Metric::L2.distance(&a, &b) - Metric::L2.distance(&b, &a)).abs() < 1e-6);
    }

    #[test]
    fn serde_round_trip() {
        let s = serde_json::to_string(&Metric::L2).unwrap();
        let back: Metric = serde_json::from_str(&s).unwrap();
        assert_eq!(Metric::L2, back);
    }
}
