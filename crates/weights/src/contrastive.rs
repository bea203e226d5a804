//! Contrastive loss and gradient for one triplet.

use crate::triplet::Triplet;
use mqa_vector::{ops, MultiVectorStore};

/// Per-modality distances between two stored objects, in schema order.
/// Modalities missing on either side contribute `0.0` (they carry no
/// training signal for the weight of that modality).
pub fn modality_distances(
    store: &MultiVectorStore,
    a: mqa_vector::VecId,
    b: mqa_vector::VecId,
) -> Vec<f32> {
    let arity = store.schema().arity();
    (0..arity)
        .map(|m| match (store.part_of(a, m), store.part_of(b, m)) {
            (Some(x), Some(y)) => ops::l2_sq(x, y),
            _ => 0.0,
        })
        .collect()
}

/// Hinge loss of one triplet under weights `w`, plus the (sub)gradient with
/// respect to `w`.
///
/// Loss: `max(0, margin + Σ w_m·dp_m − Σ w_m·dn_m)` with `dp`/`dn` the
/// per-modality anchor–positive / anchor–negative distances. When the hinge
/// is inactive the gradient is zero.
pub fn triplet_loss(
    store: &MultiVectorStore,
    t: &Triplet,
    w: &[f32],
    margin: f32,
) -> (f32, Vec<f32>) {
    let dp = modality_distances(store, t.anchor, t.positive);
    let dn = modality_distances(store, t.anchor, t.negative);
    debug_assert_eq!(w.len(), dp.len(), "weight arity mismatch");
    let score: f32 = w
        .iter()
        .zip(dp.iter().zip(&dn))
        .map(|(wm, (p, n))| wm * (p - n))
        .sum();
    let loss = (margin + score).max(0.0);
    let grad = if loss > 0.0 {
        dp.iter().zip(&dn).map(|(p, n)| p - n).collect()
    } else {
        vec![0.0; w.len()]
    };
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_vector::{MultiVector, Schema};

    fn store() -> MultiVectorStore {
        let schema = Schema::text_image(2, 2);
        let mut s = MultiVectorStore::new(schema.clone());
        // 0: anchor, 1: near in text / far in image, 2: far in both
        s.push(&MultiVector::complete(
            &schema,
            vec![vec![0.0, 0.0], vec![0.0, 0.0]],
        ));
        s.push(&MultiVector::complete(
            &schema,
            vec![vec![0.1, 0.0], vec![2.0, 0.0]],
        ));
        s.push(&MultiVector::complete(
            &schema,
            vec![vec![3.0, 0.0], vec![3.0, 0.0]],
        ));
        s
    }

    #[test]
    fn modality_distances_per_block() {
        let s = store();
        let d = modality_distances(&s, 0, 1);
        assert!((d[0] - 0.01).abs() < 1e-5);
        assert!((d[1] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn missing_modality_contributes_zero() {
        let schema = Schema::text_image(2, 2);
        let mut s = MultiVectorStore::new(schema.clone());
        s.push(&MultiVector::partial(
            &schema,
            vec![Some(vec![0.0, 0.0]), None],
        ));
        s.push(&MultiVector::complete(
            &schema,
            vec![vec![1.0, 0.0], vec![9.0, 9.0]],
        ));
        let d = modality_distances(&s, 0, 1);
        assert!((d[0] - 1.0).abs() < 1e-6);
        assert_eq!(d[1], 0.0);
    }

    #[test]
    fn satisfied_triplet_has_zero_loss_and_gradient() {
        let s = store();
        let t = Triplet {
            anchor: 0,
            positive: 1,
            negative: 2,
        };
        // text-only weights: dp=0.01, dn=9.0 -> margin easily satisfied
        let (loss, grad) = triplet_loss(&s, &t, &[2.0, 0.0], 1.0);
        assert_eq!(loss, 0.0);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn violated_triplet_gradient_points_at_bad_modality() {
        let s = store();
        // swap roles: positive is the far object; hinge active
        let t = Triplet {
            anchor: 0,
            positive: 2,
            negative: 1,
        };
        let (loss, grad) = triplet_loss(&s, &t, &[1.0, 1.0], 1.0);
        assert!(loss > 0.0);
        // text: dp=9, dn=0.01 -> grad strongly positive (decrease weight)
        assert!(grad[0] > 0.0);
        // image: dp=9, dn=4 -> also positive but smaller
        assert!(grad[1] > 0.0);
        assert!(grad[0] > grad[1]);
    }

    #[test]
    fn loss_matches_manual_computation() {
        let s = store();
        let t = Triplet {
            anchor: 0,
            positive: 1,
            negative: 2,
        };
        let w = [1.0f32, 1.0];
        let (loss, _) = triplet_loss(&s, &t, &w, 1.0);
        // dp = [0.01, 4], dn = [9, 9]; score = 0.01+4-9-9 = -13.99
        // loss = max(0, 1 - 13.99) = 0
        assert_eq!(loss, 0.0);
        let (loss2, _) = triplet_loss(&s, &t, &w, 20.0);
        assert!((loss2 - (20.0 - 13.99)).abs() < 1e-3);
    }
}
