//! Result diversification: Maximal Marginal Relevance (MMR) re-ranking.
//!
//! A QA panel that shows `k` images should not show `k` near-duplicates:
//! the user refines by *clicking*, and clicks need visually distinct
//! options to be informative. MMR re-orders an over-fetched candidate list
//! by repeatedly picking the candidate that maximizes
//!
//! ```text
//! λ · relevance(c)  −  (1 − λ) · max_similarity(c, already picked)
//! ```
//!
//! with relevance and similarity both derived from the fused weighted
//! distance. `λ = 1` reduces to plain ranking; lower values trade a little
//! relevance for spread.

use crate::error::RetrievalError;
use mqa_vector::{ops, Candidate, Metric, MultiVectorStore, Weights};

/// Pool-scale sample size: up to this many candidates, evenly spaced
/// across the whole pool, feed the all-pairs scale estimate (16² / 2 =
/// 120 pair distances at most — O(1) regardless of pool size).
const SCALE_SAMPLE: usize = 16;

/// Re-ranks `candidates` (ascending distance, as produced by any
/// framework) into a diversified top-`k` under the MMR criterion.
///
/// The `Metric` argument is ignored (L2 is the only distance); it remains
/// only because the benchmark crate still passes it.
///
/// # Errors
/// [`RetrievalError::BadDiversification`] if `lambda` is outside
/// `[0, 1]` (NaN included) or `k == 0`.
pub fn mmr_diversify(
    store: &MultiVectorStore,
    weights: &Weights,
    _metric: Metric,
    candidates: &[Candidate],
    k: usize,
    lambda: f32,
) -> Result<Vec<Candidate>, RetrievalError> {
    if !(0.0..=1.0).contains(&lambda) || k == 0 {
        return Err(RetrievalError::BadDiversification { lambda, k });
    }
    if candidates.is_empty() {
        // ALLOC: capacity-0 Vec for the empty result; never touches the heap.
        return Ok(Vec::new());
    }
    let _span = mqa_obs::span("retrieval.diversify");
    // Normalize relevance to [0, 1] over the candidate pool (distances are
    // unbounded); similarity reuses the same scale.
    let d_min = candidates
        .iter()
        .map(|c| c.dist)
        .fold(f32::INFINITY, f32::min);
    let d_max = candidates
        .iter()
        .map(|c| c.dist)
        .fold(f32::NEG_INFINITY, f32::max);
    let span = (d_max - d_min).max(1e-6);
    // INVARIANT: f32 division with span clamped >= 1e-6; float division
    // cannot panic.
    let relevance = |c: &Candidate| 1.0 - (c.dist - d_min) / span;

    // Fused distance between two stored objects over the modalities both
    // carry, read from the store's views — the sum `MultiVector::
    // fused_distance` forms, in its order, without reassembling either
    // object.
    let arity = store.schema().arity();
    let pair_dist = |a: u32, b: u32| {
        let mut total = 0.0f32;
        for m in 0..arity {
            if let (Some(x), Some(y)) = (store.part_of(a, m), store.part_of(b, m)) {
                total += weights.get(m) * ops::l2_sq(x, y);
            }
        }
        total
    };

    // Each remaining candidate beside its similarity to the closest pick
    // so far: a pick updates every running maximum once, so a candidate ×
    // pick distance is computed once instead of once per later round.
    // ALLOC: MMR's per-call working copy and result list, bounded by the candidate count.
    let mut remaining: Vec<(Candidate, f32)> = candidates.iter().map(|&c| (c, 0.0f32)).collect();
    let mut picked: Vec<Candidate> = Vec::with_capacity(k);
    // Estimate the pool's internal distance scale for similarity
    // normalization from a deterministic stratified sample: up to
    // SCALE_SAMPLE candidates evenly spaced across the *whole* pool, so
    // a far-apart pair contributes no matter where it ranks. (The old
    // first-8-only estimate collapsed for pools of near-duplicate heads:
    // every cross-group similarity clamped to zero and MMR degenerated
    // to plain ranking.)
    let stride = candidates.len().div_ceil(SCALE_SAMPLE).max(1);
    let sample: Vec<u32> = candidates
        .iter()
        .step_by(stride)
        .map(|c| c.id)
        // INVARIANT: candidates is non-empty (early return above), so the
        // last element exists.
        .chain(std::iter::once(candidates[candidates.len() - 1].id))
        // ALLOC: per-call reassembled candidate vectors for the similarity term.
        .collect();
    let mut pool_scale = 0.0f32;
    for (i, &a) in sample.iter().enumerate() {
        for &b in sample.iter().skip(i + 1) {
            pool_scale = pool_scale.max(pair_dist(a, b));
        }
    }
    let pool_scale = pool_scale.max(1e-6);

    while picked.len() < k && !remaining.is_empty() {
        let mut best_idx = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        for (i, (c, max_sim)) in remaining.iter().enumerate() {
            let score = lambda * relevance(c) - (1.0 - lambda) * max_sim;
            if score > best_score {
                best_score = score;
                best_idx = i;
            }
        }
        let (pick, _) = remaining.swap_remove(best_idx);
        picked.push(pick);
        if picked.len() < k {
            for (c, max_sim) in &mut remaining {
                // INVARIANT: f32 division by pool_scale >= 1e-6.
                let sim = 1.0 - (pair_dist(c.id, pick.id) / pool_scale).min(1.0);
                *max_sim = max_sim.max(sim);
            }
        }
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_vector::{MultiVector, Schema};

    /// A pool with two tight duplicate groups and one singleton.
    fn setup() -> (MultiVectorStore, Vec<Candidate>) {
        let schema = Schema::text_image(2, 2);
        let mut store = MultiVectorStore::new(schema.clone());
        let mut push = |t: [f32; 2], i: [f32; 2]| {
            store.push(&MultiVector::complete(
                &schema,
                vec![t.to_vec(), i.to_vec()],
            ))
        };
        // group A (ids 0-2): near-identical, most relevant
        push([0.0, 0.0], [0.0, 0.0]);
        push([0.01, 0.0], [0.0, 0.01]);
        push([0.0, 0.02], [0.02, 0.0]);
        // group B (ids 3-4): a different region, slightly less relevant
        push([2.0, 2.0], [2.0, 2.0]);
        push([2.02, 2.0], [2.0, 2.01]);
        // singleton (id 5): least relevant
        push([4.0, 4.0], [4.0, 4.0]);
        let candidates = vec![
            Candidate::new(0, 0.10),
            Candidate::new(1, 0.11),
            Candidate::new(2, 0.12),
            Candidate::new(3, 0.50),
            Candidate::new(4, 0.51),
            Candidate::new(5, 0.90),
        ];
        (store, candidates)
    }

    /// The pre-rewrite body, kept as the oracle: every round recomputes
    /// each remaining candidate's similarity to every pick from
    /// reassembled multivectors.
    fn mmr_reference(
        store: &MultiVectorStore,
        weights: &Weights,
        candidates: &[Candidate],
        k: usize,
        lambda: f32,
    ) -> Vec<Candidate> {
        let d_min = candidates
            .iter()
            .map(|c| c.dist)
            .fold(f32::INFINITY, f32::min);
        let d_max = candidates
            .iter()
            .map(|c| c.dist)
            .fold(f32::NEG_INFINITY, f32::max);
        let span = (d_max - d_min).max(1e-6);
        let relevance = |c: &Candidate| 1.0 - (c.dist - d_min) / span;
        let pair_dist = |a: u32, b: u32| {
            store
                .multivector_of(a)
                .fused_distance(&store.multivector_of(b), weights)
        };
        let mut remaining: Vec<Candidate> = candidates.to_vec();
        let mut picked: Vec<Candidate> = Vec::with_capacity(k);
        let stride = candidates.len().div_ceil(SCALE_SAMPLE).max(1);
        let sample: Vec<u32> = candidates
            .iter()
            .step_by(stride)
            .map(|c| c.id)
            .chain(std::iter::once(candidates[candidates.len() - 1].id))
            .collect();
        let mut pool_scale = 0.0f32;
        for (i, &a) in sample.iter().enumerate() {
            for &b in sample.iter().skip(i + 1) {
                pool_scale = pool_scale.max(pair_dist(a, b));
            }
        }
        let pool_scale = pool_scale.max(1e-6);
        while picked.len() < k && !remaining.is_empty() {
            let mut best_idx = 0usize;
            let mut best_score = f32::NEG_INFINITY;
            for (i, c) in remaining.iter().enumerate() {
                let max_sim = picked
                    .iter()
                    .map(|p| 1.0 - (pair_dist(c.id, p.id) / pool_scale).min(1.0))
                    .fold(0.0f32, f32::max);
                let score = lambda * relevance(c) - (1.0 - lambda) * max_sim;
                if score > best_score {
                    best_score = score;
                    best_idx = i;
                }
            }
            picked.push(remaining.swap_remove(best_idx));
        }
        picked
    }

    /// Seeded pools with exact duplicates and objects missing a modality:
    /// the running-maximum body must pick what the reference picks, in its
    /// order, with every distance bit intact.
    #[test]
    fn matches_the_reference_on_seeded_pools() {
        use mqa_rng::StdRng;
        let schema = Schema::text_image(4, 3);
        let mut rng = StdRng::seed_from_u64(0x4D4D_5221);
        for round in 0..12 {
            let n = 20 + round * 7;
            let mut store = MultiVectorStore::new(schema.clone());
            let mut protos: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
            for i in 0..n {
                let (text, image) = if i % 4 == 3 {
                    // An exact duplicate of an earlier object.
                    protos[rng.gen_range(0..protos.len())].clone()
                } else {
                    (
                        (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                        (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                    )
                };
                protos.push((text.clone(), image.clone()));
                let parts = match i % 5 {
                    1 => vec![Some(text), None],
                    2 => vec![None, Some(image)],
                    _ => vec![Some(text), Some(image)],
                };
                store.push(&MultiVector::partial(&schema, parts));
            }
            let weights = Weights::normalized(&[1.0 + round as f32 * 0.1, 0.6]);
            let mut pool: Vec<Candidate> = Vec::new();
            for id in 0..n as u32 {
                if rng.gen_bool(0.7) {
                    pool.push(Candidate::new(id, rng.gen_range(0.0f32..2.0)));
                }
            }
            pool.sort();
            for lambda in [0.0f32, 0.4, 0.7, 1.0] {
                for k in [1, 5, pool.len() + 3] {
                    let want = mmr_reference(&store, &weights, &pool, k, lambda);
                    let got = mmr_diversify(&store, &weights, Metric::L2, &pool, k, lambda)
                        .expect("valid parameters");
                    let bits = |v: &[Candidate]| -> Vec<(u32, u32)> {
                        v.iter().map(|c| (c.id, c.dist.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "round {round} lambda {lambda} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn lambda_one_keeps_plain_ranking() {
        let (store, cands) = setup();
        let out = mmr_diversify(&store, &Weights::uniform(2), Metric::L2, &cands, 3, 1.0)
            .expect("valid parameters");
        let ids: Vec<u32> = out.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn moderate_lambda_spreads_over_groups() {
        let (store, cands) = setup();
        let out = mmr_diversify(&store, &Weights::uniform(2), Metric::L2, &cands, 3, 0.5)
            .expect("valid parameters");
        let ids: Vec<u32> = out.iter().map(|c| c.id).collect();
        // first pick is the most relevant; later picks leave group A
        assert_eq!(ids[0], 0);
        assert!(
            ids.iter().any(|&id| id >= 3),
            "no out-of-group pick in {ids:?}"
        );
        // and do not contain all three near-duplicates
        let dups = ids.iter().filter(|&&id| id <= 2).count();
        assert!(dups < 3, "still all duplicates: {ids:?}");
    }

    #[test]
    fn k_larger_than_pool_returns_all() {
        let (store, cands) = setup();
        let out = mmr_diversify(&store, &Weights::uniform(2), Metric::L2, &cands, 50, 0.7)
            .expect("valid parameters");
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn empty_pool_is_empty() {
        let (store, _) = setup();
        assert!(
            mmr_diversify(&store, &Weights::uniform(2), Metric::L2, &[], 3, 0.5)
                .expect("valid parameters")
                .is_empty()
        );
    }

    /// Regression: out-of-domain parameters used to panic deep inside the
    /// answer pipeline; they must surface as a typed error instead.
    #[test]
    fn bad_parameters_return_typed_error() {
        let (store, cands) = setup();
        for lambda in [-0.1, 1.5, f32::NAN] {
            let err = mmr_diversify(&store, &Weights::uniform(2), Metric::L2, &cands, 3, lambda)
                .expect_err("lambda outside [0, 1] must be rejected");
            assert!(
                matches!(err, RetrievalError::BadDiversification { k: 3, .. }),
                "unexpected error {err:?} for lambda {lambda}"
            );
        }
        let err = mmr_diversify(&store, &Weights::uniform(2), Metric::L2, &cands, 0, 0.5)
            .expect_err("k == 0 must be rejected");
        assert_eq!(
            err,
            RetrievalError::BadDiversification { lambda: 0.5, k: 0 }
        );
    }

    /// Regression for the pool-scale estimate: with more than 8 candidates
    /// the old code sampled only the first 8×8 pairs. A pool whose head is
    /// 13 near-duplicates then produced a tiny `pool_scale`, every
    /// cross-group similarity clamped to 0, and MMR returned the
    /// duplicates unchanged. The scale must reflect the *whole* pool.
    #[test]
    fn pool_scale_covers_candidates_beyond_the_first_eight() {
        let schema = Schema::text_image(2, 2);
        let mut store = MultiVectorStore::new(schema.clone());
        let mut push = |t: [f32; 2], i: [f32; 2]| {
            store.push(&MultiVector::complete(
                &schema,
                vec![t.to_vec(), i.to_vec()],
            ))
        };
        // ids 0-12: thirteen near-duplicates, ranked most relevant.
        for j in 0..13 {
            let eps = j as f32 * 0.001;
            push([eps, 0.0], [0.0, eps]);
        }
        // ids 13-14: a far-away group, ranked after the duplicates.
        push([10.0, 10.0], [10.0, 10.0]);
        push([10.0, 10.1], [10.1, 10.0]);
        let mut candidates: Vec<Candidate> = (0..13)
            .map(|id| Candidate::new(id, 0.10 + id as f32 * 0.001))
            .collect();
        candidates.push(Candidate::new(13, 0.60));
        candidates.push(Candidate::new(14, 0.61));

        let out = mmr_diversify(
            &store,
            &Weights::uniform(2),
            Metric::L2,
            &candidates,
            5,
            0.5,
        )
        .expect("valid parameters");
        let ids: Vec<u32> = out.iter().map(|c| c.id).collect();
        assert!(
            ids.iter().any(|&id| id >= 13),
            "diversification never escaped the duplicate head: {ids:?}"
        );
    }
}
