//! Incremental scanning: fused weighted distance with early abandonment.
//!
//! The paper's Query Execution component notes that during graph traversal
//! "distances are calculated via incremental scanning, enhancing efficiency
//! by circumventing unnecessary calculations". Concretely: while walking the
//! navigation graph we always hold a *pruning bound* — the worst distance
//! still admitted to the beam (see [`crate::topk::TopK::bound`]). A fused
//! weighted L2 distance is a sum of non-negative terms, so its prefix
//! partial sums are monotone; the moment a partial sum crosses the bound the
//! candidate provably cannot enter the beam and the remaining terms need not
//! be computed.
//!
//! [`FusedScanner`] implements this for a fixed query. It operates directly
//! on the *concatenated* object representation (how the unified navigation
//! graph stores multi-vectors; see [`crate::multivec::MultiVector::concat`])
//! and skips modality blocks the query is missing. All work is counted in
//! [`ScanStats`], which experiment E8 reads to report the fraction of
//! scalar operations saved by pruning.

use crate::multivec::{MultiVector, Schema, Weights};
use crate::{ops, Metric};

/// Granularity (in scalar terms) at which the running partial sum is
/// compared against the pruning bound. Small enough to abandon early, large
/// enough that the comparison doesn't dominate the arithmetic.
const CHUNK: usize = 32;

/// Counters describing the work a [`FusedScanner`] has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Distance evaluations that ran to completion.
    pub full_evals: u64,
    /// Distance evaluations abandoned before completion.
    pub abandoned: u64,
    /// Scalar terms actually computed.
    pub terms: u64,
    /// Scalar terms skipped thanks to early abandonment.
    pub terms_skipped: u64,
}

impl ScanStats {
    /// Fraction of scalar terms avoided, in `[0, 1]`.
    pub fn savings(&self) -> f64 {
        let total = self.terms + self.terms_skipped;
        if total == 0 {
            0.0
        } else {
            self.terms_skipped as f64 / total as f64
        }
    }

    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &ScanStats) {
        self.full_evals += other.full_evals;
        self.abandoned += other.abandoned;
        self.terms += other.terms;
        self.terms_skipped += other.terms_skipped;
    }
}

/// A query block: one present query modality, pre-located inside the
/// concatenated layout.
struct Block {
    offset: usize,
    weight: f32,
    query: Vec<f32>,
}

/// Fused weighted L2 evaluator for one query, with early abandonment.
///
/// Construct once per query, then call [`FusedScanner::distance`] for every
/// candidate the graph search touches. Missing query modalities contribute
/// nothing (their blocks are skipped entirely), which is how text-only
/// queries search a text+image knowledge base.
///
/// ```
/// use mqa_vector::{FusedScanner, Metric, MultiVector, Schema, Weights};
///
/// let schema = Schema::text_image(4, 4);
/// let query = MultiVector::complete(&schema, vec![vec![0.0; 4], vec![0.0; 4]]);
/// let weights = Weights::normalized(&[1.5, 0.5]);
/// let mut scanner = FusedScanner::new(&schema, &query, &weights, Metric::L2);
///
/// let object = vec![1.0f32; 8]; // concatenated text+image blocks
/// let d = scanner.exact(&object);
/// assert!((d - (1.5 * 4.0 + 0.5 * 4.0)).abs() < 1e-5);
///
/// // With a tight bound the evaluation abandons early — the candidate is
/// // provably outside the beam.
/// assert!(scanner.distance(&object, 1.0).is_none());
/// assert!(scanner.stats().terms_skipped > 0);
/// ```
pub struct FusedScanner {
    blocks: Vec<Block>,
    total_dim: usize,
    /// Scalar terms one complete evaluation computes (the blocks' lengths
    /// summed), for the stats bookkeeping.
    eval_terms: u64,
    stats: ScanStats,
}

impl FusedScanner {
    /// Builds a scanner for `query` under `weights`.
    ///
    /// The `Metric` argument is ignored (L2 is the only distance); it
    /// remains only because the benchmark crate still passes it.
    pub fn new(schema: &Schema, query: &MultiVector, weights: &Weights, _metric: Metric) -> Self {
        assert_eq!(query.arity(), schema.arity(), "query arity mismatch");
        assert_eq!(weights.arity(), schema.arity(), "weights arity mismatch");
        // ALLOC: per-scanner block list and query copy, built once per query.
        let mut blocks = Vec::new();
        for (m, q) in query.present() {
            let w = weights.get(m);
            if w > 0.0 {
                blocks.push(Block {
                    offset: schema.offset(m),
                    weight: w,
                    // ALLOC: the scanner's query copy, one per query.
                    query: q.to_vec(),
                });
            }
        }
        assert!(
            !blocks.is_empty(),
            "query has no scorable modality (all missing or zero-weighted)"
        );
        // Scan the heaviest-weighted modality first: its terms grow the
        // partial sum fastest, so the bound is crossed (and the rest of
        // the evaluation skipped) as early as possible.
        blocks.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        let eval_terms = blocks.iter().map(|b| b.query.len() as u64).sum();
        Self {
            blocks,
            total_dim: schema.total_dim(),
            eval_terms,
            stats: ScanStats::default(),
        }
    }

    /// Fused distance between the query and an object stored as a flat
    /// concatenated vector, abandoning early against `bound`.
    ///
    /// Returns `None` if the evaluation was abandoned — in that case the
    /// true distance is *provably* `>= bound` and the candidate can be
    /// discarded. Every evaluation sums the same chunks in the same order,
    /// so one that completes returns the same bits whatever its bound; an
    /// infinite bound never abandons (short of a sum that overflows).
    ///
    /// # Panics
    /// Panics in debug builds if `flat` does not match the schema's total
    /// dimensionality.
    #[inline]
    pub fn distance(&mut self, flat: &[f32], bound: f32) -> Option<f32> {
        debug_assert_eq!(flat.len(), self.total_dim, "object vector length mismatch");
        let mut total = 0.0f32;
        let mut done: u64 = 0;
        for b in &self.blocks {
            // INVARIANT: block offsets/lengths partition 0..total_dim, and
            // flat.len() == total_dim is the scanner's documented contract.
            let obj = &flat[b.offset..b.offset + b.query.len()];
            let mut i = 0;
            while i < b.query.len() {
                let end = (i + CHUNK).min(b.query.len());
                // Reuse the unrolled kernel so the pruned path pays no
                // per-term penalty over a full evaluation.
                // INVARIANT: i <= end <= query.len() == obj.len().
                let part = ops::l2_sq(&b.query[i..end], &obj[i..end]);
                total += b.weight * part;
                done += (end - i) as u64;
                i = end;
                if total >= bound {
                    self.stats.abandoned += 1;
                    self.stats.terms += done;
                    self.stats.terms_skipped += self.eval_terms - done;
                    return None;
                }
            }
        }
        self.stats.full_evals += 1;
        self.stats.terms += done;
        Some(total)
    }

    /// Fused distance without pruning (always complete): `distance` under
    /// an infinite bound.
    pub fn exact(&mut self, flat: &[f32]) -> f32 {
        self.distance(flat, f32::INFINITY).unwrap_or(f32::INFINITY)
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multivec::{MultiVector, Schema, Weights};
    use mqa_rng::StdRng;

    fn setup(seed: u64) -> (Schema, MultiVector, Weights, Vec<Vec<f32>>) {
        let schema = Schema::text_image(24, 40);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut randv =
            |d: usize| -> Vec<f32> { (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let q = MultiVector::complete(&schema, vec![randv(24), randv(40)]);
        let w = Weights::normalized(&[1.7, 0.3]);
        let objs: Vec<Vec<f32>> = (0..50)
            .map(|_| {
                let mv = MultiVector::complete(&schema, vec![randv(24), randv(40)]);
                mv.concat(&schema)
            })
            .collect();
        (schema, q, w, objs)
    }

    #[test]
    fn exact_matches_reference_fused_distance() {
        let (schema, q, w, objs) = setup(1);
        let mut scanner = FusedScanner::new(&schema, &q, &w, Metric::L2);
        for flat in &objs {
            let mv = MultiVector::from_concat(&schema, flat);
            let reference = q.fused_distance(&mv, &w);
            let got = scanner.exact(flat);
            assert!((reference - got).abs() < 1e-4, "ref={reference} got={got}");
        }
    }

    #[test]
    fn abandoned_implies_distance_at_least_bound() {
        let (schema, q, w, objs) = setup(2);
        let mut scanner = FusedScanner::new(&schema, &q, &w, Metric::L2);
        for flat in &objs {
            let exact = {
                let mv = MultiVector::from_concat(&schema, flat);
                q.fused_distance(&mv, &w)
            };
            for bound in [0.5, 5.0, 20.0] {
                match scanner.distance(flat, bound) {
                    Some(d) => {
                        assert!((d - exact).abs() < 1e-3);
                        assert!(d < bound || (d - bound).abs() < 1e-3);
                    }
                    None => assert!(
                        exact >= bound - 1e-3,
                        "abandoned but exact={exact} < bound={bound}"
                    ),
                }
            }
        }
    }

    #[test]
    fn infinite_bound_never_abandons() {
        let (schema, q, w, objs) = setup(3);
        let mut scanner = FusedScanner::new(&schema, &q, &w, Metric::L2);
        for flat in &objs {
            assert!(scanner.distance(flat, f32::INFINITY).is_some());
        }
        assert_eq!(scanner.stats().abandoned, 0);
    }

    /// One summation: an evaluation that completes under a finite bound
    /// returns the unbounded evaluation's bits, on blocks that span several
    /// chunks (the system's 64-dim blocks).
    #[test]
    fn completed_bounded_evaluation_equals_unbounded_bits() {
        let schema = Schema::text_image(64, 64);
        let mut rng = StdRng::seed_from_u64(8);
        let mut randv =
            |d: usize| -> Vec<f32> { (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let q = MultiVector::complete(&schema, vec![randv(64), randv(64)]);
        let w = Weights::normalized(&[1.3, 0.7]);
        let objs: Vec<Vec<f32>> = (0..300)
            .map(|_| MultiVector::complete(&schema, vec![randv(64), randv(64)]).concat(&schema))
            .collect();
        let mut scanner = FusedScanner::new(&schema, &q, &w, Metric::L2);
        for (i, flat) in objs.iter().enumerate() {
            let unbounded = scanner.exact(flat);
            for bound in [unbounded * 1.5, unbounded * 1.000_001, unbounded + 1.0] {
                let bounded = scanner
                    .distance(flat, bound)
                    .expect("bound above the distance");
                assert_eq!(bounded.to_bits(), unbounded.to_bits(), "object {i}");
            }
        }
    }

    #[test]
    fn missing_modality_blocks_are_skipped() {
        let schema = Schema::text_image(8, 8);
        let q = MultiVector::partial(&schema, vec![Some(vec![0.0; 8]), None]);
        let w = Weights::uniform(2);
        let mut scanner = FusedScanner::new(&schema, &q, &w, Metric::L2);
        // object: text part zero (distance 0), image part huge (ignored)
        let mut flat = vec![0.0f32; 16];
        for x in &mut flat[8..] {
            *x = 100.0;
        }
        assert_eq!(scanner.exact(&flat), 0.0);
    }

    #[test]
    fn zero_weight_modality_excluded() {
        let schema = Schema::text_image(4, 4);
        let q = MultiVector::complete(&schema, vec![vec![0.0; 4], vec![0.0; 4]]);
        let w = Weights::normalized(&[1.0, 0.0]);
        let mut scanner = FusedScanner::new(&schema, &q, &w, Metric::L2);
        let mut flat = vec![0.0f32; 8];
        flat[5] = 50.0; // image-only difference must not count
        assert_eq!(scanner.exact(&flat), 0.0);
    }

    #[test]
    #[should_panic(expected = "no scorable modality")]
    fn query_with_only_zero_weighted_modality_panics() {
        let schema = Schema::text_image(4, 4);
        let q = MultiVector::partial(&schema, vec![Some(vec![0.0; 4]), None]);
        let w = Weights::normalized(&[0.0, 1.0]);
        FusedScanner::new(&schema, &q, &w, Metric::L2);
    }

    #[test]
    fn tight_bound_saves_terms() {
        let (schema, q, w, objs) = setup(4);
        let mut scanner = FusedScanner::new(&schema, &q, &w, Metric::L2);
        for flat in &objs {
            let _ = scanner.distance(flat, 1e-3);
        }
        let s = scanner.stats();
        assert!(s.abandoned > 0, "expected abandonments with a tiny bound");
        assert!(s.savings() > 0.0);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = ScanStats {
            full_evals: 1,
            abandoned: 2,
            terms: 3,
            terms_skipped: 4,
        };
        let mut b = ScanStats {
            full_evals: 10,
            abandoned: 20,
            terms: 30,
            terms_skipped: 40,
        };
        b.merge(&a);
        assert_eq!(
            b,
            ScanStats {
                full_evals: 11,
                abandoned: 22,
                terms: 33,
                terms_skipped: 44
            }
        );
    }

    #[test]
    fn savings_zero_when_untouched() {
        assert_eq!(ScanStats::default().savings(), 0.0);
    }

    #[test]
    fn random_bounds_agree_with_exact_decision() {
        // Property-style check with a seeded RNG: for random bounds, the
        // scanner's keep/abandon decision must match the exact comparison.
        let (schema, q, w, objs) = setup(6);
        let mut scanner = FusedScanner::new(&schema, &q, &w, Metric::L2);
        let mut rng = StdRng::seed_from_u64(7);
        for flat in &objs {
            let exact = {
                let mv = MultiVector::from_concat(&schema, flat);
                q.fused_distance(&mv, &w)
            };
            let bound: f32 = rng.gen_range(0.0..40.0);
            match scanner.distance(flat, bound) {
                Some(d) => assert!((d - exact).abs() < 1e-3),
                None => assert!(exact >= bound - 1e-3),
            }
        }
    }
}
