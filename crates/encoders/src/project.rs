//! Seeded hash-based random projection.
//!
//! All synthetic encoders share this primitive: a virtual `rows × cols`
//! projection matrix whose entries are *computed on demand* from a hash of
//! `(seed, row, col)`. Nothing is materialized, so arbitrarily wide hashed
//! feature spaces (`cols = 2^20` for text) cost only the non-zero inputs.
//!
//! Entries are uniform in `[-1, 1]` scaled by `1/sqrt(rows)`; for random
//! projection purposes sub-gaussian rows preserve distances (the
//! Johnson–Lindenstrauss property) just as well as gaussian ones. The
//! hash is the first output of a [`SplitMix64`] seeded with the mixed
//! `(seed, row, col)`.

use mqa_rng::SplitMix64;

/// Maps a u64 hash to a uniform f32 in `[-1, 1)`.
#[inline]
fn to_unit(h: u64) -> f32 {
    // take the top 24 bits for a clean mantissa
    let u = (h >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
    2.0 * u - 1.0
}

/// A virtual random projection matrix `R ∈ [-1,1]^{rows × cols} / sqrt(rows)`
/// defined entirely by a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionMatrix {
    seed: u64,
    rows: usize,
    cols: usize,
}

impl ProjectionMatrix {
    /// Creates the virtual matrix for `rows` output dimensions over `cols`
    /// input dimensions.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(seed: u64, rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "projection matrix must be non-degenerate"
        );
        Self { seed, rows, cols }
    }

    /// Output dimensionality.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input dimensionality.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix entry `(i, j)`.
    #[inline]
    pub fn entry(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        let h = SplitMix64::new(
            self.seed
                ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)
                ^ (j as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25),
        )
        .next_u64();
        to_unit(h) / (self.rows as f32).sqrt()
    }

    /// `out = R · x` for a *sparse* input given as `(index, value)` pairs.
    ///
    /// # Panics
    /// Panics in debug builds if `out.len() != rows` or any index is out of
    /// range.
    pub fn project_sparse(&self, input: &[(u32, f32)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.rows);
        out.fill(0.0);
        for &(j, v) in input {
            debug_assert!((j as usize) < self.cols, "sparse index out of range");
            for (i, o) in out.iter_mut().enumerate() {
                *o += v * self.entry(i, j as usize);
            }
        }
    }

    /// `out = R · x` for a dense input.
    ///
    /// # Panics
    /// Panics in debug builds on dimension mismatch.
    pub fn project_dense(&self, input: &[f32], out: &mut [f32]) {
        debug_assert_eq!(input.len(), self.cols, "dense input length mismatch");
        debug_assert_eq!(out.len(), self.rows);
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (j, &v) in input.iter().enumerate() {
                acc += v * self.entry(i, j);
            }
            *o = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_vector::ops;

    #[test]
    fn deterministic_across_instances() {
        let a = ProjectionMatrix::new(7, 8, 100);
        let b = ProjectionMatrix::new(7, 8, 100);
        for i in 0..8 {
            for j in (0..100).step_by(13) {
                assert_eq!(a.entry(i, j), b.entry(i, j));
            }
        }
        // Pinned values: a change to the hash moves every embedding.
        assert_eq!(a.entry(0, 0).to_bits(), 0xbd9f_8b2c);
        assert_eq!(a.entry(3, 57).to_bits(), 0xbea6_cd73);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProjectionMatrix::new(1, 4, 10);
        let b = ProjectionMatrix::new(2, 4, 10);
        let same = (0..4)
            .flat_map(|i| (0..10).map(move |j| (i, j)))
            .filter(|&(i, j)| a.entry(i, j) == b.entry(i, j))
            .count();
        assert!(
            same < 5,
            "seeds should decorrelate entries, got {same} equal"
        );
    }

    #[test]
    fn entries_bounded() {
        let m = ProjectionMatrix::new(3, 16, 50);
        let bound = 1.0 / (16.0f32).sqrt();
        for i in 0..16 {
            for j in 0..50 {
                assert!(m.entry(i, j).abs() <= bound + 1e-6);
            }
        }
    }

    #[test]
    fn sparse_matches_dense() {
        let m = ProjectionMatrix::new(11, 6, 20);
        let mut dense_in = vec![0.0f32; 20];
        dense_in[3] = 1.5;
        dense_in[17] = -0.5;
        let sparse_in = [(3u32, 1.5f32), (17, -0.5)];
        let mut out_d = vec![0.0f32; 6];
        let mut out_s = vec![0.0f32; 6];
        m.project_dense(&dense_in, &mut out_d);
        m.project_sparse(&sparse_in, &mut out_s);
        for (a, b) in out_d.iter().zip(&out_s) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn roughly_preserves_relative_distances() {
        // JL sanity check: nearby inputs stay nearer than far inputs.
        let m = ProjectionMatrix::new(5, 32, 64);
        let base: Vec<f32> = (0..64)
            .map(|i| ((i * 37 % 64) as f32 / 64.0) - 0.5)
            .collect();
        let mut near = base.clone();
        near[0] += 0.05;
        let far: Vec<f32> = base.iter().map(|x| -x).collect();
        let mut pb = vec![0.0; 32];
        let mut pn = vec![0.0; 32];
        let mut pf = vec![0.0; 32];
        m.project_dense(&base, &mut pb);
        m.project_dense(&near, &mut pn);
        m.project_dense(&far, &mut pf);
        assert!(ops::l2_sq(&pb, &pn) < ops::l2_sq(&pb, &pf));
    }

    #[test]
    fn projection_of_zero_is_zero() {
        let m = ProjectionMatrix::new(9, 4, 8);
        let mut out = vec![1.0f32; 4];
        m.project_dense(&[0.0; 8], &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
        m.project_sparse(&[], &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }
}
