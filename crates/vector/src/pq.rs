//! Product quantization (PQ): compressed vector codes for memory-resident
//! routing.
//!
//! DiskANN-family systems (including Starling, reference 9 of the paper)
//! keep *full* vectors on disk and route through **PQ codes held in RAM**:
//! the vector space is split into `M` contiguous subspaces, each clustered
//! into `K = 256` centroids by k-means, and every vector is stored as `M`
//! one-byte centroid ids. Distances against a query are then computed from
//! a per-query lookup table in `O(M)` per candidate — orders of magnitude
//! less memory traffic than the raw floats.
//!
//! This module implements the full pipeline: codebook training
//! ([`PqCodebook::train`]), encoding ([`PqCodebook::encode_store`] →
//! [`PqCodes`]), and asymmetric distance computation
//! ([`PqTable::distance`]). The Starling paged index uses it for two-phase
//! search (route on codes, rerank on page-resident full vectors); E7
//! reports the accuracy/memory trade.

use crate::store::VectorStore;
use crate::{Dim, VecId};
use mqa_rng::StdRng;
use serde::{Deserialize, Serialize};

/// Centroids per subspace (one byte per code).
pub const PQ_K: usize = 256;

/// A trained product quantizer: `m` subspace codebooks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PqCodebook {
    dim: Dim,
    m: usize,
    /// `centroids[s]` is a `(K, sub_dim(s))` row-major matrix.
    centroids: Vec<Vec<f32>>,
    /// Subspace boundaries: subspace `s` covers `bounds[s]..bounds[s+1]`.
    bounds: Vec<usize>,
}

/// Training parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PqParams {
    /// Number of subspaces (code bytes per vector).
    pub m: usize,
    /// k-means iterations per subspace.
    pub iters: usize,
    /// Training sample cap (vectors beyond this are subsampled).
    pub train_sample: usize,
    /// RNG seed for initialization and subsampling.
    pub seed: u64,
}

impl Default for PqParams {
    fn default() -> Self {
        Self {
            m: 16,
            iters: 12,
            train_sample: 20_000,
            seed: 0,
        }
    }
}

impl PqCodebook {
    /// Trains codebooks over the store by per-subspace k-means.
    ///
    /// # Panics
    /// Panics if the store is empty, or `m` is zero or exceeds the
    /// dimensionality.
    pub fn train(store: &VectorStore, params: &PqParams) -> Self {
        assert!(!store.is_empty(), "PQ training requires vectors");
        let dim = store.dim();
        assert!(params.m > 0 && params.m <= dim, "invalid subspace count");
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x90C0DE);

        // Subspace boundaries: distribute remainder dims to the front.
        // INVARIANT: m >= 1 is asserted above, so the divisions are
        // well-defined and bounds grows to exactly m + 1 entries.
        let base = dim / params.m;
        let extra = dim % params.m;
        let mut bounds = Vec::with_capacity(params.m + 1);
        bounds.push(0usize);
        for s in 0..params.m {
            // INVARIANT: bounds[s] was pushed on the previous iteration.
            bounds.push(bounds[s] + base + usize::from(s < extra));
        }

        // Training sample.
        let n = store.len();
        let sample: Vec<VecId> = if n <= params.train_sample {
            (0..n as VecId).collect()
        } else {
            (0..params.train_sample)
                .map(|_| rng.gen_range(0..n) as VecId)
                .collect()
        };

        let mut centroids = Vec::with_capacity(params.m);
        for s in 0..params.m {
            // INVARIANT: bounds holds m + 1 increasing entries ending at
            // dim, so lo..hi is a valid subrange of every store row.
            let lo = bounds[s];
            let hi = bounds[s + 1];
            let sub = hi - lo;
            let k = PQ_K.min(sample.len());
            // Init: distinct random sample rows.
            let mut cents = vec![0.0f32; k * sub];
            for (c, chunk) in cents.chunks_mut(sub).enumerate() {
                // INVARIANT: sample is non-empty (the store is), so the
                // modular probe lands on a valid sample row.
                let id = sample[(c * 7919 + 13) % sample.len()];
                chunk.copy_from_slice(&store.get(id)[lo..hi]);
            }
            let mut assign = vec![0usize; sample.len()];
            for _ in 0..params.iters {
                // Assignment.
                for (i, &id) in sample.iter().enumerate() {
                    // INVARIANT: sample ids index the store; lo..hi is a
                    // subrange of each dim-length row.
                    let v = &store.get(id)[lo..hi];
                    let mut best = 0usize;
                    let mut best_d = f32::INFINITY;
                    for c in 0..k {
                        // INVARIANT: c < k and cents holds k rows of sub.
                        let d = crate::ops::l2_sq(v, &cents[c * sub..(c + 1) * sub]);
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    // INVARIANT: assign has one slot per sample row.
                    assign[i] = best;
                }
                // Update.
                let mut sums = vec![0.0f32; k * sub];
                let mut counts = vec![0usize; k];
                for (i, &id) in sample.iter().enumerate() {
                    // INVARIANT: assignments are cluster ids < k; counts
                    // has k slots and sums k rows; v has sub entries.
                    let v = &store.get(id)[lo..hi];
                    let c = assign[i];
                    counts[c] += 1;
                    for (j, x) in v.iter().enumerate() {
                        // INVARIANT: j < sub and c < k bound the row.
                        sums[c * sub + j] += x;
                    }
                }
                for c in 0..k {
                    // INVARIANT: c < k indexes counts and centroid rows.
                    if counts[c] == 0 {
                        // INVARIANT: re-seed an empty cluster from a random
                        // row of the non-empty sample; c < k stays in bounds.
                        let id = sample[rng.gen_range(0..sample.len())];
                        cents[c * sub..(c + 1) * sub].copy_from_slice(&store.get(id)[lo..hi]);
                    } else {
                        for j in 0..sub {
                            // INVARIANT: counts[c] > 0 in this branch and
                            // c * sub + j < k * sub.
                            cents[c * sub + j] =
                                sums[c * sub + j] / crate::cast::count_f32(counts[c]);
                        }
                    }
                }
            }
            centroids.push(cents);
        }
        Self {
            dim,
            m: params.m,
            centroids,
            bounds,
        }
    }

    /// Dimensionality this codebook encodes.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Code bytes per vector.
    pub fn m(&self) -> usize {
        self.m
    }

    fn sub_dim(&self, s: usize) -> usize {
        // INVARIANT: callers pass s < m and bounds has m + 1 entries.
        self.bounds[s + 1] - self.bounds[s]
    }

    /// Encodes one vector into `m` bytes.
    ///
    /// # Panics
    /// Panics in debug builds on dimension mismatch.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        debug_assert_eq!(v.len(), self.dim, "encode: dimension mismatch");
        (0..self.m)
            .map(|s| {
                // INVARIANT: s < m; bounds has m + 1 entries by construction.
                let lo = self.bounds[s];
                let hi = self.bounds[s + 1];
                let sub = hi - lo;
                // INVARIANT: centroids has m subspace tables and each
                // subspace is non-degenerate (sub >= 1) at construction.
                let cents = &self.centroids[s];
                let k = cents.len() / sub;
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for c in 0..k {
                    // INVARIANT: lo..hi <= dim and c < k = cents.len()/sub,
                    // so both subslices are in bounds.
                    let d = crate::ops::l2_sq(&v[lo..hi], &cents[c * sub..(c + 1) * sub]);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                crate::cast::pq_code(best)
            })
            // ALLOC: one code vector per encoded vector, bounded by the subspace count.
            .collect()
    }

    /// Encodes the whole store.
    pub fn encode_store(&self, store: &VectorStore) -> PqCodes {
        assert_eq!(store.dim(), self.dim, "store dimension mismatch");
        let mut codes = Vec::with_capacity(store.len() * self.m);
        for (_, v) in store.iter() {
            codes.extend(self.encode(v));
        }
        PqCodes { m: self.m, codes }
    }

    /// Reconstructs (decodes) a vector from its code — the centroid
    /// concatenation. Used for diagnostics and tests.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.m, "decode: code length mismatch");
        let mut out = Vec::with_capacity(self.dim);
        for (s, &c) in code.iter().enumerate() {
            let sub = self.sub_dim(s);
            // INVARIANT: centroids has m per-subspace tables, each a
            // multiple of sub floats; the clamp keeps c a valid row.
            let cents = &self.centroids[s];
            let c = (c as usize).min(cents.len() / sub - 1);
            out.extend_from_slice(&cents[c * sub..(c + 1) * sub]);
        }
        out
    }

    /// Builds the per-query asymmetric distance lookup table.
    pub fn table(&self, query: &[f32]) -> PqTable {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut luts = Vec::with_capacity(self.m);
        for s in 0..self.m {
            // INVARIANT: bounds has m + 1 increasing entries and
            // centroids has m tables; sub >= 1 by construction.
            let cents = &self.centroids[s];
            let lo = self.bounds[s];
            let hi = self.bounds[s + 1];
            let sub = hi - lo;
            // INVARIANT: sub >= 1, so the centroid count is well-defined.
            let k = cents.len() / sub;
            let mut lut = Vec::with_capacity(k);
            for c in 0..k {
                // INVARIANT: lo..hi <= dim (asserted above) and c < k.
                lut.push(crate::ops::l2_sq(
                    &query[lo..hi],
                    &cents[c * sub..(c + 1) * sub],
                ));
            }
            luts.push(lut);
        }
        PqTable { luts }
    }
}

/// The compressed codes of a store: `m` bytes per vector, contiguous.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PqCodes {
    m: usize,
    codes: Vec<u8>,
}

impl PqCodes {
    /// Code of vector `id`.
    #[inline]
    pub fn code(&self, id: VecId) -> &[u8] {
        let start = id as usize * self.m;
        // INVARIANT: ids come from the encoded store (id < len()), and
        // codes.len() is an exact multiple of m by construction.
        &self.codes[start..start + self.m]
    }

    /// Number of encoded vectors.
    pub fn len(&self) -> usize {
        // INVARIANT: m >= 1 is enforced when the codebook is trained.
        self.codes.len() / self.m
    }

    /// Whether no vector is encoded.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Resident bytes (the whole point of PQ).
    pub fn bytes(&self) -> usize {
        self.codes.len()
    }
}

/// Per-query lookup table: `distance(query, decode(code)) = Σ lut[s][code[s]]`.
#[derive(Debug, Clone)]
pub struct PqTable {
    luts: Vec<Vec<f32>>,
}

impl PqTable {
    /// Approximate L2 distance from the query to an encoded vector.
    #[inline]
    pub fn distance(&self, code: &[u8]) -> f32 {
        debug_assert_eq!(code.len(), self.luts.len());
        code.iter()
            .zip(&self.luts)
            // INVARIANT: each LUT holds one entry per centroid (256 slots
            // for u8 codes), so a byte code always lands in bounds.
            .map(|(&c, lut)| lut[c as usize])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn clustered_store(n: usize, dim: usize, clusters: usize, seed: u64) -> VectorStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let mut s = VectorStore::new(dim);
        for i in 0..n {
            let c = &centers[i % clusters];
            let v: Vec<f32> = c.iter().map(|x| x + rng.gen_range(-0.2f32..0.2)).collect();
            s.push(&v);
        }
        s
    }

    fn params(m: usize) -> PqParams {
        PqParams {
            m,
            iters: 8,
            train_sample: 10_000,
            seed: 0,
        }
    }

    #[test]
    fn encode_decode_reduces_error_over_random() {
        let store = clustered_store(500, 16, 10, 1);
        let cb = PqCodebook::train(&store, &params(4));
        let mut err = 0.0f32;
        for (_, v) in store.iter() {
            let rec = cb.decode(&cb.encode(v));
            err += ops::l2_sq(v, &rec);
        }
        let avg_err = err / store.len() as f32;
        // Cluster spread is ±0.2 per dim; reconstruction should land well
        // inside a cluster radius.
        assert!(avg_err < 0.5, "avg reconstruction error {avg_err}");
    }

    #[test]
    fn table_distance_matches_decoded_distance() {
        let store = clustered_store(200, 12, 6, 2);
        let cb = PqCodebook::train(&store, &params(3));
        let codes = cb.encode_store(&store);
        let query = store.get(7).to_vec();
        let table = cb.table(&query);
        for id in (0..200u32).step_by(17) {
            let via_table = table.distance(codes.code(id));
            let via_decode = ops::l2_sq(&query, &cb.decode(codes.code(id)));
            assert!(
                (via_table - via_decode).abs() < 1e-3 * (1.0 + via_decode),
                "id {id}: {via_table} vs {via_decode}"
            );
        }
    }

    #[test]
    fn pq_ranking_correlates_with_exact_ranking() {
        let store = clustered_store(400, 16, 8, 3);
        let cb = PqCodebook::train(&store, &params(8));
        let codes = cb.encode_store(&store);
        let query = store.get(0).to_vec();
        let table = cb.table(&query);
        // exact top-20
        let mut exact: Vec<(u32, f32)> = store
            .iter()
            .map(|(id, v)| (id, ops::l2_sq(&query, v)))
            .collect();
        exact.sort_by(|a, b| a.1.total_cmp(&b.1));
        let exact_top: Vec<u32> = exact.iter().take(20).map(|(id, _)| *id).collect();
        // pq top-20
        let mut approx: Vec<(u32, f32)> = (0..400u32)
            .map(|id| (id, table.distance(codes.code(id))))
            .collect();
        approx.sort_by(|a, b| a.1.total_cmp(&b.1));
        let approx_top: Vec<u32> = approx.iter().take(20).map(|(id, _)| *id).collect();
        let overlap = approx_top
            .iter()
            .filter(|id| exact_top.contains(id))
            .count();
        assert!(overlap >= 14, "PQ top-20 overlap {overlap}/20");
    }

    #[test]
    fn codes_are_compact() {
        let store = clustered_store(100, 32, 4, 4);
        let cb = PqCodebook::train(&store, &params(8));
        let codes = cb.encode_store(&store);
        assert_eq!(codes.len(), 100);
        assert_eq!(codes.bytes(), 800); // 8 bytes vs 128 raw bytes per vector
        assert!(codes.bytes() * 16 == store.bytes());
    }

    #[test]
    fn uneven_dims_are_partitioned_fully() {
        let store = clustered_store(50, 13, 3, 5);
        let cb = PqCodebook::train(&store, &params(4)); // 13 = 4+3+3+3
        let code = cb.encode(store.get(0));
        assert_eq!(code.len(), 4);
        assert_eq!(cb.decode(&code).len(), 13);
    }

    #[test]
    fn serde_round_trip() {
        let store = clustered_store(60, 8, 3, 6);
        let cb = PqCodebook::train(&store, &params(2));
        let codes = cb.encode_store(&store);
        let cb2: PqCodebook = serde_json::from_str(&serde_json::to_string(&cb).unwrap()).unwrap();
        let codes2: PqCodes =
            serde_json::from_str(&serde_json::to_string(&codes).unwrap()).unwrap();
        assert_eq!(cb, cb2);
        assert_eq!(codes, codes2);
    }

    #[test]
    #[should_panic(expected = "requires vectors")]
    fn empty_store_panics() {
        PqCodebook::train(&VectorStore::new(4), &params(2));
    }
}
