//! IVF — inverted-file (cluster-probe) index.
//!
//! The index family behind Milvus's default configuration (the system the
//! paper's MR baseline is modelled on): k-means partitions the vectors
//! into `nlist` cells; a query scores the `nprobe` nearest cell centroids
//! and scans only those cells' member lists. No graph, no hierarchical
//! routing — a useful contrast point for E7 because its recall/efficiency
//! knob (`nprobe`) behaves very differently from a beam width: cost is
//! proportional to the *fraction of the corpus probed* rather than to a
//! traversal depth.
//!
//! Searched through the same [`crate::BuiltGraph`] dispatcher as the graph
//! family, so it is selectable from the configuration panel and composable
//! with the unified multi-vector store like every other algorithm. The
//! search maps `ef` onto `nprobe` (`max(1, ef / 8)`) so the common "raise
//! ef for more recall" workflow applies unchanged.

use crate::search::{SearchOutput, SearchStats};
use crate::traits::DistanceFn;
use crate::validate::InvariantViolation;
use mqa_rng::StdRng;
use mqa_vector::{ops, Candidate, TopK, VecId, VectorStore};
use serde::{Deserialize, Serialize};

/// IVF hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IvfParams {
    /// Number of k-means cells. The usual heuristic is `~sqrt(n)`;
    /// [`IvfParams::auto`] applies it.
    pub nlist: usize,
    /// k-means iterations.
    pub iters: usize,
    /// Training sample cap.
    pub train_sample: usize,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self {
            nlist: 128,
            iters: 10,
            train_sample: 20_000,
            seed: 0,
        }
    }
}

impl IvfParams {
    /// The `nlist ≈ sqrt(n)` heuristic.
    pub fn auto(n: usize) -> Self {
        Self {
            nlist: ((n as f64).sqrt() as usize).max(1),
            ..Self::default()
        }
    }
}

/// A built IVF index: centroids plus per-cell member lists. It holds no
/// vector: queries rank cells through the evaluator, and the validator
/// reads the store it is handed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ivf {
    dim: usize,
    /// Row-major `(nlist, dim)` centroid matrix.
    centroids: Vec<f32>,
    /// Member ids per cell.
    cells: Vec<Vec<VecId>>,
    params: IvfParams,
}

impl Ivf {
    /// Builds the index by k-means over the store.
    ///
    /// # Panics
    /// Panics on an empty store or `nlist == 0`.
    pub fn build(store: &VectorStore, params: &IvfParams) -> Self {
        assert!(!store.is_empty(), "IVF over an empty store");
        assert!(params.nlist > 0, "IVF requires nlist >= 1");
        let n = store.len();
        let dim = store.dim();
        let nlist = params.nlist.min(n);
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x1BF0);

        // Training sample.
        let sample: Vec<VecId> = if n <= params.train_sample {
            (0..n as VecId).collect()
        } else {
            (0..params.train_sample)
                .map(|_| rng.gen_range(0..n) as VecId)
                .collect()
        };

        // Init centroids from spread sample rows.
        let mut centroids = vec![0.0f32; nlist * dim];
        for c in 0..nlist {
            // INVARIANT: sample is non-empty (the store is) and c < nlist
            // keeps the destination row inside the centroid matrix.
            let id = sample[(c * 6151 + 7) % sample.len()];
            centroids[c * dim..(c + 1) * dim].copy_from_slice(store.get(id));
        }

        // Lloyd iterations on the sample.
        let mut assign = vec![0usize; sample.len()];
        for _ in 0..params.iters {
            for (i, &id) in sample.iter().enumerate() {
                // INVARIANT: assign has one slot per sample row.
                assign[i] = nearest_centroid(&centroids, dim, nlist, store.get(id)).0;
            }
            let mut sums = vec![0.0f32; nlist * dim];
            let mut counts = vec![0usize; nlist];
            for (i, &id) in sample.iter().enumerate() {
                // INVARIANT: assignments are cell ids < nlist; counts has
                // nlist slots and sums nlist rows of dim floats.
                let c = assign[i];
                counts[c] += 1;
                ops::axpy(1.0, store.get(id), &mut sums[c * dim..(c + 1) * dim]);
            }
            for c in 0..nlist {
                // INVARIANT: c < nlist indexes counts and centroid rows.
                if counts[c] == 0 {
                    // INVARIANT: re-seed an empty cell from a random row
                    // of the non-empty sample; c < nlist stays in bounds.
                    let id = sample[rng.gen_range(0..sample.len())];
                    centroids[c * dim..(c + 1) * dim].copy_from_slice(store.get(id));
                } else {
                    for j in 0..dim {
                        // INVARIANT: counts[c] > 0 in this branch and
                        // c * dim + j < nlist * dim.
                        centroids[c * dim + j] =
                            sums[c * dim + j] / mqa_vector::cast::count_f32(counts[c]);
                    }
                }
            }
        }

        // Final full assignment into cells.
        let mut cells = vec![Vec::new(); nlist];
        for (id, v) in store.iter() {
            // INVARIANT: nearest_centroid returns a cell id < nlist.
            let (c, _) = nearest_centroid(&centroids, dim, nlist, v);
            cells[c].push(id);
        }
        Self {
            dim,
            centroids,
            cells,
            params: IvfParams { nlist, ..*params },
        }
    }

    /// Number of cells.
    pub fn nlist(&self) -> usize {
        self.cells.len()
    }

    /// Number of indexed vectors: the population the cells partition.
    pub(crate) fn len(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// Mean cell population.
    pub fn avg_cell_size(&self) -> f64 {
        self.len() as f64 / self.cells.len() as f64
    }

    /// Status-panel description.
    pub(crate) fn describe(&self) -> String {
        format!(
            "ivf over {} vectors ({} cells, ~{:.0}/cell)",
            self.len(),
            self.nlist(),
            self.avg_cell_size()
        )
    }

    /// Cell probing through the evaluator, compiled around its type: the
    /// `max(1, ef / 8)` best-ranked cells are scanned — at the conventional
    /// ef range (16–256) that is 2–32 cells, spanning the same recall band
    /// the graph family covers. Each member is visited exactly once by
    /// construction, so no visited set (and no scratch) is needed.
    pub(crate) fn probe<D: DistanceFn + ?Sized>(
        &self,
        dist: &mut D,
        k: usize,
        ef: usize,
    ) -> SearchOutput {
        // The evaluator owns the query, so cells are ranked by the distance
        // of their *median member* under `dist` — one evaluation per cell.
        let nprobe = (ef / 8).max(1);
        let mut cell_rank: Vec<(usize, f32)> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(|(c, members)| {
                // INVARIANT: members is non-empty (filtered above), so the
                // median index is in bounds.
                let probe = members[members.len() / 2];
                (c, dist.exact(probe))
            })
            // ALLOC: per-query cell ranking, one entry per non-empty IVF cell.
            .collect();
        cell_rank.sort_by(|a, b| a.1.total_cmp(&b.1));

        let mut stats = SearchStats {
            evals: cell_rank.len() as u64,
            ..Default::default()
        };
        let mut top = TopK::new(k);
        for &(c, _) in cell_rank.iter().take(nprobe.min(cell_rank.len())) {
            stats.hops += 1;
            // INVARIANT: c was produced by enumerate() over cells above.
            for &id in &self.cells[c] {
                match dist.eval(id, top.bound()) {
                    Some(d) => {
                        stats.evals += 1;
                        top.offer(Candidate::new(id, d));
                    }
                    None => stats.pruned += 1,
                }
            }
        }
        SearchOutput {
            results: top.into_sorted(),
            stats,
        }
    }
}

impl Ivf {
    /// Audits the structural invariants of the built index against the
    /// store it was built over and returns every violation found (empty =
    /// sound).
    ///
    /// Checked invariants:
    /// - the cells' population and the dimension match the store;
    /// - the centroid matrix has exactly `nlist × dim` finite entries;
    /// - the cell member lists exactly partition `0..n` (every id in
    ///   exactly one cell, none out of range);
    /// - every member sits in the cell of its nearest centroid (the final
    ///   assignment pass is deterministic, so this recheck is exact).
    pub fn validate(&self, store: &VectorStore) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let n = store.len();
        if self.len() != n {
            out.push(InvariantViolation::SizeMismatch {
                context: "ivf population".to_string(),
                expected: n,
                got: self.len(),
            });
        }
        if self.dim != store.dim() {
            out.push(InvariantViolation::SizeMismatch {
                context: "ivf dimension".to_string(),
                expected: store.dim(),
                got: self.dim,
            });
        }
        let nlist = self.cells.len();
        if self.centroids.len() != nlist * self.dim {
            out.push(InvariantViolation::SizeMismatch {
                context: "ivf centroid matrix".to_string(),
                expected: nlist * self.dim,
                got: self.centroids.len(),
            });
            return out; // centroid-dependent checks would index out of bounds
        }
        for (i, x) in self.centroids.iter().enumerate() {
            if !x.is_finite() {
                out.push(InvariantViolation::NonFinite {
                    // INVARIANT: dim mismatch (incl. zero) returned above.
                    context: format!("ivf centroid {} component {}", i / self.dim, i % self.dim),
                });
            }
        }
        let mut counts = vec![0usize; n];
        for (c, members) in self.cells.iter().enumerate() {
            for &id in members {
                match counts.get_mut(id as usize) {
                    Some(k) => *k += 1,
                    None => out.push(InvariantViolation::IdOutOfRange {
                        context: format!("ivf cell {c}"),
                        id,
                        n,
                    }),
                }
            }
        }
        for (id, &k) in counts.iter().enumerate() {
            if k != 1 {
                out.push(InvariantViolation::BrokenPartition {
                    detail: format!("vector {id} appears in {k} cells, expected exactly 1"),
                });
            }
        }
        if self.dim == store.dim() && self.len() == n {
            for (c, members) in self.cells.iter().enumerate() {
                for &id in members {
                    if (id as usize) >= store.len() {
                        continue; // already reported above
                    }
                    let (best, _) =
                        nearest_centroid(&self.centroids, self.dim, nlist, store.get(id));
                    if best != c {
                        out.push(InvariantViolation::MisassignedCell {
                            id,
                            cell: c,
                            nearest: best,
                        });
                    }
                }
            }
        }
        out
    }
}

fn nearest_centroid(centroids: &[f32], dim: usize, nlist: usize, v: &[f32]) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for c in 0..nlist {
        // INVARIANT: centroids holds nlist rows of dim floats.
        let d = ops::l2_sq(v, &centroids[c * dim..(c + 1) * dim]);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FlatDistance;
    use mqa_vector::Metric;

    fn clustered_store(n: usize, dim: usize, clusters: usize, seed: u64) -> VectorStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
            .collect();
        let mut s = VectorStore::new(dim);
        for i in 0..n {
            let c = &centers[i % clusters];
            let v: Vec<f32> = c.iter().map(|x| x + rng.gen_range(-0.2f32..0.2)).collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn cells_partition_the_store() {
        let store = clustered_store(500, 8, 10, 1);
        let ivf = Ivf::build(
            &store,
            &IvfParams {
                nlist: 16,
                ..Default::default()
            },
        );
        let total: usize = ivf.cells.iter().map(Vec::len).sum();
        assert_eq!(total, 500);
        assert_eq!(ivf.nlist(), 16);
    }

    #[test]
    fn full_probe_is_exact() {
        let store = clustered_store(300, 8, 6, 2);
        let ivf = Ivf::build(
            &store,
            &IvfParams {
                nlist: 12,
                ..Default::default()
            },
        );
        let q = store.get(5).to_vec();
        let mut d = FlatDistance::new(&store, &q, Metric::L2).unwrap();
        // ef = 8 x nlist probes every cell.
        let out = ivf.probe(&mut d, 10, 8 * 12);
        assert_eq!(out.results[0].id, 5);
        // Every member once, plus one ranking evaluation per cell.
        let ranked = ivf.cells.iter().filter(|c| !c.is_empty()).count() as u64;
        assert_eq!(out.stats.evals, 300 + ranked);
    }

    #[test]
    fn fewer_probes_less_work() {
        let store = clustered_store(600, 8, 12, 3);
        let ivf = Ivf::build(
            &store,
            &IvfParams {
                nlist: 24,
                ..Default::default()
            },
        );
        let q = store.get(0).to_vec();
        let mut d1 = FlatDistance::new(&store, &q, Metric::L2).unwrap();
        let narrow = ivf.probe(&mut d1, 10, 8 * 2);
        let mut d2 = FlatDistance::new(&store, &q, Metric::L2).unwrap();
        let wide = ivf.probe(&mut d2, 10, 8 * 24);
        assert!(narrow.stats.evals < wide.stats.evals);
        // the query's own cell is probed first, so the self-match holds
        assert_eq!(narrow.results[0].id, 0);
    }

    #[test]
    fn probe_reaches_high_recall() {
        let store = clustered_store(800, 12, 16, 4);
        let ivf = Ivf::build(&store, &IvfParams::auto(800));
        let flat = crate::flat::FlatSearcher::new(store.len());
        let mut rng = StdRng::seed_from_u64(9);
        let mut hits = 0usize;
        let (queries, k) = (25, 10);
        for _ in 0..queries {
            let base = rng.gen_range(0..800) as u32;
            let q: Vec<f32> = store
                .get(base)
                .iter()
                .map(|x| x + rng.gen_range(-0.1f32..0.1))
                .collect();
            let mut d1 = FlatDistance::new(&store, &q, Metric::L2).unwrap();
            let truth = flat.scan(&mut d1, k, |_| true).ids();
            let mut d2 = FlatDistance::new(&store, &q, Metric::L2).unwrap();
            let got = ivf.probe(&mut d2, k, 64).ids();
            hits += got.iter().filter(|id| truth.contains(id)).count();
        }
        let recall = hits as f64 / (queries * k) as f64;
        assert!(recall > 0.85, "ivf recall {recall}");
    }

    #[test]
    fn describe_reports_cells() {
        let store = clustered_store(100, 4, 4, 5);
        let s = Ivf::build(
            &store,
            &IvfParams {
                nlist: 8,
                ..Default::default()
            },
        );
        assert!(s.describe().contains("8 cells"));
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn nlist_capped_by_population() {
        let store = clustered_store(5, 4, 2, 6);
        let ivf = Ivf::build(
            &store,
            &IvfParams {
                nlist: 64,
                ..Default::default()
            },
        );
        assert_eq!(ivf.nlist(), 5);
    }

    #[test]
    fn serde_round_trip() {
        let store = clustered_store(60, 4, 3, 7);
        let s = Ivf::build(
            &store,
            &IvfParams {
                nlist: 6,
                ..Default::default()
            },
        );
        let back: Ivf = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
    }

    /// The index is centroids and member ids, not a second copy of the
    /// vectors it partitions.
    #[test]
    fn a_persisted_index_is_smaller_than_its_store() {
        let store = std::sync::Arc::new(clustered_store(400, 16, 8, 11));
        let built = crate::IndexAlgorithm::ivf().build_graph(&store, Metric::L2);
        assert!(matches!(built, crate::BuiltGraph::Ivf(_)));
        let index = serde_json::to_string(&built).unwrap().len();
        let vectors = serde_json::to_string(&*store).unwrap().len();
        assert!(index < vectors, "index {index} B, store {vectors} B");
        assert!(built.validate(&store, Metric::L2).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty store")]
    fn empty_store_panics() {
        Ivf::build(&VectorStore::new(4), &IvfParams::default());
    }

    #[test]
    fn validate_accepts_built_index() {
        let store = clustered_store(150, 4, 5, 8);
        let ivf = Ivf::build(
            &store,
            &IvfParams {
                nlist: 10,
                ..Default::default()
            },
        );
        let violations = ivf.validate(&store);
        assert!(violations.is_empty(), "sound index flagged: {violations:?}");
    }

    #[test]
    fn validate_detects_corruption() {
        use crate::validate::InvariantViolation as V;
        let store = clustered_store(150, 4, 5, 9);
        let sound = Ivf::build(
            &store,
            &IvfParams {
                nlist: 10,
                ..Default::default()
            },
        );

        // A vector moved to the wrong cell: misassigned AND (since it now
        // appears twice) a broken partition.
        let mut ivf = sound.clone();
        let moved = ivf.cells[0][0];
        ivf.cells[1].push(moved);
        let v = ivf.validate(&store);
        assert!(
            v.iter().any(|x| matches!(x, V::BrokenPartition { .. })),
            "{v:?}"
        );

        // A vector dropped from its cell: partition hole.
        let mut ivf = sound.clone();
        ivf.cells[0].remove(0);
        assert!(ivf
            .validate(&store)
            .iter()
            .any(|x| matches!(x, V::BrokenPartition { .. })));

        // An out-of-range member id.
        let mut ivf = sound.clone();
        ivf.cells[2].push(9_999);
        assert!(ivf
            .validate(&store)
            .iter()
            .any(|x| matches!(x, V::IdOutOfRange { id: 9_999, .. })));

        // A perturbed centroid: its members are no longer nearest to it.
        let mut ivf = sound.clone();
        for x in &mut ivf.centroids[0..4] {
            *x += 100.0;
        }
        assert!(ivf
            .validate(&store)
            .iter()
            .any(|x| matches!(x, V::MisassignedCell { .. })));

        // A NaN centroid component.
        let mut ivf = sound.clone();
        ivf.centroids[5] = f32::NAN;
        assert!(ivf
            .validate(&store)
            .iter()
            .any(|x| matches!(x, V::NonFinite { .. })));

        // A store of the wrong shape.
        let other = clustered_store(40, 4, 2, 10);
        assert!(sound
            .validate(&other)
            .iter()
            .any(|x| matches!(x, V::SizeMismatch { .. })));
    }
}
