//! # mqa-graph
//!
//! The navigation-graph index framework of MQA (the paper's *Index
//! Construction* component): a pluggable family of proximity graphs over a
//! vector store, a shared beam-search routine with early-abandon distance
//! evaluation, and the **unified multi-vector navigation graph** that makes
//! multi-modal search merging-free.
//!
//! ## Index family
//!
//! The configuration panel's "index" dropdown maps to
//! [`IndexAlgorithm`]:
//!
//! * [`hnsw`] — Hierarchical Navigable Small World graphs;
//! * [`nsg`] — Navigating Spreading-out Graphs (kNN-graph + MRNG pruning +
//!   connectivity repair, medoid entry);
//! * [`vamana`] — the DiskANN graph (random init + α-robust pruning);
//! * [`flat`] — exact brute-force scan (baseline and ground truth);
//! * [`starling`] — a page-clustered, I/O-counting layout wrapper
//!   reproducing the disk-resident design of the Starling paper (reference 9).
//!
//! NSG and Vamana are expressed as instances of the five-stage construction
//! pipeline in [`pipeline`] (initialization → candidate acquisition →
//! neighbour selection → connectivity repair → entry-point selection),
//! mirroring the paper's CGraph-based decomposition; the stages are plain
//! function calls, one `graph.build.*` span each — that pipeline is the
//! backend API a custom graph comes in through. HNSW's layered structure
//! is built directly. Every built structure is one [`BuiltGraph`]: it is
//! searched through [`BuiltGraph::search`], the one dispatcher over the
//! families, and grows and compacts in place.
//!
//! Construction pays for each distance once. Every edge is stored with its
//! distance from its vertex ([`Adjacency`]), passed in by whoever made it:
//! selection returns its picks with their distances, and a reverse edge
//! carries the forward one (`l2_sq` is symmetric to the bit). So when a
//! reverse edge meets a list at its degree bound, the re-prune
//! ([`prune::Reprune`]) ranks the new edge against the runs the list's
//! records describe — what the prune that installed it kept and, under
//! HNSW, back-filled — at their stored distances, copies what the records
//! decide and spends evaluations only on the dominance tests that they do
//! not settle; the α rule tests the latest pick first. Every link, repair
//! attachment and rewired vertex adds its evaluations to the
//! `graph.construct.distance_evals` counter and its re-prunes to
//! `graph.construct.reprunes`. The distances are not
//! persisted: [`BuiltGraph::restore_distances`] recomputes them when a
//! snapshot is restored.
//!
//! ## Unified multi-vector index
//!
//! [`unified::UnifiedIndex`] assigns *multiple vectors per object* to one
//! graph: edges are chosen under the fused weighted distance (learned
//! weights scale each modality block by `sqrt(w_m)`, reducing fused L2 to
//! plain L2 — see `mqa_vector::Weights::scale_concat`), and queries
//! traverse the graph once, evaluating fused distances incrementally with
//! early abandonment ([`mqa_vector::FusedScanner`]). No per-modality result
//! merging ever happens — the "merging-free search" of the paper.
//!
//! Both mechanisms hold for L2 only — the `sqrt(w_m)` reduction needs a
//! sum of squared block differences, and abandoning a partial sum needs
//! every term non-negative — so every build, repair, prune, validator and
//! search here computes squared L2 (`mqa_vector::ops::l2_sq`) and takes no
//! metric argument.

pub mod adjacency;
pub mod flat;
pub mod hnsw;
pub mod knn;
pub mod live;
pub mod nsg;
pub mod persist;
pub mod pipeline;
mod pool;
pub mod prune;
pub mod scratch;
pub mod search;
pub mod starling;
pub mod traits;
pub mod unified;
pub mod util;
pub mod validate;
pub mod vamana;
#[cfg(test)]
mod walk_oracle;

pub use adjacency::Adjacency;
pub use live::{MutationError, MutationReport, SnapshotCell, SnapshotGuard, Tombstones};
pub use persist::UnifiedSnapshot;
pub use pipeline::{BuildReport, BuiltGraph, IndexAlgorithm};
pub use scratch::{with_pooled, SearchScratch, VisitedSet};
pub use search::{beam_search, SearchOutput, SearchStats};
pub use starling::{DeviceProfile, PageLayout, PagedIndex, PqPagedIndex};
pub use traits::{DistanceFn, FlatDistance, GraphError, VectorIndex};
pub use unified::UnifiedIndex;
pub use validate::InvariantViolation;
