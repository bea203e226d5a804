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
//! and IVF's cells are built directly. Every built structure is one
//! [`BuiltGraph`] and is searched through [`BuiltGraph::search`], the one
//! dispatcher over the families.
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

pub mod adjacency;
pub mod flat;
pub mod hnsw;
pub mod ivf;
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
