//! # mqa-vector
//!
//! Vector substrate for the MQA system: dense `f32` vectors, the L2
//! distance, multi-vector (multi-modal) objects, weighted fused distances,
//! and the *incremental scanning* (early-abandon) kernel that the paper's
//! Query Execution component uses to skip unnecessary distance computation.
//!
//! Everything above this crate — graph indexes, retrieval frameworks, the
//! coordinator — manipulates vectors exclusively through the types defined
//! here, which keeps the numeric kernels in one place and makes the pruning
//! counters (used by experiment E8) globally consistent.
//!
//! ## Layout
//!
//! * [`metric`] — the one distance, squared L2 ([`Metric::L2`], computed by
//!   [`ops::l2_sq`]): the √w block scaling and early abandonment both rest
//!   on it.
//! * [`ops`] — elementwise vector helpers (norms, axpy, normalization).
//! * [`multivec`] — [`MultiVector`] objects, the modality [`Schema`], and
//!   per-modality [`Weights`].
//! * [`scan`] — [`FusedScanner`]: fused weighted distance with early
//!   abandonment and computation counters.
//! * [`store`] — segmented, copy-on-write [`VectorStore`] /
//!   [`MultiVectorStore`].
//! * [`topk`] — bounded top-k collector and the [`Candidate`] ordering used
//!   by every search routine in the workspace.
//! * [`cast`] — checked narrowing conversions (the one file exempt from
//!   the `no-lossy-cast` serving-path lint).

pub mod cast;
pub mod metric;
pub mod multivec;
pub mod ops;
pub mod pq;
pub mod scan;
pub mod store;
pub mod topk;

pub use metric::Metric;
pub use multivec::{Modality, ModalityKind, MultiVector, Schema, Weights};
pub use pq::{PqCodebook, PqCodes, PqParams, PqTable};
pub use scan::{FusedScanner, ScanStats};
pub use store::{MultiVectorStore, StoreViolation, VectorStore};
pub use topk::{Candidate, TopK};

/// Identifier of an object inside a store / knowledge base / graph index.
///
/// Stores hand out dense ids in insertion order, which lets indexes use
/// `Vec`-backed adjacency instead of hash maps.
pub type VecId = u32;

/// Dimensionality of a vector space.
pub type Dim = usize;
