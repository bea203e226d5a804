//! # mqa-bench
//!
//! The one harness of the paper's experiments, shared by the experiment
//! binaries (`src/bin/fig*`, `src/bin/exp*`) and the root Figure-5 suite
//! (`tests/framework_behaviour.rs`): [`setup`] runs a generated corpus
//! through the system's preprocessing and representation components and
//! builds MUST, MR and JE over it, [`protocol`] is the two-round protocol
//! of Figures 4 and 5, and [`paged`] is the paged fixture and worker-pool
//! pass of E12 and E13. `DESIGN.md` §5 says which binary regenerates which
//! figure or claim; `EXPERIMENTS.md` records what they measured.
//!
//! Every harness is deterministic: corpora, workloads, and models all
//! derive from fixed seeds, so reruns reproduce the recorded numbers up to
//! wall-clock jitter.

pub mod paged;
pub mod protocol;
pub mod setup;
pub mod table;

pub use paged::{PagedFixture, Pass};
pub use protocol::{two_round, RoundScores};
pub use setup::{build_frameworks, encode, Encoded, Frameworks, SetupParams};
pub use table::Table;
