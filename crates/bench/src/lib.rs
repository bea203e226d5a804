//! # mqa-bench
//!
//! Shared harness utilities for the experiment binaries (`src/bin/fig*`,
//! `src/bin/exp*`). The per-experiment index — which binary regenerates
//! which figure/claim of the paper — lives in `DESIGN.md` §5; measured
//! outputs are recorded in `EXPERIMENTS.md`.
//!
//! Every harness is deterministic: corpora, workloads, and models all
//! derive from fixed seeds, so reruns reproduce the recorded numbers up to
//! wall-clock jitter.

pub mod protocol;
pub mod setup;
pub mod table;

pub use protocol::{two_round, RoundScores};
pub use setup::{build_frameworks, build_must_with, encode, Frameworks, SetupParams};
pub use table::Table;
