//! # mqa-benchmark
//!
//! The repository's benchmark: four cycle-structured workloads
//! (`dialogue`, `engine_pipelined`, `mutate`, `paged_spill`) that drive
//! only public functions of the MQA crates from one driver thread, report
//! eight end-to-end metrics as **best-round** values that repeat on a
//! loud shared host, and — in a separate traced run — a per-layer table
//! timed from outside around each public call.
//!
//! The design, the host-noise measurements behind it and the layer →
//! end-to-end table are in this crate's `README.md`; the declared surface
//! (`BENCHMARK.json`) is rendered from [`manifest`].

pub mod blocks;
pub mod cli;
pub mod inputs;
pub mod layers;
pub mod manifest;
pub mod report;
pub mod span;
pub mod stats;
pub mod system;
pub mod workload;
