//! `mqa-obs` — the workspace observability layer.
//!
//! Dependency-free (std plus the in-tree `compat/serde*` crates), so every
//! other crate can instrument itself without changing the hermetic build.
//! Four cooperating pieces:
//!
//! 1. **Metrics** ([`metrics`]): a global [`Registry`] of named counters,
//!    gauges, and log2-bucketed histograms. Recording is lock-cheap —
//!    handles hold `Arc<AtomicU64>`s, so hot loops never touch the registry
//!    mutex after the first lookup.
//! 2. **Spans** ([`span`]): RAII timing guards with parent/child nesting
//!    tracked on a per-thread stack. Closing a span folds its duration into
//!    a per-name histogram in the registry and into the active trace.
//! 3. **Traces** ([`trace`]): per-query causal chains carried across the
//!    engine's thread boundary, tail-sampled into a bounded collector
//!    (slowest-N plus a deterministic 1-in-K sample). Histogram buckets
//!    carry *exemplar* trace ids linking aggregates back to traces.
//! 4. **Exposition** ([`expo`], and the [`serve`] endpoint):
//!    Prometheus/OpenMetrics text rendering of a snapshot, with a
//!    validating parser used by tests and the `mqa-xtask trace` gate.
//!
//! Metric names follow `<crate>.<component>.<metric>` (see DESIGN.md §9).
//! The [`report`] module renders a registry snapshot as a human-readable
//! pipeline report with a per-milestone latency breakdown.
//!
//! ```
//! let _turn = mqa_obs::span("doc.example.turn");
//! mqa_obs::counter("doc.example.calls").inc();
//! let snap = mqa_obs::global().snapshot();
//! assert!(snap.counters.iter().any(|c| c.name == "doc.example.calls"));
//! ```

pub mod expo;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod span;
pub mod trace;

pub use metrics::{
    global, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramBucket,
    HistogramSnapshot, Registry, Snapshot, SpanSnapshot,
};
pub use span::{span, span_under, SpanGuard, Stopwatch};
pub use trace::{QueryTrace, StageRecord, TraceConfig, TraceContext, TraceHandle};

/// Shorthand for [`Registry::counter`] on the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Shorthand for [`Registry::gauge`] on the global registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Shorthand for [`Registry::histogram`] on the global registry.
pub fn histogram(name: &str) -> std::sync::Arc<Histogram> {
    global().histogram(name)
}
