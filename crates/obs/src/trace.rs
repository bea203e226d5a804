//! Per-query distributed tracing: causal chains across the engine's
//! thread boundary.
//!
//! The aggregate [`crate::metrics::Registry`] answers "how slow is the
//! system"; this module answers "why was *this* turn slow". A
//! [`TraceContext`] is minted at the serving entry point (a dialogue turn
//! or a raw engine submission), carried inside the job closure across the
//! bounded queue, and re-established on the worker thread with
//! [`TraceContext::adopt`], so every span that closes anywhere on the
//! query's path lands in one [`QueryTrace`] record: queue wait, worker id,
//! per-stage retrieval spans, graph-walk work, result-cache outcome, and
//! mock-LLM token counts.
//!
//! # Context propagation rules
//!
//! - [`begin`] installs the new context in a thread-local slot; spans that
//!   close on that thread while the handle lives are recorded as stages.
//! - The context is `Clone + Send`; the engine moves a clone into the job
//!   closure. On the worker, [`TraceContext::adopt`] installs it for the
//!   duration of the job (restoring the previous value on drop).
//! - Exactly one [`QueryTrace`] is emitted per handle, when the *owning*
//!   [`TraceHandle`] drops: outcome `"completed"` if
//!   [`TraceHandle::complete`] was called, `"canceled"` otherwise — a
//!   worker panic or an abandoned job unwinds the handle without
//!   completing it, so the trace is still emitted, terminated as canceled.
//!
//! # Sampling policy
//!
//! The collector is bounded: it retains full traces for
//! the slowest-N queries (by end-to-end duration) plus a deterministic
//! 1-in-K sample decided by [`sample_hit`] — a `SplitMix64` draw keyed on
//! `(seed, sequence number)`, so a fixed seed reproduces the exact same
//! retained set for the same workload, regardless of wall-clock jitter.
//! Everything else is dropped after updating the `obs.trace.*` counters.

use mqa_rng::SplitMix64;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Hard cap on recorded stages per trace (bounded memory; the serving
/// pipeline closes ~15 spans per turn, so 256 leaves generous headroom).
pub const MAX_STAGES: usize = 256;

/// Locks `m`, recovering from poisoning: trace state is append-only
/// bookkeeping, so data written before a panic elsewhere is still safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The trace the current thread is contributing to, if any.
    static CURRENT: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
    /// This thread's engine worker id (`u64::MAX` = not a worker thread).
    static WORKER: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// The five per-query pipeline milestones a complete trace must cover,
/// each backed by the span names that can witness it (alternatives per
/// retrieval framework). Mirrors `report::MILESTONE_SPANS`, but for the
/// *query-time* pipeline rather than the build-time one.
pub const QUERY_MILESTONES: [(&str, &[&str]); 5] = [
    ("Query Turn", &["core.turn", "engine.query.service"]),
    (
        "Encoding",
        &[
            "retrieval.must.encode",
            "retrieval.mr.encode",
            "retrieval.je.encode",
        ],
    ),
    (
        "Fusion",
        &[
            "retrieval.must.weight_fuse",
            "retrieval.mr.merge",
            "retrieval.je.encode",
        ],
    ),
    (
        "Index Search",
        &[
            "retrieval.must.index_search",
            "retrieval.mr.channel_search",
            "retrieval.je.index_search",
        ],
    ),
    ("Answer Generation", &["core.turn.generate", "llm.generate"]),
];

/// Milestones (by display name) that `trace` does *not* cover. A trace
/// served from the result cache legitimately skips Encoding/Fusion/Index
/// Search; an engine-submitted query must cover all five.
pub fn missing_milestones(trace: &QueryTrace) -> Vec<&'static str> {
    QUERY_MILESTONES
        .iter()
        .filter(|(_, witnesses)| {
            !witnesses
                .iter()
                .any(|w| trace.root == *w || trace.stages.iter().any(|s| s.name == *w))
        })
        .map(|(name, _)| *name)
        .collect()
}

/// One closed span attributed to a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Span name (`<crate>.<component>.<metric>`).
    pub name: String,
    /// Parent span name (empty for the trace root's direct children).
    pub parent: String,
    /// Stage duration in microseconds.
    pub dur_us: u64,
}

/// The complete record of one query's path through the system.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryTrace {
    /// Trace id (allocated from the span id space).
    pub trace_id: u64,
    /// Root span name the trace was begun under.
    pub root: String,
    /// Collector sequence number (1-based, per [`reset`]).
    pub seq: u64,
    /// Whether the deterministic 1-in-K sampler retained this trace.
    pub sampled: bool,
    /// `"completed"` or `"canceled"`.
    pub outcome: String,
    /// End-to-end duration from [`begin`] to handle drop, microseconds.
    pub total_us: u64,
    /// Time the job spent queued before a worker picked it up.
    pub queue_wait_us: u64,
    /// Time the worker spent servicing the job.
    pub service_us: u64,
    /// Submit-to-resolve duration measured on the engine's clock
    /// (`queue_wait_us + service_us` up to scheduling noise).
    pub engine_total_us: u64,
    /// Worker thread that serviced the job, if it crossed the pool.
    pub worker: Option<u64>,
    /// Result-cache outcome: `None` = no cache consulted.
    pub cache_hit: Option<bool>,
    /// Whether the engine refused the job and the serial path answered.
    pub serial_fallback: bool,
    /// Retrieval framework that served the query (empty if none noted).
    pub framework: String,
    /// Graph-walk hops.
    pub hops: u64,
    /// Distance evaluations.
    pub evals: u64,
    /// Pruned candidates.
    pub pruned: u64,
    /// Simulated device pages read (Starling paged search).
    pub pages_read: u64,
    /// Pages served by the shared page cache.
    pub pages_cached: u64,
    /// Times the query waited for the device: one per submission — a
    /// hop's pages and the pages it reads ahead — that missed at least
    /// one page.
    pub device_waits: u64,
    /// Mock-LLM prompt tokens consumed by the turn.
    pub prompt_tokens: u64,
    /// Mock-LLM completion tokens produced by the turn.
    pub completion_tokens: u64,
    /// Index publication epoch the query searched under (0 = as built;
    /// each mutation batch publishes one epoch).
    pub index_epoch: u64,
    /// Whether a mutation batch was being applied while the query ran —
    /// distinguishes quiesced queries from concurrent-mutation ones when
    /// attributing tail latency.
    pub mutation_in_progress: bool,
    /// Beam width the index search finished with (0 = no index search
    /// noted). Above the configured `ef` it is the tombstone allowance —
    /// pending deletes widen the beam by their share of the reachable
    /// vertices — or a widening retry after too few live results.
    pub beam_width: u64,
    /// The per-query deadline budget in microseconds (0 = no deadline).
    /// There is no per-batch scheduler field beside it: the engine has
    /// one queue, so `queue_wait_us` is the query's whole wait.
    pub deadline_us: u64,
    /// Closed spans attributed to the trace, in close order.
    pub stages: Vec<StageRecord>,
    /// Stages discarded once [`MAX_STAGES`] was reached.
    pub stages_dropped: u64,
}

/// Mutable trace state shared by every thread contributing to the query:
/// the record it accumulates (identity, outcome and end-to-end duration
/// are stamped at finalization) and whether the query was answered.
#[derive(Default)]
struct TraceInner {
    trace: QueryTrace,
    completed: bool,
}

/// A cheaply-clonable reference to one in-flight trace; move clones into
/// job closures to carry the causal chain across thread boundaries.
#[derive(Clone)]
pub struct TraceContext {
    id: u64,
    root: Arc<str>,
    inner: Arc<Mutex<TraceInner>>,
}

impl TraceContext {
    /// The trace id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The root span name the trace was begun under.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Installs this context as the current thread's trace for the guard's
    /// lifetime (worker-side re-establishment), recording the thread's
    /// worker id if [`set_worker_id`] was called.
    pub fn adopt(&self) -> AdoptGuard {
        let worker = WORKER.with(Cell::get);
        if worker != u64::MAX {
            lock(&self.inner).trace.worker = Some(worker);
        }
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        AdoptGuard { prev }
    }

    fn push_stage(&self, name: &str, parent: Option<&str>, dur_us: u64) {
        let dropped = {
            let mut inner = lock(&self.inner);
            let trace = &mut inner.trace;
            if trace.stages.len() >= MAX_STAGES {
                trace.stages_dropped += 1;
                true
            } else {
                trace.stages.push(StageRecord {
                    // ALLOC: stage attribution copies names only while a trace is active.
                    name: name.to_string(),
                    parent: parent.unwrap_or("").to_string(),
                    dur_us,
                });
                false
            }
        };
        if dropped {
            crate::counter("obs.trace.stages_dropped").inc();
        }
    }
}

/// Restores the previously-current trace context on drop.
#[must_use = "dropping immediately un-adopts the trace before any work runs"]
pub struct AdoptGuard {
    prev: Option<TraceContext>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// The owning handle of one trace. Dropping it finalizes the trace and
/// offers it to the collector — exactly once, on any path including
/// unwinding, so a panicked job still emits a canceled trace.
#[must_use = "dropping immediately finalizes an empty trace"]
pub struct TraceHandle {
    ctx: TraceContext,
    start: Instant,
    installed: bool,
    prev: Option<TraceContext>,
    finalized: bool,
}

impl TraceHandle {
    /// A clone of the underlying context, for carrying across threads.
    pub fn context(&self) -> TraceContext {
        self.ctx.clone()
    }

    /// The trace id.
    pub fn id(&self) -> u64 {
        self.ctx.id
    }

    /// Marks the query as successfully answered; without this the trace
    /// finalizes with outcome `"canceled"`.
    pub fn complete(&self) {
        lock(&self.ctx.inner).completed = true;
    }

    /// Marks completion and finalizes immediately (the trace is visible in
    /// the collector when this returns).
    pub fn finish(self) {
        self.complete();
    }

    fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        if self.installed {
            let prev = self.prev.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
        let total_us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let (mut trace, completed) = {
            let mut inner = lock(&self.ctx.inner);
            (std::mem::take(&mut inner.trace), inner.completed)
        };
        trace.trace_id = self.ctx.id;
        trace.root = self.ctx.root.to_string();
        trace.outcome = if completed { "completed" } else { "canceled" }.to_string();
        trace.total_us = total_us;
        if completed {
            crate::counter("obs.trace.completed").inc();
        } else {
            crate::counter("obs.trace.canceled").inc();
        }
        offer(trace);
    }
}

impl Drop for TraceHandle {
    fn drop(&mut self) {
        self.finalize();
    }
}

/// Collector sizing and sampling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Full traces retained for the slowest-N queries.
    pub slowest: usize,
    /// Deterministic 1-in-K sampling period (0 disables sampling).
    pub sample_every: u64,
    /// Seed of the sampling decision stream.
    pub seed: u64,
    /// Cap on retained sampled traces (bounded memory).
    pub max_sampled: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            slowest: 8,
            sample_every: 16,
            seed: 0x5EED_CAFE,
            max_sampled: 256,
        }
    }
}

struct CollectorState {
    config: TraceConfig,
    seq: u64,
    slowest: Vec<QueryTrace>,
    sampled: Vec<QueryTrace>,
}

fn collector() -> &'static Mutex<CollectorState> {
    static COLLECTOR: OnceLock<Mutex<CollectorState>> = OnceLock::new();
    COLLECTOR.get_or_init(|| {
        Mutex::new(CollectorState {
            config: TraceConfig::default(),
            seq: 0,
            slowest: Vec::new(),
            sampled: Vec::new(),
        })
    })
}

/// Replaces the collector configuration and clears all retained traces
/// and the sampling sequence.
pub fn configure(config: TraceConfig) {
    let mut st = lock(collector());
    st.config = config;
    st.seq = 0;
    st.slowest.clear();
    st.sampled.clear();
}

/// Clears retained traces and the sampling sequence, keeping the config.
pub fn reset() {
    let mut st = lock(collector());
    st.seq = 0;
    st.slowest.clear();
    st.sampled.clear();
}

/// Turns tracing on. Off by default: with tracing off, [`begin`] returns
/// `None` and the per-span bridge is a thread-local `None` check.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns tracing off (in-flight handles still finalize).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The deterministic 1-in-`every` sampling decision for trace number
/// `seq` under `seed`. Pure, so gates can recompute and verify it.
pub fn sample_hit(seed: u64, seq: u64, every: u64) -> bool {
    if every == 0 {
        return false;
    }
    let mut rng = SplitMix64::new(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64().checked_rem(every) == Some(0)
}

/// Begins a trace rooted at `root` and installs it as the current
/// thread's trace. Returns `None` when tracing is disabled.
pub fn begin(root: &str) -> Option<TraceHandle> {
    begin_inner(root, true)
}

/// Begins a trace without installing it on this thread — for contexts
/// that are immediately moved into a job closure (raw engine submits).
pub fn begin_detached(root: &str) -> Option<TraceHandle> {
    begin_inner(root, false)
}

fn begin_inner(root: &str, install: bool) -> Option<TraceHandle> {
    if !enabled() {
        return None;
    }
    let ctx = TraceContext {
        id: crate::span::next_id(),
        // ALLOC: per-trace context, minted only when tracing is enabled (checked above).
        root: Arc::from(root),
        inner: Arc::new(Mutex::new(TraceInner::default())),
    };
    crate::counter("obs.trace.started").inc();
    let prev = if install {
        CURRENT.with(|c| c.borrow_mut().replace(ctx.clone()))
    } else {
        None
    };
    Some(TraceHandle {
        ctx,
        start: Instant::now(),
        installed: install,
        prev,
        finalized: false,
    })
}

/// The current thread's trace context, if one is installed.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Declares this thread an engine worker; [`TraceContext::adopt`] stamps
/// the id into every trace the thread services.
pub fn set_worker_id(id: u64) {
    WORKER.with(|w| w.set(id));
}

/// Bridge from [`crate::span`]: attributes a closed span to the current
/// thread's trace, if one is installed.
pub(crate) fn record_stage(name: &str, parent: Option<&str>, dur_us: u64) {
    // Clone out of the thread-local before locking the trace, so a span
    // closing inside trace machinery can never re-entrantly borrow.
    let ctx = current();
    if let Some(ctx) = ctx {
        ctx.push_stage(name, parent, dur_us);
    }
}

fn with_current<F: FnOnce(&mut QueryTrace)>(f: F) {
    let ctx = current();
    if let Some(ctx) = ctx {
        f(&mut lock(&ctx.inner).trace);
    }
}

/// Records how long the query waited in the submission queue.
pub fn note_queue_wait(us: u64) {
    with_current(|i| i.queue_wait_us = us);
}

/// Records the worker-side service duration.
pub fn note_service(us: u64) {
    with_current(|i| i.service_us = us);
}

/// Records the submit-to-resolve duration on the engine's own clock.
pub fn note_engine_total(us: u64) {
    with_current(|i| i.engine_total_us = us);
}

/// Records the result-cache outcome of the turn.
pub fn note_cache(hit: bool) {
    with_current(|i| i.cache_hit = Some(hit));
}

/// Records that the engine refused the job and the serial path answered.
pub fn note_serial_fallback() {
    with_current(|i| i.serial_fallback = true);
}

/// Records the retrieval framework serving the query (first writer wins).
pub fn note_framework(name: &str) {
    with_current(|i| {
        if i.framework.is_empty() {
            // ALLOC: trace attribution; with_current no-ops unless a trace is active.
            i.framework = name.to_string();
        }
    });
}

/// Accumulates mock-LLM token usage into the trace.
pub fn add_tokens(prompt: u64, completion: u64) {
    with_current(|i| {
        i.prompt_tokens += prompt;
        i.completion_tokens += completion;
    });
}

/// Records which published index generation the query searched and
/// whether a mutation batch was concurrently in flight. `mutating` is
/// sticky (any search leg under mutation marks the whole trace); the
/// epoch takes the last writer, which for a single-index query is the
/// only one.
pub fn note_index_state(epoch: u64, mutating: bool) {
    with_current(|i| {
        i.index_epoch = epoch;
        i.mutation_in_progress |= mutating;
    });
}

/// Records the beam width the query's index search finished with (last
/// writer wins, like the epoch).
pub fn note_beam_width(width: u64) {
    with_current(|i| i.beam_width = width);
}

/// Records the query's deadline budget (microseconds) on the trace.
pub fn note_deadline_budget(budget_us: u64) {
    with_current(|i| i.deadline_us = budget_us);
}

/// Accumulates graph-walk work (`SearchStats`) into the trace.
pub fn add_search_work(
    hops: u64,
    evals: u64,
    pruned: u64,
    pages_read: u64,
    pages_cached: u64,
    device_waits: u64,
) {
    with_current(|i| {
        i.hops += hops;
        i.evals += evals;
        i.pruned += pruned;
        i.pages_read += pages_read;
        i.pages_cached += pages_cached;
        i.device_waits += device_waits;
    });
}

fn offer(mut trace: QueryTrace) {
    let sampled_kept;
    let sampled_dropped;
    {
        let mut st = lock(collector());
        st.seq += 1;
        trace.seq = st.seq;
        trace.sampled = sample_hit(st.config.seed, st.seq, st.config.sample_every);
        sampled_kept = trace.sampled && st.sampled.len() < st.config.max_sampled;
        sampled_dropped = trace.sampled && !sampled_kept;
        if sampled_kept {
            st.sampled.push(trace.clone());
        }
        let cap = st.config.slowest;
        if cap > 0 {
            st.slowest.push(trace);
            st.slowest
                .sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.seq.cmp(&b.seq)));
            st.slowest.truncate(cap);
        }
    }
    if sampled_kept {
        crate::counter("obs.trace.sampled").inc();
    }
    if sampled_dropped {
        crate::counter("obs.trace.sampled_dropped").inc();
    }
}

/// Number of traces finalized since the last [`reset`]/[`configure`].
pub fn finalized_count() -> u64 {
    lock(collector()).seq
}

/// The retained slowest-N traces, slowest first.
pub fn slowest_traces() -> Vec<QueryTrace> {
    lock(collector()).slowest.clone()
}

/// The retained 1-in-K sampled traces, in arrival order.
pub fn sampled_traces() -> Vec<QueryTrace> {
    lock(collector()).sampled.clone()
}

/// Union of slowest-N and sampled traces, deduplicated, in arrival order.
pub fn snapshot_traces() -> Vec<QueryTrace> {
    let (mut all, sampled) = {
        let st = lock(collector());
        (st.slowest.clone(), st.sampled.clone())
    };
    for t in sampled {
        if !all.iter().any(|s| s.trace_id == t.trace_id) {
            all.push(t);
        }
    }
    all.sort_by_key(|t| t.seq);
    all
}

/// Renders every retained trace as JSONL (one trace per line).
pub fn to_jsonl() -> String {
    let mut out = String::new();
    for trace in snapshot_traces() {
        if let Ok(line) = serde_json::to_string(&trace) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collector state is global; tests that touch it serialize here.
    fn guard() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        lock(GATE.get_or_init(|| Mutex::new(())))
    }

    fn test_config(slowest: usize, every: u64) -> TraceConfig {
        TraceConfig {
            slowest,
            sample_every: every,
            seed: 77,
            max_sampled: 64,
        }
    }

    #[test]
    fn disabled_tracing_begins_nothing() {
        let _g = guard();
        disable();
        assert!(begin("test.trace.root").is_none());
        assert!(current().is_none());
    }

    #[test]
    fn completed_trace_carries_stages_and_notes() {
        let _g = guard();
        enable();
        configure(test_config(8, 0));
        {
            let handle = begin("core.turn").expect("enabled");
            let inner = crate::span("test.trace.stage");
            drop(inner);
            note_queue_wait(11);
            note_service(22);
            note_cache(false);
            note_framework("must");
            add_tokens(5, 7);
            add_search_work(1, 2, 3, 4, 5, 2);
            note_index_state(9, true);
            note_beam_width(77);
            handle.finish();
        }
        let traces = snapshot_traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.outcome, "completed");
        assert_eq!(t.root, "core.turn");
        assert_eq!(t.queue_wait_us, 11);
        assert_eq!(t.service_us, 22);
        assert_eq!(t.cache_hit, Some(false));
        assert_eq!(t.framework, "must");
        assert_eq!((t.prompt_tokens, t.completion_tokens), (5, 7));
        assert_eq!((t.hops, t.evals, t.pruned), (1, 2, 3));
        assert_eq!((t.pages_read, t.pages_cached, t.device_waits), (4, 5, 2));
        assert_eq!((t.index_epoch, t.mutation_in_progress), (9, true));
        assert_eq!(t.beam_width, 77);
        assert!(t.stages.iter().any(|s| s.name == "test.trace.stage"));
        assert!(current().is_none(), "handle drop must uninstall");
        disable();
    }

    #[test]
    fn dropped_handle_without_complete_is_canceled() {
        let _g = guard();
        enable();
        configure(test_config(8, 0));
        drop(begin("core.turn"));
        let traces = snapshot_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].outcome, "canceled");
        disable();
    }

    #[test]
    fn adopt_carries_the_chain_across_a_thread() {
        let _g = guard();
        enable();
        configure(test_config(8, 0));
        {
            let handle = begin_detached("engine.query").expect("enabled");
            let ctx = handle.context();
            std::thread::spawn(move || {
                set_worker_id(3);
                let adopted = ctx.adopt();
                let span = crate::span_under("engine.query.service", ctx.root());
                drop(span);
                note_service(9);
                drop(adopted);
                assert!(current().is_none(), "adopt guard must restore");
            })
            .join()
            .expect("worker thread");
            handle.finish();
        }
        let traces = snapshot_traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.worker, Some(3));
        assert_eq!(t.service_us, 9);
        assert!(t.stages.iter().any(|s| s.name == "engine.query.service"));
        disable();
    }

    #[test]
    fn stage_cap_bounds_memory() {
        let _g = guard();
        enable();
        configure(test_config(4, 0));
        {
            let handle = begin("core.turn").expect("enabled");
            for _ in 0..(MAX_STAGES + 5) {
                drop(crate::span("test.trace.flood"));
            }
            handle.finish();
        }
        let traces = snapshot_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].stages.len(), MAX_STAGES);
        assert_eq!(traces[0].stages_dropped, 5);
        disable();
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_one_in_k() {
        for seed in [1u64, 42, 999] {
            let hits: Vec<u64> = (1..=4000).filter(|&s| sample_hit(seed, s, 4)).collect();
            let again: Vec<u64> = (1..=4000).filter(|&s| sample_hit(seed, s, 4)).collect();
            assert_eq!(hits, again, "same seed must reproduce decisions");
            assert!(
                hits.len() > 600 && hits.len() < 1400,
                "seed {seed}: {} hits out of 4000 for 1-in-4",
                hits.len()
            );
        }
        assert!(!sample_hit(1, 1, 0), "period 0 disables sampling");
        assert!(sample_hit(7, 3, 1), "period 1 samples everything");
        // Different seeds disagree somewhere.
        assert!((1..=100).any(|s| sample_hit(1, s, 4) != sample_hit(2, s, 4)));
    }

    #[test]
    fn collector_retains_slowest_n_and_sampled() {
        let _g = guard();
        configure(test_config(2, 3));
        let seed = 77;
        let mut expected_sampled = 0;
        for i in 0..20u64 {
            let trace = QueryTrace {
                trace_id: 1000 + i,
                root: "core.turn".into(),
                outcome: "completed".into(),
                total_us: 10 * (i + 1),
                ..QueryTrace::default()
            };
            offer(trace);
            if sample_hit(seed, i + 1, 3) {
                expected_sampled += 1;
            }
        }
        let slow = slowest_traces();
        assert_eq!(slow.len(), 2, "slowest-N cap");
        assert_eq!(slow[0].total_us, 200, "slowest first");
        assert_eq!(slow[1].total_us, 190);
        let sampled = sampled_traces();
        assert_eq!(sampled.len(), expected_sampled);
        for t in &sampled {
            assert!(sample_hit(seed, t.seq, 3), "seq {} not a sample hit", t.seq);
        }
        assert_eq!(finalized_count(), 20);
        let jsonl = to_jsonl();
        assert_eq!(jsonl.lines().count(), snapshot_traces().len());
        reset();
        assert!(snapshot_traces().is_empty());
        assert_eq!(finalized_count(), 0);
    }

    #[test]
    fn milestone_coverage_checks_witness_spans() {
        let stage = |name: &str| StageRecord {
            name: name.into(),
            parent: String::new(),
            dur_us: 1,
        };
        let mut trace = QueryTrace {
            trace_id: 1,
            root: "core.turn".into(),
            seq: 1,
            outcome: "completed".into(),
            total_us: 1,
            stages: vec![
                stage("retrieval.must.encode"),
                stage("retrieval.must.weight_fuse"),
                stage("retrieval.must.index_search"),
                stage("llm.generate"),
            ],
            ..QueryTrace::default()
        };
        assert!(missing_milestones(&trace).is_empty());
        trace.stages.retain(|s| s.name != "retrieval.must.encode");
        assert_eq!(missing_milestones(&trace), vec!["Encoding"]);
    }

    #[test]
    fn trace_serializes_and_roundtrips() {
        let trace = QueryTrace {
            trace_id: 9,
            root: "core.turn".into(),
            seq: 2,
            sampled: true,
            outcome: "completed".into(),
            total_us: 123,
            queue_wait_us: 4,
            service_us: 100,
            engine_total_us: 104,
            worker: Some(1),
            cache_hit: Some(true),
            framework: "must".into(),
            hops: 1,
            evals: 2,
            pruned: 3,
            pages_read: 4,
            pages_cached: 5,
            device_waits: 2,
            prompt_tokens: 6,
            completion_tokens: 7,
            index_epoch: 3,
            mutation_in_progress: true,
            beam_width: 77,
            stages: vec![StageRecord {
                name: "core.turn".into(),
                parent: String::new(),
                dur_us: 123,
            }],
            ..QueryTrace::default()
        };
        let json = serde_json::to_string(&trace).expect("serialize trace");
        let back: QueryTrace = serde_json::from_str(&json).expect("parse trace");
        assert_eq!(back, trace);
    }
}
