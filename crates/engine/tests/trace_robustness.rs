//! Tracing under failure: a worker job that panics must still surface as
//! a finalized trace (outcome `"canceled"`), healthy jobs interleaved
//! with it must all get `"completed"` traces, and a panic must not poison
//! the worker's span stack — a leaked span guard from the dying job would
//! otherwise become the silent parent of every stage the next job records
//! on that thread (the regression `mqa_obs::span::reset_thread_stack`
//! guards against).

use mqa_engine::{EngineOptions, QueryEngine, TicketError};
use mqa_retrieval::{FrameworkKind, MultiModalQuery, RetrievalFramework, RetrievalOutput};
use mqa_vector::Candidate;
use std::sync::Arc;

/// The span a panicking job deliberately leaks (via `mem::forget`) to
/// model a guard stranded by an unwind-through-FFI or forgotten handle.
const LEAKED: &str = "test.leaked.span";

/// Panics on any query whose text is `"boom"` — after leaking a span
/// guard so the worker's thread-local span stack is left dirty.
struct Volatile;

impl RetrievalFramework for Volatile {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::Must
    }

    fn search(&self, query: &MultiModalQuery, k: usize, _ef: usize) -> RetrievalOutput {
        if query.text.as_deref() == Some("boom") {
            std::mem::forget(mqa_obs::span(LEAKED));
            panic!("injected job panic");
        }
        let _search = mqa_obs::span("retrieval.must.search");
        RetrievalOutput {
            results: vec![Candidate::new(k as u32, 0.0)],
            ..Default::default()
        }
    }

    fn describe(&self) -> String {
        "volatile traced probe".into()
    }
}

/// One test function: the trace collector is process-global, so keeping
/// the whole scenario in a single `#[test]` avoids cross-test races.
#[test]
fn panicking_jobs_yield_canceled_traces_and_do_not_poison_span_parents() {
    mqa_obs::trace::reset();
    mqa_obs::trace::configure(mqa_obs::TraceConfig {
        slowest: 64,
        sample_every: 1,
        seed: 7,
        max_sampled: 256,
    });
    mqa_obs::trace::enable();

    // One worker: every healthy job after a panic lands on the exact
    // thread the panicking job just dirtied.
    let engine = QueryEngine::new(
        Arc::new(Volatile),
        EngineOptions {
            workers: 1,
            queue_cap: 16,
            sched: None,
        },
    );
    let mut tickets = Vec::new();
    for i in 0..12u32 {
        let text = if i % 3 == 0 {
            "boom".into()
        } else {
            format!("q{i}")
        };
        tickets.push(engine.submit(MultiModalQuery::text(text), 4, 16).unwrap());
    }
    let mut canceled = 0usize;
    let mut answered = 0usize;
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Err(TicketError::Canceled) => {
                assert_eq!(i % 3, 0, "healthy query {i} was canceled");
                canceled += 1;
            }
            Ok(out) => {
                assert_eq!(out.ids(), vec![4]);
                answered += 1;
            }
            Err(e) => panic!("query {i}: unexpected error {e}"),
        }
    }
    assert_eq!(canceled, 4);
    assert_eq!(answered, 8);

    mqa_obs::trace::disable();
    let traces = mqa_obs::trace::snapshot_traces();
    let engine_traces: Vec<_> = traces.iter().filter(|t| t.root == "engine.query").collect();
    assert_eq!(
        engine_traces.len(),
        12,
        "every submitted ticket finalizes exactly one trace"
    );

    let canceled_traces = engine_traces
        .iter()
        .filter(|t| t.outcome == "canceled")
        .count();
    let completed_traces = engine_traces
        .iter()
        .filter(|t| t.outcome == "completed")
        .count();
    assert_eq!(canceled_traces, 4, "one canceled trace per panicked job");
    assert_eq!(completed_traces, 8, "one completed trace per healthy job");

    for t in &engine_traces {
        assert_eq!(t.worker, Some(0), "single-worker pool serviced the job");
        if t.outcome == "completed" {
            assert!(
                t.stages.iter().any(|s| s.name == "retrieval.must.search"),
                "healthy trace {} lost its search stage",
                t.trace_id
            );
        }
        // The span-stack regression proper: if the unwind left the
        // panicking job's forgotten guard on the worker's stack, stages
        // of *later* traces would be parented under it.
        for s in &t.stages {
            assert_ne!(
                s.parent, LEAKED,
                "trace {} stage `{}` is parented under a span leaked by a panicked job",
                t.trace_id, s.name
            );
        }
    }
}
