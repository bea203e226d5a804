//! RAII timing spans with per-thread parent/child nesting.
//!
//! [`span`] opens a guard and pushes it on a thread-local stack; the guard
//! records its duration into the global registry on
//! [`SpanGuard::finish`] or on drop — including drops during
//! unwinding, so a task that returns `Err` (or panics) mid-span still
//! closes its spans in order.
//!
//! Work handed to fresh threads (the engine's workers) starts with an
//! empty stack; use [`span_under`] there to attach the span to its logical
//! parent by name.

use crate::metrics::global;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A span name: either a `&'static str` (the common case — every
/// fixed-name call site) or an owned `String` for genuinely dynamic names
/// (per-algorithm build spans). Taking `impl Into<SpanName>` instead of
/// `impl Into<String>` keeps static-name spans off the heap entirely:
/// opening and closing such a span performs no allocation.
pub type SpanName = Cow<'static, str>;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates the next id from the span id space (shared with trace ids,
/// so a trace id never collides with a span id).
pub(crate) fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Open spans on this thread, innermost last: `(id, name)`. Names are
    /// [`SpanName`]s, so pushing a static-name span clones a borrow, not a
    /// `String`.
    static STACK: RefCell<Vec<(u64, SpanName)>> = const { RefCell::new(Vec::new()) };
}

/// An open span; closing records its duration under its name.
///
/// Dropping the guard closes the span; call [`SpanGuard::finish`] to also
/// get the measured duration back.
#[must_use = "dropping immediately times nothing; bind to `_guard` or call finish()"]
pub struct SpanGuard {
    id: u64,
    name: SpanName,
    parent: Option<SpanName>,
    start: Instant,
    closed: bool,
}

/// Opens a span named `name` nested under the innermost open span on this
/// thread (a root span if none is open).
pub fn span(name: impl Into<SpanName>) -> SpanGuard {
    open(name.into(), None)
}

/// Opens a span with an explicit parent name, for work running on a thread
/// whose stack does not contain the logical parent (e.g. scoped workers).
pub fn span_under(name: impl Into<SpanName>, parent: &str) -> SpanGuard {
    // ALLOC: explicit parents are cross-thread attribution under active
    // tracing, which copies trace state by design; the common nested
    // `span()` path stays allocation-free.
    open(name.into(), Some(SpanName::Owned(parent.to_string())))
}

fn open(name: SpanName, explicit_parent: Option<SpanName>) -> SpanGuard {
    let id = next_id();
    let stack_parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let top = s.last().map(|(_, pname)| pname.clone());
        s.push((id, name.clone()));
        top
    });
    let parent = explicit_parent.or(stack_parent);
    SpanGuard {
        id,
        name,
        parent,
        start: Instant::now(),
        closed: false,
    }
}

impl SpanGuard {
    /// The span's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the span and returns its duration.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let dur = self.start.elapsed();
        if self.closed {
            return dur;
        }
        self.closed = true;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // rposition + truncate tolerates mis-nested closes: everything
            // opened above this span on the same thread is popped with it.
            if let Some(pos) = s.iter().rposition(|(id, _)| *id == self.id) {
                s.truncate(pos);
            }
        });
        let us = u64::try_from(dur.as_micros()).unwrap_or(u64::MAX);
        global().record_span(&self.name, self.parent.as_deref(), us);
        crate::trace::record_stage(&self.name, self.parent.as_deref(), us);
        dur
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.close();
        }
    }
}

/// Clears this thread's open-span stack, returning how many entries were
/// discarded.
///
/// Guards normally pop themselves even during unwinding, but a worker
/// that catches a job's panic (`catch_unwind`) can be left with stale
/// entries when the job leaked a guard (e.g. `mem::forget`) or panicked
/// between the stack push and guard construction. Those stale entries
/// would silently become the *parent* of every span the next job opens on
/// the same thread — call this after catching a job panic.
pub fn reset_thread_stack() -> usize {
    let discarded = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let n = s.len();
        s.clear();
        n
    });
    if discarded > 0 {
        crate::counter("obs.span.stack_resets").inc();
    }
    discarded
}

/// A minimal monotonic timer for call sites that want a raw duration to
/// feed a histogram or counter rather than a named span. `Copy` so a
/// started stopwatch can be embedded in value types (e.g. a deadline
/// carried alongside a queued job) without re-reading the clock.
#[derive(Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the stopwatch.
    #[must_use = "a stopwatch only matters if elapsed() is read"]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Microseconds since [`Stopwatch::start`], saturating.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth() -> usize {
        STACK.with(|s| s.borrow().len())
    }

    #[test]
    fn nesting_records_parent_links() {
        let outer = span("test.span.outer");
        let inner = span("test.span.inner");
        assert_eq!(depth(), 2);
        drop(inner);
        assert_eq!(depth(), 1);
        let _ = outer.finish();
        assert_eq!(depth(), 0);
        let snap = global().snapshot();
        let inner = snap.span("test.span.inner").expect("inner recorded");
        assert_eq!(inner.parent.as_deref(), Some("test.span.outer"));
        assert!(inner.count >= 1);
    }

    #[test]
    fn stack_unwinds_when_task_returns_err_mid_span() {
        fn faulty() -> Result<(), String> {
            let _guard = span("test.span.faulty");
            let _deeper = span("test.span.faulty.step");
            Err("boom".to_string())
        }
        assert_eq!(depth(), 0);
        assert!(faulty().is_err());
        assert_eq!(depth(), 0, "early return must pop all spans");
        let snap = global().snapshot();
        assert!(snap.span("test.span.faulty").is_some());
        let step = snap.span("test.span.faulty.step").expect("step recorded");
        assert_eq!(step.parent.as_deref(), Some("test.span.faulty"));
    }

    #[test]
    fn stack_unwinds_across_panic() {
        let result = std::panic::catch_unwind(|| {
            let _guard = span("test.span.panicky");
            panic!("mid-span panic");
        });
        assert!(result.is_err());
        assert_eq!(depth(), 0, "panic unwinding must pop the span");
    }

    #[test]
    fn explicit_parent_overrides_empty_stack() {
        let handle = std::thread::spawn(|| {
            let g = span_under("test.span.worker", "test.span.coordinator");
            g.finish()
        });
        let dur = handle.join().expect("worker thread");
        assert!(dur.as_nanos() > 0 || dur.is_zero());
        let snap = global().snapshot();
        let worker = snap.span("test.span.worker").expect("worker recorded");
        assert_eq!(worker.parent.as_deref(), Some("test.span.coordinator"));
    }

    #[test]
    fn reset_thread_stack_clears_leaked_parent_linkage() {
        // Simulate a job that leaked a guard mid-panic: the entry stays on
        // the stack because Drop never ran.
        std::mem::forget(span("test.span.leaked"));
        assert_eq!(depth(), 1);
        assert_eq!(reset_thread_stack(), 1);
        assert_eq!(depth(), 0);
        // The next span on this thread must be a root, not a child of the
        // leaked entry.
        drop(span("test.span.after_reset"));
        let snap = global().snapshot();
        let after = snap.span("test.span.after_reset").expect("recorded");
        assert_eq!(after.parent, None, "stale parent survived the reset");
        assert_eq!(reset_thread_stack(), 0, "idempotent on an empty stack");
    }

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let sw = Stopwatch::start();
        let us = sw.elapsed_us();
        assert!(us <= sw.elapsed_us());
    }
}
