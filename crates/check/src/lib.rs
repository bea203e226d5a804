//! # mqa-check
//!
//! A deterministic schedule checker for std-threaded code, std-only.
//!
//! Concurrency bugs — lost wakeups, shutdown races, abandoned waiters —
//! hide in *interleavings*, and `cargo test` only ever sees the handful
//! the OS scheduler happens to produce. This crate runs N **real**
//! threads but serializes their progress through a permission token: at
//! every [`ThreadToken::step`] yield point the thread parks until a
//! seeded scheduler grants it the token, so which thread moves next is
//! decided by a PRNG, not the OS. The sequence of grants is the
//! **trace**; two runs with the same seed produce the same trace, so any
//! failing interleaving is replayable from its seed alone.
//!
//! Calls that genuinely block on another thread's progress (a full-queue
//! `push`, a `Ticket::wait`) are wrapped in [`ThreadToken::blocking`]:
//! the thread releases the token, runs the call for real, and re-enters
//! the scheduler when it returns. The scheduler waits a short *settle
//! window* after every grant so a blocking call woken by the previous
//! step lands back in the runnable set before the next pick — that
//! window is what keeps the exploration deterministic in practice (the
//! wakeup handoff is microseconds; the window is ~a millisecond).
//! Determinism is therefore empirical, not absolute; the distinct-trace
//! count reported by [`explore`] is the honest measure of coverage.
//!
//! When no thread is runnable and some are still blocked, the scheduler
//! waits out a stuck timeout and then reports [`Failure::Stuck`] — a
//! deadlock or lost wakeup, with the seed to replay it. Stuck threads
//! are leaked (they are blocked in foreign code and cannot be joined).
//!
//! ```
//! use mqa_check::{explore, CheckOptions, ThreadBody};
//! use std::sync::atomic::{AtomicU32, Ordering};
//! use std::sync::Arc;
//!
//! let report = explore(1, 40, &CheckOptions::default(), || {
//!     let shared = Arc::new(AtomicU32::new(0));
//!     (0..2)
//!         .map(|_| {
//!             let shared = Arc::clone(&shared);
//!             let body: ThreadBody = Box::new(move |token| {
//!                 for _ in 0..3 {
//!                     token.step();
//!                     shared.fetch_add(1, Ordering::SeqCst);
//!                 }
//!             });
//!             body
//!         })
//!         .collect()
//! });
//! assert!(report.failures.is_empty());
//! assert!(report.distinct_traces > 1, "seeds must reach new interleavings");
//! ```

mod explore;
mod sched;

pub use explore::{explore, ExploreReport, SeededFailure};
pub use sched::{run_schedule, CheckOptions, Failure, RunOutcome, ThreadBody, ThreadToken};
