//! Deadlines and admission control for the engine's one queue.
//!
//! There is no scheduler thread and no second queue: the pool's
//! [`BoundedQueue`](crate::BoundedQueue) is the only thing between
//! [`QueryEngine::submit`](crate::QueryEngine::submit) and a worker, and
//! admission is decided by the submitting thread at the push. Configuring
//! [`SchedOptions`] sizes that queue to the `watermark` and turns a full
//! queue from backpressure into a *typed* shed:
//!
//! * [`TicketError::Rejected`](crate::TicketError::Rejected) — the queue
//!   already held `watermark` jobs when this one arrived.
//! * [`TicketError::Expired`](crate::TicketError::Expired) — the job
//!   carried a [`Deadline`] that passed before a worker picked it up.
//!   Expiry is checked twice: at submit, and on the worker as the job
//!   leaves the queue, so a stale job never burns search work.
//!
//! The deadline clock is [`mqa_obs::Stopwatch`] — the process-wide
//! monotonic clock (`std::time::Instant` under the hood, read only
//! through the sanctioned obs wrapper), captured once at
//! [`Deadline::in_us`] and carried by value with the job.
//!
//! Instruments: `engine.sched.shed_rejected` / `engine.sched.shed_expired`
//! for the two shed outcomes; `engine.pool.queue_depth` is the backlog.

use mqa_obs::Stopwatch;

/// A per-query latency budget, measured from the moment of construction
/// on the process monotonic clock ([`mqa_obs::Stopwatch`]). `Copy`, so it
/// travels with the job and is re-checked on the worker without any
/// shared clock state.
#[derive(Clone, Copy)]
pub struct Deadline {
    started: Stopwatch,
    budget_us: u64,
}

impl Deadline {
    /// A deadline `budget_us` microseconds from now.
    #[must_use]
    pub fn in_us(budget_us: u64) -> Self {
        Self {
            started: Stopwatch::start(),
            budget_us,
        }
    }

    /// The original budget in microseconds.
    pub fn budget_us(&self) -> u64 {
        self.budget_us
    }

    /// Whether the budget has fully elapsed.
    pub fn expired(&self) -> bool {
        self.started.elapsed_us() >= self.budget_us
    }

    /// Microseconds left before expiry (0 once expired).
    pub fn remaining_us(&self) -> u64 {
        self.budget_us.saturating_sub(self.started.elapsed_us())
    }
}

impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deadline")
            .field("budget_us", &self.budget_us)
            .field("remaining_us", &self.remaining_us())
            .finish()
    }
}

/// The admission-control knob: with it set in
/// [`EngineOptions::sched`](crate::EngineOptions) a full queue sheds,
/// without it a full queue blocks the submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedOptions {
    /// Admission watermark — the capacity of the engine's one queue, and
    /// so the whole admitted backlog beyond the jobs in service: a
    /// submission that finds this many jobs queued is shed with
    /// [`TicketError::Rejected`](crate::TicketError::Rejected).
    pub watermark: usize,
}

impl Default for SchedOptions {
    fn default() -> Self {
        Self { watermark: 64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expires_on_the_monotonic_clock() {
        let d = Deadline::in_us(30_000);
        assert!(!d.expired());
        assert!(d.remaining_us() <= 30_000);
        assert_eq!(d.budget_us(), 30_000);
        let zero = Deadline::in_us(0);
        assert!(zero.expired());
        assert_eq!(zero.remaining_us(), 0);
    }

    #[test]
    fn debug_shows_budget() {
        let d = Deadline::in_us(500);
        let text = format!("{d:?}");
        assert!(text.contains("budget_us: 500"));
    }

    #[test]
    fn default_options_are_sane() {
        let opts = SchedOptions::default();
        assert!(opts.watermark > 0);
    }
}
