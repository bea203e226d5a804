//! The permission-token scheduler: N real threads, one grant at a time.
//!
//! All coordination lives in one mutex/condvar pair ([`Ctl`]). Worker
//! threads transition their own slot (`Wants` → `Running` → `Blocked` /
//! `Finished`) and the driving thread — the caller of [`run_schedule`] —
//! owns the only decision: which `Wants` thread gets the token next.

use mqa_rng::SplitMix64;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// One schedule participant: receives its token and runs to completion,
/// yielding at every [`ThreadToken::step`] / [`ThreadToken::blocking`].
pub type ThreadBody = Box<dyn FnOnce(&mut ThreadToken) + Send + 'static>;

/// Settle rounds with no state change before the scheduler trusts the
/// snapshot it is about to pick from (see [`CheckOptions::settle`]).
const SETTLE_ROUNDS: usize = 8;

/// Schedule-checker knobs. `Default` is tuned for engine-scale schedules: a
/// sub-millisecond settle window and a stuck timeout two orders of
/// magnitude above any legitimate wakeup handoff.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Quiet window the scheduler waits out before each pick while any
    /// thread sits in a [`ThreadToken::blocking`] region, so wakeups
    /// caused by the previous step land before the next candidate set is
    /// formed. Larger = more deterministic, slower.
    pub settle: Duration,
    /// How long the scheduler waits with no runnable thread (or with the
    /// granted thread silent) before declaring the schedule stuck.
    pub stuck_timeout: Duration,
    /// Grant budget per schedule; exceeding it is a failure (a livelock
    /// or an unbounded loop between yield points).
    pub max_steps: usize,
    /// Whether [`crate::explore`] stops sweeping at the first failing
    /// seed (the failure is replayable either way).
    pub stop_on_failure: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        Self {
            settle: Duration::from_micros(400),
            stuck_timeout: Duration::from_millis(200),
            max_steps: 10_000,
            stop_on_failure: true,
        }
    }
}

/// Why a schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// No thread could make progress: the listed threads were blocked
    /// (or silently holding the token) past the stuck timeout — a
    /// deadlock or lost wakeup.
    Stuck {
        /// Indices of the threads that were still blocked.
        blocked: Vec<usize>,
    },
    /// A thread body panicked (assertion failures inside bodies land
    /// here, with the panic message).
    Panicked {
        /// Index of the panicking thread.
        thread: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The grant budget ran out before every thread finished.
    MaxSteps,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Stuck { blocked } => {
                write!(f, "stuck: threads {blocked:?} blocked past the timeout")
            }
            Failure::Panicked { thread, message } => {
                write!(f, "thread {thread} panicked: {message}")
            }
            Failure::MaxSteps => write!(f, "max_steps exceeded (livelock?)"),
        }
    }
}

/// What one schedule did.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The seed that produced this schedule (replay key).
    pub seed: u64,
    /// Grant order: thread index per scheduler step.
    pub trace: Vec<usize>,
    /// `None` when every thread ran to completion.
    pub failure: Option<Failure>,
}

impl RunOutcome {
    /// Whether the schedule completed without a failure.
    pub fn is_ok(&self) -> bool {
        self.failure.is_none()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TStat {
    Wants,
    Running,
    Blocked,
    Finished,
}

struct Sched {
    stat: Vec<TStat>,
    granted: Option<usize>,
    panics: Vec<(usize, String)>,
}

struct Ctl {
    m: Mutex<Sched>,
    cv: Condvar,
}

/// Poison recovery: scheduler state is a plain table every transition
/// leaves consistent, and panics are already routed through
/// `catch_unwind`, so a poisoned lock carries no extra signal.
fn lock(ctl: &Ctl) -> MutexGuard<'_, Sched> {
    match ctl.m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn wait<'a>(ctl: &'a Ctl, guard: MutexGuard<'a, Sched>) -> MutexGuard<'a, Sched> {
    match ctl.cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn wait_timeout<'a>(
    ctl: &'a Ctl,
    guard: MutexGuard<'a, Sched>,
    dur: Duration,
) -> (MutexGuard<'a, Sched>, bool) {
    match ctl.cv.wait_timeout(guard, dur) {
        Ok((guard, timeout)) => (guard, timeout.timed_out()),
        Err(poisoned) => {
            let (guard, timeout) = poisoned.into_inner();
            (guard, timeout.timed_out())
        }
    }
}

/// A thread's permission token: the handle through which a
/// [`ThreadBody`] yields control back to the scheduler.
pub struct ThreadToken {
    ctl: Arc<Ctl>,
    id: usize,
}

impl ThreadToken {
    /// This thread's index in the schedule (its id in the trace).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Yield point: hands the token back and parks until the scheduler
    /// grants it again. Place one before every interaction with shared
    /// state whose ordering should be explored.
    pub fn step(&mut self) {
        let mut s = lock(&self.ctl);
        s.stat[self.id] = TStat::Wants;
        s.granted = None;
        self.ctl.cv.notify_all();
        let s = self.wait_for_grant(s);
        drop(s);
    }

    /// Runs `f` — a call that may block on another thread's progress —
    /// *without* holding the token, so the scheduler can keep driving
    /// the threads that will unblock it. Re-enters the schedule when
    /// `f` returns.
    pub fn blocking<R>(&mut self, f: impl FnOnce() -> R) -> R {
        {
            let mut s = lock(&self.ctl);
            s.stat[self.id] = TStat::Blocked;
            s.granted = None;
            self.ctl.cv.notify_all();
        }
        let out = f();
        let mut s = lock(&self.ctl);
        s.stat[self.id] = TStat::Wants;
        self.ctl.cv.notify_all();
        let s = self.wait_for_grant(s);
        drop(s);
        out
    }

    fn wait_for_grant<'a>(&'a self, mut s: MutexGuard<'a, Sched>) -> MutexGuard<'a, Sched> {
        while s.granted != Some(self.id) {
            s = wait(&self.ctl, s);
        }
        s.stat[self.id] = TStat::Running;
        s
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn spawn_worker(ctl: Arc<Ctl>, id: usize, body: ThreadBody) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut token = ThreadToken {
            ctl: Arc::clone(&ctl),
            id,
        };
        {
            let s = lock(&ctl);
            let s = token.wait_for_grant(s);
            drop(s);
        }
        let result = catch_unwind(AssertUnwindSafe(|| body(&mut token)));
        let mut s = lock(&ctl);
        s.stat[id] = TStat::Finished;
        if s.granted == Some(id) {
            s.granted = None;
        }
        if let Err(payload) = result {
            s.panics.push((id, panic_message(payload)));
        }
        ctl.cv.notify_all();
    })
}

/// Runs one seeded schedule over `bodies` and reports its trace.
///
/// Replaying the same seed with the same bodies reproduces the same
/// grant order (and, up to the settle-window caveat in the crate docs,
/// the same behavior). On failure, threads that never finished are
/// leaked — they are blocked inside foreign code and cannot be joined.
pub fn run_schedule(seed: u64, opts: &CheckOptions, bodies: Vec<ThreadBody>) -> RunOutcome {
    let n = bodies.len();
    let ctl = Arc::new(Ctl {
        m: Mutex::new(Sched {
            stat: vec![TStat::Wants; n],
            granted: None,
            panics: Vec::new(),
        }),
        cv: Condvar::new(),
    });
    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(id, body)| spawn_worker(Arc::clone(&ctl), id, body))
        .collect();

    let mut rng = SplitMix64::new(seed);
    let mut trace = Vec::new();
    let failure = drive(&ctl, opts, &mut rng, &mut trace);

    // Join only the threads observed Finished; the rest are stuck in
    // foreign blocking calls and are deliberately leaked.
    let finished: Vec<bool> = {
        let s = lock(&ctl);
        s.stat.iter().map(|&t| t == TStat::Finished).collect()
    };
    for (handle, done) in handles.into_iter().zip(finished) {
        if done {
            drop(handle.join());
        }
    }

    RunOutcome {
        seed,
        trace,
        failure,
    }
}

fn drive(
    ctl: &Ctl,
    opts: &CheckOptions,
    rng: &mut SplitMix64,
    trace: &mut Vec<usize>,
) -> Option<Failure> {
    let mut steps = 0usize;
    loop {
        let mut s = lock(ctl);

        // Wait for the current grant to come back. A thread that goes
        // silent while holding the token (blocked without a `blocking`
        // wrapper) is itself a stuck schedule.
        while let Some(holder) = s.granted {
            let (guard, timed_out) = wait_timeout(ctl, s, opts.stuck_timeout);
            s = guard;
            if timed_out && s.granted == Some(holder) {
                return Some(Failure::Stuck {
                    blocked: vec![holder],
                });
            }
        }

        // Settle: while any thread is in a blocking region, give wakeups
        // triggered by the previous step time to land before picking.
        if s.stat.contains(&TStat::Blocked) {
            for _ in 0..SETTLE_ROUNDS {
                let before = s.stat.clone();
                let (guard, _) = wait_timeout(ctl, s, opts.settle);
                s = guard;
                if s.stat == before {
                    break;
                }
            }
        }

        if s.stat.iter().all(|&t| t == TStat::Finished) {
            return s.panics.first().map(|(thread, message)| Failure::Panicked {
                thread: *thread,
                message: message.clone(),
            });
        }

        let wants: Vec<usize> = s
            .stat
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == TStat::Wants)
            .map(|(i, _)| i)
            .collect();
        if wants.is_empty() {
            // Everyone left is blocked. Give them one stuck-timeout
            // window to surface, then declare the schedule dead.
            let (guard, timed_out) = wait_timeout(ctl, s, opts.stuck_timeout);
            s = guard;
            let still_none = !s.stat.contains(&TStat::Wants);
            let all_done = s.stat.iter().all(|&t| t == TStat::Finished);
            if timed_out && still_none && !all_done {
                let blocked: Vec<usize> = s
                    .stat
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| t == TStat::Blocked)
                    .map(|(i, _)| i)
                    .collect();
                return Some(Failure::Stuck { blocked });
            }
            continue;
        }

        steps += 1;
        if steps > opts.max_steps {
            return Some(Failure::MaxSteps);
        }
        let pick = wants[next_index(rng, wants.len())];
        s.granted = Some(pick);
        trace.push(pick);
        ctl.cv.notify_all();
    }
}

/// A uniform index in `0..bound` (`bound` must be non-zero). Splitmix64
/// mixes every 64-bit seed, 0 included, so sequential seed sweeps
/// (`base..base+n`) still explore unrelated schedules.
fn next_index(rng: &mut SplitMix64, bound: usize) -> usize {
    debug_assert!(bound > 0, "next_index bound must be non-zero");
    (rng.next_u64() % bound.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn streams_are_seed_deterministic_and_distinct() {
        let stream = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(3), stream(4));
    }

    #[test]
    fn zero_seed_is_well_mixed() {
        let mut r = SplitMix64::new(0);
        let vals: Vec<usize> = (0..100).map(|_| next_index(&mut r, 3)).collect();
        for i in 0..3 {
            assert!(vals.contains(&i), "index {i} never drawn from seed 0");
        }
    }

    fn counter_bodies(shared: &Arc<AtomicU32>, threads: usize, steps: usize) -> Vec<ThreadBody> {
        (0..threads)
            .map(|_| {
                let shared = Arc::clone(shared);
                let body: ThreadBody = Box::new(move |token| {
                    for _ in 0..steps {
                        token.step();
                        shared.fetch_add(1, Ordering::SeqCst);
                    }
                });
                body
            })
            .collect()
    }

    #[test]
    fn same_seed_same_trace() {
        let opts = CheckOptions::default();
        let a = run_schedule(9, &opts, counter_bodies(&Arc::new(AtomicU32::new(0)), 3, 4));
        let b = run_schedule(9, &opts, counter_bodies(&Arc::new(AtomicU32::new(0)), 3, 4));
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(a.trace, b.trace, "a seed must replay to the same trace");
        assert!(!a.trace.is_empty());
    }

    #[test]
    fn all_work_completes() {
        let shared = Arc::new(AtomicU32::new(0));
        let out = run_schedule(5, &CheckOptions::default(), counter_bodies(&shared, 4, 5));
        assert!(out.is_ok(), "failure: {:?}", out.failure);
        assert_eq!(shared.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn body_panic_is_reported_with_message() {
        let bodies: Vec<ThreadBody> = vec![
            Box::new(|token| token.step()),
            Box::new(|token| {
                token.step();
                panic!("deliberate body failure");
            }),
        ];
        let out = run_schedule(1, &CheckOptions::default(), bodies);
        match out.failure {
            Some(Failure::Panicked { thread, message }) => {
                assert_eq!(thread, 1);
                assert!(message.contains("deliberate body failure"));
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn cross_channel_deadlock_is_stuck() {
        use std::sync::mpsc::channel;
        let (tx_a, rx_a) = channel::<u8>();
        let (tx_b, rx_b) = channel::<u8>();
        // Each thread holds the sender its peer waits on and recvs first:
        // a deadlock by construction.
        let bodies: Vec<ThreadBody> = vec![
            Box::new(move |token| {
                token.step();
                let _ = token.blocking(|| rx_a.recv());
                drop(tx_b);
            }),
            Box::new(move |token| {
                token.step();
                let _ = token.blocking(|| rx_b.recv());
                drop(tx_a);
            }),
        ];
        let opts = CheckOptions {
            stuck_timeout: Duration::from_millis(50),
            ..CheckOptions::default()
        };
        let out = run_schedule(2, &opts, bodies);
        match out.failure {
            Some(Failure::Stuck { blocked }) => {
                assert_eq!(blocked, vec![0, 1], "both recv threads are stuck");
            }
            other => panic!("expected Stuck, got {other:?}"),
        }
    }

    #[test]
    fn blocking_release_lets_peers_unblock_it() {
        let (tx, rx) = std::sync::mpsc::channel::<u8>();
        let bodies: Vec<ThreadBody> = vec![
            Box::new(move |token| {
                let got = token.blocking(|| rx.recv());
                assert_eq!(got.ok(), Some(7));
            }),
            Box::new(move |token| {
                token.step();
                let _ = tx.send(7);
            }),
        ];
        let out = run_schedule(11, &CheckOptions::default(), bodies);
        assert!(out.is_ok(), "failure: {:?}", out.failure);
    }
}
