//! Poison-tolerant locking and the runtime lock-order witness.
//!
//! Every `Mutex` in this crate guards plain buffer state (a `VecDeque`, a
//! oneshot slot) that a panicking holder cannot leave logically
//! inconsistent, so lock poisoning carries no information we want to
//! propagate: [`lock_ignore_poison`] / [`wait_ignore_poison`] are the one
//! documented place that policy lives, replacing the
//! `unwrap_or_else(|p| p.into_inner())` pattern that used to be repeated
//! at every site. The `conc` static analyzer (`mqa-xtask conc`) recognizes
//! both helpers as lock-acquisition sites.
//!
//! [`TracedMutex`] wraps a `Mutex` with a stable `&'static str` name and —
//! while the witness is switched on ([`witness::enable`]) — records
//! per-thread acquisition order into the [`witness`] module and `mqa-obs`
//! counters:
//!
//! * `engine.lockwitness.acquire.<name>` — acquisitions of `<name>`;
//! * `engine.lockwitness.held.<A>-><B>` — `<B>` acquired while `<A>` was
//!   held by the same thread (a true lock-order edge; any such edge must
//!   also exist in the static lock-order graph);
//! * `engine.lockwitness.seq.<A>-><B>` — `<B>` acquired with no lock held,
//!   immediately after the same thread released `<A>` (program-order
//!   pairs; proof the witness actually saw traffic).
//!
//! Switched off (the default), an acquisition costs one relaxed load and a
//! release one look at this thread's (empty) held-stack.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Locks `m`, recovering the guard from a poisoned lock.
///
/// Poisoning only marks that *some* holder panicked; the engine's lock-
/// protected state is always a plain buffer that every exit path leaves
/// consistent, so recovery is safe and a panic cascade would only turn
/// one failed job into a dead engine.
pub fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Waits on `cv`, recovering the reacquired guard from a poisoned lock
/// (same policy as [`lock_ignore_poison`]).
pub fn wait_ignore_poison<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A named mutex: `lock()` ignores poisoning and reports every
/// acquisition/release to the [`witness`].
pub struct TracedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> TracedMutex<T> {
    /// Wraps `value` under the witness name `name`. Names should be stable
    /// dotted paths (`engine.queue.state`) — the static analyzer collects
    /// them from these constructor literals and the smoke gate checks the
    /// runtime-observed set is a subset.
    pub const fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: Mutex::new(value),
        }
    }

    /// The witness name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock (poison-tolerant), recording the acquisition.
    pub fn lock(&self) -> TracedGuard<'_, T> {
        let raw = lock_ignore_poison(&self.inner);
        witness::acquire(self.name);
        TracedGuard {
            lock: self,
            inner: Some(raw),
        }
    }

    /// Condvar wait: atomically releases the guard, waits on `cv`, and
    /// reacquires (poison-tolerant), keeping the witness's held-set
    /// accurate across the gap. Callers must re-check their predicate in a
    /// loop, exactly as with [`Condvar::wait`].
    pub fn wait<'a>(&self, cv: &Condvar, mut guard: TracedGuard<'a, T>) -> TracedGuard<'a, T> {
        debug_assert!(
            std::ptr::eq(self as *const _, guard.lock as *const _),
            "guard waited on a different TracedMutex"
        );
        if let Some(raw) = guard.inner.take() {
            witness::release(guard.lock.name);
            let raw = wait_ignore_poison(cv, raw);
            witness::acquire(guard.lock.name);
            guard.inner = Some(raw);
        }
        guard
    }
}

/// The guard for a [`TracedMutex`]; releases report to the witness.
pub struct TracedGuard<'a, T> {
    lock: &'a TracedMutex<T>,
    // `None` only transiently inside `TracedMutex::wait`, which owns the
    // guard for the whole gap; a `None` can never escape to users.
    inner: Option<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for TracedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(guard) => guard,
            None => unreachable!("TracedGuard emptied outside TracedMutex::wait"),
        }
    }
}

impl<T> std::ops::DerefMut for TracedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(guard) => guard,
            None => unreachable!("TracedGuard emptied outside TracedMutex::wait"),
        }
    }
}

impl<T> Drop for TracedGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            witness::release(self.lock.name);
        }
    }
}

/// The runtime lock-order witness, off until [`witness::enable`].
pub mod witness {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// One observed acquisition pair.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WitnessPair {
        /// Lock the thread touched first.
        pub from: String,
        /// Lock acquired second.
        pub to: String,
        /// `true`: `from` was still held when `to` was acquired (a real
        /// lock-order edge). `false`: disjoint program-order pair.
        pub held: bool,
        /// Times the pair was observed.
        pub count: u64,
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static PAIRS: Mutex<Vec<WitnessPair>> = Mutex::new(Vec::new());

    thread_local! {
        // Stack of lock names this thread currently holds.
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        // Most recent acquisition by this thread (for seq pairs).
        static LAST: RefCell<Option<&'static str>> = const { RefCell::new(None) };
    }

    /// Turns recording on or off. Off is one relaxed load per lock.
    pub fn enable(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Clears every recorded pair (the per-thread held-stack drains
    /// naturally as guards drop).
    pub fn reset() {
        super::lock_ignore_poison(&PAIRS).clear();
    }

    /// A snapshot of every recorded pair.
    pub fn pairs() -> Vec<WitnessPair> {
        super::lock_ignore_poison(&PAIRS).clone()
    }

    fn record(from: &'static str, to: &'static str, held: bool) {
        {
            let mut pairs = super::lock_ignore_poison(&PAIRS);
            match pairs
                .iter_mut()
                .find(|p| p.from == from && p.to == to && p.held == held)
            {
                Some(p) => p.count += 1,
                None => pairs.push(WitnessPair {
                    // ALLOC: witness recording only — `record` runs solely while the lock witness is enabled, never in serving builds.
                    from: from.to_string(),
                    to: to.to_string(),
                    held,
                    count: 1,
                }),
            }
        }
        // Counter names mirror the pair kinds; incremented outside the
        // PAIRS guard so the obs registry mutex stays a leaf lock.
        let kind = if held { "held" } else { "seq" };
        // ALLOC: witness recording only (see the enabled gate in `acquire`).
        mqa_obs::counter(&format!("engine.lockwitness.{kind}.{from}->{to}")).inc();
    }

    pub(crate) fn acquire(name: &'static str) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        let (held_under, seq_from) = HELD.with(|h| {
            let mut h = h.borrow_mut();
            // ALLOC: witness recording only — `acquire` early-returns while the witness is disabled.
            let held_under: Vec<&'static str> = h.iter().copied().collect();
            let seq_from = if held_under.is_empty() {
                LAST.with(|l| l.borrow().filter(|&p| p != name))
            } else {
                None
            };
            h.push(name);
            (held_under, seq_from)
        });
        LAST.with(|l| *l.borrow_mut() = Some(name));
        for from in held_under {
            record(from, name, true);
        }
        if let Some(from) = seq_from {
            record(from, name, false);
        }
        // ALLOC: witness recording only (enabled-gated above).
        mqa_obs::counter(&format!("engine.lockwitness.acquire.{name}")).inc();
    }

    pub(crate) fn release(name: &'static str) {
        // Unconditional (even when disabled) so a mid-hold disable never
        // strands a stale entry on the held-stack.
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(at) = h.iter().rposition(|&n| n == name) {
                h.remove(at);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_ignore_poison_recovers_after_holder_panic() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "lock must actually be poisoned");
        assert_eq!(*lock_ignore_poison(&m), 7);
    }

    #[test]
    fn traced_mutex_guards_and_waits() {
        let m = TracedMutex::new("test.sync.cell", 1u32);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.name(), "test.sync.cell");
    }

    #[test]
    fn traced_wait_round_trips_through_a_condvar() {
        use std::sync::Arc;
        let m = Arc::new(TracedMutex::new("test.sync.waited", false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                g = m2.wait(&cv2, g);
            }
            *g
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *m.lock() = true;
        cv.notify_all();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn witness_records_held_and_seq_pairs() {
        let a = TracedMutex::new("test.sync.wa", 0u32);
        let b = TracedMutex::new("test.sync.wb", 0u32);
        witness::reset();
        witness::enable(true);
        {
            let _ga = a.lock();
            let _gb = b.lock(); // held pair a -> b
        }
        {
            let _gb = b.lock(); // seq pair (released a..b earlier) — last was b
        }
        let _ga = a.lock(); // seq pair b -> a
        drop(_ga);
        witness::enable(false);
        let pairs = witness::pairs();
        assert!(pairs
            .iter()
            .any(|p| p.held && p.from == "test.sync.wa" && p.to == "test.sync.wb"));
        assert!(pairs
            .iter()
            .any(|p| !p.held && p.from == "test.sync.wb" && p.to == "test.sync.wa"));
        witness::reset();
        assert!(witness::pairs().is_empty());
    }
}
