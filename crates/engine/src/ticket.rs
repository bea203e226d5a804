//! One-shot result handles for submitted queries.
//!
//! `submit` hands the caller a [`Ticket`]; the worker that runs the job
//! fulfils it through the paired [`TicketSender`]. Every ticket resolves
//! to exactly one typed outcome: a value, or a [`TicketError`] naming why
//! no value will arrive — shed at admission ([`TicketError::Rejected`]),
//! shed by deadline expiry ([`TicketError::Expired`]), or abandoned
//! ([`TicketError::Canceled`], e.g. the job panicked or the pool shut
//! down). There is no silent-drop path: if the sender is dropped
//! unfulfilled the ticket reports `Canceled` instead of hanging forever.

use crate::sync::TracedMutex;
use std::sync::{Arc, Condvar};

/// Why a ticket resolved without a value. Each variant is a distinct
/// load-shedding or cancellation outcome; callers can match exhaustively
/// to decide between retry, fallback, and surfacing the shed to the user.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketError {
    /// Admission control refused the job: the queue was at the
    /// configured watermark when it was submitted.
    Rejected,
    /// The job's deadline passed before a worker picked it up.
    Expired,
    /// The job was abandoned before producing a result: the pool shut
    /// down, the job panicked, or the sender was dropped unfulfilled.
    Canceled,
}

impl std::fmt::Display for TicketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Rejected => write!(f, "rejected by admission control (queue over watermark)"),
            Self::Expired => write!(f, "deadline expired before a worker took the job"),
            Self::Canceled => write!(f, "job abandoned before completion"),
        }
    }
}

impl std::error::Error for TicketError {}

enum TicketState<T> {
    Pending,
    Done(T),
    Failed(TicketError),
}

struct Shared<T> {
    slot: TracedMutex<TicketState<T>>,
    cv: Condvar,
}

/// The caller's handle to one in-flight query result.
pub struct Ticket<T> {
    shared: Arc<Shared<T>>,
}

/// The worker's half: fulfils the ticket exactly once. Dropping it
/// unfulfilled cancels the paired [`Ticket`].
pub struct TicketSender<T> {
    shared: Arc<Shared<T>>,
    sent: bool,
}

/// A clonable failure handle: resolves a ticket to a typed error
/// (`Expired`, `Rejected`, `Canceled`) without consuming the
/// [`TicketSender`]. First resolution wins — if the
/// worker already sent a value, `fail` is a no-op, and vice versa.
pub struct TicketAborter<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for TicketAborter<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Creates a connected ticket/sender pair.
pub fn oneshot<T>() -> (Ticket<T>, TicketSender<T>) {
    // ALLOC: one rendezvous cell per submitted query; control-plane, not the search kernel.
    let shared = Arc::new(Shared {
        slot: TracedMutex::new("engine.ticket.slot", TicketState::Pending),
        cv: Condvar::new(),
    });
    (
        Ticket {
            shared: Arc::clone(&shared),
        },
        TicketSender {
            shared,
            sent: false,
        },
    )
}

impl<T> Ticket<T> {
    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    /// Returns the typed [`TicketError`] the job resolved to: `Rejected`
    /// or `Expired` when it was shed, `Canceled` when it was abandoned
    /// before producing a result.
    pub fn wait(self) -> Result<T, TicketError> {
        let mut state = self.shared.slot.lock();
        loop {
            match std::mem::replace(&mut *state, TicketState::Failed(TicketError::Canceled)) {
                TicketState::Done(value) => return Ok(value),
                TicketState::Failed(err) => return Err(err),
                TicketState::Pending => {
                    *state = TicketState::Pending;
                    state = self.shared.slot.wait(&self.shared.cv, state);
                }
            }
        }
    }
}

impl<T> TicketSender<T> {
    /// Fulfils the ticket and wakes the waiter. Returns `false` (and
    /// discards `value`) if the ticket was already resolved to a typed
    /// failure by a [`TicketAborter`] — a shed outcome is never
    /// overwritten, so a ticket resolves exactly once.
    pub fn send(mut self, value: T) -> bool {
        let mut state = self.shared.slot.lock();
        self.sent = true;
        if matches!(*state, TicketState::Pending) {
            *state = TicketState::Done(value);
            self.shared.cv.notify_all();
            true
        } else {
            false
        }
    }

    /// A failure handle bound to the same ticket, for resolving it to a
    /// typed error (the shed paths).
    pub fn aborter(&self) -> TicketAborter<T> {
        TicketAborter {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> TicketAborter<T> {
    /// Resolves the ticket to `err` if it is still pending. Returns
    /// `true` iff this call won the resolution race — exactly one of
    /// `send`/`fail` reaches the waiter, so the caller can use the return
    /// value to attribute the outcome to exactly one shed counter.
    pub fn fail(&self, err: TicketError) -> bool {
        let mut state = self.shared.slot.lock();
        if matches!(*state, TicketState::Pending) {
            *state = TicketState::Failed(err);
            self.shared.cv.notify_all();
            true
        } else {
            false
        }
    }
}

impl<T> Drop for TicketSender<T> {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        let mut state = self.shared.slot.lock();
        if matches!(*state, TicketState::Pending) {
            *state = TicketState::Failed(TicketError::Canceled);
        }
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_wait_delivers() {
        let (t, s) = oneshot();
        assert!(s.send(42u32));
        assert_eq!(t.wait(), Ok(42));
    }

    #[test]
    fn dropped_sender_cancels() {
        let (t, s) = oneshot::<u32>();
        drop(s);
        assert_eq!(t.wait(), Err(TicketError::Canceled));
    }

    #[test]
    fn wait_blocks_until_send() {
        let (t, s) = oneshot();
        let waiter = std::thread::spawn(move || t.wait());
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.send(7u32);
        assert_eq!(waiter.join().unwrap(), Ok(7));
    }

    #[test]
    fn aborter_resolves_typed_failure() {
        let (t, s) = oneshot::<u32>();
        let a = s.aborter();
        assert!(a.fail(TicketError::Expired));
        // The sender's value arrives too late and is discarded.
        assert!(!s.send(9));
        assert_eq!(t.wait(), Err(TicketError::Expired));
    }

    #[test]
    fn first_resolution_wins() {
        let (t, s) = oneshot::<u32>();
        let a = s.aborter();
        assert!(s.send(5));
        assert!(!a.fail(TicketError::Rejected));
        assert_eq!(t.wait(), Ok(5));
    }

    #[test]
    fn aborter_race_yields_exactly_one_outcome() {
        for _ in 0..64 {
            let (t, s) = oneshot::<u32>();
            let a = s.aborter();
            let sender = std::thread::spawn(move || s.send(1));
            let aborter = std::thread::spawn(move || a.fail(TicketError::Expired));
            let sent = sender.join().unwrap();
            let failed = aborter.join().unwrap();
            assert!(sent ^ failed, "exactly one side must win the ticket");
            match t.wait() {
                Ok(1) => assert!(sent),
                Err(TicketError::Expired) => assert!(failed),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }
}
