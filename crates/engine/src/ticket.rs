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

/// The worker's half: resolves the ticket exactly once, by construction —
/// [`TicketSender::send`], [`TicketSender::fail`] and dropping it
/// unfulfilled (`Canceled`) all consume the sender.
pub struct TicketSender<T> {
    shared: Arc<Shared<T>>,
    resolved: bool,
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
            resolved: false,
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
    /// Fulfils the ticket with `value` and wakes the waiter.
    pub fn send(self, value: T) {
        self.resolve(TicketState::Done(value));
    }

    /// Resolves the ticket to the typed failure `err` (a shed outcome)
    /// and wakes the waiter.
    pub fn fail(self, err: TicketError) {
        self.resolve(TicketState::Failed(err));
    }

    fn resolve(mut self, outcome: TicketState<T>) {
        self.resolved = true;
        *self.shared.slot.lock() = outcome;
        self.shared.cv.notify_all();
    }
}

impl<T> Drop for TicketSender<T> {
    fn drop(&mut self) {
        if !self.resolved {
            *self.shared.slot.lock() = TicketState::Failed(TicketError::Canceled);
            self.shared.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_wait_delivers() {
        let (t, s) = oneshot();
        s.send(42u32);
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
    fn fail_resolves_typed_failure() {
        let (t, s) = oneshot::<u32>();
        s.fail(TicketError::Expired);
        assert_eq!(t.wait(), Err(TicketError::Expired));
    }
}
