//! One-shot result handles for submitted queries.
//!
//! `submit` hands the caller a [`Ticket`]; the worker that runs the job
//! fulfils it through the paired [`TicketSender`]. The pair is a one-slot
//! `std::sync::mpsc` channel carrying the job's outcome, so a ticket holds
//! no lock of its own. Every ticket resolves to exactly one typed outcome:
//! a value, or a [`TicketError`] naming why no value will arrive — shed at
//! admission ([`TicketError::Rejected`]), shed by deadline expiry
//! ([`TicketError::Expired`]), or abandoned ([`TicketError::Canceled`],
//! e.g. the job panicked or the pool shut down). There is no silent-drop
//! path: a sender dropped unfulfilled disconnects the channel, and the
//! ticket reports `Canceled` instead of hanging forever.

use std::sync::mpsc::{self, Receiver, SyncSender};

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

/// The caller's handle to one in-flight query result.
pub struct Ticket<T> {
    rx: Receiver<Result<T, TicketError>>,
}

/// The worker's half: resolves the ticket exactly once, by construction —
/// [`TicketSender::send`], [`TicketSender::fail`] and dropping it
/// unfulfilled (`Canceled`) all consume the sender.
pub struct TicketSender<T> {
    tx: SyncSender<Result<T, TicketError>>,
}

/// Creates a connected ticket/sender pair.
pub fn oneshot<T>() -> (Ticket<T>, TicketSender<T>) {
    // ALLOC: one rendezvous channel per submitted query; control-plane, not the search kernel.
    let (tx, rx) = mpsc::sync_channel(1);
    (Ticket { rx }, TicketSender { tx })
}

impl<T> Ticket<T> {
    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    /// Returns the typed [`TicketError`] the job resolved to: `Rejected`
    /// or `Expired` when it was shed, `Canceled` when it was abandoned
    /// before producing a result.
    pub fn wait(self) -> Result<T, TicketError> {
        self.rx.recv().unwrap_or(Err(TicketError::Canceled))
    }
}

impl<T> TicketSender<T> {
    /// Fulfils the ticket with `value` and wakes the waiter.
    pub fn send(self, value: T) {
        self.resolve(Ok(value));
    }

    /// Resolves the ticket to the typed failure `err` (a shed outcome)
    /// and wakes the waiter.
    pub fn fail(self, err: TicketError) {
        self.resolve(Err(err));
    }

    /// The one message this sender carries fills the slot without
    /// blocking; a ticket already dropped has nobody left to tell.
    fn resolve(self, outcome: Result<T, TicketError>) {
        drop(self.tx.try_send(outcome));
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
    fn send_to_a_dropped_ticket_is_a_no_op() {
        let (t, s) = oneshot();
        drop(t);
        s.send(1u32);
    }

    #[test]
    fn fail_resolves_typed_failure() {
        let (t, s) = oneshot::<u32>();
        s.fail(TicketError::Expired);
        assert_eq!(t.wait(), Err(TicketError::Expired));
    }
}
