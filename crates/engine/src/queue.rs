//! A bounded multi-producer multi-consumer queue on std primitives.
//!
//! The submission side of the engine: producers block (or fail fast with
//! [`PushError::Full`]) when the queue is at capacity — backpressure
//! instead of unbounded memory growth — and consumers block until an item
//! arrives or the queue is closed and drained. Closing wakes every waiter,
//! which is how the pool shuts down gracefully: queued work still runs,
//! new work is refused.

use crate::sync::{TracedGuard, TracedMutex};
use std::collections::VecDeque;
use std::sync::Condvar;

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (non-blocking push only); the item is
    /// handed back.
    Full(T),
    /// The queue is closed; the item is handed back.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The queue. All synchronization is two condvars over one mutex; a
/// poisoned lock (a panicking job elsewhere) is recovered rather than
/// propagated, since queue state is a plain buffer that cannot be left
/// logically inconsistent by a reader. The mutex is a [`TracedMutex`]
/// so the lock-order witness can watch it during the engine gate test.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: TracedMutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a zero-capacity queue deadlocks every
    /// producer).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be >= 1");
        Self {
            capacity,
            state: TracedMutex::new(
                "engine.queue.state",
                State {
                    items: VecDeque::with_capacity(capacity),
                    closed: false,
                },
            ),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocking push: waits for a slot while the queue is full.
    ///
    /// # Errors
    /// Returns [`PushError::Closed`] (with the item) if the queue closed
    /// before a slot opened.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state: TracedGuard<'_, State<T>> = self.state.lock();
        loop {
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.state.wait(&self.not_full, state);
        }
    }

    /// Non-blocking push.
    ///
    /// # Errors
    /// Returns [`PushError::Full`] if at capacity or [`PushError::Closed`]
    /// if closed, handing the item back either way.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop: waits for an item; `None` means the queue is closed
    /// *and* drained — the consumer's signal to exit.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                // INVARIANT: `notify_one` here cannot lose a wakeup even
                // with N>1 blocked pushers. Each successful pop frees
                // exactly one slot and issues exactly one notification
                // while holding the lock, and a pusher leaves the
                // condvar's wait queue the moment it is notified — so K
                // pops deliver K notifications to K *distinct* waiting
                // pushers (a notification is never absorbed by a thread
                // that already consumed one). A woken pusher that finds
                // the slot stolen by a fast-path `push`/`try_push` simply
                // re-waits, and the thief's consumed capacity means no
                // net slot went unannounced. The only multi-slot event is
                // `close`, which uses `notify_all`. Pinned by
                // `wakeup_protocol_survives_multiple_blocked_pushers` in
                // tests/schedule_checks.rs across >=200 seeded schedules.
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.state.wait(&self.not_empty, state);
        }
    }

    /// Closes the queue: further pushes fail, queued items still drain,
    /// and every blocked producer/consumer wakes.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_reports_full_and_returns_item() {
        let q = BoundedQueue::new(1);
        q.try_push(7).unwrap();
        match q.try_push(8) {
            Err(PushError::Full(v)) => assert_eq!(v, 8),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        match q.try_push(3) {
            Err(PushError::Closed(v)) => assert_eq!(v, 3),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_producer_wakes_on_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1).is_ok());
        // The producer blocks on the full queue until this pop frees a slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
