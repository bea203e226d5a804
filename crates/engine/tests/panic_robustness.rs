//! Panic robustness: a job that panics on a worker thread must resolve
//! its [`Ticket`] as [`TicketError::Canceled`] and leave the pool fully
//! serviceable — the worker survives (or is logically replaced) and the
//! backlog keeps draining. A wedged queue here would deadlock every
//! interactive session sharing the engine.

use mqa_engine::{EngineOptions, QueryEngine, TicketError};
use mqa_retrieval::{FrameworkKind, MultiModalQuery, RetrievalFramework, RetrievalOutput};
use mqa_vector::Candidate;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Panics on any query whose text is `"boom"`; answers normally otherwise.
struct Volatile {
    answered: AtomicUsize,
}

impl RetrievalFramework for Volatile {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::Must
    }

    fn search(&self, query: &MultiModalQuery, k: usize, _ef: usize) -> RetrievalOutput {
        if query.text.as_deref() == Some("boom") {
            panic!("injected job panic");
        }
        self.answered.fetch_add(1, Ordering::SeqCst);
        RetrievalOutput {
            results: vec![Candidate::new(k as u32, 0.0)],
            ..Default::default()
        }
    }

    fn describe(&self) -> String {
        "volatile probe".into()
    }
}

fn engine(workers: usize, queue_cap: usize) -> (Arc<Volatile>, QueryEngine) {
    let f = Arc::new(Volatile {
        answered: AtomicUsize::new(0),
    });
    let e = QueryEngine::new(
        Arc::<Volatile>::clone(&f),
        EngineOptions {
            workers,
            queue_cap,
            sched: None,
        },
    );
    (f, e)
}

#[test]
fn panicking_job_resolves_ticket_as_canceled() {
    let (_f, engine) = engine(1, 4);
    let ticket = engine.submit(MultiModalQuery::text("boom"), 3, 16).unwrap();
    assert!(matches!(ticket.wait(), Err(TicketError::Canceled)));
}

#[test]
fn queue_keeps_draining_after_a_job_panic() {
    // One worker: if the panic killed the thread, the follow-up query
    // would sit in the queue forever and `retrieve` would hang.
    let (f, engine) = engine(1, 4);
    let bad = engine.submit(MultiModalQuery::text("boom"), 3, 16).unwrap();
    let good = engine
        .retrieve(MultiModalQuery::text("still alive"), 5, 16)
        .expect("engine serves queries after a job panic");
    assert_eq!(good.ids(), vec![5]);
    assert!(matches!(bad.wait(), Err(TicketError::Canceled)));
    assert_eq!(f.answered.load(Ordering::SeqCst), 1);
}

#[test]
fn interleaved_panics_do_not_lose_healthy_answers() {
    let (f, engine) = engine(2, 8);
    let mut tickets = Vec::new();
    for i in 0..12 {
        let text = if i % 3 == 0 {
            "boom".into()
        } else {
            format!("q{i}")
        };
        tickets.push(
            engine
                .submit(MultiModalQuery::text(text), i + 1, 16)
                .unwrap(),
        );
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
                assert_eq!(out.ids(), vec![i as u32 + 1]);
                answered += 1;
            }
            Err(e) => panic!("query {i}: unexpected error {e}"),
        }
    }
    assert_eq!(canceled, 4);
    assert_eq!(answered, 8);
    assert_eq!(f.answered.load(Ordering::SeqCst), 8);
}
