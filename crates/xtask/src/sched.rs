//! The `sched` command: the deadline / admission-control overload gate.
//!
//! An open-loop arrival process drives a 2-worker [`QueryEngine`] with
//! admission control configured at **2× its saturation rate**: every query
//! carries a fixed latency budget, arrivals are paced by wall clock (not by
//! completions), and nothing slows down when the queue builds — exactly the
//! overload regime admission control exists for. The engine has one queue,
//! so the admitted backlog is stated once: `WATERMARK` queued jobs plus
//! the `WORKERS` in service. The gate fails unless:
//!
//! * every submission resolves to exactly one *typed* outcome — served,
//!   `Rejected`, or `Expired`; a `Canceled` against a live engine or an
//!   unresolved ticket is a silent-drop bug;
//! * the `engine.sched.shed_rejected` / `engine.sched.shed_expired`
//!   counters equal the typed outcomes the driver observed — exactly, not
//!   approximately;
//! * the shed fraction is nonzero (a 2× overload that sheds nothing means
//!   admission control never engaged) and below 1 (an engine that sheds
//!   everything serves nobody);
//! * queue-wait p99 for *served* queries stays bounded by the latency
//!   budget — the deadline clamps the tail instead of letting it grow with
//!   the backlog.
//!
//! It writes `BENCH_sched.json` (a [`mqa_benchmark::report`] file) under
//! the output directory: arrival vs saturation rate, served/shed split,
//! and queue-wait and service tails — the paper-facing evidence that
//! overload degrades by policy, not by collapse.

use mqa_benchmark::workload::Report;
use mqa_engine::{Deadline, EngineOptions, QueryEngine, SchedOptions, TicketError};
use mqa_retrieval::{FrameworkKind, MultiModalQuery, RetrievalFramework, RetrievalOutput};
use mqa_vector::Candidate;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Workers draining the queue.
const WORKERS: usize = 2;
/// Fixed per-query service time of the synthetic framework.
const SERVICE_US: u64 = 2_000;
/// Admission watermark — the engine's whole queued backlog. The workers
/// drain one job per `SERVICE_US / WORKERS` = 1000 us, so the deadline
/// alone lets `DEADLINE_US * WORKERS / SERVICE_US` = 10 queued jobs reach
/// a worker in time; two slots above that, both shed outcomes engage under
/// sustained 2x overload: `Rejected` at the push once 12 are queued,
/// `Expired` on the worker for the tail that outwaits its budget.
const WATERMARK: usize = 12;
/// Per-query latency budget.
const DEADLINE_US: u64 = 10_000;
/// Open-loop arrivals.
const QUERIES: usize = 400;
/// Interarrival gap: `SERVICE_US / WORKERS / 2` = 2× the saturation rate.
const INTERARRIVAL_US: u64 = SERVICE_US / WORKERS as u64 / 2;

/// Answers after a fixed busy period — a framework whose service rate is
/// known exactly, so the 2× overload factor is by construction.
struct SleepFramework;

impl RetrievalFramework for SleepFramework {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::Must
    }

    fn search(&self, query: &MultiModalQuery, k: usize, _ef: usize) -> RetrievalOutput {
        std::thread::sleep(Duration::from_micros(SERVICE_US));
        let len = query.text.as_deref().map_or(0, str::len);
        RetrievalOutput {
            results: vec![Candidate::new(k as u32, len as f32)],
            ..Default::default()
        }
    }

    fn describe(&self) -> String {
        format!("fixed {SERVICE_US}us sleep")
    }
}

/// Runs the open-loop overload scenario, writes `BENCH_sched.json` and
/// `metrics.json` under `out_dir`, and returns the report filed in the
/// first.
///
/// # Errors
/// Returns a message when a ticket resolves to an untyped outcome, the
/// shed counters disagree with observed outcomes, the shed fraction is
/// degenerate (0 or 1), the served queue-wait tail exceeds the budget, or
/// an artifact cannot be written.
pub fn run(out_dir: &Path, seed: u64) -> Result<Report, String> {
    mqa_obs::global().reset();

    let engine = QueryEngine::new(
        Arc::new(SleepFramework),
        EngineOptions::with_workers(WORKERS).with_sched(SchedOptions {
            watermark: WATERMARK,
        }),
    );

    // Open loop: arrival i is due at `i * INTERARRIVAL_US` on the wall
    // clock regardless of how far behind the workers are. The seed only
    // varies query text (and hence nothing admission keys on) — the
    // gate's verdict must not depend on it.
    let clock = mqa_obs::Stopwatch::start();
    let mut tickets = Vec::with_capacity(QUERIES);
    let mut shed_rejected = 0u64;
    let mut shed_expired = 0u64;
    for i in 0..QUERIES {
        let due = i as u64 * INTERARRIVAL_US;
        let now = clock.elapsed_us();
        if due > now {
            std::thread::sleep(Duration::from_micros(due - now));
        }
        let text = format!("q{}", seed.wrapping_add(i as u64));
        match engine.submit_with_deadline(
            MultiModalQuery::text(text),
            1,
            8,
            Some(Deadline::in_us(DEADLINE_US)),
        ) {
            Ok(t) => tickets.push(t),
            Err(TicketError::Rejected) => shed_rejected += 1,
            Err(TicketError::Expired) => shed_expired += 1,
            Err(TicketError::Canceled) => {
                return Err("sched gate failed: Canceled at submit against a live engine".into())
            }
        }
    }
    let mut served = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(_) => served += 1,
            Err(TicketError::Rejected) => shed_rejected += 1,
            Err(TicketError::Expired) => shed_expired += 1,
            Err(TicketError::Canceled) => {
                return Err(
                    "sched gate failed: a ticket resolved Canceled against a live engine — \
                     a silent drop wearing a type"
                        .into(),
                )
            }
        }
    }
    drop(engine);

    let submitted = QUERIES as u64;
    if served + shed_rejected + shed_expired != submitted {
        return Err(format!(
            "sched gate failed: conservation broken — {submitted} submitted but \
             {served} served + {shed_rejected} rejected + {shed_expired} expired"
        ));
    }

    let snapshot = mqa_obs::global().snapshot();
    verify_instruments(&snapshot, shed_rejected, shed_expired)?;

    let shed_fraction = (shed_rejected + shed_expired) as f64 / submitted as f64;
    if shed_fraction == 0.0 {
        return Err(format!(
            "sched gate failed: 2x overload ({QUERIES} arrivals at \
             {INTERARRIVAL_US}us spacing against {WORKERS}x{SERVICE_US}us workers) \
             shed nothing — admission control never engaged"
        ));
    }
    if served == 0 {
        return Err("sched gate failed: the engine shed every query — \
             overload must degrade, not deny, service"
            .to_string());
    }

    let queue_wait = snapshot
        .histogram("engine.query.queue_wait_us")
        .ok_or("sched gate failed: histogram `engine.query.queue_wait_us` missing")?;
    // Served queries pass the worker-side expiry check before queue wait
    // is recorded, so the tail must sit at or below the budget; the log2
    // bucket estimate is capped at the observed max, so a small pickup
    // slack is the only tolerance needed.
    let bound = DEADLINE_US + DEADLINE_US / 4;
    if queue_wait.p99 > bound {
        return Err(format!(
            "sched gate failed: served queue-wait p99 {}us exceeds the \
             {DEADLINE_US}us budget (bound {bound}us) — deadlines are not \
             clamping the tail",
            queue_wait.p99
        ));
    }
    let service = snapshot
        .histogram("engine.query.latency_us")
        .ok_or("sched gate failed: histogram `engine.query.latency_us` missing")?;

    let saturation_qps = WORKERS as f64 * 1e6 / SERVICE_US as f64;
    let fields = [
        ("arrival_qps", "1/s", 1e6 / INTERARRIVAL_US as f64),
        ("saturation_qps", "1/s", saturation_qps),
        ("submitted", "count", submitted as f64),
        ("served", "count", served as f64),
        ("shed_rejected", "count", shed_rejected as f64),
        ("shed_expired", "count", shed_expired as f64),
        ("shed_fraction", "share", shed_fraction),
        ("deadline_us", "us", DEADLINE_US as f64),
        ("p50_queue_wait_us", "us", queue_wait.p50 as f64),
        ("p99_queue_wait_us", "us", queue_wait.p99 as f64),
        ("p99_service_us", "us", service.p99 as f64),
    ];
    let report = crate::write_bench(out_dir, "sched", submitted, fields)?;
    crate::write_json(out_dir, "metrics.json", &snapshot)?;
    Ok(report)
}

/// The instrument self-checks: the shed counters must equal the typed
/// outcomes the driver observed, one increment per outcome.
fn verify_instruments(
    snapshot: &mqa_obs::Snapshot,
    shed_rejected: u64,
    shed_expired: u64,
) -> Result<(), String> {
    let mut wrong = Vec::new();
    // A counter nobody incremented is absent from the snapshot; absent
    // and zero are the same observation.
    let rejected = snapshot.counter("engine.sched.shed_rejected").unwrap_or(0);
    if rejected != shed_rejected {
        wrong.push(format!(
            "counter `engine.sched.shed_rejected` expected {shed_rejected}, got {rejected}"
        ));
    }
    let expired = snapshot.counter("engine.sched.shed_expired").unwrap_or(0);
    if expired != shed_expired {
        wrong.push(format!(
            "counter `engine.sched.shed_expired` expected {shed_expired}, got {expired}"
        ));
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!("sched gate failed:\n  {}", wrong.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_and_writes_bench() {
        let _serial = crate::scenario_lock();
        let dir = std::env::temp_dir().join(format!("mqa-xtask-sched-test-{}", std::process::id()));
        let report = run(&dir, 42).expect("sched gate must pass on a healthy tree");
        let reading = |metric| crate::reading(&report, metric);
        assert_eq!(
            reading("served") + reading("shed_rejected") + reading("shed_expired"),
            reading("submitted")
        );
        assert!(reading("shed_fraction") > 0.0 && reading("shed_fraction") < 1.0);
        assert_eq!(reading("arrival_qps"), 2.0 * reading("saturation_qps"));
        crate::assert_bench_file_holds(&dir, &report);
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics readable");
        assert!(metrics.contains("engine.sched.shed_rejected"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
