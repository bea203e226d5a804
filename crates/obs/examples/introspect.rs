//! Runs the live introspection endpoint against synthetic load.
//!
//! ```text
//! cargo run -p mqa-obs --example introspect
//! curl http://127.0.0.1:9898/metrics
//! curl http://127.0.0.1:9898/traces
//! curl http://127.0.0.1:9898/report
//! ```
//!
//! The load generator mints one trace per tick with a few nested stages
//! and varying latency, so all three routes have something to show.

use std::time::Duration;

fn main() {
    if let Err(err) = run() {
        eprintln!("introspect example failed: {err}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), std::io::Error> {
    mqa_obs::trace::configure(mqa_obs::TraceConfig::default());
    mqa_obs::trace::enable();

    let handle = mqa_obs::serve::serve("127.0.0.1:9898")?;
    let addr = handle.addr();
    println!("introspection endpoint listening on http://{addr}");
    println!("  curl http://{addr}/metrics   # Prometheus text exposition");
    println!("  curl http://{addr}/traces    # retained query traces (JSONL)");
    println!("  curl http://{addr}/report    # human-readable pipeline report");
    println!("press Ctrl-C to stop");

    let latency = mqa_obs::histogram("engine.query.latency_us");
    let mut tick: u64 = 0;
    loop {
        tick = tick.wrapping_add(1);
        let trace = mqa_obs::trace::begin("example.query");
        {
            let _turn = mqa_obs::span("example.query");
            {
                let _encode = mqa_obs::span("example.query.encode");
                std::thread::sleep(Duration::from_millis(1));
            }
            {
                let _search = mqa_obs::span("example.query.search");
                // Vary the work so the slowest-N set is non-trivial.
                std::thread::sleep(Duration::from_millis(1 + tick % 7));
            }
            mqa_obs::trace::add_search_work(2, 40, 3, 8, 5, 2);
            mqa_obs::trace::add_tokens(64, 24);
            mqa_obs::counter("example.load.queries").inc();
        }
        if let Some(t) = trace {
            let us = 1_000u64.saturating_add((tick % 7).saturating_mul(1_000));
            latency.record_with_exemplar(us, t.id());
            t.finish();
        }
        std::thread::sleep(Duration::from_millis(250));
    }
}
