//! `serve` — the interactive front-end, and the closest this
//! reproduction gets to the paper's live demonstration: a line-protocol
//! REPL that drives a [`DialogueSession`] through the concurrent engine.
//! Type multi-modal queries, click results by number, refine, and watch
//! the retrieval statistics.
//!
//! Every turn is routed through [`QueryEngine`](mqa::engine::QueryEngine)'s one queue with
//! admission control enabled, so overload surfaces as *typed* shed
//! outcomes at the prompt instead of unbounded queueing.
//!
//! Line protocol:
//!
//! * plain text — ask that question as the next dialogue turn;
//! * `@<us> <text>` — ask with a one-turn deadline override of `<us>`
//!   microseconds (e.g. `@20000 foggy mountain road`);
//! * `:deadline <us>` — set the per-turn latency budget for all
//!   subsequent turns (`:deadline off` clears it; off by default);
//! * `:pick N [text]` — select result `N` of the previous reply, its
//!   image augments the next query (optionally refine in one turn);
//! * `:reject N <text>` — "not this one": exclude result `N` for the rest
//!   of the session and re-ask;
//! * `:weights a b` — set a per-modality weight override for the next
//!   turns (`:weights off` clears it);
//! * `:stats` — print the admission instruments (shed counts, queue
//!   depth);
//! * `:status` — print the system status panel;
//! * `:config` — print the configuration panel;
//! * `:quit` — exit.
//!
//! ```bash
//! cargo run --release --bin serve
//! ```

// A fail-fast driver: aborting with the message is the designed behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqa::core::MqaError;
use mqa::engine::{EngineOptions, SchedOptions, TicketError};
use mqa::prelude::*;
use std::io::{BufRead, Write};

/// Workers behind the queue; small on purpose so a burst of turns
/// with tight budgets actually exercises admission control.
const WORKERS: usize = 2;

fn print_sched_stats() {
    let rejected = mqa::obs::counter("engine.sched.shed_rejected").get();
    let expired = mqa::obs::counter("engine.sched.shed_expired").get();
    let depth = mqa::obs::gauge("engine.pool.queue_depth").get();
    println!("admission ▸ shed_rejected={rejected} shed_expired={expired} queue_depth={depth}");
}

fn shed_notice(err: TicketError) -> &'static str {
    match err {
        TicketError::Rejected => {
            "shed (rejected): the queue is at its admission watermark — retry, raise the budget, or drop the deadline"
        }
        TicketError::Expired => {
            "shed (expired): the latency budget ran out before a worker picked the query up — raise the budget with :deadline"
        }
        TicketError::Canceled => "canceled: the engine shut down while the turn was in flight",
    }
}

/// Splits `N [text]` into the result rank and the optional trailing text.
fn rank_and_text(rest: &str) -> Option<(usize, Option<&str>)> {
    let mut parts = rest.splitn(2, ' ');
    let rank = parts.next()?.parse().ok()?;
    Some((rank, parts.next()))
}

fn main() {
    println!("building the MQA system (weather corpus, 5k objects)…");
    let kb = DatasetSpec::weather()
        .objects(5_000)
        .concepts(80)
        .styles(3)
        .seed(9)
        .generate();
    let config = Config {
        k: 5,
        ..Config::default()
    };
    let mut system = MqaSystem::build(config, kb).expect("system builds");
    system.enable_engine(EngineOptions::with_workers(WORKERS).with_sched(SchedOptions::default()));
    println!("{}", mqa::core::panels::render_status_panel(&system));
    println!(
        "serving with deadlines and admission control ({WORKERS} workers). \
         try: \"foggy clouds over the mountain\", or `@20000 <text>` for a 20 ms budget — :quit to exit\n"
    );

    let mut session = system.open_session();
    let mut deadline_us: Option<u64> = None;
    let mut weights: Option<Vec<f32>> = None;
    let stdin = std::io::stdin();
    loop {
        print!("you ▸ ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // A `@<us>` prefix is a one-turn deadline flag; it overrides the
        // session-level `:deadline` setting for this turn only.
        let (turn_deadline_us, line) = match line.strip_prefix('@') {
            Some(rest) => {
                let mut parts = rest.splitn(2, ' ');
                match (parts.next().map(str::parse::<u64>), parts.next()) {
                    (Some(Ok(us)), Some(text)) if !text.trim().is_empty() => {
                        (Some(us), text.trim())
                    }
                    _ => {
                        println!("usage: @<budget_us> <text>, e.g. `@20000 foggy mountain`");
                        continue;
                    }
                }
            }
            None => (deadline_us, line),
        };
        let turn = if let Some(rest) = line.strip_prefix(":deadline ") {
            match rest.trim() {
                "off" => {
                    deadline_us = None;
                    println!("deadline cleared: turns now wait as long as they take");
                }
                spec => match spec.parse::<u64>() {
                    Ok(us) if us > 0 => {
                        deadline_us = Some(us);
                        println!("per-turn latency budget set to {us} µs");
                    }
                    _ => println!("usage: :deadline <budget_us> | off"),
                },
            }
            continue;
        } else if let Some(rest) = line.strip_prefix(":pick ") {
            match rank_and_text(rest) {
                Some((rank, Some(text))) => Turn::select_and_text(rank, text),
                Some((rank, None)) => Turn {
                    select: Some(rank),
                    ..Turn::default()
                },
                None => {
                    println!("usage: :pick N [refinement text]");
                    continue;
                }
            }
        } else if let Some(rest) = line.strip_prefix(":reject ") {
            match rank_and_text(rest) {
                Some((rank, Some(text))) => Turn::reject_and_text(rank, text),
                _ => {
                    println!("usage: :reject N <text>, e.g. `:reject 0 more clouds`");
                    continue;
                }
            }
        } else if let Some(rest) = line.strip_prefix(":weights ") {
            if rest.trim() == "off" {
                weights = None;
                println!("weight override cleared");
            } else {
                let parsed: Result<Vec<f32>, _> = rest.split_whitespace().map(str::parse).collect();
                match parsed {
                    Ok(w) if !w.is_empty() => {
                        println!("weight override set to {w:?}");
                        weights = Some(w);
                    }
                    _ => println!("usage: :weights <w1> <w2> … | off"),
                }
            }
            continue;
        } else {
            match line {
                ":quit" | ":q" => break,
                ":stats" => {
                    print_sched_stats();
                    continue;
                }
                ":status" => {
                    println!("{}", mqa::core::panels::render_status_panel(&system));
                    continue;
                }
                ":config" => {
                    println!(
                        "{}",
                        mqa::core::panels::render_config_panel(system.config())
                    );
                    continue;
                }
                text => Turn::text(text),
            }
        };
        let turn = Turn {
            weights: weights.clone(),
            deadline_us: turn_deadline_us,
            ..turn
        };
        match session.ask(turn) {
            Ok(reply) => {
                print!("{}", mqa::core::panels::render_qa_exchange(line, &reply));
            }
            // A shed is a first-class protocol outcome, never a silent
            // retry: say which admission decision was taken and why.
            Err(MqaError::Shed(err)) => println!("mqa ▸ {}", shed_notice(err)),
            Err(e) => println!("mqa ▸ error: {e}"),
        }
    }
    print_sched_stats();
    println!("bye");
}
