//! The `obs` smoke command: run a seeded multi-turn dialogue scenario,
//! then write the two observability artifacts (`metrics.json`,
//! `report.txt`) into an output directory and self-verify that the
//! expected spans and metrics exist.
//!
//! CI runs this as a hard gate: a refactor that silently drops the
//! instrumentation from a pipeline layer fails the name checks below.

use mqa_core::{Config, Milestone, MqaSystem, StatusMonitor, Turn};
use mqa_kb::DatasetSpec;
use mqa_obs::{report, Snapshot};
use std::path::Path;

/// Spans that must appear in the snapshot after the scenario: one per
/// instrumented pipeline layer (system build and its three components,
/// graph build and its five stages, retrieval stages, diversification,
/// generation, end-to-end turn).
const REQUIRED_SPANS: [&str; 16] = [
    "core.build",
    "core.build.data_preprocessing",
    "core.build.vector_representation",
    "core.build.index_construction",
    "graph.mqa-graph.build",
    "graph.build.initialization",
    "graph.build.entry_selection",
    "graph.build.refinement",
    "graph.build.connectivity_repair",
    "graph.build.finalization",
    "retrieval.must.search",
    "retrieval.must.encode",
    "retrieval.must.index_search",
    "retrieval.diversify",
    "core.turn",
    "llm.generate",
];

/// Counters that must be non-zero after the scenario.
const REQUIRED_COUNTERS: [&str; 5] = [
    "graph.search.queries",
    "graph.search.evals",
    "llm.mock.calls",
    "llm.mock.prompt_tokens",
    "core.session.turns",
];

/// Histograms that must have recorded at least one sample (per-index
/// search latency plus distance-evaluation work).
const REQUIRED_HISTOGRAMS: [&str; 2] = ["graph.mqa-graph.search_us", "graph.mqa-graph.evals"];

/// What the scenario produced, for the caller to print.
pub struct ObsOutcome {
    /// Metrics snapshot taken after the scenario.
    pub snapshot: Snapshot,
    /// The rendered status panel (milestone breakdown included).
    pub status_panel: String,
}

/// Runs the seeded scenario and writes `metrics.json` and `report.txt`
/// under `out_dir`.
///
/// # Errors
/// Returns a message when the scenario cannot be built, an artifact
/// cannot be written, or a self-check fails (missing span / counter /
/// histogram).
pub fn run(out_dir: &Path, seed: u64) -> Result<ObsOutcome, String> {
    mqa_obs::global().reset();

    let kb = DatasetSpec::weather()
        .objects(120)
        .concepts(6)
        .caption_noise(0.05)
        .seed(seed)
        .generate();
    let config = Config {
        diversify: Some(0.4),
        carry_history: true,
        ..Config::default()
    };
    let sys = MqaSystem::build(config, kb).map_err(|e| format!("build failed: {e}"))?;

    // A four-round session exercising text, click-refine, reject-refine
    // and a terse history-carried follow-up.
    let mut session = sys.open_session();
    let opener = sys.corpus().kb().get(0).title.clone();
    let phrase = opener
        .rsplit_once(" #")
        .map(|(p, _)| p.to_string())
        .unwrap_or(opener);
    let turns = [
        Turn::text(format!("show me {phrase}")),
        Turn::select_and_text(0, format!("more {phrase} like this one")),
        Turn::reject_and_text(1, "not that one"),
        Turn::text("even more of those"),
    ];
    for turn in turns {
        session.ask(turn).map_err(|e| format!("turn failed: {e}"))?;
    }

    let snapshot = mqa_obs::global().snapshot();

    // Feed the per-milestone obs breakdown into the status panel, the
    // paper's ② frontend surface.
    let mut status: StatusMonitor = sys.status().clone();
    status.detail(
        Milestone::QueryExecution,
        report::milestone_breakdown(&snapshot),
    );
    let status_panel = status.render();

    crate::write_json(out_dir, "metrics.json", &snapshot)?;
    let mut rendered = report::render(&snapshot);
    rendered.push('\n');
    rendered.push_str(&status_panel);
    std::fs::write(out_dir.join("report.txt"), &rendered)
        .map_err(|e| format!("writing report.txt: {e}"))?;

    verify(&snapshot)?;
    Ok(ObsOutcome {
        snapshot,
        status_panel,
    })
}

/// The self-checks behind the CI smoke gate.
fn verify(snapshot: &Snapshot) -> Result<(), String> {
    let mut missing = Vec::new();
    if snapshot.spans.is_empty() {
        missing.push("snapshot has zero spans".to_string());
    }
    for name in REQUIRED_SPANS {
        if snapshot.span(name).is_none() {
            missing.push(format!("span `{name}` not recorded"));
        }
    }
    for name in REQUIRED_COUNTERS {
        match snapshot.counter(name) {
            Some(v) if v > 0 => {}
            _ => missing.push(format!("counter `{name}` missing or zero")),
        }
    }
    for name in REQUIRED_HISTOGRAMS {
        match snapshot.histogram(name) {
            Some(h) if h.count > 0 => {}
            _ => missing.push(format!("histogram `{name}` missing or empty")),
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("obs smoke failed:\n  {}", missing.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_emits_all_artifacts_and_passes_self_checks() {
        let _serial = crate::scenario_lock();
        let dir = std::env::temp_dir().join(format!("mqa-xtask-obs-test-{}", std::process::id()));
        let outcome = run(&dir, 42).expect("obs scenario must pass its own smoke checks");
        assert!(outcome.status_panel.contains("Query Execution"));
        for file in ["metrics.json", "report.txt"] {
            let path = dir.join(file);
            let body = std::fs::read_to_string(&path).expect("artifact readable");
            assert!(!body.is_empty(), "{file} is empty");
        }
        let report = std::fs::read_to_string(dir.join("report.txt")).unwrap();
        assert!(report.contains("Milestones"));
        assert!(report.contains("core.turn"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
