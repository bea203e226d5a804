//! The build's spans are its one clock: after one `MqaSystem::build` the
//! registry holds one span per layer stage, parented to the layer's build
//! span, and the status panel and milestone report read those durations.
//!
//! Alone in its file (one test, own process) so the global registry holds
//! exactly this build.

use mqa_core::{Config, Milestone, MqaSystem};
use mqa_kb::DatasetSpec;

#[test]
fn one_build_records_one_span_per_stage_under_its_layer() {
    let kb = DatasetSpec::weather()
        .objects(80)
        .concepts(8)
        .seed(1)
        .generate();
    let sys = MqaSystem::build(Config::default(), kb).expect("system builds");
    let snap = mqa_obs::global().snapshot();

    let stages = [
        ("core.build.data_preprocessing", "core.build"),
        ("core.build.vector_representation", "core.build"),
        ("core.build.index_construction", "core.build"),
        ("graph.build.initialization", "graph.mqa-graph.build"),
        ("graph.build.entry_selection", "graph.mqa-graph.build"),
        ("graph.build.refinement", "graph.mqa-graph.build"),
        ("graph.build.connectivity_repair", "graph.mqa-graph.build"),
    ];
    for (name, parent) in stages {
        let span = snap
            .span(name)
            .unwrap_or_else(|| panic!("span `{name}` missing"));
        assert_eq!(span.parent.as_deref(), Some(parent), "parent of `{name}`");
        assert_eq!(span.count, 1, "count of `{name}`");
    }
    let graph_build = snap
        .span("graph.mqa-graph.build")
        .expect("graph build span");
    assert_eq!(
        graph_build.parent.as_deref(),
        Some("core.build.index_construction")
    );
    assert!(
        !snap.spans.iter().any(|s| s.name.starts_with("dag.")),
        "a span still carries the executor's name: {:?}",
        snap.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    // The status panel and the milestone report read those same spans:
    // the span's duration, not a second clock around it. The first three
    // milestones are the build ones, in the order of `stages`.
    let breakdown = mqa_obs::report::milestone_breakdown(&snap);
    for (milestone, (name, _)) in Milestone::ALL.into_iter().zip(stages).take(3) {
        let elapsed = sys.status().elapsed(milestone).expect("milestone ticked");
        assert!(!elapsed.is_zero(), "{milestone:?} took no time");
        let span_us = snap.span(name).expect("checked above").total_us;
        assert_eq!(elapsed.as_micros(), u128::from(span_us), "{milestone:?}");
        let line = breakdown
            .lines()
            .find(|l| l.starts_with(milestone.label()))
            .unwrap_or_else(|| panic!("no `{}` line in:\n{breakdown}", milestone.label()));
        assert!(line.contains("across 1 call(s)"), "{line}");
    }
}
