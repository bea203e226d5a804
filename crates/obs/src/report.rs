//! Text rendering of a metrics [`Snapshot`]: per-milestone latency
//! breakdown, a span tree with counts and totals, counters, and histogram
//! quantiles. The milestone section maps span names onto the paper's five
//! "Status of MQA" milestones so `StatusMonitor::render` can show real
//! measured timings.

use crate::metrics::{Snapshot, SpanSnapshot};
use crate::trace::QueryTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The paper's five status milestones, each keyed to the span names whose
/// aggregate timing backs it (first present name wins).
pub const MILESTONE_SPANS: [(&str, &[&str]); 5] = [
    ("Data Preprocessing", &["core.build.data_preprocessing"]),
    (
        "Vector Representation",
        &["core.build.vector_representation"],
    ),
    ("Index Construction", &["core.build.index_construction"]),
    (
        "Query Execution",
        &[
            "core.turn",
            "retrieval.must.search",
            "retrieval.mr.search",
            "retrieval.je.search",
        ],
    ),
    ("Answer Generation", &["core.turn.generate", "llm.generate"]),
];

/// Formats microseconds with an adaptive unit.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{us} \u{00b5}s")
    }
}

/// The per-milestone latency lines alone — the fragment
/// `StatusMonitor::detail` consumes. One line per milestone; unmeasured
/// milestones render as `(not measured)`.
pub fn milestone_breakdown(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (label, span_names) in MILESTONE_SPANS {
        let stat = span_names.iter().find_map(|n| snap.span(n));
        match stat {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "{label}: {} total across {} call(s), p50 {}, p99 {}",
                    fmt_us(s.total_us),
                    s.count,
                    fmt_us(s.p50_us),
                    fmt_us(s.p99_us),
                );
            }
            None => {
                let _ = writeln!(out, "{label}: (not measured)");
            }
        }
    }
    out
}

fn render_span_line(out: &mut String, s: &SpanSnapshot, depth: usize) {
    let indent = "  ".repeat(depth + 1);
    let _ = writeln!(
        out,
        "{indent}{} \u{00d7}{}  total {}  p50 {}  max {}",
        s.name,
        s.count,
        fmt_us(s.total_us),
        fmt_us(s.p50_us),
        fmt_us(s.max_us),
    );
}

fn render_span_tree(
    out: &mut String,
    name: &str,
    by_name: &BTreeMap<&str, &SpanSnapshot>,
    children: &BTreeMap<&str, Vec<&str>>,
    depth: usize,
) {
    // Depth cap guards against accidental parent cycles in recorded names.
    if depth > 16 {
        return;
    }
    if let Some(s) = by_name.get(name) {
        render_span_line(out, s, depth);
    }
    if let Some(kids) = children.get(name) {
        for kid in kids {
            render_span_tree(out, kid, by_name, children, depth + 1);
        }
    }
}

/// Renders the slow-query log: one block per retained trace, slowest
/// first, with tail-latency attribution (queue wait vs service vs total),
/// the worker that served it, search work, cache outcome, token counts,
/// and the top stages by duration.
pub fn render_slow_queries(traces: &[QueryTrace]) -> String {
    let mut out = String::new();
    out.push_str("\u{2500}\u{2500} Slow Query Log \u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\n");
    if traces.is_empty() {
        out.push_str("  (no traces retained)\n");
        return out;
    }
    let mut sorted: Vec<&QueryTrace> = traces.iter().collect();
    sorted.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.seq.cmp(&b.seq)));
    for t in sorted {
        let worker = t
            .worker
            .map_or_else(|| "caller thread".to_string(), |w| format!("worker {w}"));
        let cache = match t.cache_hit {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "n/a",
        };
        let _ = writeln!(
            out,
            "trace {} [{}] {} \u{2014} total {} (queue {} + service {}), {}, cache {}",
            t.trace_id,
            t.outcome,
            t.root,
            fmt_us(t.total_us),
            fmt_us(t.queue_wait_us),
            fmt_us(t.service_us),
            worker,
            cache,
        );
        let _ = writeln!(
            out,
            "  work: {} hops, {} evals, {} pages read in {} waits ({} cached); tokens {}+{}{}{}",
            t.hops,
            t.evals,
            t.pages_read,
            t.device_waits,
            t.pages_cached,
            t.prompt_tokens,
            t.completion_tokens,
            if t.framework.is_empty() {
                String::new()
            } else {
                format!("; framework {}", t.framework)
            },
            if t.serial_fallback {
                "; serial fallback"
            } else {
                ""
            },
        );
        let mut stages: Vec<_> = t.stages.iter().collect();
        stages.sort_by_key(|s| std::cmp::Reverse(s.dur_us));
        for stage in stages.iter().take(5) {
            let _ = writeln!(out, "    {:<36} {}", stage.name, fmt_us(stage.dur_us));
        }
        if t.stages.len() > 5 {
            let _ = writeln!(out, "    \u{2026} {} more stage(s)", t.stages.len() - 5);
        }
    }
    out
}

/// Renders the full report: milestones, span tree, counters, gauges,
/// histogram quantiles. Stable ordering (registry snapshots are sorted by
/// name) so tests can pin on fragments.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("\u{2500}\u{2500} Observability Report \u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\u{2500}\n");

    out.push_str("Milestones\n");
    for line in milestone_breakdown(snap).lines() {
        let _ = writeln!(out, "  {line}");
    }

    if !snap.spans.is_empty() {
        out.push_str("Spans\n");
        let by_name: BTreeMap<&str, &SpanSnapshot> =
            snap.spans.iter().map(|s| (s.name.as_str(), s)).collect();
        let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut roots: Vec<&str> = Vec::new();
        for s in &snap.spans {
            match s.parent.as_deref().filter(|p| by_name.contains_key(p)) {
                Some(parent) => children.entry(parent).or_default().push(s.name.as_str()),
                None => roots.push(s.name.as_str()),
            }
        }
        for root in roots {
            render_span_tree(&mut out, root, &by_name, &children, 0);
        }
    }

    if !snap.counters.is_empty() {
        out.push_str("Counters\n");
        for c in &snap.counters {
            let _ = writeln!(out, "  {:<44} {}", c.name, c.value);
        }
    }

    if !snap.gauges.is_empty() {
        out.push_str("Gauges\n");
        for g in &snap.gauges {
            let _ = writeln!(out, "  {:<44} {:.3}", g.name, g.value);
        }
    }

    if !snap.histograms.is_empty() {
        out.push_str("Histograms\n");
        for h in &snap.histograms {
            let _ = writeln!(
                out,
                "  {:<44} n={}  p50={}  p90={}  p99={}  max={}",
                h.name, h.count, h.p50, h.p90, h.p99, h.max,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.record_span("core.build.data_preprocessing", Some("core.build"), 1_500);
        r.record_span(
            "core.build.vector_representation",
            Some("core.build"),
            2_500,
        );
        r.record_span("core.build.index_construction", Some("core.build"), 9_000);
        r.record_span("core.build", None, 14_000);
        r.record_span("core.turn", None, 4_200);
        r.record_span("core.turn.generate", Some("core.turn"), 800);
        r.counter("graph.search.evals").add(1234);
        r.histogram("graph.flat.search_us").record(300);
        r
    }

    #[test]
    fn milestone_breakdown_covers_all_five() {
        let text = milestone_breakdown(&sample_registry().snapshot());
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("Data Preprocessing: 1.50 ms"));
        assert!(text.contains("Index Construction: 9.00 ms"));
        assert!(text.contains("Query Execution: 4.20 ms"));
        assert!(text.contains("Answer Generation: 800 \u{00b5}s"));
        assert!(!text.contains("(not measured)"));
    }

    #[test]
    fn unmeasured_milestones_are_flagged() {
        let text = milestone_breakdown(&Registry::new().snapshot());
        assert_eq!(text.lines().count(), 5);
        assert_eq!(text.matches("(not measured)").count(), 5);
    }

    #[test]
    fn render_nests_children_under_parents() {
        let text = render(&sample_registry().snapshot());
        assert!(text.starts_with("\u{2500}\u{2500} Observability Report"));
        let build_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("core.build \u{00d7}"))
            .expect("core.build line");
        let stage_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("core.build.index_construction"))
            .expect("stage line");
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(
            indent(stage_line) > indent(build_line),
            "child indented deeper"
        );
        assert!(text.contains("graph.search.evals"));
        assert!(text.contains("n=1"));
    }

    #[test]
    fn fmt_us_picks_adaptive_units() {
        assert_eq!(fmt_us(12), "12 \u{00b5}s");
        assert_eq!(fmt_us(2_500), "2.50 ms");
        assert_eq!(fmt_us(3_000_000), "3.00 s");
    }
}
