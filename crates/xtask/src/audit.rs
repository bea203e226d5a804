//! The structural audit, a tier-1 test: build every index variant over a
//! synthetic corpus and run the validators the data structures carry, and
//! check every literal instrument and span name in the workspace.
//!
//! The corpus is deterministic (seeded [`mqa_rng::StdRng`]), so an audit
//! failure is always reproducible. Each audited structure contributes one
//! `(subject, violations)` entry; the audit fails if any entry reports
//! violations.

use crate::workspace::{self, SourceFile, Workspace};
use mqa_graph::{BuiltGraph, IndexAlgorithm, MutationError, MutationReport, UnifiedIndex};
use mqa_rng::StdRng;
use mqa_vector::{Metric, MultiVector, MultiVectorStore, Schema, VectorStore, Weights};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// One audited structure: what was audited (e.g. `"index hnsw"`) and its
/// rendered violations (empty = sound).
fn entry<V: std::fmt::Display>(subject: &str, violations: &[V]) -> (String, Vec<String>) {
    let violations = violations.iter().map(V::to_string).collect();
    (subject.to_string(), violations)
}

/// A clustered synthetic store: `clusters` Gaussian-ish blobs in `dim`
/// dimensions, `n` vectors, fully determined by `seed`.
fn synthetic_store(n: usize, dim: usize, clusters: usize, seed: u64) -> VectorStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..clusters)
        .map(|_| (0..dim).map(|_| rng.gen_range(-4.0f32..4.0)).collect())
        .collect();
    let mut store = VectorStore::new(dim);
    for i in 0..n {
        let c = &centers[i % clusters];
        let v: Vec<f32> = c.iter().map(|x| x + rng.gen_range(-0.5f32..0.5)).collect();
        store.push(&v);
    }
    store
}

/// A two-modal synthetic object store with a mix of complete and partial
/// objects (every fourth object lacks its image modality).
fn synthetic_multivector_store(n: usize, seed: u64) -> MultiVectorStore {
    let schema = Schema::text_image(8, 12);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = MultiVectorStore::new(schema.clone());
    for i in 0..n {
        let text: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let image: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mv = if i % 4 == 3 {
            MultiVector::partial(&schema, vec![Some(text), None])
        } else {
            MultiVector::complete(&schema, vec![text, image])
        };
        store.push(&mv);
    }
    store
}

/// Every selectable index configuration, by panel name.
fn all_algorithms() -> [IndexAlgorithm; 5] {
    [
        IndexAlgorithm::Flat,
        IndexAlgorithm::hnsw(),
        IndexAlgorithm::nsg(),
        IndexAlgorithm::vamana(),
        IndexAlgorithm::mqa_graph(),
    ]
}

/// The files the static name audits read: everything under `crates/`
/// except this module, which defines the checkers and whose docs and
/// tests mention instrument names without emitting them.
fn audited_files(ws: &Workspace) -> impl Iterator<Item = &SourceFile> {
    ws.files
        .iter()
        .filter(|f| f.rel.starts_with("crates/") && !f.rel.ends_with("xtask/src/audit.rs"))
}

/// How one source site uses an instrument name.
#[derive(Debug, Default)]
struct InstrumentUse {
    /// `.inc()/.add()/.set()/.record()` directly on the handle, or the
    /// handle stored in a binding (which can write later).
    writable: bool,
    /// First file the name was seen in (for the violation message).
    first_file: String,
}

/// Statically audits every literal `mqa_obs::counter/gauge/histogram("…")`
/// instrument name in the workspace sources.
///
/// Two checks:
/// * **naming** — names follow `<crate>.<component>.<metric>`: at least
///   three non-empty dot-separated segments of `[a-z0-9_-]` characters;
/// * **dead instruments** — every name needs at least one site that can
///   write it (a direct mutation call or a stored handle). A name that is
///   only registered or only asserted on reads zeros forever.
///
/// Formatted names (`&format!(…)`) are skipped: their shape is checked by
/// the naming convention of their literal prefix at review time, and they
/// cannot be matched statically.
fn audit_instruments(ws: &Workspace) -> Vec<String> {
    // Built by concatenation so this file's own source never matches.
    let needles: Vec<(String, &str)> = ["counter", "gauge", "histogram"]
        .iter()
        .map(|kind| (format!("{kind}{}", "(\""), *kind))
        .collect();
    let mut uses: BTreeMap<String, InstrumentUse> = BTreeMap::new();
    let mut violations = Vec::new();
    for file in audited_files(ws) {
        let rel = &file.rel;
        let lines: Vec<&str> = file.source.lines().collect();
        for (idx, line) in lines.iter().enumerate() {
            // Test code registers throwaway names (`t.c`, `x.lat`) that
            // never ship; it is masked the same way the lints mask it.
            if file.is_test_line(idx) {
                continue;
            }
            let trimmed = line.trim_start();
            if trimmed.starts_with("//") {
                continue;
            }
            for (needle, _) in &needles {
                let mut from = 0usize;
                while let Some(pos) = line[from..].find(needle.as_str()) {
                    let name_start = from + pos + needle.len();
                    let Some(name_len) = line[name_start..].find('"') else {
                        break;
                    };
                    let name = &line[name_start..name_start + name_len];
                    let rest = &line[name_start + name_len..];
                    let prefix = line[..from + pos].trim_end();
                    let prefix = prefix
                        .strip_suffix("mqa_obs::")
                        .unwrap_or(prefix)
                        .trim_end();
                    // Reads can be bound (`let v = counter("x").get()`)
                    // without holding a writable handle.
                    let writable = if rest.starts_with("\").get(") || rest.starts_with("\").count(")
                    {
                        false
                    } else {
                        // Long call chains wrap: the method lands on the
                        // next line (`counter("…")\n    .add(n)`).
                        let next_mutates = rest.trim_end() == "\")"
                            && lines.get(idx + 1).is_some_and(|next| {
                                let n = next.trim_start();
                                n.starts_with(".inc(")
                                    || n.starts_with(".add(")
                                    || n.starts_with(".set(")
                                    || n.starts_with(".record(")
                                    || n.starts_with(".record_with_exemplar(")
                            });
                        rest.starts_with("\").inc(")
                            || rest.starts_with("\").add(")
                            || rest.starts_with("\").set(")
                            || rest.starts_with("\").record(")
                            || rest.starts_with("\").record_with_exemplar(")
                            || next_mutates
                            || prefix.ends_with([':', '='])
                    };
                    let entry = uses
                        .entry(name.to_string())
                        .or_insert_with(|| InstrumentUse {
                            writable: false,
                            first_file: rel.clone(),
                        });
                    entry.writable |= writable;
                    from = name_start + name_len;
                }
            }
        }
    }

    for (name, use_) in &uses {
        let segments: Vec<&str> = name.split('.').collect();
        let well_formed = segments.len() >= 3
            && segments.iter().all(|s| {
                !s.is_empty()
                    && s.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_-".contains(c))
            });
        if !well_formed {
            violations.push(format!(
                "instrument `{name}` ({}) violates <crate>.<component>.<metric> naming",
                use_.first_file
            ));
        }
        if !use_.writable {
            violations.push(format!(
                "dead instrument `{name}` ({}): registered or read but never written",
                use_.first_file
            ));
        }
    }
    violations
}

/// Whether the span-site match at `pos` starts on a word boundary —
/// rejects `record_span("…")` registrations and `snap.span("…")` snapshot
/// reads, neither of which emits a stage.
fn span_site_boundary(line: &str, pos: usize) -> bool {
    line[..pos]
        .chars()
        .next_back()
        .map_or(true, |c| !c.is_ascii_alphanumeric() && c != '_' && c != '.')
}

/// Statically audits every literal span name in the workspace sources.
///
/// Two checks:
/// * **naming** — span names follow `<crate>.<component>[.<detail>]`: at
///   least two non-empty dot-separated segments of `[a-z0-9_-]`;
/// * **dead stages** — every witness span the milestone tables reference
///   ([`mqa_obs::trace::QUERY_MILESTONES`] and
///   [`mqa_obs::report::MILESTONE_SPANS`]) must be emitted by at least one
///   literal `span(…)`/`span_under(…)` site. A table entry nobody emits
///   renders a milestone `(not measured)` forever.
fn audit_stages(ws: &Workspace) -> Vec<String> {
    let quote = "(\"";
    let literal_needles: Vec<String> = ["span_under", "span"]
        .iter()
        .map(|kind| format!("{kind}{quote}"))
        .collect();
    let mut literals: BTreeMap<String, String> = BTreeMap::new();
    for file in audited_files(ws) {
        let rel = &file.rel;
        for (idx, line) in file.source.lines().enumerate() {
            if file.is_test_line(idx) || line.trim_start().starts_with("//") {
                continue;
            }
            // `span(` is a substring of `span_under(`; scanning the
            // longer needle first and consuming the match keeps the two
            // from double-counting one site.
            let mut consumed: Vec<(usize, usize)> = Vec::new();
            for needle in &literal_needles {
                let mut from = 0usize;
                while let Some(pos) = line[from..].find(needle.as_str()) {
                    let at = from + pos;
                    let name_start = at + needle.len();
                    from = name_start;
                    if consumed.iter().any(|&(s, e)| at >= s && at < e)
                        || !span_site_boundary(line, at)
                    {
                        continue;
                    }
                    let Some(name_len) = line[name_start..].find('"') else {
                        break;
                    };
                    consumed.push((at, name_start + name_len));
                    let name = &line[name_start..name_start + name_len];
                    literals.entry(name.to_string()).or_insert(rel.clone());
                }
            }
        }
    }

    let mut violations = Vec::new();
    for (name, file) in &literals {
        let segments: Vec<&str> = name.split('.').collect();
        let well_formed = segments.len() >= 2
            && segments.iter().all(|s| {
                !s.is_empty()
                    && s.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_-".contains(c))
            });
        if !well_formed {
            violations.push(format!(
                "stage `{name}` ({file}) violates <crate>.<component> span naming"
            ));
        }
    }
    let tables: [(&str, &[(&str, &[&str])]); 2] = [
        ("trace::QUERY_MILESTONES", &mqa_obs::trace::QUERY_MILESTONES),
        ("report::MILESTONE_SPANS", &mqa_obs::report::MILESTONE_SPANS),
    ];
    for (table, milestones) in tables {
        for (milestone, witnesses) in milestones.iter() {
            for w in witnesses.iter() {
                if !literals.contains_key(*w) {
                    violations.push(format!(
                        "dead stage `{w}`: {table} milestone `{milestone}` references it \
                         but no span site emits it"
                    ));
                }
            }
        }
    }
    violations
}

/// Runs the full audit: every index variant over the synthetic corpus,
/// the unified multi-modal index through a scripted mutation life cycle,
/// the multi-vector store, and the static instrument-name audit.
fn run(repo_root: &Path) -> Vec<(String, Vec<String>)> {
    let mut entries = Vec::new();

    match workspace::load(repo_root) {
        Ok(ws) => {
            entries.push(entry("obs instruments", &audit_instruments(&ws)));
            entries.push(entry("trace stages", &audit_stages(&ws)));
        }
        Err(e) => entries.push(entry("workspace sources", &[e])),
    }

    // Single-vector indexes, every variant.
    let store = Arc::new(synthetic_store(500, 16, 8, 0xA0D1));
    for algo in all_algorithms() {
        let built = algo.build_graph(&store);
        let subject = format!("index {}", algo.name());
        entries.push(entry(&subject, &built.validate(&store)));
    }

    // The unified multi-modal index (store + learned-weight layout), as
    // assembled by the real system path, then driven through one scripted
    // life cycle of the generation routine — grow, retire a quarter of the
    // ids (every entry among them, which compacts), grow again — with
    // every generation it publishes validated.
    let mv = synthetic_multivector_store(300, 0xA0D2);
    entries.push(entry("multivector store", &mv.validate()));
    let weights = Weights::normalized(&[2.0, 1.0]);
    let donors = synthetic_multivector_store(80, 0xA0D3);
    let batch = |from: u32, to: u32| -> Vec<MultiVector> {
        (from..to)
            .filter(|id| id % 4 != 3) // online inserts must be complete
            .map(|id| donors.multivector_of(id))
            .collect()
    };
    for algo in all_algorithms() {
        let name = format!("unified index ({})", algo.name());
        let unified = UnifiedIndex::build(mv.clone(), weights.clone(), Metric::L2, &algo);
        let snapshot = unified.snapshot();
        let mut violations = snapshot
            .store
            .validate()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>();
        violations.extend(
            unified
                .current()
                .validate(&weights)
                .iter()
                .map(ToString::to_string),
        );
        let mut doomed: Vec<u32> = match unified.current().searcher() {
            BuiltGraph::Nav(nav) => nav.entries().to_vec(),
            BuiltGraph::Hnsw(hnsw) => vec![hnsw.entry()],
            _ => Vec::new(), // flat: no entry points
        };
        doomed.extend((0..300).step_by(4));
        type Outcome = Result<MutationReport, MutationError>;
        let mut ran = |step: &str, compacts: bool, outcome: Outcome| {
            match outcome {
                Ok(done) if done.compacted == compacts => {}
                Ok(done) => violations.push(format!("{step}: unexpected outcome {done:?}")),
                Err(e) => violations.push(format!("{step}: rejected ({e})")),
            }
            let found = unified.current().validate(&weights);
            violations.extend(found.iter().map(|v| format!("after {step}: {v}")));
        };
        ran("add", false, unified.add_objects(&batch(0, 40)));
        ran("compacting delete", true, unified.remove_objects(&doomed));
        ran(
            "add after compaction",
            false,
            unified.add_objects(&batch(40, 80)),
        );
        entries.push((name, violations));
    }

    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("xtask sits two levels under the workspace root")
            .to_path_buf()
    }

    #[test]
    fn instrument_audit_is_clean_on_the_workspace() {
        let violations = audit_instruments(&workspace::load(&repo_root()).unwrap());
        assert!(violations.is_empty(), "instrument audit: {violations:#?}");
    }

    #[test]
    fn instrument_audit_flags_bad_names_and_dead_instruments() {
        let obs = "mqa_obs::";
        let src = format!(
            "pub fn f() {{\n    {obs}counter{}two.segments{}.inc();\n    let _ = {obs}counter{}demo.dead.reads{}.get();\n    {obs}histogram{}demo.live.lat_us{}.record(1);\n}}\n",
            "(\"", "\")", "(\"", "\")", "(\"", "\")"
        );
        let ws = Workspace::from_sources(&[("crates/demo/src/lib.rs", src)]);
        let violations = audit_instruments(&ws);
        assert_eq!(violations.len(), 2, "{violations:#?}");
        assert!(violations.iter().any(|v| v.contains("`two.segments`")));
        assert!(violations
            .iter()
            .any(|v| v.contains("dead instrument `demo.dead.reads`")));
    }

    #[test]
    fn stage_audit_is_clean_on_the_workspace() {
        let violations = audit_stages(&workspace::load(&repo_root()).unwrap());
        assert!(violations.is_empty(), "stage audit: {violations:#?}");
    }

    #[test]
    fn stage_audit_flags_bad_names_and_dead_stages() {
        let obs = "mqa_obs::";
        // `BadName` has one segment; `record_span("core.turn")` must not
        // count as an emission site (word boundary).
        let src = format!(
            "pub fn f() {{\n    let _a = {obs}span{q}BadName{p};\n    snap.record_span{q}core.turn{p};\n}}\n",
            q = "(\"",
            p = "\")"
        );
        let ws = Workspace::from_sources(&[("crates/demo/src/lib.rs", src)]);
        let violations = audit_stages(&ws);
        assert!(
            violations.iter().any(|v| v.contains("stage `BadName`")),
            "{violations:#?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("dead stage `core.turn`")),
            "record_span must not witness core.turn: {violations:#?}"
        );
    }

    #[test]
    fn full_audit_is_clean() {
        // The audit's add / delete pass moves the global `graph.mutate.*`
        // counters the mutate gate's test asserts exact values of.
        let _serial = crate::scenario_lock();
        let entries = run(&repo_root());
        let dirty: Vec<_> = entries.iter().filter(|(_, v)| !v.is_empty()).collect();
        assert!(dirty.is_empty(), "audit found violations: {dirty:?}");
        // Every variant plus the unified/store subjects are present.
        assert!(entries.len() >= 9, "{} entries", entries.len());
    }

    #[test]
    fn synthetic_corpus_is_deterministic() {
        let a = synthetic_store(50, 8, 4, 7);
        let b = synthetic_store(50, 8, 4, 7);
        assert_eq!(a, b);
        assert_ne!(a, synthetic_store(50, 8, 4, 8));
    }
}
