//! A bounded JSONL event journal with monotonic microsecond timestamps.
//!
//! Disabled by default: the fast path is one relaxed atomic load, so
//! instrumented code pays nothing in production runs. When enabled (the
//! `mqa-xtask obs` scenario, tests), span opens/closes and metric
//! snapshots are appended as one JSON object per line, up to a
//! configured cap; lines past the cap are counted as dropped rather than
//! evicting earlier context.
//!
//! Line shapes:
//!
//! ```text
//! {"ts_us":12,"kind":"span_open","name":"core.turn","id":7,"parent":3,"depth":2}
//! {"ts_us":90,"kind":"span_close","name":"core.turn","id":7,"dur_us":78}
//! {"ts_us":99,"kind":"snapshot","metrics":{...}}
//! ```

use crate::metrics::Snapshot;
use serde::{Number, Serialize, Value};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default line cap for [`Journal::enable`] callers that don't care.
pub const DEFAULT_CAP: usize = 100_000;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct State {
    cap: usize,
    lines: Vec<String>,
    dropped: u64,
    t0: Option<Instant>,
}

/// A bounded JSONL event log. Use [`global()`] in instrumented code;
/// construct locally in tests that need isolation.
pub struct Journal {
    enabled: AtomicBool,
    state: Mutex<State>,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide journal.
pub fn global() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(Journal::new)
}

impl Journal {
    /// A disabled, empty journal.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            state: Mutex::new(State {
                cap: DEFAULT_CAP,
                lines: Vec::new(),
                dropped: 0,
                t0: None,
            }),
        }
    }

    /// Starts recording: clears prior lines, sets the line cap, and zeroes
    /// the monotonic clock.
    pub fn enable(&self, cap: usize) {
        {
            let mut s = lock(&self.state);
            s.cap = cap;
            s.lines.clear();
            s.dropped = 0;
            s.t0 = Some(Instant::now());
        }
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops recording; accumulated lines remain readable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether the journal is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Appends one record built from `fields` (after the standard `ts_us`
    /// and `kind` entries). No-op while disabled; counted as dropped once
    /// the cap is reached.
    pub fn push(&self, kind: &str, fields: Vec<(String, Value)>) {
        if !self.is_enabled() {
            return;
        }
        let mut s = lock(&self.state);
        if s.lines.len() >= s.cap {
            s.dropped += 1;
            return;
        }
        let ts_us =
            s.t0.map(|t0| u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX))
                .unwrap_or(0);
        // ALLOC: journal recording only — `push` early-returns while the journal is disabled (the steady-state default).
        let mut entries = Vec::with_capacity(fields.len() + 2);
        entries.push(("ts_us".to_string(), Value::Number(Number::UInt(ts_us))));
        entries.push(("kind".to_string(), Value::String(kind.to_string())));
        entries.extend(fields);
        match serde_json::to_string(&Value::Object(entries)) {
            Ok(line) => s.lines.push(line),
            Err(_) => s.dropped += 1,
        }
    }

    /// A copy of the recorded lines, in order.
    pub fn lines(&self) -> Vec<String> {
        // ALLOC: diagnostic snapshot of the journal; not on the serving path.
        lock(&self.state).lines.clone()
    }

    /// Number of records rejected because the cap was reached.
    pub fn dropped(&self) -> u64 {
        lock(&self.state).dropped
    }

    /// Writes the journal as JSONL to `path` (parent directory must exist).
    ///
    /// # Errors
    /// Propagates filesystem errors from the write.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let s = lock(&self.state);
        let mut out = s.lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// String field helper.
fn vs(s: &str) -> Value {
    // ALLOC: journal field construction; reached only from enabled-journal records.
    Value::String(s.to_string())
}

/// Unsigned field helper.
fn vu(n: u64) -> Value {
    Value::Number(Number::UInt(n))
}

/// Embeds a full metrics snapshot as one journal record.
pub fn snapshot_event(snap: &Snapshot) {
    let j = global();
    if !j.is_enabled() {
        return;
    }
    j.push("snapshot", vec![("metrics".to_string(), snap.to_value())]);
}

pub(crate) fn span_open(id: u64, name: &str, parent_id: Option<u64>, depth: usize) {
    let j = global();
    if !j.is_enabled() {
        return;
    }
    // ALLOC: journal recording only — enabled-checked above.
    let mut entries = vec![("name".to_string(), vs(name)), ("id".to_string(), vu(id))];
    if let Some(pid) = parent_id {
        entries.push(("parent".to_string(), vu(pid)));
    }
    // ALLOC: journal recording only — enabled-checked above.
    entries.push(("depth".to_string(), vu(depth as u64)));
    j.push("span_open", entries);
}

pub(crate) fn span_close(id: u64, name: &str, dur_us: u64) {
    let j = global();
    if !j.is_enabled() {
        return;
    }
    // ALLOC: journal recording only — enabled-checked above.
    let mut entries = vec![("name".to_string(), vs(name)), ("id".to_string(), vu(id))];
    // ALLOC: still inside the enabled-only branch (checked above).
    entries.push(("dur_us".to_string(), vu(dur_us)));
    j.push("span_close", entries);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::new();
        j.push("event", vec![("name".to_string(), vs("x"))]);
        assert!(j.lines().is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn lines_are_json_with_monotonic_timestamps() {
        let j = Journal::new();
        j.enable(16);
        j.push("event", vec![("name".to_string(), vs("first"))]);
        j.push("event", vec![("name".to_string(), vs("second"))]);
        let lines = j.lines();
        assert_eq!(lines.len(), 2);
        let mut prev = 0u64;
        for line in &lines {
            let v = serde_json::parse_value_str(line).expect("valid JSON line");
            let obj = v.as_object_for("journal line").expect("object");
            let ts = obj
                .iter()
                .find(|(k, _)| k == "ts_us")
                .and_then(|(_, v)| match v {
                    Value::Number(n) => n.as_u64(),
                    _ => None,
                })
                .expect("ts_us field");
            assert!(ts >= prev, "timestamps must be monotonic");
            prev = ts;
            assert!(line.contains("\"kind\":\"event\""));
        }
    }

    #[test]
    fn truncation_keeps_first_cap_lines_and_counts_dropped() {
        let j = Journal::new();
        j.enable(3);
        for i in 0..10 {
            j.push("event", vec![("name".to_string(), vs(&format!("e{i}")))]);
        }
        let lines = j.lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("e0"));
        assert!(lines[2].contains("e2"));
        assert_eq!(j.dropped(), 7);
    }

    #[test]
    fn reenable_clears_previous_run() {
        let j = Journal::new();
        j.enable(8);
        j.push("event", vec![("name".to_string(), vs("old"))]);
        j.enable(8);
        assert!(j.lines().is_empty());
        assert_eq!(j.dropped(), 0);
        j.disable();
        assert!(!j.is_enabled());
    }

    #[test]
    fn write_to_emits_trailing_newline_jsonl() {
        let j = Journal::new();
        j.enable(4);
        j.push("event", vec![("name".to_string(), vs("a"))]);
        let path =
            std::env::temp_dir().join(format!("mqa-obs-journal-{}.jsonl", std::process::id()));
        j.write_to(&path).expect("write journal");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.ends_with('\n'));
        assert_eq!(text.lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
