//! The benchmark's own spans: one record per public call into a layer,
//! kept in memory and written as JSONL when the run ends. Spans inside the
//! program are a later change; these sit at the layer boundaries the
//! benchmark can see from outside.

use std::io::Write;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `graph.search`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Id of the span that caused this one (`0` = none).
    pub parent: u32,
    /// Operation (turn, query, batch) the span belongs to.
    pub op: u32,
}

/// In-memory span recorder.
pub struct Spans {
    origin: Instant,
    records: Vec<SpanRecord>,
    ops: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            records: Vec::new(),
            ops: 0,
        }
    }

    /// A fresh operation id; spans of one operation share it.
    pub fn next_op(&mut self) -> u32 {
        self.ops = self.ops.wrapping_add(1);
        self.ops
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id (for use as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op: u32,
    ) -> u32 {
        self.records.push(SpanRecord {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        u32::try_from(self.records.len()).unwrap_or(u32::MAX)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in recording order (span id = position + 1).
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Writes one JSON object per span to `w`.
    ///
    /// # Errors
    /// Any I/O error of the writer.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        for (i, r) in self.records.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                i + 1,
                r.name,
                r.start_ns,
                r.end_ns,
                r.parent,
                r.op
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_parent_id_and_share_an_op() {
        let mut spans = Spans::new();
        let op = spans.next_op();
        let t0 = Instant::now();
        let t1 = Instant::now();
        let parent = spans.record("core.ask", t0, t1, 0, op);
        let child = spans.record("graph.search", t0, t1, parent, op);
        assert_eq!((parent, child, spans.len()), (1, 2, 2));
        let r = spans.records();
        assert_eq!(r[1].parent, 1);
        assert_eq!(r[0].op, r[1].op);
        assert!(r[0].end_ns >= r[0].start_ns);
        assert_ne!(spans.next_op(), op);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut spans = Spans::new();
        let t = Instant::now();
        spans.record("llm.generate", t, Instant::now(), 0, 1);
        spans.record("retrieval.diversify", t, Instant::now(), 1, 1);
        let mut buf = Vec::new();
        spans.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(serde_json::parse_value_str(line).is_ok(), "{line}");
        }
    }
}
