//! In-memory spans around the calls the benchmark makes into each
//! layer. Spans are parent-linked (workload → run → setup / tick_loop /
//! finish / serialise), kept in memory, and written out when the
//! benchmark ends. With recording off (`--trace 0`) `span` only times
//! the call.

use serde_json::Value;
use std::time::Instant;

/// Index of a recorded span; the parent link of its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    record: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(record: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            record,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that will contain other spans.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        if !self.record {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if !self.record {
            return;
        }
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Time `f` and, when recording, keep it as a leaf span under
    /// `parent`. Returns `f`'s result and its duration in seconds.
    pub fn span<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        if self.record {
            self.spans.push(Span {
                name: name.to_string(),
                parent: Some(parent.0),
                start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
                end_ns: t1.duration_since(self.epoch).as_nanos() as u64,
            });
        }
        (out, t1.duration_since(t0).as_secs_f64())
    }

    pub fn to_json(&self) -> Value {
        let selfs = self_times_ns(&self.spans);
        Value::Array(
            self.spans
                .iter()
                .zip(selfs)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    crate::object([
                        ("id", Value::UInt(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("name", Value::Str(s.name.clone())),
                        ("start_ns", Value::UInt(s.start_ns)),
                        ("end_ns", Value::UInt(s.end_ns)),
                        ("self_ns", Value::UInt(self_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover. Children of one parent never overlap here
/// (the benchmark is single-threaded), so the covered part is the sum
/// of their durations, clamped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span("workload", None, 0, 1000),
            span("run", Some(0), 100, 900),
            span("setup", Some(1), 100, 300),
            span("tick_loop", Some(1), 300, 850),
        ];
        assert_eq!(self_times_ns(&spans), vec![200, 50, 200, 550]);
    }

    #[test]
    fn child_is_clamped_to_its_parent() {
        let spans = vec![span("p", None, 100, 200), span("c", Some(0), 50, 150)];
        assert_eq!(self_times_ns(&spans), vec![50, 100]);
    }

    #[test]
    fn recording_off_keeps_no_spans_but_still_times() {
        let mut t = Tracer::new(false);
        let root = t.open("workload", None);
        let (v, secs) = t.span("setup", root, || 7);
        t.close(root);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn recorded_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.open("workload", None);
        let run = t.open("run", Some(root));
        t.span("setup", run, || ());
        t.close(run);
        t.close(root);
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        assert!(t.spans[1].end_ns >= t.spans[2].end_ns);
    }
}
