//! Order-preserving metrics outboxes for the sharded parallel tick.
//!
//! The collector's delivery series accumulate `f64` values, and floating
//! point addition is not associative — so the parallel engine may not sum
//! partial results per shard. Instead every worker records the *operations*
//! it would have performed into a [`MetricsScratch`] op log; the main
//! thread replays the logs into the real [`MetricsCollector`] in canonical
//! shard order, reproducing the serial call sequence bit for bit.
//!
//! Flow-completion tracking ([`crate::fct`]) needs no op of its own:
//! completions are detected inside `record_delivery`, and node-bound
//! deliveries never go through a scratch — every engine (dense, sparse,
//! sharded) performs them serially on the main thread in canonical
//! order, so replaying `Delivery` ops already replays completions.

use crate::collector::MetricsCollector;
use crate::events::{CcEvent, EventClass};
use ccfit_engine::packet::Packet;
use ccfit_engine::units::Cycle;

/// The sink interface shared by the live collector and the per-shard
/// scratch logs. Switch/adapter code is generic over this so the same
/// model code runs serially (writing straight into [`MetricsCollector`])
/// and in a worker (logging into a [`MetricsScratch`]).
pub trait MetricsSink {
    /// Increment a named event counter.
    fn count(&mut self, name: &str, delta: u64);
    /// Record an instantaneous gauge sample.
    fn gauge(&mut self, name: &str, at_ns: f64, value: f64);
    /// Record a data packet delivered to its destination at cycle `now`.
    fn record_delivery(&mut self, now: Cycle, pkt: &Packet);
    /// True when the sink records structured CC events of `class`.
    /// Emission sites guard event construction behind this, so disabled
    /// tracing costs a single branch per site.
    fn wants_events(&self, class: EventClass) -> bool {
        let _ = class;
        false
    }
    /// Record a structured CC event (see [`crate::events`]).
    fn cc_event(&mut self, ev: CcEvent) {
        let _ = ev;
    }
}

impl MetricsSink for MetricsCollector {
    fn count(&mut self, name: &str, delta: u64) {
        MetricsCollector::count(self, name, delta);
    }
    fn gauge(&mut self, name: &str, at_ns: f64, value: f64) {
        MetricsCollector::gauge(self, name, at_ns, value);
    }
    fn record_delivery(&mut self, now: Cycle, pkt: &Packet) {
        MetricsCollector::record_delivery(self, now, pkt);
    }
    fn wants_events(&self, class: EventClass) -> bool {
        MetricsCollector::event_mask(self).contains(class)
    }
    fn cc_event(&mut self, ev: CcEvent) {
        MetricsCollector::cc_event(self, ev);
    }
}

/// One recorded metrics operation.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricOp {
    /// `count(name, delta)`.
    Count(String, u64),
    /// `gauge(name, at_ns, value)`.
    Gauge(String, f64, f64),
    /// `record_delivery(now, pkt)`.
    Delivery(Cycle, Packet),
    /// `cc_event(ev)`.
    Event(CcEvent),
}

/// An append-only log of metrics operations, recorded by one shard worker
/// and drained into the collector by [`MetricsCollector::apply_scratch`].
///
/// The scratch carries a copy of the collector's event-class mask so a
/// worker can skip event construction exactly like the serial path does;
/// sampling and the capacity bound are *not* applied here — they run on
/// the canonical merged stream in the collector, so the kept set never
/// depends on the shard layout.
#[derive(Debug, Default, Clone)]
pub struct MetricsScratch {
    ops: Vec<MetricOp>,
    /// Op-count watermarks dropped by [`Self::mark`]; they bound the
    /// *segments* a batched merge replays interleaved across shards
    /// (e.g. every shard's ctrl ops before any shard's isolation ops).
    marks: Vec<usize>,
    event_mask: EventClass,
}

impl MetricsScratch {
    /// Fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopt the collector's event-class mask (set once per parallel
    /// run, before workers start).
    pub fn set_event_mask(&mut self, mask: EventClass) {
        self.event_mask = mask;
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded operations, in emission order.
    pub fn ops(&self) -> &[MetricOp] {
        &self.ops
    }

    /// Drop a segment boundary at the current op count. A log with `k`
    /// marks has `k + 1` segments (the last one open-ended).
    pub fn mark(&mut self) {
        self.marks.push(self.ops.len());
    }

    /// Bounds of segment `i` (segments are delimited by [`Self::mark`];
    /// the segment after the last mark runs to the end of the log).
    pub fn segment(&self, i: usize) -> std::ops::Range<usize> {
        let lo = if i == 0 { 0 } else { self.marks[i - 1] };
        let hi = self.marks.get(i).copied().unwrap_or(self.ops.len());
        lo..hi
    }

    /// Drop all recorded operations and marks, keeping capacity.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.marks.clear();
    }
}

impl MetricsSink for MetricsScratch {
    fn count(&mut self, name: &str, delta: u64) {
        self.ops.push(MetricOp::Count(name.to_string(), delta));
    }
    fn gauge(&mut self, name: &str, at_ns: f64, value: f64) {
        self.ops
            .push(MetricOp::Gauge(name.to_string(), at_ns, value));
    }
    fn record_delivery(&mut self, now: Cycle, pkt: &Packet) {
        self.ops.push(MetricOp::Delivery(now, *pkt));
    }
    fn wants_events(&self, class: EventClass) -> bool {
        self.event_mask.contains(class)
    }
    fn cc_event(&mut self, ev: CcEvent) {
        self.ops.push(MetricOp::Event(ev));
    }
}

impl MetricsCollector {
    /// Replay a scratch log into the collector in emission order and clear
    /// it. Applying shard logs in canonical (shard-index) order reproduces
    /// the serial call sequence exactly, including `f64` addition order.
    pub fn apply_scratch(&mut self, scratch: &mut MetricsScratch) {
        for op in scratch.ops.drain(..) {
            match op {
                MetricOp::Count(name, delta) => self.count(&name, delta),
                MetricOp::Gauge(name, at_ns, value) => self.gauge(&name, at_ns, value),
                MetricOp::Delivery(now, pkt) => self.record_delivery(now, &pkt),
                MetricOp::Event(ev) => self.cc_event(ev),
            }
        }
        scratch.marks.clear();
    }

    /// Replay `range` of a scratch log without draining it — the batched
    /// parallel merge replays one [`MetricsScratch::segment`] per shard
    /// at a time, so a log cannot be consumed front-to-back in one pass.
    /// The caller clears the scratch once every segment has replayed.
    pub fn apply_scratch_range(&mut self, scratch: &MetricsScratch, range: std::ops::Range<usize>) {
        for op in &scratch.ops[range] {
            match op {
                MetricOp::Count(name, delta) => self.count(name, *delta),
                MetricOp::Gauge(name, at_ns, value) => self.gauge(name, *at_ns, *value),
                MetricOp::Delivery(now, pkt) => self.record_delivery(*now, pkt),
                MetricOp::Event(ev) => self.cc_event(*ev),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfit_engine::ids::{FlowId, NodeId, PacketId};
    use ccfit_engine::units::UnitModel;
    use std::collections::BTreeMap;

    fn pkt(flow: u32, bytes: u32) -> Packet {
        Packet::data(
            PacketId(0),
            NodeId(0),
            NodeId(1),
            bytes.div_ceil(64),
            bytes,
            FlowId(flow),
            0,
        )
    }

    #[test]
    fn scratch_replay_matches_direct_calls() {
        let mut direct = MetricsCollector::new(UnitModel::default(), 1000.0);
        let mut via = MetricsCollector::new(UnitModel::default(), 1000.0);
        let mut scratch = MetricsScratch::new();

        direct.count("x", 2);
        direct.gauge("g", 500.0, 3.5);
        direct.record_delivery(10, &pkt(1, 2048));

        MetricsSink::count(&mut scratch, "x", 2);
        MetricsSink::gauge(&mut scratch, "g", 500.0, 3.5);
        MetricsSink::record_delivery(&mut scratch, 10, &pkt(1, 2048));
        via.apply_scratch(&mut scratch);

        assert!(scratch.is_empty());
        let a = direct.finish("t", 2000.0, 1.0, &BTreeMap::new());
        let b = via.finish("t", 2000.0, 1.0, &BTreeMap::new());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn segmented_replay_matches_direct_calls() {
        let mut direct = MetricsCollector::new(UnitModel::default(), 1000.0);
        let mut via = MetricsCollector::new(UnitModel::default(), 1000.0);
        let mut s = MetricsScratch::new();

        // Two segments recorded out of replay order: the merge applies
        // segment 1 before segment 0 on the direct collector's schedule.
        MetricsSink::count(&mut s, "late", 1);
        s.mark();
        MetricsSink::count(&mut s, "early", 2);
        MetricsSink::gauge(&mut s, "g", 10.0, 1.5);

        direct.count("early", 2);
        direct.gauge("g", 10.0, 1.5);
        direct.count("late", 1);

        via.apply_scratch_range(&s, s.segment(1));
        via.apply_scratch_range(&s, s.segment(0));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.segment(0), 0..0);

        let a = direct.finish("t", 2000.0, 1.0, &BTreeMap::new());
        let b = via.finish("t", 2000.0, 1.0, &BTreeMap::new());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn replayed_counts_hit_existing_names_like_direct_ones() {
        let mut direct = MetricsCollector::new(UnitModel::default(), 1000.0);
        let mut via = MetricsCollector::new(UnitModel::default(), 1000.0);
        // First use of each name, directly and through a drained log.
        direct.count("cfq_exhausted", 1);
        direct.gauge("buffered", 10.0, 2.0);
        let mut s = MetricsScratch::new();
        MetricsSink::count(&mut s, "cfq_exhausted", 1);
        MetricsSink::gauge(&mut s, "buffered", 10.0, 2.0);
        via.apply_scratch(&mut s);
        // Repeats: drained replay and ranged replay both land on the
        // existing entries, like the direct calls.
        for i in 0..10u64 {
            direct.count("cfq_exhausted", i);
            direct.gauge("buffered", 20.0, 1.0);
            MetricsSink::count(&mut s, "cfq_exhausted", i);
            MetricsSink::gauge(&mut s, "buffered", 20.0, 1.0);
            if i % 2 == 0 {
                via.apply_scratch(&mut s);
            } else {
                via.apply_scratch_range(&s, s.segment(0));
                s.clear();
            }
        }
        assert_eq!(via.counter("cfq_exhausted"), 1 + 45);
        let a = direct.finish("t", 2000.0, 1.0, &BTreeMap::new());
        let b = via.finish("t", 2000.0, 1.0, &BTreeMap::new());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn apply_clears_and_preserves_capacity() {
        let mut c = MetricsCollector::new(UnitModel::default(), 1000.0);
        let mut s = MetricsScratch::new();
        MetricsSink::count(&mut s, "a", 1);
        assert_eq!(s.len(), 1);
        c.apply_scratch(&mut s);
        assert_eq!(s.len(), 0);
        assert_eq!(c.counter("a"), 1);
    }
}
