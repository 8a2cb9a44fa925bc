//! Per-packet path tracing.
//!
//! An opt-in diagnostic: sample every Nth injected data packet and record
//! where it went and when — which switches it crossed, when it was
//! delivered, whether it was FECN-marked on the way. Used by the test
//! suite to verify that packets physically follow the routing tables, and
//! by users to debug congestion behaviour ("where did my packet wait?").

use ccfit_engine::ids::{FlowId, NodeId, PacketId, SwitchId};
use ccfit_engine::units::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The recorded life of one traced packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketTrace {
    /// Packet id.
    pub id: PacketId,
    /// Flow it belongs to.
    pub flow: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycle it entered the source adapter.
    pub injected_at: Cycle,
    /// Switch arrivals, in order, with the arrival cycle.
    pub hops: Vec<(SwitchId, Cycle)>,
    /// Cycle its tail reached the destination (None = still in flight).
    pub delivered_at: Option<Cycle>,
    /// Whether it carried a FECN mark on delivery.
    pub fecn: bool,
}

impl PacketTrace {
    /// End-to-end latency in cycles, if delivered.
    pub fn latency_cycles(&self) -> Option<Cycle> {
        self.delivered_at
            .map(|d| d.saturating_sub(self.injected_at))
    }

    /// The switch path (without timestamps).
    pub fn switch_path(&self) -> Vec<SwitchId> {
        self.hops.iter().map(|&(s, _)| s).collect()
    }
}

/// Collects traces for a sampled subset of packets.
#[derive(Debug, Clone)]
pub struct TraceLog {
    sample_every: u64,
    traces: HashMap<PacketId, PacketTrace>,
}

impl TraceLog {
    /// Trace every `sample_every`-th injected data packet (1 = all).
    pub fn new(sample_every: u64) -> Self {
        assert!(sample_every >= 1);
        Self {
            sample_every,
            traces: HashMap::new(),
        }
    }

    /// Should the packet with this id be traced?
    #[inline]
    pub fn wants(&self, id: PacketId) -> bool {
        id.0.is_multiple_of(self.sample_every)
    }

    /// Record an injection (called only for sampled ids).
    pub fn injected(&mut self, id: PacketId, flow: FlowId, src: NodeId, dst: NodeId, now: Cycle) {
        self.traces.insert(
            id,
            PacketTrace {
                id,
                flow,
                src,
                dst,
                injected_at: now,
                hops: Vec::new(),
                delivered_at: None,
                fecn: false,
            },
        );
    }

    /// Record arrival at a switch.
    #[inline]
    pub fn switch_hop(&mut self, id: PacketId, sw: SwitchId, now: Cycle) {
        if let Some(t) = self.traces.get_mut(&id) {
            t.hops.push((sw, now));
        }
    }

    /// Record final delivery.
    #[inline]
    pub fn delivered(&mut self, id: PacketId, now: Cycle, fecn: bool) {
        if let Some(t) = self.traces.get_mut(&id) {
            t.delivered_at = Some(now);
            t.fecn = fecn;
        }
    }

    /// All traces, sorted by packet id.
    pub fn traces(&self) -> Vec<&PacketTrace> {
        let mut v: Vec<&PacketTrace> = self.traces.values().collect();
        v.sort_by_key(|t| t.id);
        v
    }

    /// Number of traced packets.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_filter() {
        let log = TraceLog::new(4);
        assert!(log.wants(PacketId(0)));
        assert!(!log.wants(PacketId(1)));
        assert!(log.wants(PacketId(8)));
        let all = TraceLog::new(1);
        assert!(all.wants(PacketId(7)));
    }

    #[test]
    fn trace_lifecycle() {
        let mut log = TraceLog::new(1);
        log.injected(PacketId(3), FlowId(1), NodeId(0), NodeId(5), 10);
        log.switch_hop(PacketId(3), SwitchId(0), 12);
        log.switch_hop(PacketId(3), SwitchId(4), 50);
        log.delivered(PacketId(3), 90, true);
        let t = log.traces()[0];
        assert_eq!(t.switch_path(), vec![SwitchId(0), SwitchId(4)]);
        assert_eq!(t.latency_cycles(), Some(80));
        assert!(t.fecn);
    }

    #[test]
    fn events_for_untraced_packets_are_ignored() {
        let mut log = TraceLog::new(2);
        log.switch_hop(PacketId(9), SwitchId(0), 1);
        log.delivered(PacketId(9), 2, false);
        assert!(log.is_empty());
    }

    #[test]
    fn traces_sorted_by_id() {
        let mut log = TraceLog::new(1);
        log.injected(PacketId(5), FlowId(0), NodeId(0), NodeId(1), 0);
        log.injected(PacketId(2), FlowId(0), NodeId(0), NodeId(1), 0);
        let ids: Vec<u64> = log.traces().iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![2, 5]);
    }
}
