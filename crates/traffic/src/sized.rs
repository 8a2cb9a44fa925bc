//! Closed-loop sized flows: a fixed number of bytes, then done.
//!
//! A [`SizedFlow`] is the flow-completion-time counterpart of the
//! open-loop rate-window [`crate::flow::FlowSpec`]: instead of injecting
//! at a configured rate over a time window, it carries `bytes` of
//! payload from `src` to `dst` starting at `start_ns`, injecting at
//! line rate until the last byte has been handed to the NIC, and is
//! *complete* when the destination end node has received every byte
//! (tracked by the metrics collector, reported as FCT).

use ccfit_engine::ids::{FlowId, NodeId};
use serde::{Deserialize, Serialize};

/// One closed-loop flow: `bytes` of payload from `src` to `dst`,
/// injected at line rate from `start_ns` until drained, in MTU packets
/// ([`ccfit_engine::units::MTU_BYTES`]) whose last carries the remainder, so a flow's
/// delivered bytes sum exactly to [`SizedFlow::bytes`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizedFlow {
    /// Identifier used in per-flow metrics and the FCT report. Shares
    /// the [`FlowId`] space with rate-window flows in the same pattern.
    pub id: FlowId,
    /// Human-readable label (e.g. `"S3 0->7"`).
    pub label: String,
    /// Source node.
    pub src: NodeId,
    /// Destination node (sized flows always have a fixed destination —
    /// completion is meaningless for a uniform spray).
    pub dst: NodeId,
    /// Total payload to transfer, in bytes. Must be > 0.
    pub bytes: u64,
    /// Time the source starts injecting, in nanoseconds.
    pub start_ns: f64,
    /// Priority tag carried into the FCT report (0 = highest). Recorded
    /// per flow for slowdown-by-class analysis; it does not yet affect
    /// switch arbitration.
    pub priority: u8,
}

impl SizedFlow {
    /// A priority-0 sized flow labelled `S<id> <src>-><dst>`.
    pub fn new(id: u32, src: NodeId, dst: NodeId, bytes: u64, start_ns: f64) -> Self {
        Self {
            id: FlowId(id),
            label: format!("S{} {}->{}", id, src.0, dst.0),
            src,
            dst,
            bytes,
            start_ns,
            priority: 0,
        }
    }

    /// Same flow with a different priority tag.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_defaults() {
        let f = SizedFlow::new(3, NodeId(1), NodeId(4), 100_000, 2e6);
        assert_eq!(f.id, FlowId(3));
        assert_eq!(f.label, "S3 1->4");
        assert_eq!(f.priority, 0);
        assert_eq!(f.with_priority(2).priority, 2);
    }

    #[test]
    fn serde_round_trip() {
        let f = SizedFlow::new(7, NodeId(2), NodeId(5), 1 << 20, 1.5e6).with_priority(1);
        let json = serde_json::to_string(&f).unwrap();
        let g: SizedFlow = serde_json::from_str(&json).unwrap();
        assert_eq!(f, g);
    }
}
