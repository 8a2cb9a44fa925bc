//! Flow specifications.

use ccfit_engine::ids::{FlowId, NodeId};
use serde::{Deserialize, Serialize};

/// Where a flow's packets go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Destination {
    /// Every packet goes to the same node (hotspot-style flows).
    Fixed(NodeId),
    /// Each packet independently picks a uniformly random destination
    /// (excluding the source).
    Uniform,
}

/// One traffic flow: a source injecting MTU packets
/// ([`ccfit_engine::units::MTU_BYTES`]) toward a destination (or
/// uniformly) at a fraction of its injection-link rate, smoothly, over a
/// time window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Identifier used in per-flow metrics. The paper names flows after
    /// their source nodes (F0, F1, …), which the case presets follow.
    pub id: FlowId,
    /// Human-readable label (e.g. `"F0 (victim)"`) used by the figure
    /// harness.
    pub label: String,
    /// Source node.
    pub src: NodeId,
    /// Destination policy.
    pub dst: Destination,
    /// Activation time in nanoseconds.
    pub start_ns: f64,
    /// Deactivation time in nanoseconds; `None` = active until the end of
    /// the simulation.
    pub end_ns: Option<f64>,
    /// Injection rate as a fraction of the source's injection-link
    /// bandwidth; 1.0 = a saturated source ("100 % of the link
    /// bandwidth").
    pub rate: f64,
}

impl FlowSpec {
    /// A full-rate flow from `src` to `dst`, labelled after its source
    /// like the paper does.
    pub fn hotspot(id: u32, src: NodeId, dst: NodeId, start_ns: f64, end_ns: Option<f64>) -> Self {
        Self {
            id: FlowId(id),
            label: format!("F{}", id),
            src,
            dst: Destination::Fixed(dst),
            start_ns,
            end_ns,
            rate: 1.0,
        }
    }

    /// A full-rate uniform-destination flow from `src`.
    pub fn uniform(id: u32, src: NodeId, start_ns: f64, end_ns: Option<f64>) -> Self {
        Self {
            id: FlowId(id),
            label: format!("U{}", src.0),
            src,
            dst: Destination::Uniform,
            start_ns,
            end_ns,
            rate: 1.0,
        }
    }

    /// Is the flow active at time `ns`?
    pub fn active_at(&self, ns: f64) -> bool {
        ns >= self.start_ns && self.end_ns.is_none_or(|e| ns < e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotspot_flow_defaults() {
        let f = FlowSpec::hotspot(3, NodeId(1), NodeId(4), 2e6, Some(10e6));
        assert_eq!(f.id, FlowId(3));
        assert_eq!(f.rate, 1.0);
        assert_eq!(f.dst, Destination::Fixed(NodeId(4)));
        assert_eq!(f.label, "F3");
    }

    #[test]
    fn activation_window() {
        let f = FlowSpec::hotspot(0, NodeId(0), NodeId(1), 2e6, Some(10e6));
        assert!(!f.active_at(1.9e6));
        assert!(f.active_at(2e6));
        assert!(f.active_at(9.99e6));
        assert!(!f.active_at(10e6));
    }

    #[test]
    fn open_ended_flow_is_always_active_after_start() {
        let f = FlowSpec::uniform(9, NodeId(5), 0.0, None);
        assert!(f.active_at(0.0));
        assert!(f.active_at(1e12));
    }

    #[test]
    fn serde_round_trip() {
        let f = FlowSpec::uniform(9, NodeId(5), 0.0, None);
        let json = serde_json::to_string(&f).unwrap();
        let g: FlowSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(f, g);
    }
}
