//! Traffic patterns: named collections of flows.

use crate::flow::FlowSpec;
use crate::generator::NodeGenerator;
use crate::sized::SizedFlow;
use ccfit_engine::ids::{FlowId, NodeId};
use ccfit_engine::rng::SeedSplitter;
use ccfit_engine::units::UnitModel;
use serde::{Deserialize, Serialize};

/// A named workload: the list of flows offered to the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficPattern {
    /// Pattern name (e.g. `"case1"`).
    pub name: String,
    /// The open-loop rate-window flows.
    pub flows: Vec<FlowSpec>,
    /// Closed-loop sized flows (see [`SizedFlow`]); omitted from the
    /// serialized form when empty so pre-FCT archives stay readable.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub sized: Vec<SizedFlow>,
}

impl TrafficPattern {
    /// Create a pattern from rate-window flows only.
    pub fn new(name: impl Into<String>, flows: Vec<FlowSpec>) -> Self {
        Self::with_sized(name, flows, Vec::new())
    }

    /// Create a pattern from sized flows only (how [`crate::workload`]
    /// presets resolve).
    pub fn sized_only(name: impl Into<String>, sized: Vec<SizedFlow>) -> Self {
        Self::with_sized(name, Vec::new(), sized)
    }

    /// Create a pattern from both kinds of flow. Ids share one space.
    pub fn with_sized(
        name: impl Into<String>,
        flows: Vec<FlowSpec>,
        sized: Vec<SizedFlow>,
    ) -> Self {
        let p = Self {
            name: name.into(),
            flows,
            sized,
        };
        p.validate();
        p
    }

    fn validate(&self) {
        let mut ids: Vec<FlowId> = self
            .flows
            .iter()
            .map(|f| f.id)
            .chain(self.sized.iter().map(|f| f.id))
            .collect();
        let declared = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), declared, "duplicate flow ids in pattern");
        for f in &self.flows {
            assert!(f.rate > 0.0 && f.rate <= 1.0, "flow rate must be in (0, 1]");
            if let Some(e) = f.end_ns {
                assert!(e > f.start_ns, "flow ends before it starts");
            }
        }
        for f in &self.sized {
            assert!(f.bytes > 0, "sized flow carries 0 bytes");
            assert!(f.src != f.dst, "sized flow sends to itself");
            assert!(
                f.start_ns.is_finite() && f.start_ns >= 0.0,
                "sized flow start_ns must be finite and >= 0"
            );
        }
    }

    /// Label for a flow id (either kind), if declared.
    pub fn label(&self, id: FlowId) -> Option<&str> {
        self.flows
            .iter()
            .find(|f| f.id == id)
            .map(|f| f.label.as_str())
            .or_else(|| {
                self.sized
                    .iter()
                    .find(|f| f.id == id)
                    .map(|f| f.label.as_str())
            })
    }

    /// Largest node index referenced (source or fixed destination);
    /// patterns must fit within the topology they run on.
    pub fn max_node_index(&self) -> usize {
        self.flows
            .iter()
            .flat_map(|f| {
                let d = match f.dst {
                    crate::flow::Destination::Fixed(d) => d.index(),
                    crate::flow::Destination::Uniform => 0,
                };
                [f.src.index(), d]
            })
            .chain(
                self.sized
                    .iter()
                    .flat_map(|f| [f.src.index(), f.dst.index()]),
            )
            .max()
            .unwrap_or(0)
    }

    /// Instantiate one generator per node. `link_bw` gives each node's
    /// injection-link bandwidth in flits/cycle.
    ///
    /// Each node gets what [`NodeGenerator::new_with_sized`] would filter
    /// out of the whole pattern for it, but the flows are bucketed by
    /// source in one pass, so the build is O(nodes + flows), not
    /// O(nodes × flows). A bucket keeps declaration order, which is
    /// emission order.
    pub fn build_generators(
        &self,
        num_nodes: usize,
        units: &UnitModel,
        link_bw: impl Fn(NodeId) -> u32,
        seeds: &SeedSplitter,
    ) -> Vec<NodeGenerator> {
        assert!(
            self.max_node_index() < num_nodes,
            "pattern references node {} but the network has {} nodes",
            self.max_node_index(),
            num_nodes
        );
        let mut rate = vec![Vec::new(); num_nodes];
        for f in &self.flows {
            rate[f.src.index()].push(f);
        }
        let mut sized = vec![Vec::new(); num_nodes];
        for f in &self.sized {
            sized[f.src.index()].push(f);
        }
        rate.into_iter()
            .zip(sized)
            .enumerate()
            .map(|(n, (rate, sized))| {
                let node = NodeId::from(n);
                NodeGenerator::from_own_flows(
                    node,
                    rate.into_iter(),
                    sized.into_iter(),
                    units,
                    link_bw(node),
                    num_nodes,
                    seeds,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;

    #[test]
    fn pattern_collects_ids_and_labels() {
        let p = TrafficPattern::new(
            "t",
            vec![
                FlowSpec::hotspot(0, NodeId(0), NodeId(4), 0.0, None),
                FlowSpec::hotspot(5, NodeId(5), NodeId(4), 0.0, None),
            ],
        );
        assert_eq!(p.label(FlowId(5)), Some("F5"));
        assert_eq!(p.label(FlowId(9)), None);
        assert_eq!(p.max_node_index(), 5);
    }

    #[test]
    #[should_panic(expected = "duplicate flow ids")]
    fn duplicate_ids_rejected() {
        TrafficPattern::new(
            "t",
            vec![
                FlowSpec::hotspot(0, NodeId(0), NodeId(4), 0.0, None),
                FlowSpec::hotspot(0, NodeId(1), NodeId(4), 0.0, None),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_window_rejected() {
        TrafficPattern::new(
            "t",
            vec![FlowSpec::hotspot(0, NodeId(0), NodeId(4), 5e6, Some(2e6))],
        );
    }

    #[test]
    fn generators_cover_every_node() {
        let p = TrafficPattern::new(
            "t",
            vec![FlowSpec::hotspot(0, NodeId(2), NodeId(4), 0.0, None)],
        );
        let gens = p.build_generators(8, &UnitModel::default(), |_| 1, &SeedSplitter::new(1));
        assert_eq!(gens.len(), 8);
        assert_eq!(gens[2].num_flows(), 1);
        assert_eq!(gens[0].num_flows(), 0);
    }

    #[test]
    fn bucketed_generators_equal_the_per_node_filter() {
        // Sources interleaved across both kinds of flow, with repeats, so
        // a bucket that lost declaration order would show.
        let srcs = [3, 0, 3, 5, 0, 3, 7, 5];
        let flows = srcs
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let mut f = FlowSpec::uniform(i as u32, NodeId(s), 10.0 * i as f64, None);
                f.rate = 0.1 + 0.1 * i as f64;
                f
            })
            .collect();
        let sized = srcs
            .iter()
            .rev()
            .enumerate()
            .map(|(i, &s)| {
                let id = (srcs.len() + i) as u32;
                SizedFlow::new(
                    id,
                    NodeId(s),
                    NodeId((s + 1) % 8),
                    100 * (i as u64 + 1),
                    0.0,
                )
            })
            .collect();
        let p = TrafficPattern::with_sized("t", flows, sized);
        let (units, seeds) = (UnitModel::default(), SeedSplitter::new(1));
        let link_bw = |n: NodeId| 1 + n.0 % 3;
        let gens = p.build_generators(8, &units, link_bw, &seeds);
        for (n, g) in gens.iter().enumerate() {
            let node = NodeId::from(n);
            let filtered = NodeGenerator::new_with_sized(
                node,
                &p.flows,
                &p.sized,
                &units,
                link_bw(node),
                8,
                &seeds,
            );
            assert_eq!(format!("{g:?}"), format!("{filtered:?}"), "node {n}");
        }
        assert_eq!(gens[3].num_flows(), 6);
    }

    #[test]
    #[should_panic(expected = "references node")]
    fn oversized_pattern_rejected_at_build() {
        let p = TrafficPattern::new(
            "t",
            vec![FlowSpec::hotspot(0, NodeId(9), NodeId(4), 0.0, None)],
        );
        p.build_generators(8, &UnitModel::default(), |_| 1, &SeedSplitter::new(1));
    }
}
