//! Destination-indexed routing tables (distributed deterministic routing).
//!
//! CCFIT targets networks with **distributed deterministic routing**
//! (InfiniBand-style): a packet carries only its destination, and every
//! switch maps `destination → output port`. This module provides the
//! table representation — a flat array, or a fat tree's DET rule in
//! closed form — a generic deterministic shortest-path constructor for
//! arbitrary topologies, and verification/tracing helpers used
//! throughout the test suite.

use crate::graph::{Endpoint, Topology, TopologyError};
use crate::KAryNTree;
use ccfit_engine::ids::{NodeId, PortId, SwitchId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-switch, destination-indexed output ports, in one of two row
/// forms behind one [`Self::route`]: a flat `switch × destination`
/// array (any topology, and every re-route after a fault), or a k-ary
/// n-tree's DET rule in closed form ([`KAryNTree::det_routing`]),
/// which holds O(levels × destinations + switches) words instead. Either
/// sits behind an [`Arc`]: a run holds one copy however many owners it
/// has — the experiment spec, the builder and the simulator — because
/// `Clone` only bumps a count; re-routing after a fault builds a new
/// table and replaces the old one whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    /// Destinations per switch: the length of a switch's row.
    num_dests: usize,
    rows: Rows,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Rows {
    /// `ports[switch * num_dests + destination]` = output port.
    Flat(Arc<Vec<PortId>>),
    /// DET in closed form.
    Det(Arc<DetRows>),
}

/// DET on a k-ary n-tree: at switch `⟨w, λ⟩`, with `p = k^λ`, the port
/// to destination `d` is the digit `(d / p) % k`, plus `k` unless
/// `w / p == d / (p·k)` (the switch is one of `d`'s ancestors). Both
/// quotients are looked up, not divided.
#[derive(Debug, PartialEq, Eq)]
struct DetRows {
    k: u16,
    /// Per switch: `(λ · num_dests, w / p)` — where its level's
    /// destination words start, and its ancestor key.
    switches: Vec<(u32, u32)>,
    /// Per level `λ`, then destination `d`: `(d / (p·k)) << 8 | (d / p) % k`.
    /// A digit fits the low 8 bits because the arity is at most 256.
    dests: Vec<u32>,
}

/// One switch's routes, fetched once by [`RoutingTable::row`] for a walk
/// that routes many packets at the same switch.
#[derive(Debug, Clone, Copy)]
pub struct RouteRow<'a>(RowForm<'a>);

#[derive(Debug, Clone, Copy)]
enum RowForm<'a> {
    Flat(&'a [PortId]),
    Det { dests: &'a [u32], high: u32, k: u16 },
}

impl RouteRow<'_> {
    /// Output port for packets to `dst`.
    #[inline]
    pub fn port(self, dst: NodeId) -> PortId {
        match self.0 {
            RowForm::Flat(ports) => ports[dst.index()],
            RowForm::Det { dests, high, k } => {
                let v = dests[dst.index()];
                let up = if v >> 8 == high { 0 } else { k };
                PortId(up + (v & 0xff) as u16)
            }
        }
    }
}

impl RoutingTable {
    /// Wrap precomputed rows, switch by switch, each `num_dests` ports
    /// long.
    pub fn from_rows(num_dests: usize, ports: Vec<PortId>) -> Self {
        assert!(
            ports.len().is_multiple_of(num_dests),
            "a routing table is whole rows of {num_dests} destinations"
        );
        Self {
            num_dests,
            rows: Rows::Flat(Arc::new(ports)),
        }
    }

    /// `tree`'s DET routing in closed form, by the rule
    /// [`KAryNTree::det_routing`] documents.
    pub(crate) fn det(tree: &KAryNTree) -> Self {
        let (k, num_dests) = (tree.k as usize, tree.num_nodes());
        assert!(k <= 256, "a DET digit is packed into 8 bits");
        assert!(
            tree.n as usize * num_dests <= u32::MAX as usize && num_dests / k < 1 << 24,
            "a DET word fits 32 bits"
        );
        // Destinations in order come in runs of `p` sharing `(d / p) % k`
        // inside runs of `p·k` sharing `d / (p·k)`, and switches of a level
        // in runs of `p` sharing `w / p`: both are filled run by run,
        // without a division per entry.
        let per_level = tree.switches_per_stage();
        let mut dests = Vec::with_capacity(tree.n as usize * num_dests);
        let mut switches = Vec::with_capacity(tree.num_switches());
        for level in 0..tree.n {
            let p = k.pow(level);
            for high in 0..num_dests / (p * k) {
                for digit in 0..k {
                    dests.extend(std::iter::repeat_n(((high << 8) | digit) as u32, p));
                }
            }
            let start = (level as usize * num_dests) as u32;
            for high in 0..per_level / p {
                switches.extend(std::iter::repeat_n((start, high as u32), p));
            }
        }
        Self {
            num_dests,
            rows: Rows::Det(Arc::new(DetRows {
                k: k as u16,
                switches,
                dests,
            })),
        }
    }

    /// Switch `s`'s routes.
    #[inline]
    pub fn row(&self, s: SwitchId) -> RouteRow<'_> {
        let n = self.num_dests;
        RouteRow(match &self.rows {
            Rows::Flat(ports) => RowForm::Flat(&ports[s.index() * n..][..n]),
            Rows::Det(det) => {
                let (start, high) = det.switches[s.index()];
                RowForm::Det {
                    dests: &det.dests[start as usize..][..n],
                    high,
                    k: det.k,
                }
            }
        })
    }

    /// Output port for packets to `dst` at switch `s`.
    #[inline]
    pub fn route(&self, s: SwitchId, dst: NodeId) -> PortId {
        self.row(s).port(dst)
    }

    /// Deterministic shortest-path routing for an arbitrary topology.
    ///
    /// For every destination a BFS is run backwards from its attachment
    /// switch; each switch then forwards toward any neighbour one step
    /// closer. Ties are broken by `dst % number_of_candidates` over the
    /// candidates in ascending port order — deterministic, and spreading
    /// different destinations over different equal-cost ports.
    pub fn shortest_path(topo: &Topology) -> Self {
        let ns = topo.num_switches();
        let nd = topo.num_nodes();
        let mut ports = vec![PortId(0); ns * nd];
        for d in 0..nd {
            let dst = NodeId::from(d);
            let (root, root_port, _) = topo.node_attachment(dst);
            // BFS distances over the switch graph.
            let mut dist = vec![u32::MAX; ns];
            dist[root.index()] = 0;
            let mut q = VecDeque::from([root]);
            while let Some(s) = q.pop_front() {
                let dcur = dist[s.index()];
                for p in topo.switch(s).connected() {
                    if let Some((Endpoint::Switch(o, _), _)) = topo.peer(s, p) {
                        if dist[o.index()] == u32::MAX {
                            dist[o.index()] = dcur + 1;
                            q.push_back(o);
                        }
                    }
                }
            }
            for s in 0..ns {
                let sid = SwitchId::from(s);
                if sid == root {
                    ports[s * nd + d] = root_port;
                    continue;
                }
                if dist[s] == u32::MAX {
                    // Unreachable: leave the default; verification will
                    // catch it if traffic ever needs this pair.
                    continue;
                }
                let mut candidates: Vec<PortId> = Vec::new();
                for p in topo.switch(sid).connected() {
                    if let Some((Endpoint::Switch(o, _), _)) = topo.peer(sid, p) {
                        if dist[o.index()] + 1 == dist[s] {
                            candidates.push(p);
                        }
                    }
                }
                debug_assert!(!candidates.is_empty());
                ports[s * nd + d] = candidates[d % candidates.len()];
            }
        }
        Self::from_rows(nd, ports)
    }

    /// Follow the tables from `src` to `dst`; returns the sequence of
    /// `(switch, output port)` hops, or an error if the walk leaves the
    /// table, loops, or misdelivers.
    pub fn trace(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Vec<(SwitchId, PortId)>, TopologyError> {
        let (mut sw, _, _) = topo.node_attachment(src);
        let mut path = Vec::new();
        let limit = topo.num_switches() + 2;
        for _ in 0..limit {
            let out = self.route(sw, dst);
            path.push((sw, out));
            match topo.peer(sw, out) {
                Some((Endpoint::Node(n), _)) if n == dst => return Ok(path),
                Some((Endpoint::Node(_), _)) => {
                    return Err(TopologyError::UnknownId(format!(
                        "route {src}->{dst} delivered to wrong node at {sw}"
                    )))
                }
                Some((Endpoint::Switch(next, _), _)) => sw = next,
                None => {
                    return Err(TopologyError::UnknownId(format!(
                        "route {src}->{dst} uses unconnected port {out} at {sw}"
                    )))
                }
            }
        }
        Err(TopologyError::UnknownId(format!(
            "route {src}->{dst} loops"
        )))
    }

    /// Verify every ordered pair of distinct nodes is delivered.
    pub fn verify_delivers_all(&self, topo: &Topology) -> Result<(), TopologyError> {
        for s in topo.node_ids() {
            for d in topo.node_ids() {
                if s != d {
                    self.trace(topo, s, d)?;
                }
            }
        }
        Ok(())
    }

    /// Length (in switch hops) of the route from `src` to `dst`.
    pub fn hops(&self, topo: &Topology, src: NodeId, dst: NodeId) -> usize {
        self.trace(topo, src, dst)
            .map(|p| p.len())
            .unwrap_or(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::graph::LinkParams;

    /// node0,node1 - sw0 - sw1 - node2,node3
    fn dumbbell() -> Topology {
        let mut b = TopologyBuilder::new("dumbbell");
        let s0 = b.add_switch(3);
        let s1 = b.add_switch(3);
        for i in 0..4 {
            b.add_node();
            let (s, p) = if i < 2 {
                (s0, PortId(i as u16))
            } else {
                (s1, PortId((i - 2) as u16))
            };
            b.attach(NodeId::from(i as usize), s, p).unwrap();
        }
        b.connect(s0, PortId(2), s1, PortId(2)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn shortest_path_delivers_all_pairs() {
        let t = dumbbell();
        let r = RoutingTable::shortest_path(&t);
        r.verify_delivers_all(&t).unwrap();
    }

    #[test]
    fn local_traffic_stays_local() {
        let t = dumbbell();
        let r = RoutingTable::shortest_path(&t);
        let path = r.trace(&t, NodeId(0), NodeId(1)).unwrap();
        assert_eq!(path.len(), 1, "same-switch traffic takes one hop");
        assert_eq!(path[0], (SwitchId(0), PortId(1)));
    }

    #[test]
    fn cross_traffic_uses_the_trunk() {
        let t = dumbbell();
        let r = RoutingTable::shortest_path(&t);
        let path = r.trace(&t, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0], (SwitchId(0), PortId(2)));
        assert_eq!(path[1], (SwitchId(1), PortId(1)));
    }

    #[test]
    fn hops_reports_path_length() {
        let t = dumbbell();
        let r = RoutingTable::shortest_path(&t);
        assert_eq!(r.hops(&t, NodeId(0), NodeId(1)), 1);
        assert_eq!(r.hops(&t, NodeId(0), NodeId(2)), 2);
    }

    #[test]
    fn equal_cost_tie_break_is_destination_spread() {
        // Two parallel trunks between sw0 and sw1: different destinations
        // behind sw1 should not all pick the same trunk.
        let mut b = TopologyBuilder::new("parallel");
        let s0 = b.add_switch(4);
        let s1 = b.add_switch(4);
        for i in 0..2 {
            b.add_node();
            b.attach(NodeId::from(i as usize), s0, PortId(i as u16))
                .unwrap();
        }
        for i in 2..4 {
            b.add_node();
            b.attach(NodeId::from(i as usize), s1, PortId((i - 2) as u16))
                .unwrap();
        }
        b.connect(s0, PortId(2), s1, PortId(2)).unwrap();
        b.connect(s0, PortId(3), s1, PortId(3)).unwrap();
        let t = b.build().unwrap();
        let r = RoutingTable::shortest_path(&t);
        r.verify_delivers_all(&t).unwrap();
        let p2 = r.route(SwitchId(0), NodeId(2));
        let p3 = r.route(SwitchId(0), NodeId(3));
        assert_ne!(p2, p3, "destinations spread over equal-cost trunks");
    }

    #[test]
    fn routing_is_destination_based_only() {
        // The table is a function of (switch, dst): tracing from two
        // different sources to the same destination must merge onto
        // identical suffixes once the paths share a switch.
        let t = dumbbell();
        let r = RoutingTable::shortest_path(&t);
        let a = r.trace(&t, NodeId(0), NodeId(3)).unwrap();
        let b = r.trace(&t, NodeId(1), NodeId(3)).unwrap();
        assert_eq!(a.last(), b.last());
    }

    #[test]
    fn unreachable_pairs_are_reported() {
        // Island topology: node2's switch has no trunk.
        let mut b = TopologyBuilder::new("island");
        let s0 = b.add_switch(2);
        let s1 = b.add_switch(1);
        let n0 = b.add_node();
        let n1 = b.add_node();
        let n2 = b.add_node();
        b.attach(n0, s0, PortId(0)).unwrap();
        b.attach(n1, s0, PortId(1)).unwrap();
        b.attach(n2, s1, PortId(0)).unwrap();
        let t = b.build().unwrap();
        let r = RoutingTable::shortest_path(&t);
        assert!(r.trace(&t, n0, n2).is_err());
        // Reachable pairs still fine.
        r.trace(&t, n0, n1).unwrap();
        let _ = LinkParams::default();
    }
}
