//! k-ary n-tree fat trees and DET deterministic routing.
//!
//! A *k-ary n-tree* (Petrini & Vanneschi) connects `k^n` processing nodes
//! through `n` stages of `k^(n-1)` switches with `2k` ports each (`k`
//! down, `k` up; the top stage uses only its down ports). The paper's
//! Config #2 is the 2-ary 3-tree (8 nodes, 12 switches) and Config #3 the
//! 4-ary 3-tree (64 nodes, 48 switches).
//!
//! ## Labelling
//!
//! * A node `p` is identified by its `n` base-`k` digits
//!   `(p_{n-1}, …, p_0)`.
//! * A switch is `⟨w, λ⟩` with level `λ ∈ 0..n` (0 = leaf stage) and
//!   `w = (w_{n-2}, …, w_0)` its `n-1` base-`k` digits.
//! * `⟨w, λ⟩` and `⟨w', λ+1⟩` are cabled iff `w_i = w'_i` for all
//!   `i ≠ λ`. The cable uses *up* port `k + w'_λ` on the lower switch and
//!   *down* port `w_λ` on the upper switch.
//! * Leaf switch `⟨w, 0⟩` connects node `(w, j)` (numeric id `w·k + j`)
//!   on down port `j`.
//!
//! ## DET routing (paper ref. \[33\])
//!
//! Packets first climb toward a least common ancestor, then descend. Both
//! phases are a function of the **destination only** (distributed
//! deterministic routing), and of the switch's digits, so the route is
//! computed from them rather than read from a `switch × destination`
//! table ([`KAryNTree::det_routing`]):
//!
//! * At `⟨w, λ⟩`, the switch is an ancestor of destination `d` iff
//!   `w_i = d_{i+1}` for all `i ∈ [λ, n-2]`.
//! * Ancestor → go **down** on port `d_λ`.
//! * Not an ancestor → go **up** on port `k + d_λ` (this fixes digit
//!   `w_λ := d_λ`, steering the packet toward destination `d`'s unique
//!   root switch `(d_{n-2}, …, d_0)`).
//!
//! Selecting the up port from the destination's *low* digits gives every
//! destination its own root and its own down path: the four nodes of one
//! leaf switch descend through four different intermediate switches, so
//! uniform traffic uses the tree's full bisection, while all packets to
//! one hot node still converge onto a single destination tree — the
//! congestion-tree structure the paper's storms rely on. (Selecting by
//! the high digits instead would funnel a whole leaf's inbound traffic
//! through one down path, quartering uniform throughput in a 4-ary
//! tree.)

use crate::builder::TopologyBuilder;
use crate::graph::{LinkParams, Topology};
use crate::routing::RoutingTable;
use ccfit_engine::ids::{NodeId, PortId, SwitchId};
use serde::{Deserialize, Serialize};

/// A k-ary n-tree description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KAryNTree {
    /// Arity: each switch has `k` down and `k` up ports.
    pub k: u32,
    /// Number of stages.
    pub n: u32,
}

impl KAryNTree {
    /// Create a tree description; `k >= 2`, `n >= 1`.
    pub fn new(k: u32, n: u32) -> Self {
        assert!(k >= 2, "arity must be at least 2");
        assert!(n >= 1, "need at least one stage");
        Self { k, n }
    }

    /// Number of processing nodes: `k^n`.
    pub fn num_nodes(&self) -> usize {
        (self.k as usize).pow(self.n)
    }

    /// Switches per stage: `k^(n-1)`.
    pub fn switches_per_stage(&self) -> usize {
        (self.k as usize).pow(self.n - 1)
    }

    /// Total switches: `n · k^(n-1)`.
    pub fn num_switches(&self) -> usize {
        self.n as usize * self.switches_per_stage()
    }

    /// Ports per switch (`k` down + `k` up; top stage leaves the up ports
    /// unconnected).
    pub fn ports_per_switch(&self) -> usize {
        2 * self.k as usize
    }

    /// Switch id for `(level, w)`.
    pub fn switch_id(&self, level: u32, w: usize) -> SwitchId {
        debug_assert!(level < self.n);
        debug_assert!(w < self.switches_per_stage());
        SwitchId::from(level as usize * self.switches_per_stage() + w)
    }

    /// Inverse of [`Self::switch_id`]: `(level, w)`.
    pub fn switch_coords(&self, s: SwitchId) -> (u32, usize) {
        let per = self.switches_per_stage();
        ((s.index() / per) as u32, s.index() % per)
    }

    /// Digit `i` (base `k`) of integer `v`.
    fn digit(&self, v: usize, i: u32) -> usize {
        (v / (self.k as usize).pow(i)) % self.k as usize
    }

    /// Replace digit `i` of `v` with `new`.
    fn with_digit(&self, v: usize, i: u32, new: usize) -> usize {
        let p = (self.k as usize).pow(i);
        let old = self.digit(v, i);
        v - old * p + new * p
    }

    /// Build the physical topology with uniform cable parameters.
    pub fn build(&self, link: LinkParams) -> Topology {
        let mut b = TopologyBuilder::new(format!("{}-ary {}-tree", self.k, self.n));
        b.default_link(link);
        let per = self.switches_per_stage();
        for _ in 0..self.num_switches() {
            b.add_switch(self.ports_per_switch());
        }
        for _ in 0..self.num_nodes() {
            b.add_node();
        }
        // Node attachments: node (w, j) on leaf switch w, down port j.
        for node in 0..self.num_nodes() {
            let w = node / self.k as usize;
            let j = node % self.k as usize;
            b.attach(NodeId::from(node), self.switch_id(0, w), PortId(j as u16))
                .expect("node attachment");
        }
        // Inter-stage cables: for each lower switch ⟨w, λ⟩ and upper digit
        // c, cable lower up-port (k + c) to upper ⟨w[λ:=c], λ+1⟩ down-port
        // w_λ.
        for level in 0..self.n - 1 {
            for w in 0..per {
                for c in 0..self.k as usize {
                    let lower = self.switch_id(level, w);
                    let upper = self.switch_id(level + 1, self.with_digit(w, level, c));
                    let lower_port = PortId((self.k as usize + c) as u16);
                    let upper_port = PortId(self.digit(w, level) as u16);
                    // Cable each pair once: the (lower, c) iteration is
                    // unique per cable.
                    b.connect(lower, lower_port, upper, upper_port)
                        .expect("inter-stage cable");
                }
            }
        }
        b.build()
            .expect("k-ary n-tree construction is always valid")
    }

    /// DET deterministic routing for this tree, in closed form.
    ///
    /// With `p = k^λ`, the digits `(w_{n-2}, …, w_λ)` of switch `⟨w, λ⟩`
    /// are `w / p` and the digits `(d_{n-1}, …, d_{λ+1})` of destination
    /// `d` are `d / (p·k)`, so the ancestor test of the module docs is
    /// `w / p == d / (p·k)`, and the port is `d_λ = (d / p) % k`, plus `k`
    /// going up. The table keeps both quotients of every destination
    /// once per level and `w / p` once per switch — O(n·k^n) words where
    /// a `switch × destination` array holds O(n·k^(2n-1)) — and
    /// [`RoutingTable::route`] compares them: no division per lookup.
    pub fn det_routing(&self) -> RoutingTable {
        RoutingTable::det(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Endpoint;

    #[test]
    fn paper_config2_dimensions() {
        let t = KAryNTree::new(2, 3);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.num_switches(), 12);
        let topo = t.build(LinkParams::default());
        assert_eq!(topo.num_nodes(), 8);
        assert_eq!(topo.num_switches(), 12);
        topo.validate().unwrap();
    }

    #[test]
    fn paper_config3_dimensions() {
        let t = KAryNTree::new(4, 3);
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.num_switches(), 48);
        let topo = t.build(LinkParams::default());
        topo.validate().unwrap();
        // n·k^n cables: 3·64 = 192.
        assert_eq!(topo.num_cables(), 192);
    }

    #[test]
    fn switch_coords_round_trip() {
        let t = KAryNTree::new(4, 3);
        for s in 0..t.num_switches() {
            let sid = SwitchId::from(s);
            let (l, w) = t.switch_coords(sid);
            assert_eq!(t.switch_id(l, w), sid);
        }
    }

    #[test]
    fn top_stage_has_no_up_cables() {
        let t = KAryNTree::new(2, 3);
        let topo = t.build(LinkParams::default());
        for w in 0..t.switches_per_stage() {
            let top = t.switch_id(t.n - 1, w);
            for up in t.k as usize..2 * t.k as usize {
                assert!(topo.peer(top, PortId(up as u16)).is_none());
            }
        }
    }

    #[test]
    fn leaf_switches_host_contiguous_nodes() {
        let t = KAryNTree::new(2, 3);
        let topo = t.build(LinkParams::default());
        for node in 0..8usize {
            let (s, p, _) = topo.node_attachment(NodeId::from(node));
            assert_eq!(s, t.switch_id(0, node / 2));
            assert_eq!(p, PortId((node % 2) as u16));
        }
    }

    #[test]
    fn cabling_matches_digit_rule() {
        let t = KAryNTree::new(2, 3);
        let topo = t.build(LinkParams::default());
        // Lower switch ⟨w=1, λ=0⟩, up port k+1=3 must reach upper switch
        // with digit 0 set to 1: w'=1 at level 1, arriving at down port
        // w_0 = digit 0 of 1 = 1.
        let lower = t.switch_id(0, 1);
        let (ep, _) = topo.peer(lower, PortId(3)).unwrap();
        assert_eq!(ep, Endpoint::Switch(t.switch_id(1, 1), PortId(1)));
    }

    /// DET by the digit rule of the module docs, one digit at a time.
    fn digit_loop_port(t: &KAryNTree, level: u32, w: usize, d: usize) -> PortId {
        let ancestor = (level..t.n - 1).all(|i| t.digit(w, i) == t.digit(d, i + 1));
        let up = if ancestor { 0 } else { t.k as usize };
        PortId((up + t.digit(d, level)) as u16)
    }

    #[test]
    fn det_table_matches_the_digit_loop() {
        for k in 2..=5u32 {
            for n in 1..=5u32 {
                let t = KAryNTree::new(k, n);
                let routing = t.det_routing();
                for s in 0..t.num_switches() {
                    let sid = SwitchId::from(s);
                    let (level, w) = t.switch_coords(sid);
                    for d in 0..t.num_nodes() {
                        assert_eq!(
                            routing.route(sid, NodeId::from(d)),
                            digit_loop_port(&t, level, w, d),
                            "{k}-ary {n}-tree, switch ⟨{w}, {level}⟩, destination {d}"
                        );
                    }
                }
            }
        }
    }

    /// The closed form on the widest trees a matrix may build, at
    /// sampled pairs: for every switch, 64 destinations strided across
    /// the tree and 16 below it (which it routes down).
    #[test]
    fn det_closed_form_matches_the_digit_loop_on_16_and_32_ary_trees() {
        for k in [16u32, 32] {
            let t = KAryNTree::new(k, 3);
            let routing = t.det_routing();
            let n = t.num_nodes();
            for s in 0..t.num_switches() {
                let sid = SwitchId::from(s);
                let (level, w) = t.switch_coords(sid);
                let subtree = (k as usize).pow(level + 1);
                let first_below = w / (subtree / k as usize) * subtree;
                let strided = (0..64).map(|i| (s * 7919 + i * 331) % n);
                let below = (0..16).map(|i| first_below + (s + i * 97) % subtree);
                for d in strided.chain(below) {
                    assert_eq!(
                        routing.route(sid, NodeId::from(d)),
                        digit_loop_port(&t, level, w, d),
                        "{k}-ary 3-tree, switch ⟨{w}, {level}⟩, destination {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn det_routes_deliver_every_pair() {
        for (k, n) in [(2u32, 2u32), (2, 3), (3, 2), (4, 3)] {
            let t = KAryNTree::new(k, n);
            let topo = t.build(LinkParams::default());
            let routing = t.det_routing();
            routing.verify_delivers_all(&topo).unwrap();
        }
    }

    #[test]
    fn det_paths_are_up_then_down() {
        let t = KAryNTree::new(2, 3);
        let topo = t.build(LinkParams::default());
        let routing = t.det_routing();
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                if s == d {
                    continue;
                }
                let path = routing
                    .trace(&topo, NodeId::from(s), NodeId::from(d))
                    .unwrap();
                // Port indices: down < k <= up. Once we go down we must
                // never go up again.
                let mut descending = false;
                for (_, port) in &path {
                    let up = port.index() >= t.k as usize;
                    if up {
                        assert!(!descending, "up after down in {s}->{d}");
                    } else {
                        descending = true;
                    }
                }
                assert!(path.len() < 2 * t.n as usize);
            }
        }
    }

    #[test]
    fn distinct_destinations_use_distinct_roots() {
        // DET's up-phase digit selection spreads destinations over root
        // switches: destinations d and d' with different high digits reach
        // different top-stage switches.
        let t = KAryNTree::new(2, 3);
        let topo = t.build(LinkParams::default());
        let routing = t.det_routing();
        // src 0 -> dst 7 and src 0 -> dst 6 should climb to different
        // roots (they differ in digit 0 only... use dst 7 vs 5: digits
        // (1,1,1) vs (1,0,1)).
        let path7 = routing.trace(&topo, NodeId(0), NodeId(7)).unwrap();
        let path5 = routing.trace(&topo, NodeId(0), NodeId(5)).unwrap();
        let top7 = path7
            .iter()
            .map(|&(s, _)| s)
            .find(|s| t.switch_coords(*s).0 == 2);
        let top5 = path5
            .iter()
            .map(|&(s, _)| s)
            .find(|s| t.switch_coords(*s).0 == 2);
        assert_ne!(top7, top5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn unary_tree_is_rejected() {
        KAryNTree::new(1, 3);
    }
}
