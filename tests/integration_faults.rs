//! Dynamic fault-injection integration tests (DESIGN.md §8).
//!
//! A mid-run trunk failure must not strand traffic that still has a
//! path: after the fixed re-routing latency the simulator rebuilds
//! the routing tables and every *non-orphaned* flow keeps delivering.
//! Orphaned flows (destination behind a dead switch) are refused at the
//! source and purged in flight, and the packet-conservation identity
//!
//! `injected == delivered + resident + packets_lost`
//!
//! must hold under every mechanism.

use ccfit::{ExperimentSpec, FaultSchedule, Mechanism, SimBuilder, SimConfig};
use ccfit_engine::ids::{NodeId, PortId, SwitchId};
use ccfit_topology::{Endpoint, KAryNTree, LinkParams, RoutingTable, Topology};
use ccfit_traffic::{case4, FlowSpec, TrafficPattern};

/// The five mechanisms the resilience tests cover: both queueing
/// families, both isolation schemes, and injection throttling.
fn mechanisms() -> Vec<Mechanism> {
    vec![
        Mechanism::OneQ,
        Mechanism::VoqSw,
        Mechanism::fbicm(),
        Mechanism::ith(),
        Mechanism::ccfit(),
    ]
}

/// First switch-to-switch cable in index order — a leaf up-link of a
/// k-ary n-tree. Failing it leaves every node reachable (each leaf has
/// k up-links), so no flow is orphaned.
fn first_trunk_cable(topo: &Topology) -> (SwitchId, PortId) {
    for s in topo.switch_ids() {
        for p in topo.switch(s).connected() {
            if let Some((Endpoint::Switch(..), _)) = topo.peer(s, p) {
                return (s, p);
            }
        }
    }
    panic!("topology has no trunk cable");
}

/// Three always-on flows on the 2-ary 3-tree that cross the fabric in
/// different directions; none of them terminates at a failed node in
/// the link-failure tests.
fn cross_traffic() -> TrafficPattern {
    TrafficPattern::new(
        "fault-cross",
        vec![
            FlowSpec::hotspot(0, NodeId(0), NodeId(7), 0.0, None),
            FlowSpec::hotspot(1, NodeId(3), NodeId(5), 0.0, None),
            FlowSpec::hotspot(2, NodeId(6), NodeId(1), 0.0, None),
        ],
    )
}

fn build(mech: Mechanism, schedule: FaultSchedule) -> ccfit::Simulator {
    let tree = KAryNTree::new(2, 3);
    let topo = tree.build(LinkParams::default());
    SimBuilder::new(topo)
        .routing(tree.det_routing())
        .mechanism(mech)
        .traffic(cross_traffic())
        .config(SimConfig {
            duration_ns: 400_000.0,
            metrics_bin_ns: 20_000.0,
            ..SimConfig::default()
        })
        .seed(23)
        .faults(schedule)
        .build()
}

#[test]
fn all_flows_survive_a_mid_run_link_failure() {
    for mech in mechanisms() {
        let name = mech.name().to_string();
        let tree = KAryNTree::new(2, 3);
        let topo = tree.build(LinkParams::default());
        let (s, p) = first_trunk_cable(&topo);
        let mut schedule = FaultSchedule::new();
        schedule.link_down(2_000, s, p);

        let mut sim = build(mech, schedule);
        sim.run_cycles(sim.end_cycle());
        let injected = sim.injected();
        let delivered = sim.delivered();
        let resident = sim.resident_packets() as u64;
        assert!(
            sim.unreachable_nodes().is_empty(),
            "{name}: a single up-link failure must not orphan any node"
        );
        let report = sim.finish();
        let f = report.faults.as_ref().expect("fault summary present");
        assert_eq!(f.events_applied, 1, "{name}: link_down applied");
        assert_eq!(f.reroutes, 1, "{name}: one live re-route");
        assert_eq!(f.packets_refused, 0, "{name}: no destination was cut off");
        assert_eq!(
            injected,
            delivered + resident + f.packets_lost(),
            "{name}: packet conservation across the fault"
        );

        // Every flow must keep delivering after the re-route: its byte
        // series has volume in the bins past the failure cycle.
        let fault_bin = report.total_bytes.bin_of(f.first_fault_ns) + 1;
        for fr in &report.flows {
            let after: f64 = fr.bytes.scaled(1.0).iter().skip(fault_bin).sum();
            assert!(
                after > 0.0,
                "{name}: flow {} starved after the link failure",
                fr.label
            );
        }
    }
}

#[test]
fn orphaned_destination_is_refused_and_survivors_deliver() {
    // Kill the leaf switch of node 7 mid-run and never repair it. That
    // leaf also serves node 6, so flow 0 -> 7 loses its destination and
    // flow 6 -> 1 loses its source; only flow 3 -> 5 is untouched and
    // must keep running.
    for mech in [Mechanism::OneQ, Mechanism::ccfit()] {
        let name = mech.name().to_string();
        let tree = KAryNTree::new(2, 3);
        let topo = tree.build(LinkParams::default());
        let leaf = topo.node_attachment(NodeId(7)).0;
        let mut schedule = FaultSchedule::new();
        schedule.switch_down(2_000, leaf);

        let mut sim = build(mech, schedule);
        sim.run_cycles(sim.end_cycle());
        let injected = sim.injected();
        let delivered = sim.delivered();
        let resident = sim.resident_packets() as u64;
        assert!(
            sim.unreachable_nodes().contains(&NodeId(7)),
            "{name}: node 7 should be unreachable after its leaf died"
        );
        let report = sim.finish();
        let f = report.faults.as_ref().expect("fault summary present");
        assert!(
            f.packets_refused > 0,
            "{name}: injections toward the orphan must be refused"
        );
        assert!(f.node_unreachable_ns > 0.0, "{name}: availability window");
        assert_eq!(
            injected,
            delivered + resident + f.packets_lost(),
            "{name}: packet conservation with an orphaned destination"
        );

        let fault_bin = report.total_bytes.bin_of(f.first_fault_ns) + 1;
        for fr in report.flows.iter().filter(|fr| fr.id.0 == 1) {
            let after: f64 = fr.bytes.scaled(1.0).iter().skip(fault_bin).sum();
            assert!(
                after > 0.0,
                "{name}: surviving flow {} starved by an unrelated switch death",
                fr.label
            );
        }
    }
}

/// DET in closed form and the same routes written out as a flat
/// `switch × destination` table are one routing: a 64-node storm whose
/// trunk fails mid-burst — so the re-route swaps in a flat
/// shortest-path table — reports the same bytes under either.
#[test]
fn closed_form_det_and_its_flat_table_report_identically() {
    let tree = KAryNTree::new(4, 3);
    let topology = tree.build(LinkParams::default());
    let det = tree.det_routing();
    let rows = topology
        .switch_ids()
        .flat_map(|s| topology.node_ids().map(move |d| (s, d)))
        .map(|(s, d)| det.route(s, d))
        .collect();
    let flat = RoutingTable::from_rows(topology.num_nodes(), rows);
    let (s, p) = first_trunk_cable(&topology);
    let run = |routing: RoutingTable| {
        let spec = ExperimentSpec {
            name: "storm64".into(),
            topology: topology.clone(),
            routing,
            pattern: case4(64, 4),
            duration_ns: 4_000_000.0,
            crossbar_bw_flits_per_cycle: 1,
        }
        .scaled(0.05);
        let mut schedule = FaultSchedule::new();
        schedule.link_down(2_500, s, p);
        let mut sim =
            spec.build_sim_with_faults(Mechanism::ccfit(), 1, SimConfig::default(), schedule);
        sim.run_to_end();
        sim.finish()
    };
    let (closed, table) = (run(det), run(flat));
    let faults = closed.faults.as_ref().expect("fault summary present");
    assert_eq!(faults.reroutes, 1, "the trunk failure re-routed");
    assert!(
        closed.counters["packets_isolated"] > 0,
        "the storm isolated"
    );
    assert_eq!(closed.to_json(), table.to_json());
}
