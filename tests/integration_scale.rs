//! Network size: an adapter's memory follows the traffic it carries, not
//! the number of nodes it could talk to (DESIGN.md §12, "Per-destination
//! state on demand"), so a tree of 32 768 nodes — 62 GB when every
//! adapter held a queue and a throttle entry per destination — builds
//! and runs on a workstation; and a pass's work follows the components
//! that may act, not the size of the network (§12, the work-lists).

use ccfit::{Mechanism, SimBuilder, Simulator};
use ccfit_engine::ids::NodeId;
use ccfit_topology::{KAryNTree, LinkParams};
use ccfit_traffic::uniform_all;

/// A `k`-ary 3-tree under uniform 0.1 load and CCFIT.
fn build_tree(k: u32, duration_ns: f64) -> Simulator {
    let tree = KAryNTree::new(k, 3);
    let topology = tree.build(LinkParams::default());
    let num_nodes = topology.num_nodes();
    SimBuilder::new(topology)
        .routing(tree.det_routing())
        .mechanism(Mechanism::ccfit())
        .traffic(uniform_all(num_nodes, 0.1))
        .duration_ns(duration_ns)
        .seed(1)
        .build()
}

fn run_tree(k: u32, duration_ns: f64) -> Simulator {
    let mut sim = build_tree(k, duration_ns);
    sim.run_to_end();
    sim
}

fn peer_entries(sim: &Simulator, num_nodes: usize) -> u64 {
    (0..num_nodes)
        .map(|n| sim.adapter(NodeId::from(n)).peer_count() as u64)
        .sum()
}

/// Peak resident set of this process in bytes (`None` off Linux).
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn adapter_state_follows_traffic_at_4096_nodes() {
    let sim = run_tree(16, 50_000.0);
    assert!(sim.delivered() > 0, "traffic flowed");
    assert_eq!(
        sim.injected(),
        sim.delivered() + sim.resident_packets() as u64,
        "packet conservation"
    );
    // Under in-band BECNs only an admitted packet creates an entry, at
    // its source, for its destination.
    let entries = peer_entries(&sim, 4096);
    assert!(entries > 0);
    assert!(
        entries <= sim.injected(),
        "{entries} peer entries for {} injected packets",
        sim.injected()
    );
    // Work follows traffic too: a pass visits the switches and adapters
    // that may act, not the network. A count, so it holds on any host;
    // the oracle's exhaustive activation reads 768 and 4096.
    let act = sim.active_set_stats();
    assert!(act.ticks > 0);
    assert!(
        act.avg_switches() * 4.0 <= 768.0 && act.avg_adapters() * 4.0 <= 4096.0,
        "work-lists average {:.0} of 768 switches and {:.0} of 4096 adapters per pass",
        act.avg_switches(),
        act.avg_adapters()
    );
}

/// The one network where most input ports hold a packet most cycles and
/// almost none is in a congestion tree — where the isolation stage's
/// fixed-point skips (DESIGN.md §12) do nearly all of their work. The
/// oracle has every switch drop its memos every cycle, so equal reports
/// mean no skip lost an action on the workload the skips are for. (A
/// stale mark is rarely *wrong* on an uncongested network; the
/// invalidation contract itself is pinned by `switch::tests` and the
/// determinism matrix.)
#[test]
fn engine_matches_the_oracle_at_4096_nodes() {
    let mut oracle = build_tree(16, 16_000.0);
    oracle.run_reference();
    let engine = run_tree(16, 16_000.0);
    assert!(engine.delivered() > 0, "traffic flowed");
    assert_eq!(engine.finish().to_json(), oracle.finish().to_json());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: building 3072 64-port switches takes minutes unoptimised"
)]
fn tree_of_32768_nodes_builds_runs_and_conserves() {
    let sim = run_tree(32, 20_000.0);
    assert!(sim.delivered() > 0, "traffic flowed");
    assert_eq!(
        sim.injected(),
        sim.delivered() + sim.resident_packets() as u64,
        "packet conservation"
    );
    assert!(peer_entries(&sim, 32_768) <= sim.injected());
    if let Some(peak) = vm_hwm_bytes() {
        assert!(
            peak <= 2 << 30,
            "peak resident set {:.0} MB exceeds 2 GB",
            peak as f64 / 1e6
        );
    }
}
