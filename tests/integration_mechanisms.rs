//! End-to-end behavioural tests: each congestion-control mechanism run
//! on real (scaled-down) paper scenarios, asserting the qualitative
//! properties §IV claims for it.

use ccfit::{ConfigId, Mechanism, SimBuilder, SimConfig};
use ccfit_engine::ids::{FlowId, NodeId};
use ccfit_metrics::SimReport;
use ccfit_topology::{config1_topology, KAryNTree, LinkParams};
use ccfit_traffic::{uniform_all, FlowSpec, TrafficPattern};

/// Quick-turnaround SimConfig for tests.
fn test_cfg() -> SimConfig {
    SimConfig {
        metrics_bin_ns: 20_000.0,
        ..SimConfig::default()
    }
}

/// A single unobstructed flow must run at full line rate under every
/// mechanism.
#[test]
fn single_flow_achieves_line_rate_under_every_mechanism() {
    for mech in Mechanism::paper_set() {
        let name = mech.name();
        let topo = config1_topology();
        let pattern = TrafficPattern::new(
            "solo",
            vec![FlowSpec::hotspot(0, NodeId(0), NodeId(3), 0.0, None)],
        );
        let report = SimBuilder::new(topo)
            .mechanism(mech)
            .traffic(pattern)
            .duration_ns(400_000.0)
            .config(test_cfg())
            .seed(1)
            .build()
            .run();
        // 2.5 GB/s line rate; allow ramp-up and arbitration overheads.
        let bw = report.flow_mean_bandwidth_gbps(FlowId(0), 100_000.0, 400_000.0);
        assert!(bw > 2.2, "{name}: solo flow got {bw} GB/s");
    }
}

/// Every mechanism is lossless: injected = delivered + resident.
#[test]
fn packet_conservation_under_congestion() {
    for mech in Mechanism::paper_set() {
        let name = mech.name();
        let spec = ConfigId::Config1Case1 { scale: 0.05 }.resolve(); // 0.5 ms
        let mut sim = SimBuilder::new(spec.topology.clone())
            .routing(spec.routing.clone())
            .mechanism(mech)
            .traffic(spec.pattern.clone())
            .duration_ns(spec.duration_ns)
            .config(test_cfg())
            .seed(2)
            .build();
        sim.run_cycles(sim.end_cycle());
        let injected = sim.injected();
        let delivered = sim.delivered();
        let resident = sim.resident_packets() as u64;
        assert!(injected > 0, "{name}: nothing injected");
        assert_eq!(
            injected,
            delivered + resident,
            "{name}: conservation violated (injected {injected}, delivered {delivered}, resident {resident})"
        );
    }
}

/// Identical seeds produce identical reports (determinism contract).
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let spec = ConfigId::Config2Case2 { scale: 0.05 }.resolve();
        spec.run_with(Mechanism::ccfit(), 42, test_cfg())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// Different seeds change stochastic components (marking, uniform
/// destinations) but the network still works.
#[test]
fn different_seeds_still_deliver() {
    let tree = KAryNTree::new(2, 3);
    for seed in [1u64, 99] {
        let report = SimBuilder::new(tree.build(LinkParams::default()))
            .routing(tree.det_routing())
            .mechanism(Mechanism::ccfit())
            .traffic(uniform_all(8, 0.6))
            .duration_ns(300_000.0)
            .config(test_cfg())
            .seed(seed)
            .build()
            .run();
        assert!(report.delivered_packets > 100, "seed {seed}");
    }
}

/// The Config #1 victim flow: FBICM and CCFIT keep it at (near) full
/// rate; 1Q HoL-blocks it badly. This is the core of Fig. 9.
#[test]
fn victim_flow_is_protected_by_isolation() {
    let run = |mech: Mechanism| -> SimReport {
        let spec = ConfigId::Config1Case1 { scale: 0.1 }.resolve(); // 1 ms total, hotspots from 0.2 ms
        spec.run_with(mech, 3, test_cfg())
    };
    let victim = FlowId(0);
    // Measure during the most congested window (after all contributors
    // are active: 0.6 ms onward).
    let window = (620_000.0, 1_000_000.0);
    let oneq = run(Mechanism::OneQ).flow_mean_bandwidth_gbps(victim, window.0, window.1);
    let fbicm = run(Mechanism::fbicm()).flow_mean_bandwidth_gbps(victim, window.0, window.1);
    let ccfit = run(Mechanism::ccfit()).flow_mean_bandwidth_gbps(victim, window.0, window.1);
    assert!(
        oneq < 1.2,
        "1Q victim should be HoL-blocked well below line rate, got {oneq}"
    );
    assert!(
        fbicm > 2.0,
        "FBICM victim should run near line rate, got {fbicm}"
    );
    assert!(
        ccfit > 2.0,
        "CCFIT victim should run near line rate, got {ccfit}"
    );
    assert!(fbicm > 1.5 * oneq, "isolation must clearly beat 1Q");
}

/// The parking-lot problem (§IV-C): under 1Q/FBICM the switch-local
/// contributors (F5, F6) get more than the trunk-sharing ones (F1, F2);
/// CCFIT's per-flow throttling equalises them.
#[test]
fn ccfit_solves_the_parking_lot_problem() {
    let spec = ConfigId::Config1Case1 { scale: 0.2 }.resolve(); // 2 ms, all flows on from 1.2 ms
    let contributors = [FlowId(1), FlowId(2), FlowId(5), FlowId(6)];
    let window = (1_300_000.0, 2_000_000.0);
    let jain = |mech: Mechanism| {
        let r = spec.run_with(mech, 4, test_cfg());
        r.jain_over(&contributors, window.0, window.1)
    };
    let j_fbicm = jain(Mechanism::fbicm());
    let j_ccfit = jain(Mechanism::ccfit());
    assert!(
        j_ccfit > 0.97,
        "CCFIT contributors should share fairly, Jain = {j_ccfit}"
    );
    assert!(
        j_ccfit > j_fbicm,
        "CCFIT ({j_ccfit}) must be fairer than FBICM ({j_fbicm})"
    );
    assert!(
        j_fbicm < 0.95,
        "FBICM should exhibit the parking-lot unfairness, Jain = {j_fbicm}"
    );
}

/// Injection throttling reacts: BECNs arrive and CCTIs rise under
/// congestion, and the contributors throttle toward the fair share.
#[test]
fn throttling_reacts_to_congestion() {
    let spec = ConfigId::Config1Case1 { scale: 0.1 }.resolve();
    let mut sim = SimBuilder::new(spec.topology.clone())
        .routing(spec.routing.clone())
        .mechanism(Mechanism::ith())
        .traffic(spec.pattern.clone())
        .duration_ns(spec.duration_ns)
        .config(test_cfg())
        .seed(5)
        .build();
    sim.run_cycles(sim.end_cycle());
    assert!(
        sim.counter("fecn_marked") > 0,
        "packets must be FECN-marked"
    );
    assert!(sim.counter("becn_generated") > 0, "BECNs must be generated");
    assert!(
        sim.counter("becn_received") > 0,
        "BECNs must arrive at sources"
    );
    assert!(sim.counter("throttled_injections") > 0);
}

/// FBICM/CCFIT isolate congested packets into CFQs and deallocate the
/// resources once congestion vanishes.
#[test]
fn cfqs_allocate_and_deallocate() {
    let spec = ConfigId::Config1Case1 { scale: 0.1 }.resolve();
    // Truncate: all hotspot flows end at 0.8 ms, then 0.4 ms of drain.
    let mut pattern = spec.pattern.clone();
    for f in &mut pattern.flows {
        if let Some(e) = &mut f.end_ns {
            *e = 800_000.0;
        }
    }
    let mut sim = SimBuilder::new(spec.topology.clone())
        .routing(spec.routing.clone())
        .mechanism(Mechanism::ccfit())
        .traffic(pattern)
        .duration_ns(1_200_000.0)
        .config(test_cfg())
        .seed(6)
        .build();
    sim.run_cycles(sim.end_cycle());
    assert!(
        sim.counter("cfq_allocated") > 0,
        "congestion must allocate CFQs"
    );
    assert!(
        sim.counter("cfq_deallocated") > 0,
        "drained CFQs must be released"
    );
    assert_eq!(
        sim.cfqs_allocated(),
        0,
        "all CFQs must be free after congestion vanishes"
    );
}

/// VOQnet (the theoretical optimum) must match or beat every other
/// mechanism on aggregate throughput in the congested Config #1 scene.
#[test]
fn voqnet_is_an_upper_bound_for_config1() {
    let spec = ConfigId::Config1Case1 { scale: 0.1 }.resolve();
    let window = (620_000.0, 1_000_000.0);
    let mut results = Vec::new();
    for mech in Mechanism::paper_set() {
        let name = mech.name();
        let r = spec.run_with(mech, 7, test_cfg());
        results.push((name, r.mean_normalized_throughput(window.0, window.1)));
    }
    let voqnet = results.iter().find(|(n, _)| *n == "VOQnet").unwrap().1;
    for (name, v) in &results {
        assert!(
            voqnet >= v - 0.06,
            "VOQnet ({voqnet:.3}) should not be clearly beaten by {name} ({v:.3})"
        );
    }
}

/// Stop/Go propagation: under sustained congestion the CFQ protocol
/// must reach the adapters (stops sent and honoured upstream).
#[test]
fn stop_go_propagates_upstream() {
    let spec = ConfigId::Config1Case1 { scale: 0.1 }.resolve();
    let mut sim = SimBuilder::new(spec.topology.clone())
        .routing(spec.routing.clone())
        .mechanism(Mechanism::fbicm())
        .traffic(spec.pattern.clone())
        .duration_ns(spec.duration_ns)
        .config(test_cfg())
        .seed(8)
        .build();
    sim.run_cycles(sim.end_cycle());
    assert!(
        sim.counter("allocs_propagated") > 0,
        "congestion info must propagate"
    );
    assert!(sim.counter("stops_sent") > 0, "stops must be sent upstream");
    assert!(sim.counter("gos_sent") > 0, "gos must follow stops");
}

/// Uniform traffic at moderate load flows cleanly under every mechanism
/// (no spurious congestion collapse).
#[test]
fn uniform_moderate_load_is_stable() {
    let tree = KAryNTree::new(2, 3);
    for mech in Mechanism::paper_set() {
        let name = mech.name();
        let report = SimBuilder::new(tree.build(LinkParams::default()))
            .routing(tree.det_routing())
            .mechanism(mech)
            .traffic(uniform_all(8, 0.5))
            .duration_ns(400_000.0)
            .config(test_cfg())
            .seed(9)
            .build()
            .run();
        let nt = report.mean_normalized_throughput(100_000.0, 400_000.0);
        assert!(
            nt > 0.40,
            "{name}: uniform 50% load should be carried (~0.5), got {nt:.3}"
        );
    }
}

/// Config #2's five flows share node 7's link fairly under CCFIT.
#[test]
fn config2_contributors_share_the_hot_link_under_ccfit() {
    let spec = ConfigId::Config2Case2 { scale: 0.2 }.resolve();
    let r = spec.run_with(Mechanism::ccfit(), 10, test_cfg());
    let flows = [FlowId(0), FlowId(1), FlowId(2), FlowId(3), FlowId(4)];
    let window = (1_300_000.0, 2_000_000.0);
    let total: f64 = flows
        .iter()
        .map(|&f| r.flow_mean_bandwidth_gbps(f, window.0, window.1))
        .sum();
    // The hot link is 2.5 GB/s; the five flows together should fill most
    // of it once all are active.
    assert!(total > 1.8, "aggregate into node 7 was {total:.2} GB/s");
    let j = r.jain_over(&flows, window.0, window.1);
    assert!(j > 0.9, "CCFIT fairness across the tree, Jain = {j:.3}");
}

/// Mechanisms that do not throttle never mark or generate BECNs.
#[test]
fn non_throttling_mechanisms_do_not_mark() {
    let spec = ConfigId::Config1Case1 { scale: 0.05 }.resolve();
    for mech in [
        Mechanism::OneQ,
        Mechanism::VoqSw,
        Mechanism::voqnet(),
        Mechanism::fbicm(),
    ] {
        let name = mech.name();
        let mut sim = SimBuilder::new(spec.topology.clone())
            .routing(spec.routing.clone())
            .mechanism(mech)
            .traffic(spec.pattern.clone())
            .duration_ns(spec.duration_ns)
            .config(test_cfg())
            .seed(11)
            .build();
        sim.run_cycles(sim.end_cycle());
        assert_eq!(sim.counter("fecn_marked"), 0, "{name}");
        assert_eq!(sim.counter("becn_generated"), 0, "{name}");
    }
}

/// Latency percentiles expose HoL-blocking: 1Q's p99 under the Config #1
/// hotspot is at least an order of magnitude above CCFIT's p50.
#[test]
fn latency_percentiles_expose_hol_blocking() {
    let spec = ConfigId::Config1Case1 { scale: 0.1 }.resolve();
    let oneq = spec.run_with(Mechanism::OneQ, 0x1A7, test_cfg());
    let ccfit = spec.run_with(Mechanism::ccfit(), 0x1A7, test_cfg());
    let (p50_1q, _, p99_1q) = oneq.latency_percentiles_ns();
    let (p50_cc, _, _) = ccfit.latency_percentiles_ns();
    assert!(p99_1q > 10.0 * p50_1q, "1Q latency is heavy-tailed");
    assert!(
        p99_1q > 5.0 * p50_cc,
        "1Q p99 ({p99_1q}) far above CCFIT p50 ({p50_cc})"
    );
    assert!(oneq.latency_hist.count() > 100);
}

/// Packets physically follow the routing tables: the switches that ever
/// buffer a data packet are exactly those on the two flows' table
/// routes, and they are not the whole network. A packet is buffered
/// across a tick only while it waits, so the two flows converge on node
/// 3: the congestion they build there backs up over every hop of both
/// routes.
#[test]
fn data_packets_visit_only_the_routed_switches() {
    use ccfit_engine::ids::SwitchId;
    use std::collections::BTreeSet;
    let tree = KAryNTree::new(2, 3);
    let topo = tree.build(LinkParams::default());
    let routing = tree.det_routing();
    let pairs = [(NodeId(0), NodeId(3)), (NodeId(2), NodeId(3))];
    let pattern = TrafficPattern::new(
        "routed",
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| FlowSpec::hotspot(i as u32, src, dst, 0.0, None))
            .collect(),
    );
    let mut routed = BTreeSet::new();
    for &(src, dst) in &pairs {
        let hops = routing.trace(&topo, src, dst).unwrap();
        routed.extend(hops.iter().map(|&(s, _)| s));
    }
    let mut sim = SimBuilder::new(topo.clone())
        .routing(routing)
        .mechanism(Mechanism::ccfit())
        .traffic(pattern)
        .duration_ns(200_000.0)
        .config(test_cfg())
        .seed(0x7AC)
        .build();
    let mut visited = BTreeSet::new();
    while sim.now() < sim.end_cycle() {
        sim.tick();
        for s in 0..topo.num_switches() {
            let s = SwitchId(s as u32);
            if sim.switch(s).resident_data_packets() > 0 {
                visited.insert(s);
            }
        }
    }
    assert_eq!(visited, routed, "data packets left the table routes");
    assert!(
        routed.len() < topo.num_switches(),
        "the routes cover {} of {} switches",
        routed.len(),
        topo.num_switches()
    );
}
