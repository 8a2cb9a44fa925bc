//! Losslessness and resource-accounting invariants, end to end: the
//! network never drops a packet, every congestion-control resource is
//! eventually returned, and after traffic stops the network drains
//! completely.

use ccfit::{ConfigId, Mechanism, SimBuilder, SimConfig};
use ccfit_engine::ids::NodeId;
use ccfit_topology::{KAryNTree, LinkParams};
use ccfit_traffic::{FlowSpec, TrafficPattern};

fn cfg() -> SimConfig {
    SimConfig {
        metrics_bin_ns: 50_000.0,
        ..SimConfig::default()
    }
}

/// Conservation under mixed hotspot + uniform traffic (Case #3 includes
/// random destinations, stressing every queue path).
#[test]
fn conservation_under_mixed_traffic() {
    for mech in Mechanism::paper_set() {
        let name = mech.name();
        let spec = ConfigId::config2_case3().resolve();
        let mut sim = SimBuilder::new(spec.topology.clone())
            .routing(spec.routing.clone())
            .mechanism(mech)
            .traffic(spec.pattern.clone())
            .duration_ns(600_000.0)
            .config(cfg())
            .seed(0xC0)
            .build();
        sim.run_cycles(sim.end_cycle());
        assert_eq!(
            sim.injected(),
            sim.delivered() + sim.resident_packets() as u64,
            "{name}: packet conservation"
        );
        assert!(sim.delivered() > 500, "{name}: traffic actually flowed");
    }
}

/// After the sources stop, the network drains completely: every injected
/// packet is delivered, nothing remains resident, every CFQ is freed.
#[test]
fn network_drains_after_traffic_stops() {
    for mech in Mechanism::paper_set() {
        let name = mech.name();
        // Congested phase [0, 0.4] ms, then 0.6 ms of silence.
        let pattern = TrafficPattern::new(
            "burst-then-silence",
            vec![
                FlowSpec::hotspot(0, NodeId(0), NodeId(3), 0.0, Some(400_000.0)),
                FlowSpec::hotspot(1, NodeId(1), NodeId(4), 0.0, Some(400_000.0)),
                FlowSpec::hotspot(2, NodeId(2), NodeId(4), 0.0, Some(400_000.0)),
                FlowSpec::hotspot(5, NodeId(5), NodeId(4), 0.0, Some(400_000.0)),
            ],
        );
        let mut sim = SimBuilder::new(ccfit_topology::config1_topology())
            .mechanism(mech)
            .crossbar_bw(2)
            .traffic(pattern)
            .duration_ns(1_000_000.0)
            .config(cfg())
            .seed(0xD1)
            .build();
        sim.run_cycles(sim.end_cycle());
        assert_eq!(sim.resident_packets(), 0, "{name}: network drains");
        assert_eq!(
            sim.injected(),
            sim.delivered(),
            "{name}: all packets delivered"
        );
        assert_eq!(sim.cfqs_allocated(), 0, "{name}: all CFQs freed");
    }
}

/// BECN accounting: every BECN generated is (eventually) received, and
/// BECNs only exist for throttling mechanisms.
#[test]
fn becn_accounting_is_consistent() {
    for mech in [Mechanism::ith(), Mechanism::ccfit()] {
        let name = mech.name();
        let spec = ConfigId::Config1Case1 { scale: 0.1 }.resolve();
        let mut sim = SimBuilder::new(spec.topology.clone())
            .routing(spec.routing.clone())
            .mechanism(mech)
            .crossbar_bw(2)
            .traffic(spec.pattern.clone())
            .duration_ns(spec.duration_ns + 100_000.0)
            .config(cfg())
            .seed(0xB2)
            .build();
        sim.run_cycles(sim.end_cycle());
        let generated = sim.counter("becn_generated");
        let received = sim.counter("becn_received");
        assert!(generated > 0, "{name}: congestion produced BECNs");
        assert!(
            generated >= received && generated <= received + 4,
            "{name}: {generated} generated vs {received} received"
        );
        // Every *delivered* FECN-marked packet produces one BECN; a few
        // marked packets may still be in flight when the run ends.
        let marked = sim.counter("fecn_marked");
        assert!(
            generated <= marked && marked <= generated + 8,
            "{name}: {marked} marked vs {generated} BECNs generated"
        );
    }
}

/// Stop implies a later Go (no congested flow stays paused forever), and
/// CFQ allocations balance deallocations once the network drains.
#[test]
fn isolation_protocol_balances() {
    for mech in [Mechanism::fbicm(), Mechanism::ccfit()] {
        let name = mech.name();
        let pattern = TrafficPattern::new(
            "burst-then-silence",
            vec![
                FlowSpec::hotspot(1, NodeId(1), NodeId(4), 0.0, Some(400_000.0)),
                FlowSpec::hotspot(2, NodeId(2), NodeId(4), 0.0, Some(400_000.0)),
                FlowSpec::hotspot(5, NodeId(5), NodeId(4), 0.0, Some(400_000.0)),
                FlowSpec::hotspot(6, NodeId(6), NodeId(4), 0.0, Some(400_000.0)),
            ],
        );
        let mut sim = SimBuilder::new(ccfit_topology::config1_topology())
            .mechanism(mech)
            .crossbar_bw(2)
            .traffic(pattern)
            .duration_ns(1_200_000.0)
            .config(cfg())
            .seed(0xE3)
            .build();
        sim.run_cycles(sim.end_cycle());
        assert!(
            sim.counter("cfq_allocated") > 0,
            "{name}: isolation engaged"
        );
        assert_eq!(
            sim.counter("cfq_allocated"),
            sim.counter("cfq_deallocated"),
            "{name}: every CFQ allocation is matched by a deallocation"
        );
        assert_eq!(
            sim.counter("stops_sent"),
            sim.counter("gos_sent"),
            "{name}: every Stop is matched by a Go"
        );
    }
}

/// Uniform traffic on a fat tree: conservation holds across seeds and
/// scales, and throughput equals offered load below saturation.
#[test]
fn below_saturation_uniform_delivers_offered_load() {
    let tree = KAryNTree::new(2, 3);
    for mech in Mechanism::paper_set() {
        let name = mech.name();
        let report = SimBuilder::new(tree.build(LinkParams::default()))
            .routing(tree.det_routing())
            .mechanism(mech)
            .traffic(ccfit_traffic::uniform_all(8, 0.4))
            .duration_ns(500_000.0)
            .config(cfg())
            .seed(0xF4)
            .build()
            .run();
        let nt = report.mean_normalized_throughput(150_000.0, 500_000.0);
        assert!(
            (nt - 0.4).abs() < 0.03,
            "{name}: offered 0.4, delivered {nt:.3}"
        );
    }
}

/// The in-band BECN transport (paper-faithful) and the out-of-band
/// shortcut agree on the qualitative outcome: same victim protection,
/// same fairness, bounded throughput difference. This is the validation
/// that justifies offering the shortcut at all.
#[test]
fn becn_transports_agree_qualitatively() {
    use ccfit::simulator::BecnTransport;
    let spec = ConfigId::Config1Case1 { scale: 0.2 }.resolve();
    let run = |tr: BecnTransport| {
        let cfg = SimConfig {
            becn_transport: tr,
            metrics_bin_ns: 50_000.0,
            ..SimConfig::default()
        };
        spec.run_with(Mechanism::ccfit(), 0xAB, cfg)
    };
    let inband = run(BecnTransport::InBand);
    let oob = run(BecnTransport::OutOfBand);
    let w = (1.3e6, 2.0e6);
    let victim_in = inband.flow_mean_bandwidth_gbps(ccfit_engine::ids::FlowId(0), w.0, w.1);
    let victim_oob = oob.flow_mean_bandwidth_gbps(ccfit_engine::ids::FlowId(0), w.0, w.1);
    assert!(victim_in > 2.0, "in-band victim protected: {victim_in}");
    assert!(
        (victim_in - victim_oob).abs() < 0.5,
        "{victim_in} vs {victim_oob}"
    );
    let contributors = [
        ccfit_engine::ids::FlowId(1),
        ccfit_engine::ids::FlowId(2),
        ccfit_engine::ids::FlowId(5),
        ccfit_engine::ids::FlowId(6),
    ];
    assert!(inband.jain_over(&contributors, w.0, w.1) > 0.95);
    assert!(
        (inband.mean_normalized_throughput(w.0, w.1) - oob.mean_normalized_throughput(w.0, w.1))
            .abs()
            < 0.05
    );
    // In-band BECNs show up as control traffic, not workload.
    assert!(inband.counters["becn_received"] > 0);
}

/// In-band BECNs are themselves conserved: generated = received +
/// in flight at the end of the run.
#[test]
fn inband_becns_are_conserved() {
    let spec = ConfigId::Config1Case1 { scale: 0.1 }.resolve();
    let mut sim = SimBuilder::new(spec.topology.clone())
        .routing(spec.routing.clone())
        .mechanism(Mechanism::ccfit())
        .crossbar_bw(2)
        .traffic(spec.pattern.clone())
        .duration_ns(spec.duration_ns + 200_000.0)
        .config(cfg())
        .seed(0xBE)
        .build();
    sim.run_cycles(sim.end_cycle());
    let generated = sim.counter("becn_generated");
    let received = sim.counter("becn_received");
    assert!(generated > 0);
    // After 0.2 ms of drain, every BECN must have arrived.
    assert_eq!(generated, received, "all BECNs delivered after drain");
    // And data conservation still holds with BECNs in the network.
    assert_eq!(
        sim.injected(),
        sim.delivered() + sim.resident_packets() as u64
    );
}
