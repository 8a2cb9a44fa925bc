//! Integration tests for the modern congestion-control mechanisms
//! (DCQCN, HPCC) grafted onto the CCFIT testbed.
//!
//! Two kinds of guarantees live here:
//!
//! * the closed loops actually engage under the paper's Config #1
//!   hotspot scenario — marking/telemetry at switches, feedback packets
//!   at destinations, source reactions at adapters;
//! * the overhead byte accounting reconciles exactly: the new wire-byte
//!   counters (payload + scheme overhead, control traffic included)
//!   agree with the pre-existing link-level delivery accounting
//!   (`SimReport::delivered_bytes`) and with per-packet arithmetic.

use ccfit::params::Mechanism;
use ccfit::simulator::SimConfig;
use ccfit::ConfigId;
use ccfit_metrics::SimReport;

fn test_cfg() -> SimConfig {
    SimConfig {
        metrics_bin_ns: 20_000.0,
        ..SimConfig::default()
    }
}

fn counter(r: &SimReport, name: &str) -> u64 {
    r.counters.get(name).copied().unwrap_or(0)
}

/// DCQCN: ECN marks appear at the congested switch, the destination
/// answers with rate-limited CNPs, and the sources' rate machines react
/// by stretching their injection gaps.
#[test]
fn dcqcn_closed_loop_engages() {
    let spec = ConfigId::Config1Case1 { scale: 0.05 }.resolve();
    let r = spec.run_with(Mechanism::dcqcn(), 7, test_cfg());
    assert!(r.delivered_packets > 0, "traffic must flow");
    assert!(
        counter(&r, "ecn_marked") > 0,
        "hotspot must trigger ECN marking"
    );
    assert!(
        counter(&r, "cnp_generated") > 0,
        "marked deliveries must generate CNPs"
    );
    assert!(
        counter(&r, "cnp_received") > 0,
        "CNPs must reach the reaction points"
    );
    assert!(
        counter(&r, "cnp_received") <= counter(&r, "cnp_generated"),
        "no CNP can arrive that was never sent"
    );
    assert!(
        counter(&r, "dcqcn_throttled_injections") > 0,
        "rate cuts must stretch injection gaps"
    );
    // The CNP interval bounds feedback volume: far fewer CNPs than
    // marked packets under a sustained hotspot.
    assert!(counter(&r, "cnp_generated") <= counter(&r, "ecn_marked"));
    // No IB-style or HPCC machinery may engage.
    assert_eq!(counter(&r, "fecn_marked"), 0);
    assert_eq!(counter(&r, "becn_generated"), 0);
    assert_eq!(counter(&r, "ack_generated"), 0);
}

/// HPCC: every delivery is acknowledged with the echoed INT fold and
/// the sender windows move.
#[test]
fn hpcc_closed_loop_engages() {
    let spec = ConfigId::Config1Case1 { scale: 0.05 }.resolve();
    let r = spec.run_with(Mechanism::hpcc(), 7, test_cfg());
    assert!(r.delivered_packets > 0, "traffic must flow");
    assert_eq!(
        counter(&r, "ack_generated"),
        r.delivered_packets,
        "HPCC acknowledges every delivered data packet"
    );
    assert!(
        counter(&r, "ack_received") > 0,
        "ACKs must reach the sender window machines"
    );
    assert!(counter(&r, "ack_received") <= counter(&r, "ack_generated"));
    // No IB-style or DCQCN machinery may engage.
    assert_eq!(counter(&r, "fecn_marked"), 0);
    assert_eq!(counter(&r, "ecn_marked"), 0);
    assert_eq!(counter(&r, "cnp_generated"), 0);
}

/// Satellite: ECN/CNP/INT overhead byte accounting reconciles exactly
/// against the link-level byte counters and per-packet arithmetic.
#[test]
fn modern_cc_overhead_accounting_reconciles() {
    for mech in Mechanism::modern_set() {
        let name = mech.name();
        let dcqcn_overhead = mech.dcqcn_params().map(|p| u64::from(p.cnp_overhead_bytes));
        let hpcc = mech.hpcc_params().cloned();
        let spec = ConfigId::Config1Case1 { scale: 0.02 }.resolve();
        let r = spec.run_with(mech, 7, test_cfg());

        // Data-path identity: wire = payload + per-packet overhead, and
        // the payload side must agree with the pre-existing link-level
        // delivery accounting.
        assert_eq!(
            counter(&r, "wire_bytes_delivered"),
            counter(&r, "payload_bytes_delivered") + counter(&r, "overhead_bytes_delivered"),
            "{name}: wire bytes must decompose into payload + overhead"
        );
        assert_eq!(
            counter(&r, "payload_bytes_delivered"),
            r.delivered_bytes,
            "{name}: wire accounting must agree with link-level delivery bytes"
        );
        assert!(
            counter(&r, "wire_bytes_injected") >= counter(&r, "wire_bytes_delivered"),
            "{name}: nothing can be delivered that was not injected"
        );

        match (&dcqcn_overhead, &hpcc) {
            (Some(cnp_bytes), None) => {
                // DCQCN: data packets carry no extra header; control cost
                // is exactly one CNP payload per generated CNP.
                assert_eq!(counter(&r, "overhead_bytes_delivered"), 0, "{name}");
                assert_eq!(
                    counter(&r, "ctrl_wire_bytes_sent"),
                    counter(&r, "cnp_generated") * cnp_bytes,
                    "{name}: CNP wire cost"
                );
                assert_eq!(
                    counter(&r, "ctrl_wire_bytes_delivered"),
                    counter(&r, "cnp_received") * cnp_bytes,
                    "{name}: delivered CNP wire cost"
                );
            }
            (None, Some(h)) => {
                // HPCC: every delivered data packet carried the INT
                // header; every ACK costs its fixed control payload.
                assert_eq!(
                    counter(&r, "overhead_bytes_delivered"),
                    r.delivered_packets * u64::from(h.int_overhead_bytes),
                    "{name}: INT header cost"
                );
                assert_eq!(
                    counter(&r, "ctrl_wire_bytes_sent"),
                    counter(&r, "ack_generated") * u64::from(h.ack_overhead_bytes),
                    "{name}: ACK wire cost"
                );
                assert_eq!(
                    counter(&r, "ctrl_wire_bytes_delivered"),
                    counter(&r, "ack_received") * u64::from(h.ack_overhead_bytes),
                    "{name}: delivered ACK wire cost"
                );
            }
            other => panic!("{name}: unexpected modern-CC params {other:?}"),
        }
    }
}

/// The paper mechanisms carry none of the modern-CC counters: their
/// counter sets (pinned bitwise by the golden snapshots) are untouched
/// by the new subsystem.
#[test]
fn paper_mechanisms_have_no_modern_cc_counters() {
    let spec = ConfigId::Config1Case1 { scale: 0.02 }.resolve();
    let r = spec.run_with(Mechanism::ccfit(), 7, test_cfg());
    for key in [
        "ecn_marked",
        "cnp_generated",
        "cnp_received",
        "ack_generated",
        "ack_received",
        "wire_bytes_injected",
        "wire_bytes_delivered",
        "ctrl_wire_bytes_sent",
        "ctrl_wire_bytes_delivered",
    ] {
        assert!(
            !r.counters.contains_key(key),
            "paper mechanism must not grow counter {key}"
        );
    }
}
