//! Golden-snapshot pins for the paper's Config #1 / Case #1 scenario.
//!
//! Each of the six evaluated mechanisms runs a short, fixed-seed
//! schedule and its full serialized [`SimReport`] is compared byte-for-
//! byte against a checked-in snapshot under `tests/snapshots/`. The
//! determinism suite proves the engine and its oracle agree with *each
//! other*; these pins additionally freeze the absolute numbers, so an
//! innocent-looking change that shifts results for both at once
//! (and would sail through the determinism tests) still fails loudly.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test snapshots
//! ```
//!
//! then review the snapshot diff like any other code change.

use ccfit::metrics::{EventLogReport, FctReport, SimReport};
use ccfit::{ConfigId, EventClass, EventConfig, Mechanism, SimConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn snapshot_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/snapshots")
        .join(file)
}

/// Compare `actual` against the checked-in snapshot, or rewrite it when
/// `UPDATE_SNAPSHOTS` is set.
fn check_snapshot(file: &str, actual: &str) {
    let path = snapshot_path(file);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); regenerate with UPDATE_SNAPSHOTS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{file}: report diverged from the golden snapshot; if the change \
         is intentional, regenerate with UPDATE_SNAPSHOTS=1 and review the diff"
    );
}

fn cfg() -> SimConfig {
    SimConfig {
        metrics_bin_ns: 20_000.0,
        ..SimConfig::default()
    }
}

#[test]
fn config1_case1_reports_match_golden_snapshots() {
    let spec = ConfigId::Config1Case1 { scale: 0.02 }.resolve();
    for mech in Mechanism::paper_set() {
        let file = format!(
            "config1_case1_{}.json",
            mech.name().to_ascii_lowercase().replace('/', "_")
        );
        let report = spec.run_with(mech, 7, cfg());
        check_snapshot(&file, &report.to_json());
    }
}

/// The modern mechanisms (DCQCN, HPCC) are pinned the same way: the
/// full serialized report — including the ECN/CNP/INT counters and the
/// wire-byte accounting — freezes the closed-loop behaviour of the new
/// congestion-control subsystem.
#[test]
fn config1_case1_modern_cc_reports_match_golden_snapshots() {
    let spec = ConfigId::Config1Case1 { scale: 0.02 }.resolve();
    for mech in Mechanism::modern_set() {
        let file = format!(
            "config1_case1_{}.json",
            mech.name().to_ascii_lowercase().replace('/', "_")
        );
        let report = spec.run_with(mech, 7, cfg());
        check_snapshot(&file, &report.to_json());
    }
}

/// The three static queue organisations (1Q, VOQsw, VOQnet) under link
/// failures on the Fig. 8 storm (`faultstorm-smoke.toml`'s network,
/// burst and schedule, plus one more failure):
/// - switch 0's port 4, an up-link, fails mid-burst and is repaired, as
///   in the matrix. Each re-route moves packets queued at switch 0 to
///   new VOQsw queues, and the repair re-derives VOQnet's
///   per-destination credits from what the receiver still holds;
/// - node 4's leaf switch fails later in the burst and comes back. The
///   failure wipes its queues, and until it returns its four nodes are
///   unreachable, so the re-route purges every packet queued for them
///   elsewhere, and VOQsw debits each queue's share of the per-output
///   occupancy.
///
/// The fault-free goldens take none of these paths.
#[test]
fn faulted_static_scheme_reports_match_golden_snapshots() {
    use ccfit::FaultSchedule;
    use ccfit_engine::ids::{NodeId, PortId, SwitchId};

    let spec = ConfigId::Config3Case4 {
        hotspots: 1,
        duration_ms: 4.0,
        scale: 0.1,
    }
    .resolve();
    let (up_sw, up_port) = (SwitchId(0), PortId(4));
    let leaf = spec.topology.node_attachment(NodeId(4)).0;
    assert_ne!(leaf, up_sw);
    let mut schedule = FaultSchedule::new();
    schedule
        .link_down(4688, up_sw, up_port)
        .switch_down(6000, leaf)
        .switch_up(7500, leaf)
        .link_up(8594, up_sw, up_port);
    let cfg = SimConfig {
        metrics_bin_ns: 10_000.0,
        ..SimConfig::default()
    };
    for mech in [Mechanism::OneQ, Mechanism::VoqSw, Mechanism::voqnet()] {
        let file = format!("faulted_{}.json", mech.name().to_ascii_lowercase());
        let report = spec
            .build_sim_with_faults(mech, 0xFA017, cfg.clone(), schedule.clone())
            .run();
        let faults = report
            .faults
            .as_ref()
            .expect("a faulted run reports faults");
        assert!(faults.packets_purged > 0, "{file}: nothing purged");
        check_snapshot(&file, &report.to_json());
    }
}

/// Flow-completion-time golden pins (DESIGN.md §15): incast and
/// permutation sized-flow workloads on the 8-node tree, under CCFIT and
/// both modern mechanisms. Only the FCT block is pinned — it contains
/// every per-flow completion time, slowdown and the tail aggregates, so
/// any shift in flow scheduling, throttling response or the ideal-FCT
/// bound shows up as a one-file diff per (workload, mechanism).
#[test]
fn flow_workload_fct_blocks_match_golden_snapshots() {
    use ccfit::traffic::{incast, permutation_shift};
    use ccfit::ConfigId;

    let host = ConfigId::UniformTree {
        ary: 2,
        levels: 3,
        load: 1.0,
        duration_ns: 600_000.0,
    };
    let workloads = [
        ("incast4", incast(4, 65_536)),
        ("perm3", permutation_shift(3, 32_768)),
    ];
    let mechs = [Mechanism::ccfit(), Mechanism::dcqcn(), Mechanism::hpcc()];
    for (wname, w) in &workloads {
        for mech in &mechs {
            let file = format!(
                "fct_{wname}_{}.json",
                mech.name().to_ascii_lowercase().replace('/', "_")
            );
            let report = host
                .resolve()
                .with_workload(w)
                .run_with(mech.clone(), 7, cfg());
            let fct = report.fct.as_ref().expect("sized workload has FCT block");
            assert_eq!(fct.completed, fct.flows.len(), "{file}: incomplete flows");
            check_snapshot(&file, &serde_json::to_string_pretty(fct).unwrap());
        }
    }
}

/// The CCFIT event log itself is pinned too: isolation and Stop/Go
/// transitions on the congestion-tree classes form a compact, fully
/// deterministic transcript of the mechanism's §III behaviour.
#[test]
fn config1_case1_ccfit_event_log_matches_golden_snapshot() {
    let spec = ConfigId::Config1Case1 { scale: 0.02 }.resolve();
    let mut c = cfg();
    c.events = Some(EventConfig {
        classes: EventClass::CONGESTION
            | EventClass::CFQ
            | EventClass::STOP_GO
            | EventClass::THROTTLE,
        cap: 1 << 16,
    });
    let report = spec.run_with(Mechanism::ccfit(), 7, c);
    let log = report.events.as_ref().expect("event recording was enabled");
    assert_eq!(log.dropped_cap, 0, "cap must not truncate the snapshot");
    check_snapshot(
        "config1_case1_ccfit_events.json",
        &serde_json::to_string_pretty(log).unwrap(),
    );
}

/// The counters of the Fig. 8 H = 4 storm (Config #3 / Case #4, four
/// congestion trees), where FBICM and CCFIT run out of CFQs:
/// `cfq_exhausted` counts the port-cycles spent exhausted, and these
/// pins hold it, and every other counter, to the values of the engine
/// that visited an exhausted port every cycle.
#[test]
fn config3_case4_h4_counters_match_golden_snapshots() {
    let spec = ConfigId::Config3Case4 {
        hotspots: 4,
        duration_ms: 4.0,
        scale: 0.02,
    }
    .resolve();
    for mech in [Mechanism::fbicm(), Mechanism::ccfit()] {
        let file = format!(
            "config3_case4_h4_{}_counters.json",
            mech.name().to_ascii_lowercase()
        );
        let report = spec.run_with(mech, 3, cfg());
        assert!(
            report.counters["cfq_exhausted"] > 0,
            "{file}: no exhaustion"
        );
        check_snapshot(
            &file,
            &serde_json::to_string_pretty(&report.counters).unwrap(),
        );
    }
}

/// `text` read into a `T` and written again, pretty.
fn reread<T: serde::Serialize + serde::Deserialize>(text: &str) -> String {
    let value: T = serde_json::from_str(text).unwrap();
    serde_json::to_string_pretty(&value).unwrap()
}

/// Every golden reads back into the type it was written from and
/// renders to the same bytes: the JSON codec loses nothing a snapshot
/// pins, so what the cache stores is what a run reported.
#[test]
fn every_snapshot_round_trips_through_its_type() {
    let dir = snapshot_path("");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".json"))
        .collect();
    files.sort();
    assert!(files.len() >= 17, "{files:?}");
    for file in &files {
        let text = std::fs::read_to_string(dir.join(file)).unwrap();
        let again = if file.ends_with("_counters.json") {
            reread::<BTreeMap<String, u64>>(&text)
        } else if file.ends_with("_events.json") {
            reread::<EventLogReport>(&text)
        } else if file.starts_with("fct_") {
            reread::<FctReport>(&text)
        } else {
            reread::<SimReport>(&text)
        };
        assert!(again == text, "{file} does not re-render byte for byte");
    }
}
