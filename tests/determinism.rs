//! The bit-identical-results guard for the engine (DESIGN.md §6, §12).
//!
//! The engine runs one phase pipeline over work-lists: it visits only
//! components that may act, skips provably-inert ones, and jumps the
//! clock over provably-quiet stretches. Those shortcuts are only legal
//! if the simulation output is *byte-identical* to the **oracle** — the
//! same pipeline in reference mode (`Simulator::run_reference`), which
//! re-fills every work-list every cycle, bypasses every gate and never
//! jumps. The tests here run real paper scenarios on the engine and on
//! the oracle, and compare the full serialized `SimReport`s, which
//! capture every counter, histogram and per-flow curve.
//! Equal reports cannot show that the oracle is exhaustive (a bypassed
//! gate is a no-op by construction), so a unit test
//! (`oracle_is_exhaustive_and_the_engine_is_not`) checks that directly
//! from the work-list occupancy counters.

use ccfit::{ConfigId, ExperimentSpec, FaultSchedule, Mechanism, SimConfig, Simulator};
use ccfit_engine::ids::NodeId;
use ccfit_topology::Endpoint;

fn cfg() -> SimConfig {
    SimConfig {
        metrics_bin_ns: 20_000.0,
        ..SimConfig::default()
    }
}

/// Run an assembled simulator in reference mode and serialize the report.
fn oracle_json(mut sim: Simulator) -> String {
    sim.run_reference();
    sim.finish().to_json()
}

/// Config #3 / Case #4 with `hotspots` trees, its 4 ms compressed by
/// `scale`.
fn storm(hotspots: usize, scale: f64) -> ConfigId {
    let duration_ms = 4.0;
    ConfigId::Config3Case4 {
        hotspots,
        duration_ms,
        scale,
    }
}

/// The oracle's report for a fault-free run of `spec`.
fn oracle(spec: &ExperimentSpec, mech: Mechanism, seed: u64) -> String {
    oracle_json(spec.build_sim(mech, seed, cfg()))
}

/// Case 2 on Config #2 with a leaf up-link of node 7's switch — on the
/// congested path of the hotspot, so the failure displaces live traffic
/// — failing at cycle 40 000 and returning at 120 000.
fn faulty_config2() -> (ExperimentSpec, FaultSchedule) {
    let spec = ConfigId::Config2Case2 { scale: 0.04 }.resolve();
    let leaf = spec.topology.node_attachment(NodeId(7)).0;
    let trunk = spec
        .topology
        .switch(leaf)
        .connected()
        .find(|&p| matches!(spec.topology.peer(leaf, p), Some((Endpoint::Switch(..), _))))
        .expect("leaf has an up-link");
    let mut schedule = FaultSchedule::new();
    schedule
        .link_down(40_000, leaf, trunk)
        .link_up(120_000, leaf, trunk);
    (spec, schedule)
}

/// Same guarantee with a dynamic fault schedule in play: the Phase-0
/// event queue, the purges, and the re-route must be just as
/// deterministic as the steady-state machinery — same seed + same
/// schedule ⇒ byte-identical reports, engine and oracle alike.
#[test]
fn fault_schedule_runs_are_bit_identical() {
    let (spec, schedule) = faulty_config2();
    for mech in [Mechanism::ccfit(), Mechanism::VoqSw] {
        let name = mech.name();
        let build = || spec.build_sim_with_faults(mech.clone(), 9, cfg(), schedule.clone());
        let engine_a = build().run().to_json();
        let engine_b = build().run().to_json();
        assert_eq!(
            engine_a, engine_b,
            "{name}: fault-schedule run is not run-to-run deterministic"
        );
        assert_eq!(
            engine_a,
            oracle_json(build()),
            "{name}: fault handling diverges between the engine and the oracle"
        );
    }
}

#[test]
fn fast_path_is_bit_identical_to_slow_path() {
    // 0.2 ms of config-1 case-1: hotspot congestion forms, CFQs
    // allocate and deallocate, throttling engages, and long quiet tails
    // exercise the fast-forward. Two mechanisms cover both queueing
    // families (CCFIT: isolation + throttling; 1Q: bare FIFO).
    let spec = ConfigId::Config1Case1 { scale: 0.02 }.resolve();
    for mech in [Mechanism::ccfit(), Mechanism::OneQ] {
        for seed in [1u64, 2] {
            let name = mech.name();
            let fast_a = spec.run_with(mech.clone(), seed, cfg()).to_json();
            let fast_b = spec.run_with(mech.clone(), seed, cfg()).to_json();
            let slow = oracle(&spec, mech.clone(), seed);
            assert_eq!(
                fast_a, fast_b,
                "{name}/seed {seed}: fast path is not run-to-run deterministic"
            );
            assert_eq!(
                fast_a, slow,
                "{name}/seed {seed}: the engine diverges from the exhaustive oracle walk"
            );
        }
    }
}

/// The engine must be byte-identical to the oracle across all three
/// paper configurations: single crossbar switch, 2-ary 3-tree, and the
/// 4-ary 3-tree under hotspot congestion — with one tree, and with the
/// four of Fig. 8b, which exhaust FBICM's and CCFIT's CFQs: the engine
/// then skips the quiet visits of exhausted ports and parks their
/// switches, and counts `cfq_exhausted` from the episodes.
#[test]
fn engine_is_bit_identical_to_oracle_on_paper_configs() {
    let cases = [
        (ConfigId::Config1Case1 { scale: 0.02 }, Mechanism::ccfit()),
        (ConfigId::Config2Case2 { scale: 0.02 }, Mechanism::ccfit()),
        (storm(1, 0.01), Mechanism::ccfit()),
        (storm(4, 0.02), Mechanism::fbicm()),
        (storm(4, 0.02), Mechanism::ccfit()),
    ];
    for (config, mech) in &cases {
        let spec = &config.resolve();
        assert_eq!(
            spec.run_with(mech.clone(), 3, cfg()).to_json(),
            oracle(spec, mech.clone(), 3),
            "{} {}: the engine diverges from the oracle",
            spec.name,
            mech.name()
        );
    }
}

/// The modern CC mechanisms must honour the same engine contracts as
/// the paper set: DCQCN's probabilistic ECN marking rides the per-switch
/// marking RNGs, HPCC's INT window counters live on switch output
/// ports, and CNP/ACK generation happens in the node-delivery phase —
/// so the oracle and the engine must produce byte-identical reports.
#[test]
fn modern_cc_is_bit_identical_to_oracle() {
    let spec = ConfigId::Config1Case1 { scale: 0.02 }.resolve();
    for mech in [Mechanism::dcqcn(), Mechanism::hpcc()] {
        assert_eq!(
            spec.run_with(mech.clone(), 7, cfg()).to_json(),
            oracle(&spec, mech.clone(), 7),
            "{}: the engine diverges from the oracle",
            mech.name()
        );
    }
}

/// With every event class recorded the engine must still match the
/// oracle byte-for-byte, event log included (DESIGN.md §10).
#[test]
fn engine_events_identical_to_oracle() {
    let spec = ConfigId::Config1Case1 { scale: 0.02 }.resolve();
    events_identical_to_oracle(&spec, Mechanism::ccfit());
}

/// The same on Fig. 8b's four trees, where ports run out of CFQs: every
/// `CfqExhausted` episode closes on the same cycle, with the same
/// length, in both modes.
#[test]
fn engine_events_identical_to_oracle_h4() {
    let spec = storm(4, 0.02).resolve();
    for mech in [Mechanism::fbicm(), Mechanism::ccfit()] {
        let name = mech.name();
        let report = events_identical_to_oracle(&spec, mech);
        assert!(
            report.contains("\"CfqExhausted\""),
            "{name}: the run exhausts CFQs"
        );
    }
}

/// Run `spec` under `mech` with every event class recorded in both modes
/// and require equal reports; returns the report.
fn events_identical_to_oracle(spec: &ExperimentSpec, mech: Mechanism) -> String {
    use ccfit::{EventClass, EventConfig, SimBuilder};

    let run = |reference: bool| {
        let mut c = cfg();
        c.duration_ns = spec.duration_ns;
        c.crossbar_bw_flits_per_cycle = spec.crossbar_bw_flits_per_cycle;
        let mut sim = SimBuilder::new(spec.topology.clone())
            .routing(spec.routing.clone())
            .mechanism(mech.clone())
            .traffic(spec.pattern.clone())
            .config(c)
            .events(EventConfig {
                classes: EventClass::ALL,
                cap: 1 << 22,
            })
            .seed(3)
            .build();
        if reference {
            sim.run_reference();
        } else {
            sim.run_to_end();
        }
        sim.finish().to_json()
    };
    let oracle_report = run(true);
    assert!(oracle_report.contains("\"events\""));
    let report = run(false);
    assert_eq!(
        report, oracle_report,
        "report/event log diverges from the oracle"
    );
    report
}

/// Sized-flow workloads must obey the same byte-identity contract as
/// the rate-window patterns: the FCT block — completion times,
/// slowdowns, aggregates — may not depend on engine mode. Covers the
/// generated presets and a trace-file-loaded workload.
#[test]
fn sized_flow_workloads_are_bit_identical_across_engines() {
    use ccfit::traffic::{all_to_all, incast, parse_trace, permutation_shift};
    use ccfit::Workload;

    let trace_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../traces/incast4.trace"
    ))
    .expect("checked-in trace file");
    let workloads = [
        incast(4, 65_536),
        all_to_all(8_192),
        permutation_shift(3, 32_768),
        Workload::Trace {
            flows: parse_trace(&trace_text).expect("checked-in trace parses"),
        },
    ];
    let host = ConfigId::UniformTree {
        ary: 2,
        levels: 3,
        load: 1.0,
        duration_ns: 600_000.0,
    };
    for w in &workloads {
        let spec = host.resolve().with_workload(w);
        let want = oracle(&spec, Mechanism::ccfit(), 7);
        assert!(
            want.contains("\"fct\": {"),
            "{}: report carries no FCT block",
            w.name()
        );
        assert_eq!(
            spec.run_with(Mechanism::ccfit(), 7, cfg()).to_json(),
            want,
            "{}: the engine diverges from the oracle",
            w.name()
        );
    }
}

/// Byte-identity must also hold with a dynamic fault schedule in play:
/// fault events invalidate every activation assumption, so the scheduler
/// re-seeds all work-lists and every switch drops its memos.
#[test]
fn engine_is_bit_identical_under_faults() {
    let (spec, schedule) = faulty_config2();
    let build = || spec.build_sim_with_faults(Mechanism::ccfit(), 9, cfg(), schedule.clone());
    assert_eq!(
        build().run().to_json(),
        oracle_json(build()),
        "the engine diverges from the oracle under faults"
    );
}
