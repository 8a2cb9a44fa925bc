//! The bit-identical-results guard for the engine (DESIGN.md §6, §9,
//! §12).
//!
//! The engine runs one phase pipeline over work-lists: it visits only
//! components that may act, skips provably-inert ones, and jumps the
//! clock over provably-quiet stretches; with `threads > 1` the
//! per-component phases fan out over a worker pool. Those shortcuts are
//! only legal if the simulation output is *byte-identical* to the
//! **oracle** — the same pipeline in reference mode
//! (`Simulator::run_reference`), which re-fills every work-list every
//! cycle, bypasses every gate and never jumps. The tests here run real
//! paper scenarios on the engine (serial, and sharded over 2 and 4
//! forced threads) and on the oracle, and compare the full serialized
//! `SimReport`s, which capture every counter, histogram, gauge series
//! and per-flow curve. Equal reports cannot show that the oracle is
//! exhaustive (a bypassed gate is a no-op by construction), so one test
//! checks that directly from the work-list occupancy counters.

use ccfit::experiment::{config1_case1_scaled, config2_case2_scaled, config3_case4_scaled};
use ccfit::{
    ExperimentSpec, FaultConfig, FaultPolicy, FaultSchedule, Mechanism, ParallelFallback,
    SimConfig, Simulator,
};
use ccfit_engine::ids::NodeId;
use ccfit_topology::Endpoint;

fn cfg() -> SimConfig {
    SimConfig {
        metrics_bin_ns: 20_000.0,
        ..SimConfig::default()
    }
}

/// A parallel config that *forces* the requested thread count: the
/// paper-scale configs are exactly the networks the auto-fallback would
/// (correctly) run serially, and a fallen-back run would make every
/// sharded assertion here vacuously true. `threads = 1` is the serial
/// engine.
fn cfg_threads(threads: usize) -> SimConfig {
    let mut c = cfg();
    c.parallel.threads = threads;
    c.parallel.fallback = ParallelFallback::Never;
    c
}

/// Run an assembled simulator in reference mode and serialize the report.
fn oracle_json(mut sim: Simulator) -> String {
    sim.run_reference();
    sim.finish().to_json()
}

/// The oracle's report for a fault-free run of `spec`.
fn oracle(spec: &ExperimentSpec, mech: Mechanism, seed: u64) -> String {
    oracle_json(spec.build_sim(mech, seed, cfg()))
}

/// Case 2 on Config #2 with a leaf up-link of node 7's switch — on the
/// congested path of the hotspot, so the failure displaces live traffic
/// — failing at cycle 40 000 and returning at 120 000.
fn faulty_config2() -> (ExperimentSpec, FaultSchedule) {
    let spec = config2_case2_scaled(0.04);
    let leaf = spec.topology.node_attachment(NodeId(7)).0;
    let trunk = spec
        .topology
        .switch(leaf)
        .connected()
        .find(|&p| matches!(spec.topology.peer(leaf, p), Some((Endpoint::Switch(..), _))))
        .expect("leaf has an up-link");
    let mut schedule = FaultSchedule::new();
    schedule
        .link_down(40_000, leaf, trunk, FaultPolicy::FailStop)
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
        let build = || {
            spec.build_sim_with_faults(
                mech.clone(),
                9,
                cfg(),
                schedule.clone(),
                FaultConfig::default(),
            )
        };
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
    let spec = config1_case1_scaled(0.02);
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

/// The engine must be byte-identical to the oracle on every thread
/// count — serial (`threads = 1`) and sharded over 2 and 4 forced
/// workers (DESIGN.md §9) — across all three paper configurations:
/// single crossbar switch, 2-ary 3-tree, and the 4-ary 3-tree under
/// hotspot congestion.
#[test]
fn parallel_tick_is_bit_identical_across_thread_counts() {
    let specs = [
        config1_case1_scaled(0.02),
        config2_case2_scaled(0.02),
        config3_case4_scaled(1, 0.01),
    ];
    for spec in &specs {
        let want = oracle(spec, Mechanism::ccfit(), 3);
        for threads in [1usize, 2, 4] {
            let got = spec
                .run_with(Mechanism::ccfit(), 3, cfg_threads(threads))
                .to_json();
            assert_eq!(
                got, want,
                "{}: threads={threads} diverges from the oracle",
                spec.name
            );
        }
    }
}

/// The modern CC mechanisms must honour the same engine contracts as
/// the paper set: DCQCN's probabilistic ECN marking rides the shard-
/// owned marking RNGs, HPCC's INT window counters live on switch output
/// ports, and CNP/ACK generation happens in the serial node-delivery
/// phase — so the oracle and the engine on every thread count must
/// produce byte-identical reports.
#[test]
fn modern_cc_is_bit_identical_across_engines_and_thread_counts() {
    let spec = config1_case1_scaled(0.02);
    for mech in [Mechanism::dcqcn(), Mechanism::hpcc()] {
        let name = mech.name();
        let want = oracle(&spec, mech.clone(), 7);
        for threads in [1usize, 2, 4] {
            let got = spec
                .run_with(mech.clone(), 7, cfg_threads(threads))
                .to_json();
            assert_eq!(
                got, want,
                "{name}: threads={threads} diverges from the oracle"
            );
        }
    }
}

/// The auto-fallback must (a) degrade paper-scale networks to the
/// serial engine — their shards are far below the pay-off threshold on
/// any host, and 1-CPU hosts degrade everything — and (b) stand down
/// entirely when the caller forces parallelism. Exercised by CI on the
/// 1-CPU runner so the fallback path cannot bit-rot.
#[test]
fn auto_fallback_degrades_tiny_configs_and_respects_force() {
    use ccfit::SimBuilder;
    let spec = config1_case1_scaled(0.02);
    let build = |force: bool| {
        let mut c = cfg();
        c.duration_ns = spec.duration_ns;
        c.crossbar_bw_flits_per_cycle = spec.crossbar_bw_flits_per_cycle;
        c.parallel.threads = 4;
        let mut b = SimBuilder::new(spec.topology.clone())
            .routing(spec.routing.clone())
            .mechanism(Mechanism::ccfit())
            .traffic(spec.pattern.clone())
            .config(c)
            .seed(3);
        if force {
            b = b.force_parallel();
        }
        b.build()
    };

    let auto = build(false).engine_decision();
    assert_eq!(
        auto.effective_threads, 1,
        "config #1 must fall back to the serial engine (got {auto:?})"
    );
    assert!(auto.fallback.is_some());
    assert_eq!(auto.requested_threads, 4);

    let forced = build(true).engine_decision();
    assert_eq!(forced.effective_threads, 4, "force_parallel was overruled");
    assert_eq!(forced.fallback, None);

    // The degraded run still produces byte-identical output.
    let mut auto_sim = build(false);
    auto_sim.run_to_end();
    assert_eq!(
        auto_sim.finish().to_json(),
        oracle(&spec, Mechanism::ccfit(), 3)
    );
}

/// With every observability channel wide open — full event recording,
/// per-packet tracing, per-port telemetry — the engine must still match
/// the oracle byte-for-byte on every thread count: the event log and the
/// packet traces ride the per-shard outboxes and are replayed in
/// canonical shard order (DESIGN.md §10), so thread count may not leak
/// into any recorded artifact.
#[test]
fn parallel_tick_traces_and_events_identical_across_threads() {
    use ccfit::trace::PacketTrace;
    use ccfit::{EventClass, EventConfig, SimBuilder};

    let spec = config1_case1_scaled(0.02);
    let run = |threads: Option<usize>| {
        let mut c = cfg_threads(threads.unwrap_or(1));
        c.duration_ns = spec.duration_ns;
        c.crossbar_bw_flits_per_cycle = spec.crossbar_bw_flits_per_cycle;
        let mut sim = SimBuilder::new(spec.topology.clone())
            .routing(spec.routing.clone())
            .mechanism(Mechanism::ccfit())
            .traffic(spec.pattern.clone())
            .config(c)
            .events(EventConfig {
                classes: EventClass::ALL,
                sample_every: 1,
                cap: 1 << 22,
            })
            .trace_sample_every(1)
            .port_telemetry(true)
            .seed(3)
            .build();
        match threads {
            Some(_) => sim.run_to_end(),
            None => sim.run_reference(),
        }
        let traces: Vec<PacketTrace> = sim.traces().into_iter().cloned().collect();
        (
            serde_json::to_string(&traces).unwrap(),
            sim.finish().to_json(),
        )
    };
    let (oracle_traces, oracle_report) = run(None);
    assert!(oracle_report.contains("\"events\""));
    for threads in [1usize, 2, 4] {
        let (traces, report) = run(Some(threads));
        assert_eq!(
            traces, oracle_traces,
            "threads={threads}: packet traces diverge from the oracle"
        );
        assert_eq!(
            report, oracle_report,
            "threads={threads}: report/event log diverges from the oracle"
        );
    }
}

/// Sized-flow workloads must obey the same byte-identity contract as
/// the rate-window patterns: flow completion is detected inside the
/// serial node-delivery phase (shard outboxes replay deliveries in
/// canonical order), so the FCT block — completion times, slowdowns,
/// aggregates — may not depend on engine mode or thread count. Covers
/// the generated presets and a trace-file-loaded workload.
#[test]
fn sized_flow_workloads_are_bit_identical_across_engines() {
    use ccfit::traffic::{all_to_all, incast, parse_trace, permutation_shift};
    use ccfit::{ConfigId, Workload};

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
        for threads in [1usize, 2, 4] {
            assert_eq!(
                spec.run_with(Mechanism::ccfit(), 7, cfg_threads(threads))
                    .to_json(),
                want,
                "{}: threads={threads} diverges from the oracle",
                w.name()
            );
        }
    }
}

/// Byte-identity on every thread count must also hold with a dynamic
/// fault schedule in play: fault events invalidate every activation
/// assumption, so the scheduler re-seeds all work-lists (and resyncs the
/// SoA occupancy mirror), and purges, re-routes and link-rate changes
/// all cross shard boundaries.
#[test]
fn parallel_tick_is_bit_identical_under_faults() {
    let (spec, schedule) = faulty_config2();
    let build = |c: SimConfig| {
        spec.build_sim_with_faults(
            Mechanism::ccfit(),
            9,
            c,
            schedule.clone(),
            FaultConfig::default(),
        )
    };
    let want = oracle_json(build(cfg()));
    for threads in [1usize, 2, 4] {
        assert_eq!(
            build(cfg_threads(threads)).run().to_json(),
            want,
            "threads={threads} diverges from the oracle under faults"
        );
    }
}
