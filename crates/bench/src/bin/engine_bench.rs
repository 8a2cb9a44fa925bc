//! Engine-throughput benchmark for the work-list scheduler and its
//! quiet-cycle jump (DESIGN.md §6, §12).
//!
//! Runs two workloads — one idle-heavy (flows finish early, leaving a
//! long quiet tail) and one congestion-heavy (config #1 / case #1 with
//! a sustained hotspot) — each on the engine (`fast`) and on its
//! exhaustive reference mode (`oracle`, `Simulator::run_reference`:
//! every work-list re-filled and sorted every cycle, no skip, no jump),
//! and reports simulated cycles per wall-clock second plus the ratio —
//! what the scheduling shortcuts buy, not a comparison with any earlier
//! engine. Results land in `BENCH_engine.json` (override the path with
//! `--out <file>`).
//!
//! A third scenario, `scale-16ary3`, proves the engine at scale: a
//! 16-ary 3-tree (4096 nodes, 768 × 32-port switches) under light
//! uniform traffic, recording cycles/sec, peak RSS and bytes-per-node.
//! `--smoke` shrinks it to a few thousand cycles for CI. A fourth,
//! `scale-32ary3` (32 768 nodes, 3072 × 64-port switches, one
//! run of 0.02 ms), records that the next size up builds and runs at
//! all, and in how much memory. A fifth, `hpcc-bursts64`, is the
//! uncongested case a window-based back-end used to be slowest at:
//! shifting-permutation bursts on the 64-node tree under HPCC
//! (whatever `--mech` says), where every adapter spends most of a burst
//! held by its window behind a generator the AdVOQ keeps refusing.
//!
//! `--before <file>` reads a ledger written by the same bench built on
//! another commit (the parent's, the same hour) and records its
//! `fast_cycles_per_sec` and work-list occupancy beside each row as
//! `before_*`, so a before/after pair sits in one file.
//!
//! With `--trace`, the congestion-heavy and `scale-16ary3` scenarios
//! are additionally timed with the full observability layer on (every
//! event class, per-packet tracing, per-port telemetry; DESIGN.md §10)
//! and the run asserts that recording never perturbs the simulation —
//! the traced report's aggregates must equal the untraced ones exactly.
//! Each row's `tracing_overhead_pct` is signed (a traced leg that ran
//! faster than the untraced one reads negative: host noise, and said
//! so); the document's own is the one of the longest such row, the only
//! one long enough to mean something.
//!
//! Run with `cargo run --release --bin engine_bench`.

use ccfit::experiment::{config1_case1_scaled, ExperimentSpec};
use ccfit::{
    ActiveSetStats, EventClass, EventConfig, Mechanism, PhaseProfile, SimConfig, PHASE_NAMES,
};
use ccfit_bench::harness::{mechanisms_from_args, reject_threads_flag};
use ccfit_engine::ids::NodeId;
use ccfit_topology::{config1_topology, KAryNTree, LinkParams, RoutingTable};
use ccfit_traffic::{mpi_phase_bursts, uniform_all, FlowSpec, TrafficPattern};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize, Default)]
struct ScenarioResult {
    scenario: String,
    simulated_cycles: u64,
    /// Wall time of the oracle walk (single rep for the scale scenario,
    /// where visiting everything every cycle is expensive).
    #[serde(skip_serializing_if = "Option::is_none")]
    oracle_wall_s: Option<f64>,
    fast_wall_s: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    oracle_cycles_per_sec: Option<f64>,
    fast_cycles_per_sec: f64,
    /// Engine throughput over oracle throughput.
    #[serde(skip_serializing_if = "Option::is_none")]
    speedup: Option<f64>,
    /// Peak resident set (`VmHWM`) after the scenario finished, bytes
    /// (scale scenarios only).
    #[serde(skip_serializing_if = "Option::is_none")]
    peak_rss_bytes: Option<u64>,
    /// Peak RSS divided by the node count — the engine's memory
    /// footprint per simulated node (scale scenarios only).
    #[serde(skip_serializing_if = "Option::is_none")]
    mem_per_node_bytes: Option<u64>,
    /// Wall time with the full observability layer on (`--trace` only).
    #[serde(skip_serializing_if = "Option::is_none")]
    traced_wall_s: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    traced_cycles_per_sec: Option<f64>,
    /// Percent throughput lost to full tracing vs the fast run;
    /// negative when the traced leg happened to run faster.
    #[serde(skip_serializing_if = "Option::is_none")]
    tracing_overhead_pct: Option<f64>,
    /// Mean switches on the scheduler's per-cycle work-list during the
    /// fast run.
    active_avg_switches: f64,
    /// Peak of the same work-list.
    active_max_switches: u32,
    /// Mean adapters on the per-cycle work-list.
    active_avg_adapters: f64,
    /// Peak adapters on the per-cycle work-list.
    active_max_adapters: u32,
    /// Mean links on the per-cycle work-list.
    active_avg_links: f64,
    /// Peak links on the per-cycle work-list.
    active_max_links: u32,
    /// The same row of the `--before` ledger: engine throughput
    /// and mean work-list occupancy on the other commit.
    #[serde(skip_serializing_if = "Option::is_none")]
    before_fast_cycles_per_sec: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    before_active_avg_switches: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    before_active_avg_adapters: Option<f64>,
}

impl ScenarioResult {
    /// Copy the `before_*` columns from this scenario's row of `ledger`.
    fn with_before(mut self, ledger: Option<&serde_json::Value>) -> Self {
        let rows = ledger.and_then(|doc| match doc.get("scenarios") {
            Some(serde_json::Value::Array(rows)) => Some(rows),
            _ => None,
        });
        let is_this = |row: &&serde_json::Value| matches!(row.get("scenario"), Some(serde_json::Value::Str(s)) if *s == self.scenario);
        if let Some(row) = rows.and_then(|rows| rows.iter().find(is_this)) {
            let column = |key: &str| row.get(key).and_then(serde_json::Value::as_f64);
            self.before_fast_cycles_per_sec = column("fast_cycles_per_sec");
            self.before_active_avg_switches = column("active_avg_switches");
            self.before_active_avg_adapters = column("active_avg_adapters");
        }
        self
    }
}

#[derive(Serialize)]
struct BenchDoc {
    bench: String,
    mechanism: String,
    reps_best_of: usize,
    /// Logical CPUs on the benchmarking host.
    host_cpus: usize,
    /// `tracing_overhead_pct` of the longest row that has a traced
    /// leg (`--trace` only).
    #[serde(skip_serializing_if = "Option::is_none")]
    tracing_overhead_pct: Option<f64>,
    scenarios: Vec<ScenarioResult>,
}

/// Timing runs per configuration; the best (lowest wall time) is kept,
/// which filters scheduler noise on a shared machine.
const REPS: usize = 5;

/// Config #1 with the case-1 hotspot contributors active only for the
/// first 5 % of the run: the remaining 95 % is a drained, quiet network
/// where the fast-forward should dominate.
fn idle_heavy() -> ExperimentSpec {
    let topology = config1_topology();
    let burst_end = 0.2e6; // flows stop at 0.2 ms...
    let flows = vec![
        FlowSpec::hotspot(0, NodeId(0), NodeId(3), 0.0, Some(burst_end)),
        FlowSpec::hotspot(1, NodeId(1), NodeId(4), 0.0, Some(burst_end)),
        FlowSpec::hotspot(2, NodeId(2), NodeId(4), 0.0, Some(burst_end)),
    ];
    ExperimentSpec {
        name: "idle-heavy".into(),
        routing: RoutingTable::shortest_path(&topology),
        topology,
        pattern: TrafficPattern::new("burst-then-idle", flows),
        duration_ns: 4e6, // ...of a 4 ms run.
        crossbar_bw_flits_per_cycle: 2,
    }
}

/// Config #1 / case #1 at quarter scale: the hotspot persists and the
/// network stays busy, so the win must come from the active-set skips
/// and the allocation-free hot paths, not the fast-forward.
fn congestion_heavy() -> ExperimentSpec {
    let mut spec = config1_case1_scaled(0.25);
    spec.name = "congestion-heavy".into();
    spec
}

/// What one timed run executes.
#[derive(Clone, Copy)]
enum Leg {
    /// The exhaustive reference walk (`Simulator::run_reference`).
    Reference,
    /// The engine (`Simulator::run_to_end`).
    Engine,
}

/// Wall time, cycle count and work-list occupancy of one run.
type Timing = (f64, u64, ActiveSetStats);

/// One timed run. Assembly is inside the timed region, matching what a
/// caller of `run_with` pays.
fn time_once(spec: &ExperimentSpec, mech: &Mechanism, leg: Leg) -> Timing {
    let t0 = Instant::now();
    let mut sim = spec.build_sim(mech.clone(), 1, SimConfig::default());
    match leg {
        Leg::Reference => sim.run_reference(),
        Leg::Engine => sim.run_to_end(),
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = sim.active_set_stats();
    (wall, sim.finish().simulated_cycles, stats)
}

/// The faster of two timings of the same leg (cycle counts and
/// occupancy are identical every run).
fn best(a: Timing, b: Timing) -> Timing {
    if b.0 < a.0 {
        b
    } else {
        a
    }
}

/// Best-of-`reps` timing of one leg.
fn time_run_n(spec: &ExperimentSpec, mech: &Mechanism, leg: Leg, reps: usize) -> Timing {
    (0..reps)
        .map(|_| time_once(spec, mech, leg))
        .reduce(best)
        .expect("at least one rep")
}

/// Best-of-`REPS` timing of one leg.
fn time_run(spec: &ExperimentSpec, mech: &Mechanism, leg: Leg) -> Timing {
    time_run_n(spec, mech, leg, REPS)
}

/// One run with the per-phase wall-time profiler on, printed as
/// a breakdown table (`--profile`).
fn profile_run(spec: &ExperimentSpec, mech: &Mechanism) {
    let mut prof = PhaseProfile::default();
    let mut sim = spec.build_sim(mech.clone(), 1, SimConfig::default());
    while sim.now() < sim.end_cycle() {
        sim.tick_profiled(&mut prof);
    }
    let total: u64 = prof.nanos.iter().sum();
    println!(
        "{:<17} per-phase breakdown over {} ticks ({:.3}s in phases):",
        spec.name,
        prof.ticks,
        total as f64 / 1e9
    );
    for (name, ns) in PHASE_NAMES.iter().zip(prof.nanos) {
        println!(
            "  {:<16} {:>10.3} ms  {:>5.1}%",
            name,
            ns as f64 / 1e6,
            ns as f64 / total.max(1) as f64 * 100.0
        );
    }
}

/// A `VmHWM:`/`VmRSS:`-style line from `/proc/self/status`, in bytes.
/// `None` off Linux or if the field is missing — the bench records
/// nulls rather than guessing.
fn proc_status_bytes(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident set of the process so far (`VmHWM`) and its share per
/// node of `spec`, printed and returned; `None`s off Linux.
fn peak_memory(spec: &ExperimentSpec) -> (Option<u64>, Option<u64>) {
    let peak_rss = proc_status_bytes("VmHWM:");
    let per_node = peak_rss.map(|b| b / spec.topology.num_nodes() as u64);
    if let (Some(rss), Some(per_node)) = (peak_rss, per_node) {
        println!(
            "{:<17} peak RSS {:.1} MiB | {:.1} KiB per node",
            spec.name,
            rss as f64 / (1 << 20) as f64,
            per_node as f64 / 1024.0,
        );
    }
    (peak_rss, per_node)
}

/// A scale scenario: a `k`-ary 3-tree under light uniform traffic from
/// every node. `k` = 16 is the 4096-node one (768 switches of 32 ports)
/// — per-cycle work two orders of magnitude above the paper configs.
/// Duration is set by the caller.
fn scale_tree(k: u32, duration_ns: f64) -> ExperimentSpec {
    let tree = KAryNTree::new(k, 3);
    let topology = tree.build(LinkParams::default());
    let routing = tree.det_routing();
    ExperimentSpec {
        name: format!("scale-{k}ary3"),
        pattern: uniform_all(topology.num_nodes(), 0.1),
        routing,
        topology,
        duration_ns,
        crossbar_bw_flits_per_cycle: 1,
    }
}

/// Eight shifting-permutation bursts of 256 KB per node on the 64-node
/// 4-ary 3-tree, 0.6 ms apart: no two flows of a burst share a link end
/// to end, so nothing congests and the engine's cost is the adapters'
/// and generators' own.
fn hpcc_bursts(smoke: bool) -> ExperimentSpec {
    let tree = KAryNTree::new(4, 3);
    let topology = tree.build(LinkParams::default());
    let (phases, bytes, gap_ns, duration_ns) = if smoke {
        (2, 16 << 10, 0.02e6, 0.06e6)
    } else {
        (8, 256 << 10, 0.6e6, 4.8e6)
    };
    ExperimentSpec {
        name: "hpcc-bursts64".into(),
        pattern: mpi_phase_bursts(phases, bytes, gap_ns).build(topology.num_nodes()),
        routing: tree.det_routing(),
        topology,
        duration_ns,
        crossbar_bw_flits_per_cycle: 1,
    }
}

/// Percent of the traced leg's wall time the fast leg did not
/// need. Signed: the clamp this replaces turned a traced leg that ran
/// faster into a claim of zero overhead.
fn tracing_overhead_pct(fast_s: f64, traced_s: f64) -> f64 {
    (1.0 - fast_s / traced_s.max(1e-12)) * 100.0
}

/// One traced leg of `cycles` cycles against its fast leg:
/// `(traced cycles/s, signed overhead %)`, printed as a table row.
fn traced_row(name: &str, cycles: u64, fast_s: f64, traced_s: f64) -> (f64, f64) {
    let cps = cycles as f64 / traced_s.max(1e-12);
    let pct = tracing_overhead_pct(fast_s, traced_s);
    println!(
        "{name:<17} {cycles:>9} cycles | traced {cps:>10.0} cyc/s | {pct:.1}% overhead vs fast"
    );
    (cps, pct)
}

/// Best-of-`reps` wall time with every observability channel on, plus a
/// correctness gate: tracing may observe the run but never change it.
fn time_traced(spec: &ExperimentSpec, mech: &Mechanism, reps: usize) -> f64 {
    let c = SimConfig {
        events: Some(EventConfig {
            classes: EventClass::ALL,
            sample_every: 1,
            cap: 1 << 22,
        }),
        trace_sample_every: Some(1),
        port_telemetry: true,
        ..SimConfig::default()
    };

    let untraced = spec.run_with(mech.clone(), 1, SimConfig::default());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let report = spec.run_with(mech.clone(), 1, c.clone());
        best = best.min(t0.elapsed().as_secs_f64());
        let log = report.events.as_ref().expect("events enabled");
        assert_eq!(log.dropped_cap, 0, "{}: event cap truncated", spec.name);
        assert!(!log.events.is_empty(), "{}: no events recorded", spec.name);
        assert_eq!(
            report.counters, untraced.counters,
            "{}: tracing perturbed the counters",
            spec.name
        );
        assert_eq!(report.delivered_packets, untraced.delivered_packets);
        assert_eq!(report.delivered_bytes, untraced.delivered_bytes);
        assert_eq!(
            report.total_bytes, untraced.total_bytes,
            "{}: tracing perturbed the throughput series",
            spec.name
        );
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Err(e) = reject_threads_flag(&args) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_engine.json".into());
    let trace = args.iter().any(|a| a == "--trace");
    let smoke = args.iter().any(|a| a == "--smoke");
    let profile = args.iter().any(|a| a == "--profile");
    // CI floor on the quiet-dominated scale scenario's engine
    // throughput: the work-list scheduler must keep it above this.
    let min_quiet_cps: Option<f64> = args
        .iter()
        .position(|a| a == "--min-quiet-cps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    // `--mech <name>` benches a different registered mechanism; the
    // engine bench measures one engine at a time.
    let before: Option<serde_json::Value> = args
        .iter()
        .position(|a| a == "--before")
        .and_then(|i| args.get(i + 1))
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("reading the --before ledger {path}: {e}"));
            serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("parsing the --before ledger {path}: {e}"))
        });
    let mechs = mechanisms_from_args(&args, vec![Mechanism::ccfit()]);
    if mechs.len() != 1 {
        eprintln!("engine_bench benches one mechanism at a time; got {mechs:?}");
        std::process::exit(2);
    }
    let mech = &mechs[0];
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut entries = Vec::new();
    for (spec, busy) in [(idle_heavy(), false), (congestion_heavy(), true)] {
        let (oracle_s, oracle_cycles, _) = time_run(&spec, mech, Leg::Reference);
        let (fast_s, fast_cycles, act) = time_run(&spec, mech, Leg::Engine);
        assert_eq!(
            oracle_cycles, fast_cycles,
            "{}: the engine and its reference mode simulated different cycle counts",
            spec.name
        );
        let oracle_cps = oracle_cycles as f64 / oracle_s.max(1e-12);
        let fast_cps = fast_cycles as f64 / fast_s.max(1e-12);
        let speedup = fast_cps / oracle_cps;
        println!(
            "{:<17} {:>9} cycles | oracle {:>10.0} cyc/s | fast {:>12.0} cyc/s | {:.2}x",
            spec.name, oracle_cycles, oracle_cps, fast_cps, speedup
        );
        if profile {
            profile_run(&spec, mech);
        }
        // A tracing-overhead leg rides the congestion-heavy scenario: a
        // busy network is where event emission is most frequent (and
        // 40 ms is too short to price it; the scale row below does).
        let traced_s = (trace && busy).then(|| time_traced(&spec, mech, REPS));
        let traced = traced_s.map(|s| traced_row(&spec.name, fast_cycles, fast_s, s));
        entries.push(ScenarioResult {
            scenario: spec.name.clone(),
            simulated_cycles: oracle_cycles,
            oracle_wall_s: Some(oracle_s),
            fast_wall_s: fast_s,
            oracle_cycles_per_sec: Some(oracle_cps),
            fast_cycles_per_sec: fast_cps,
            speedup: Some(speedup),
            traced_wall_s: traced_s,
            traced_cycles_per_sec: traced.map(|t| t.0),
            tracing_overhead_pct: traced.map(|t| t.1),
            active_avg_switches: act.avg_switches(),
            active_max_switches: act.sw_max,
            active_avg_adapters: act.avg_adapters(),
            active_max_adapters: act.node_max,
            active_avg_links: act.avg_links(),
            active_max_links: act.link_max,
            ..Default::default()
        });
    }

    // --- hpcc-bursts64: window-held adapters on an uncongested tree ---
    // Two reps of the oracle leg: it visits 112 components on each of
    // 187 500 cycles.
    let spec = hpcc_bursts(smoke);
    let hpcc = Mechanism::hpcc();
    let (oracle_s, oracle_cycles, _) = time_run_n(&spec, &hpcc, Leg::Reference, 2);
    let (fast_s, fast_cycles, act) = time_run(&spec, &hpcc, Leg::Engine);
    assert_eq!(
        oracle_cycles, fast_cycles,
        "hpcc-bursts64: the engine and its reference mode simulated different cycle counts"
    );
    let oracle_cps = oracle_cycles as f64 / oracle_s.max(1e-12);
    let fast_cps = fast_cycles as f64 / fast_s.max(1e-12);
    println!(
        "{:<17} {:>9} cycles | oracle {:>10.0} cyc/s | fast {:>12.0} cyc/s | {:.2}x (HPCC)",
        spec.name,
        oracle_cycles,
        oracle_cps,
        fast_cps,
        fast_cps / oracle_cps
    );
    if profile {
        profile_run(&spec, &hpcc);
    }
    entries.push(ScenarioResult {
        scenario: spec.name.clone(),
        simulated_cycles: fast_cycles,
        oracle_wall_s: Some(oracle_s),
        fast_wall_s: fast_s,
        oracle_cycles_per_sec: Some(oracle_cps),
        fast_cycles_per_sec: fast_cps,
        speedup: Some(fast_cps / oracle_cps),
        active_avg_switches: act.avg_switches(),
        active_max_switches: act.sw_max,
        active_avg_adapters: act.avg_adapters(),
        active_max_adapters: act.node_max,
        active_avg_links: act.avg_links(),
        active_max_links: act.link_max,
        ..Default::default()
    });

    // --- scale-16ary3: prove the engine at 4096 nodes -----------------
    const SCALE_REPS: usize = 3;
    let spec = scale_tree(16, if smoke { 0.1e6 } else { 0.5e6 });
    let (fast_s, fast_cycles, act) = time_run_n(&spec, mech, Leg::Engine, SCALE_REPS);
    let fast_cps = fast_cycles as f64 / fast_s.max(1e-12);
    // The reference leg runs a much shorter slice of the same scenario:
    // visiting all 4096 nodes every cycle is ~2 orders of magnitude
    // slower, and cycles/sec is a rate, so a few hundred cycles anchor
    // the speedup without a half-hour bench leg. One rep for the same
    // reason.
    let oracle_spec = scale_tree(16, if smoke { 0.005e6 } else { 0.02e6 });
    let (oracle_s, oracle_cycles, _) = time_run_n(&oracle_spec, mech, Leg::Reference, 1);
    let oracle_cps = oracle_cycles as f64 / oracle_s.max(1e-12);
    let speedup = fast_cps / oracle_cps;
    println!(
        "{:<17} {:>9} cycles | oracle {:>10.0} cyc/s | fast {:>12.0} cyc/s | {:.2}x",
        spec.name, oracle_cycles, oracle_cps, fast_cps, speedup
    );
    if profile {
        profile_run(&spec, mech);
    }
    let (peak_rss, mem_per_node) = peak_memory(&spec);
    // After the memory reading: the traced leg's event log and packet
    // traces are not the engine's footprint.
    let traced_s = trace.then(|| time_traced(&spec, mech, SCALE_REPS));
    let traced = traced_s.map(|s| traced_row(&spec.name, fast_cycles, fast_s, s));
    entries.push(ScenarioResult {
        scenario: spec.name.clone(),
        simulated_cycles: fast_cycles,
        oracle_wall_s: Some(oracle_s),
        fast_wall_s: fast_s,
        oracle_cycles_per_sec: Some(oracle_cps),
        fast_cycles_per_sec: fast_cps,
        speedup: Some(speedup),
        peak_rss_bytes: peak_rss,
        mem_per_node_bytes: mem_per_node,
        traced_wall_s: traced_s,
        traced_cycles_per_sec: traced.map(|t| t.0),
        tracing_overhead_pct: traced.map(|t| t.1),
        active_avg_switches: act.avg_switches(),
        active_max_switches: act.sw_max,
        active_avg_adapters: act.avg_adapters(),
        active_max_adapters: act.node_max,
        active_avg_links: act.avg_links(),
        active_max_links: act.link_max,
        ..Default::default()
    });

    // --- scale-32ary3: the next size up builds and runs ---------------
    // One run; set-up dominates its wall time. It runs last, so
    // the process-wide `VmHWM` it reads is its own peak.
    let spec = scale_tree(32, if smoke { 0.005e6 } else { 0.02e6 });
    let (wall_s, cycles, act) = time_once(&spec, mech, Leg::Engine);
    let cps = cycles as f64 / wall_s.max(1e-12);
    println!(
        "{:<17} {:>9} cycles | fast {:>12.0} cyc/s | {:.2} s including set-up",
        spec.name, cycles, cps, wall_s
    );
    let (peak_rss, mem_per_node) = peak_memory(&spec);
    entries.push(ScenarioResult {
        scenario: spec.name.clone(),
        simulated_cycles: cycles,
        fast_wall_s: wall_s,
        fast_cycles_per_sec: cps,
        peak_rss_bytes: peak_rss,
        mem_per_node_bytes: mem_per_node,
        active_avg_switches: act.avg_switches(),
        active_max_switches: act.sw_max,
        active_avg_adapters: act.avg_adapters(),
        active_max_adapters: act.node_max,
        active_avg_links: act.avg_links(),
        active_max_links: act.link_max,
        ..Default::default()
    });
    let doc = BenchDoc {
        bench: "engine".into(),
        mechanism: mech.name().to_string(),
        reps_best_of: REPS,
        host_cpus,
        tracing_overhead_pct: entries
            .iter()
            .filter(|e| e.tracing_overhead_pct.is_some())
            .max_by(|a, b| a.fast_wall_s.total_cmp(&b.fast_wall_s))
            .and_then(|e| e.tracing_overhead_pct),
        scenarios: entries
            .into_iter()
            .map(|row| row.with_before(before.as_ref()))
            .collect(),
    };
    std::fs::write(&out_path, serde_json::to_string_pretty(&doc).unwrap())
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    // CI floor (`--min-quiet-cps`) on scale-16ary3, after the ledger is
    // written so that a failed gate still leaves its measurements behind:
    // catch a scheduler regression that re-couples per-cycle cost to
    // network size.
    if let Some(floor) = min_quiet_cps {
        assert!(
            fast_cps >= floor,
            "scale-16ary3: engine throughput {fast_cps:.0} cyc/s fell below the \
             pinned floor {floor:.0} cyc/s"
        );
        println!("scale-16ary3      fast {fast_cps:.0} cyc/s >= floor {floor:.0} cyc/s");
    }
}
