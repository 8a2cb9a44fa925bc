//! The traced run: where the host time of a workload goes, layer by
//! layer. Every case is run untraced and then through `tick_profiled`,
//! with spans around each call the benchmark makes; the difference
//! between the two tick loops is the tracing overhead.

use ccfit::{SimConfig, PHASE_NAMES};
use ccfit_metrics::SimReport;
use ccfit_orchestrator::Cache;

use crate::e2e::{measure_rounds, resolve_matrix, summarise, sweep, warm_up, Round, ScratchCache};
use crate::host::proc_status_bytes;
use crate::measure::{mean_over, run_case, Ctx, Mode, RunSample};
use crate::stats::{sanitise_name, Summary};
use crate::workloads::{Case, SimWorkload, Source};

/// The mechanisms with a `cc.<MECH>.cycles_per_s` metric.
const CC_MECHS: [&str; 5] = ["CCFIT", "FBICM", "ITh", "DCQCN", "HPCC"];

const SWITCH_COUNTS: [&str; 6] = [
    "congestion_detected",
    "cfq_allocated",
    "cfq_exhausted",
    "packets_isolated",
    "fecn_marked",
    "stops_sent",
];
const ENDNODE_COUNTS: [&str; 3] = ["injected_packets", "becn_received", "throttled_injections"];

const ORCHESTRATOR_METRICS: [&str; 9] = [
    "orchestrator.matrix.parse_resolve_ms",
    "orchestrator.spec.cache_key_us",
    "orchestrator.cache.store_ms_per_entry",
    "orchestrator.cache.load_ms_per_entry",
    "orchestrator.cache.bytes_per_entry",
    "orchestrator.cache.load_mb_per_s",
    "orchestrator.cache.warm_hit_ratio",
    "orchestrator.cache.warm_pass_s",
    "orchestrator.runner.overhead_pct",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer values of one round: `plain` and `traced` hold one
/// sample per case, in case order.
fn layer_round(cases: &[Case], plain: &[RunSample], traced: &[RunSample], drop_s: f64) -> Round {
    let mut out = Round::new();
    let sum = |f: &dyn Fn(&RunSample) -> f64, xs: &[RunSample]| xs.iter().map(f).sum::<f64>();

    let cycles = sum(&|s| s.report.simulated_cycles as f64, traced);
    let traced_tick_ns = sum(&|s| s.tick_s * 1e9, traced);
    let plain_tick_ns = sum(&|s| s.tick_s * 1e9, plain);
    let phase_ns: Vec<f64> = (0..PHASE_NAMES.len())
        .map(|p| {
            sum(
                &|s| s.profile.map_or(0.0, |prof| prof.nanos[p] as f64),
                traced,
            )
        })
        .collect();
    let all_phases_ns: f64 = phase_ns.iter().sum();
    for (name, ns) in PHASE_NAMES.iter().zip(&phase_ns) {
        let phase = format!("core.simulator.phase.{}", sanitise_name(name));
        out.push((format!("{phase}.ns_per_cycle"), ratio(*ns, cycles)));
        out.push((format!("{phase}.share"), ratio(*ns, all_phases_ns)));
    }
    let ticks = sum(&|s| s.profile.map_or(0.0, |prof| prof.ticks as f64), traced);
    out.push((
        "core.simulator.phase_coverage".into(),
        ratio(all_phases_ns, traced_tick_ns),
    ));
    out.push((
        "core.simulator.trace_overhead_pct".into(),
        (ratio(traced_tick_ns, plain_tick_ns) - 1.0) * 100.0,
    ));
    out.push(("core.simulator.ticks_executed".into(), ticks));
    out.push((
        "core.simulator.quiet_cycle_share".into(),
        1.0 - ratio(ticks, cycles),
    ));
    let active = |f: fn(&RunSample) -> u64| sum(&|s| f(s) as f64, plain);
    let visits = active(|s| s.active.sw_sum + s.active.node_sum + s.active.link_sum);
    out.push((
        "core.simulator.ns_per_active_component".into(),
        ratio(plain_tick_ns, visits),
    ));
    out.push((
        "core.simulator.ns_per_delivered_packet".into(),
        ratio(
            plain_tick_ns,
            sum(&|s| s.report.delivered_packets as f64, plain),
        ),
    ));
    let active_ticks = active(|s| s.active.ticks);
    let max = |f: fn(&RunSample) -> u32| plain.iter().map(f).max().unwrap_or(0) as f64;
    for (kind, total, peak) in [
        (
            "switches",
            active(|s| s.active.sw_sum),
            max(|s| s.active.sw_max),
        ),
        (
            "adapters",
            active(|s| s.active.node_sum),
            max(|s| s.active.node_max),
        ),
        (
            "links",
            active(|s| s.active.link_sum),
            max(|s| s.active.link_max),
        ),
    ] {
        out.push((
            format!("engine.active.avg_{kind}"),
            ratio(total, active_ticks),
        ));
        out.push((format!("engine.active.max_{kind}"), peak));
    }
    for mech in CC_MECHS {
        let of_mech = |xs: &[RunSample], f: &dyn Fn(&RunSample) -> f64| -> f64 {
            cases
                .iter()
                .zip(xs)
                .filter(|(c, _)| c.mech.name() == mech)
                .map(|(_, s)| f(s))
                .sum()
        };
        out.push((
            format!("cc.{mech}.cycles_per_s"),
            ratio(
                of_mech(plain, &|s| s.report.simulated_cycles as f64),
                of_mech(plain, &|s| s.tick_s),
            ),
        ));
    }
    out.push((
        "topology.build_s".into(),
        sum(&|s| s.spec.topology_s, plain),
    ));
    out.push((
        "topology.routing_s".into(),
        sum(&|s| s.spec.routing_s, plain),
    ));
    out.push((
        "traffic.pattern_build_s".into(),
        sum(&|s| s.spec.pattern_s, plain),
    ));
    out.push((
        "core.config_resolve_s".into(),
        sum(&|s| s.spec.resolve_s, plain),
    ));
    out.push(("core.build_sim_s".into(), sum(&|s| s.build_sim_s, plain)));
    out.push(("core.finish_s".into(), sum(&|s| s.finish_s, plain)));
    out.push(("core.drop_s".into(), drop_s));
    out.push((
        "metrics.report_to_json_s".into(),
        sum(&|s| s.to_json_s, plain),
    ));
    out
}

/// Values that are counts or simulated results: they repeat exactly, so
/// they are taken once, from the CCFIT reports.
fn model_counts(ccfit: &[&SimReport]) -> Vec<(String, Summary)> {
    let counter = |name: &str| -> f64 {
        ccfit
            .iter()
            .map(|r| r.counters.get(name).copied().unwrap_or(0) as f64)
            .sum()
    };
    let mut out = Vec::new();
    for name in SWITCH_COUNTS {
        out.push((format!("core.switch.{name}"), counter(name)));
    }
    for name in ENDNODE_COUNTS {
        out.push((format!("core.endnode.{name}"), counter(name)));
    }
    out.push((
        "metrics.delivered_packets".into(),
        ccfit.iter().map(|r| r.delivered_packets as f64).sum(),
    ));
    out.push((
        "metrics.latency_p99_ns".into(),
        mean_over(ccfit, |r| r.latency_hist.p99_ns()),
    ));
    out.push((
        "metrics.fct.avg_slowdown".into(),
        mean_over(ccfit, |r| r.fct.as_ref().map_or(0.0, |f| f.avg_slowdown)),
    ));
    out.push((
        "metrics.fct.p99_ns".into(),
        mean_over(ccfit, |r| r.fct.as_ref().map_or(0.0, |f| f.p99_fct_ns)),
    ));
    out.into_iter()
        .map(|(n, v)| (n, Summary::exact(v)))
        .collect()
}

/// Per-layer metrics of a set of direct simulator runs.
pub fn sim_traced(w: &SimWorkload, ctx: &mut Ctx) -> Vec<(String, Summary)> {
    // The warm-up is the first time this process builds the network, so
    // its resident-set readings are the ones no earlier run has inflated.
    let first = warm_up(w, ctx).swap_remove(0);
    let mut ccfit_reports: Vec<SimReport> = Vec::new();
    let mut json_bytes = 0.0;
    let rounds = measure_rounds(ctx.seconds, || {
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        for case in &w.cases {
            plain.push(run_case(case, w.flows, Mode::Plain, ctx, ctx.root));
            traced.push(run_case(case, w.flows, Mode::Profiled, ctx, ctx.root));
        }
        // Reading a report back is the cache's hit path. Only the first
        // case's report is parsed: the vendored parser's cost grows with
        // the square of the document, and the all-to-all reports are
        // 2 MB each.
        let case = &w.cases[0];
        let (parsed, from_json_s) = ctx.tracer.span("metrics.report_from_json", ctx.root, || {
            serde_json::from_str::<SimReport>(&plain[0].json)
        });
        ctx.checks
            .check(parsed.as_ref() == Ok(&plain[0].report), || {
                format!("{}: report does not survive a JSON round trip", case.label)
            });
        let (spec, _) = case.source.build(&mut ctx.tracer, ctx.root);
        let sim = spec.build_sim(case.mech.clone(), ctx.seed, SimConfig::default());
        let ((), drop_s) = ctx.tracer.span("core.drop", ctx.root, || drop(sim));

        let mut round = layer_round(&w.cases, &plain, &traced, drop_s);
        round.push(("metrics.report_from_json_s".into(), from_json_s));
        if ccfit_reports.is_empty() {
            json_bytes = plain[0].json.len() as f64;
            ccfit_reports = w
                .cases
                .iter()
                .zip(plain)
                .filter(|(c, _)| c.mech.name() == "CCFIT")
                .map(|(_, s)| s.report)
                .collect();
        }
        round
    });

    let mut metrics = summarise(&rounds);
    metrics.push((
        "metrics.report_json_bytes".into(),
        Summary::exact(json_bytes),
    ));
    let nodes = first.nodes as f64;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    for (name, value) in [
        ("mem.after_topology_mb", mb(first.rss_after_spec)),
        ("mem.after_build_mb", mb(first.rss_after_build)),
        (
            "mem.build_bytes_per_node",
            first.rss_after_build.saturating_sub(first.rss_after_spec) as f64 / nodes,
        ),
        (
            "mem.peak_bytes_per_node",
            proc_status_bytes("VmHWM:") as f64 / nodes,
        ),
    ] {
        metrics.push((name.into(), Summary::exact(value)));
    }
    metrics.extend(model_counts(&ccfit_reports.iter().collect::<Vec<_>>()));
    metrics
}

/// The orchestrator's layers, measured once per round around its public
/// calls: parse/resolve/hash, a cold sweep, direct `Cache::store` and
/// `Cache::load` of every entry, and a fully cached pass.
fn orchestrator_round(ctx: &mut Ctx) -> Round {
    let round = ctx.tracer.open("orchestrator", Some(ctx.root));
    let m = resolve_matrix(ctx, round);
    let n = m.specs.len() as f64;
    let swept = ScratchCache::new("traced-sweep");
    let (cold, cold_s) = sweep("cold_sweep", &m.specs, &swept, true, ctx, round);
    let in_runs_s: f64 = cold.outputs.iter().map(|o| o.wall_s).sum();
    let (warm, warm_s) = sweep("warm_pass", &m.specs, &swept, false, ctx, round);

    let direct = ScratchCache::new("traced-direct");
    let cache = Cache::new(&direct.dir);
    let ((), store_s) = ctx.tracer.span("orchestrator.cache.store", round, || {
        for o in &cold.outputs {
            cache.store(&o.key, &o.spec, &o.report);
        }
    });
    let (loaded, load_s) = ctx.tracer.span("orchestrator.cache.load", round, || {
        cold.outputs
            .iter()
            .filter(|o| cache.load(&o.key, &o.spec).as_ref() == Some(&o.report))
            .count()
    });
    ctx.checks.check(loaded == cold.outputs.len(), || {
        format!("only {loaded} of {n} stored entries load back unchanged")
    });
    let bytes: u64 = std::fs::read_dir(&direct.dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    ctx.tracer.close(round);

    let values = [
        m.parse_resolve_s * 1e3,
        m.hash_s * 1e6 / n,
        store_s * 1e3 / n,
        load_s * 1e3 / n,
        bytes as f64 / n,
        bytes as f64 / 1e6 / load_s,
        warm.stats.hits as f64 / n,
        warm_s,
        (cold_s - in_runs_s) / cold_s * 100.0,
    ];
    ORCHESTRATOR_METRICS
        .iter()
        .map(|name| name.to_string())
        .zip(values)
        .collect()
}

/// The matrix's runs as direct simulator cases, so that the phases of
/// the small paper networks are profiled too. They carry the labels the
/// sweeps used, so each direct report must equal the runner's.
fn matrix_cases(ctx: &mut Ctx) -> SimWorkload {
    let specs = resolve_matrix(ctx, ctx.root).specs;
    SimWorkload {
        cases: specs
            .into_iter()
            .map(|s| Case {
                label: s.label(),
                source: Source::Config(s.config),
                mech: s.mechanism,
            })
            .collect(),
        flows: 0,
    }
}

/// Per-layer metrics of the two matrix workloads: the orchestrator's
/// layers plus the simulator's on the same 24 runs.
pub fn matrix_traced(ctx: &mut Ctx) -> Vec<(String, Summary)> {
    // Half of the time budget each; both halves run at least twice.
    ctx.seconds /= 2.0;
    let w = matrix_cases(ctx);
    let mut metrics = sim_traced(&w, ctx);
    let orchestrator = measure_rounds(ctx.seconds, || orchestrator_round(ctx));
    metrics.extend(summarise(&orchestrator));
    metrics
}

/// The orchestrator metrics of a workload that does not use it.
pub fn no_orchestrator() -> Vec<(String, Summary)> {
    ORCHESTRATOR_METRICS
        .iter()
        .map(|name| (name.to_string(), Summary::exact(0.0)))
        .collect()
}
