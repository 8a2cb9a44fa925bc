//! One simulator run, timed from outside through the public API, with
//! its output checks.

use std::collections::BTreeMap;

use ccfit::{ActiveSetStats, PhaseProfile, SimConfig};
use ccfit_metrics::SimReport;
use ccfit_orchestrator::hash::sha256_hex;

use crate::host::proc_status_bytes;
use crate::span::{SpanId, Tracer};
use crate::workloads::{Case, SpecTimes};

/// Output checks: how many were made, and what the failed ones said.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// State shared by everything one invocation measures.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub tracer: Tracer,
    pub root: SpanId,
    pub checks: Checks,
    /// `report_sha256` of the first run of each case; every later run
    /// of that case must reproduce it.
    pub digests: BTreeMap<String, String>,
}

impl Ctx {
    /// Record `sha256` for `label`, or check it against the recorded one.
    pub fn same_digest(&mut self, label: &str, sha256: &str) {
        match self.digests.get(label) {
            Some(first) => self.checks.check(first == sha256, || {
                format!("{label}: report digest {sha256} differs from the first run's {first}")
            }),
            None => {
                self.digests.insert(label.to_string(), sha256.to_string());
            }
        }
    }
}

/// How `run_case` drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `run_to_end`, as a user would.
    Plain,
    /// The tick loop goes through `tick_profiled` (the traced run).
    Profiled,
    /// Cut to a twentieth of the schedule: it touches the same memory,
    /// but its timings mean nothing and its checks are not counted.
    WarmUp,
}

/// Everything measured on one run of one case.
pub struct RunSample {
    pub spec: SpecTimes,
    pub build_sim_s: f64,
    pub tick_s: f64,
    pub finish_s: f64,
    pub to_json_s: f64,
    pub nodes: usize,
    /// Resident set after the spec and after `build_sim`, in bytes.
    pub rss_after_spec: u64,
    pub rss_after_build: u64,
    pub active: ActiveSetStats,
    /// Per-phase times; `None` for an untraced run.
    pub profile: Option<PhaseProfile>,
    pub report: SimReport,
    pub json: String,
}

impl RunSample {
    pub fn setup_s(&self) -> f64 {
        self.spec.total() + self.build_sim_s
    }

    /// What a user waits for this run.
    pub fn wall_s(&self) -> f64 {
        self.setup_s() + self.tick_s + self.finish_s + self.to_json_s
    }

    pub fn cycles_per_s(&self) -> f64 {
        self.report.simulated_cycles as f64 / self.tick_s
    }
}

/// Delivered payload over what the end nodes could have received.
pub fn norm_throughput(r: &SimReport) -> f64 {
    r.delivered_bytes as f64 / (r.reception_capacity_bytes_per_ns * r.duration_ns)
}

/// Mean of a simulated result over a workload's reports.
pub fn mean_over(reports: &[&SimReport], f: impl Fn(&SimReport) -> f64) -> f64 {
    reports.iter().map(|r| f(r)).sum::<f64>() / reports.len() as f64
}

/// Build, run, finish and serialise one case, with its output checks:
/// the run reaches its end, delivers, conserves packets, completes its
/// `flows` sized flows, and reproduces the digest of the case's earlier
/// runs (so a profiled run must equal a plain one).
pub fn run_case(case: &Case, flows: usize, mode: Mode, ctx: &mut Ctx, parent: SpanId) -> RunSample {
    let mut uncounted = Checks::default();
    let (tracer, checks) = match mode {
        Mode::WarmUp => (&mut ctx.tracer, &mut uncounted),
        _ => (&mut ctx.tracer, &mut ctx.checks),
    };
    let run = tracer.open(&format!("run:{}", case.label), Some(parent));
    let setup = tracer.open("setup", Some(run));
    let (mut spec, spec_times) = case.source.build(tracer, setup);
    if mode == Mode::WarmUp {
        spec = spec.scaled(0.05);
    }
    let nodes = spec.topology.num_nodes();
    let rss_after_spec = proc_status_bytes("VmRSS:");
    let (mut sim, build_sim_s) = tracer.span("core.build_sim", setup, || {
        spec.build_sim(case.mech.clone(), ctx.seed, SimConfig::default())
    });
    let rss_after_build = proc_status_bytes("VmRSS:");
    tracer.close(setup);

    let mut profile = (mode == Mode::Profiled).then(PhaseProfile::default);
    let ((), tick_s) = tracer.span("tick_loop", run, || match profile.as_mut() {
        Some(prof) => {
            while sim.now() < sim.end_cycle() {
                sim.tick_profiled(prof);
            }
        }
        None => sim.run_to_end(),
    });

    let what = &case.label;
    checks.check(sim.now() >= sim.end_cycle(), || {
        format!(
            "{what}: stopped at cycle {} of {}",
            sim.now(),
            sim.end_cycle()
        )
    });
    checks.check(sim.delivered() > 0, || format!("{what}: delivered nothing"));
    let resident = sim.resident_packets() as u64;
    checks.check(sim.injected() == sim.delivered() + resident, || {
        format!(
            "{what}: injected {} != delivered {} + resident {resident}",
            sim.injected(),
            sim.delivered()
        )
    });
    let active = sim.active_set_stats();

    let (report, finish_s) = tracer.span("finish", run, || sim.finish());
    let (json, to_json_s) = tracer.span("serialise", run, || report.to_json());
    tracer.close(run);

    match &report.fct {
        Some(fct) => {
            checks.check(
                fct.flows.len() == flows && fct.completed == flows && fct.incomplete == 0,
                || {
                    format!(
                        "{what}: {} of {flows} flows completed, {} incomplete",
                        fct.completed, fct.incomplete
                    )
                },
            );
            let slowest = fct
                .flows
                .iter()
                .filter_map(|f| f.slowdown)
                .fold(f64::INFINITY, f64::min);
            checks.check(slowest >= 1.0, || {
                format!("{what}: a flow beat its ideal FCT (slowdown {slowest})")
            });
        }
        None => checks.check(flows == 0, || {
            format!("{what}: no FCT block for {flows} flows")
        }),
    }

    let sha256 = sha256_hex(json.as_bytes());
    if mode != Mode::WarmUp {
        ctx.same_digest(&case.label, &sha256);
    }
    RunSample {
        spec: spec_times,
        build_sim_s,
        tick_s,
        finish_s,
        to_json_s,
        nodes,
        rss_after_spec,
        rss_after_build,
        active,
        profile,
        report,
        json,
    }
}
