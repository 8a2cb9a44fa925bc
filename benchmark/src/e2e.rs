//! The untraced run: what a user of the simulator waits for and gets.

use std::path::PathBuf;
use std::time::Instant;

use ccfit_metrics::SimReport;
use ccfit_orchestrator::hash::sha256_hex;
use ccfit_orchestrator::{run_matrix, Cache, ExecMode, MatrixRun, RunSpec, RunnerOptions};

use crate::host::proc_status_bytes;
use crate::measure::{mean_over, norm_throughput, run_case, Ctx, Mode, RunSample};
use crate::span::SpanId;
use crate::stats::{geometric_mean, median, Summary};
use crate::workloads::{matrix_text, parse_matrix, SimWorkload};

/// One value per metric from one round (every case of the workload run
/// once).
pub type Round = Vec<(String, f64)>;

/// Rounds are the benchmark's reps: at least two, so that the digest of
/// every case is checked against a second run, then as many as fit in
/// `seconds`.
const MIN_ROUNDS: usize = 2;

pub fn measure_rounds(seconds: f64, mut round: impl FnMut() -> Round) -> Vec<Round> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        rounds.push(round());
    }
    rounds
}

/// Median, min, max and n of each metric over the rounds.
pub fn summarise(rounds: &[Round]) -> Vec<(String, Summary)> {
    rounds[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let samples: Vec<f64> = rounds.iter().map(|r| r[i].1).collect();
            (name.clone(), Summary::of(&samples))
        })
        .collect()
}

pub fn peak_rss_mb() -> f64 {
    proc_status_bytes("VmHWM:") as f64 / 1e6
}

/// The simulated results reported end to end, each the mean over the
/// workload's runs (one per mechanism, so a change in any mechanism's
/// behaviour moves them). They are simulated time, not host time, and
/// repeat exactly for a seed.
fn sim_metrics(reports: &[&SimReport]) -> Vec<(String, Summary)> {
    vec![
        (
            "sim_norm_throughput".into(),
            Summary::exact(mean_over(reports, norm_throughput)),
        ),
        (
            "sim_latency_mean_ns".into(),
            Summary::exact(mean_over(reports, |r| r.latency_hist.mean_ns())),
        ),
    ]
}

/// Untimed warm-up of every case, so that first-touch page faults and
/// allocator growth are not in the first round.
pub fn warm_up(w: &SimWorkload, ctx: &mut Ctx) -> Vec<RunSample> {
    let parent = ctx.tracer.open("warm_up", Some(ctx.root));
    let samples = w
        .cases
        .iter()
        .map(|case| run_case(case, w.flows, Mode::WarmUp, ctx, parent))
        .collect();
    ctx.tracer.close(parent);
    samples
}

pub fn sim_e2e(w: &SimWorkload, ctx: &mut Ctx) -> Vec<(String, Summary)> {
    warm_up(w, ctx);
    let mut reports: Vec<SimReport> = Vec::new();
    let rounds = measure_rounds(ctx.seconds, || {
        let samples: Vec<RunSample> = w
            .cases
            .iter()
            .map(|case| run_case(case, w.flows, Mode::Plain, ctx, ctx.root))
            .collect();
        let rates: Vec<f64> = samples.iter().map(RunSample::cycles_per_s).collect();
        let round = vec![
            (
                "setup_s".to_string(),
                samples.iter().map(RunSample::setup_s).sum(),
            ),
            (
                "wall_s".to_string(),
                samples.iter().map(RunSample::wall_s).sum(),
            ),
            ("sim_cycles_per_s".to_string(), geometric_mean(&rates)),
        ];
        if reports.is_empty() {
            reports = samples.into_iter().map(|s| s.report).collect();
        }
        round
    });
    let mut metrics = summarise(&rounds);
    metrics.push(("peak_rss_mb".into(), Summary::exact(peak_rss_mb())));
    metrics.extend(sim_metrics(&reports.iter().collect::<Vec<_>>()));
    metrics
}

/// The benchmark's matrix, resolved for this seed, with set-up timed:
/// parse + resolve + hash every spec.
pub struct ResolvedMatrix {
    pub specs: Vec<RunSpec>,
    pub parse_resolve_s: f64,
    pub hash_s: f64,
}

/// Setting the matrix up takes a sixth of a millisecond, so it is done
/// several times over and the median times are kept.
const SETUP_REPEATS: usize = 5;

pub fn resolve_matrix(ctx: &mut Ctx, parent: SpanId) -> ResolvedMatrix {
    let mut repeats: Vec<ResolvedMatrix> = (0..SETUP_REPEATS)
        .map(|_| resolve_matrix_once(ctx, parent))
        .collect();
    let median_of =
        |f: fn(&ResolvedMatrix) -> f64| median(&repeats.iter().map(f).collect::<Vec<_>>());
    let (parse_resolve_s, hash_s) = (median_of(|m| m.parse_resolve_s), median_of(|m| m.hash_s));
    ResolvedMatrix {
        specs: repeats.swap_remove(0).specs,
        parse_resolve_s,
        hash_s,
    }
}

fn resolve_matrix_once(ctx: &mut Ctx, parent: SpanId) -> ResolvedMatrix {
    let text = matrix_text(ctx.smoke);
    let seed = ctx.seed;
    let (specs, parse_resolve_s) =
        ctx.tracer
            .span("orchestrator.matrix.parse_resolve", parent, || {
                parse_matrix(text, seed).resolve()
            });
    let (keys, hash_s) = ctx.tracer.span("orchestrator.spec.cache_key", parent, || {
        specs.iter().map(RunSpec::cache_key).collect::<Vec<_>>()
    });
    std::hint::black_box(keys);
    ResolvedMatrix {
        specs,
        parse_resolve_s,
        hash_s,
    }
}

/// A cache directory of this process, inside the checkout.
pub struct ScratchCache {
    pub dir: PathBuf,
}

impl ScratchCache {
    pub fn new(tag: &str) -> Self {
        let dir = PathBuf::from(crate::OUT_DIR).join(format!("cache-{}-{tag}", std::process::id()));
        let cache = ScratchCache { dir };
        cache.clear();
        cache
    }

    pub fn clear(&self) {
        match std::fs::remove_dir_all(&self.dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("cannot empty {}: {e}", self.dir.display()),
        }
    }

    pub fn options(&self) -> RunnerOptions {
        RunnerOptions {
            jobs: 1,
            mode: ExecMode::Threads,
            cache: Cache::new(&self.dir),
            ..RunnerOptions::default()
        }
    }
}

impl Drop for ScratchCache {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// One pass of the matrix through the runner; checks that it was all
/// misses (`cold`) or all hits, and that each report is the one the
/// first pass produced, byte for byte.
pub fn sweep(
    name: &str,
    specs: &[RunSpec],
    cache: &ScratchCache,
    cold: bool,
    ctx: &mut Ctx,
    parent: SpanId,
) -> (MatrixRun, f64) {
    let options = cache.options();
    let (run, wall_s) = ctx
        .tracer
        .span(name, parent, || run_matrix(specs, &options));
    let run = run.unwrap_or_else(|e| panic!("{name}: the sweep failed: {e}"));
    let (want_hits, want_misses) = if cold {
        (0, specs.len())
    } else {
        (specs.len(), 0)
    };
    ctx.checks.check(
        run.stats.hits == want_hits && run.stats.misses == want_misses,
        || {
            format!(
                "{name}: {} hits and {} misses, expected {want_hits} and {want_misses}",
                run.stats.hits, run.stats.misses
            )
        },
    );
    for out in &run.outputs {
        let label = out.spec.label();
        ctx.checks.check(out.report.delivered_packets > 0, || {
            format!("{label}: delivered nothing")
        });
        ctx.same_digest(&label, &sha256_hex(out.report.to_json().as_bytes()));
    }
    (run, wall_s)
}

/// `paper-matrix` (every round a cold sweep into an empty cache) and
/// `paper-matrix-warm` (every round a fully cached pass).
pub fn matrix_e2e(warm: bool, ctx: &mut Ctx) -> Vec<(String, Summary)> {
    let cache = ScratchCache::new("e2e");
    let mut first_cold: Option<MatrixRun> = None;
    if warm {
        let m = resolve_matrix(ctx, ctx.root);
        first_cold = Some(sweep("populate", &m.specs, &cache, true, ctx, ctx.root).0);
    }
    let rounds = measure_rounds(ctx.seconds, || {
        let round = ctx.tracer.open("round", Some(ctx.root));
        let m = resolve_matrix(ctx, round);
        let setup_s = m.parse_resolve_s + m.hash_s;
        let cold_s = (!warm).then(|| {
            cache.clear();
            let (run, cold_s) = sweep("cold_sweep", &m.specs, &cache, true, ctx, round);
            first_cold.get_or_insert(run);
            cold_s
        });
        // On `paper-matrix` this pass only verifies the entries the
        // cold sweep stored; on `paper-matrix-warm` it is the rep.
        let (_, warm_s) = sweep("warm_pass", &m.specs, &cache, false, ctx, round);
        let timed_s = cold_s.unwrap_or(warm_s);
        ctx.tracer.close(round);
        let cycles: u64 = first_cold
            .iter()
            .flat_map(|run| &run.outputs)
            .map(|o| o.report.simulated_cycles)
            .sum();
        vec![
            ("setup_s".to_string(), setup_s),
            ("wall_s".to_string(), setup_s + timed_s),
            ("sim_cycles_per_s".to_string(), cycles as f64 / timed_s),
        ]
    });
    let cold = first_cold.expect("at least one round ran");
    let reports: Vec<&SimReport> = cold.outputs.iter().map(|o| &o.report).collect();
    let mut metrics = summarise(&rounds);
    metrics.push(("peak_rss_mb".into(), Summary::exact(peak_rss_mb())));
    metrics.extend(sim_metrics(&reports));
    metrics
}
