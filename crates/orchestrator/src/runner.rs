//! The sweep runner: cache read-through + parallel fan-out.
//!
//! Every pending spec is first looked up in the [`Cache`]; misses are
//! simulated and stored. Two execution modes:
//!
//! - [`ExecMode::Threads`] — misses run on a pool of OS threads inside
//!   this process. This is the mode for `ccfit-sweep run --in-process`,
//!   the benchmark and the tests: no self-exec, no extra processes.
//! - [`ExecMode::Processes`] — misses run in worker *processes*: the
//!   runner re-executes `std::env::current_exe()` with the hidden
//!   [`RUN_ONE_ARGV`] subcommand, shipping a [`RunRequest`] JSON file
//!   and reading a [`CacheEntry`] JSON back. Only `ccfit-sweep`
//!   (whose `main` dispatches the subcommand) may use this mode; it
//!   buys per-run isolation and a kill-based timeout and retry.
//!
//! Either way the outputs come back in input order and the stats
//! account hits vs. misses, so callers can assert "warm = 100% hits".

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ccfit_metrics::SimReport;
use serde::{Deserialize, Serialize};

use crate::cache::{Cache, CacheEntry};
use crate::spec::{RunSpec, ENGINE_SALT};

/// argv[1] of the hidden worker subcommand (see module docs).
pub const RUN_ONE_ARGV: &str = "__ccfit-run-one";

/// How cache misses are executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecMode {
    /// In-process worker threads.
    Threads,
    /// Self-exec worker processes with a per-run timeout and retry
    /// budget (timeouts kill the worker and count one retry).
    Processes {
        /// Kill a worker that exceeds this wall-clock budget.
        timeout: Duration,
        /// How many times a failed/timed-out run is retried before the
        /// sweep aborts.
        retries: u32,
    },
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Maximum concurrent runs.
    pub jobs: usize,
    /// Threads or processes (see [`ExecMode`]).
    pub mode: ExecMode,
    /// The result cache (possibly [`Cache::disabled`]).
    pub cache: Cache,
    /// Suppress per-run progress lines on stderr.
    pub quiet: bool,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            mode: ExecMode::Threads,
            cache: Cache::default_dir(),
            quiet: true,
        }
    }
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// What ran.
    pub spec: RunSpec,
    /// Its cache key.
    pub key: String,
    /// The report (cached or fresh — byte-identical either way).
    pub report: SimReport,
    /// Wall-clock seconds this run cost *now* (~0 for hits).
    pub wall_s: f64,
    /// Whether the report came from the cache.
    pub cached: bool,
}

/// Sweep-level accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RunStats {
    /// Total runs asked for.
    pub total: usize,
    /// Cache hits.
    pub hits: usize,
    /// Simulated (cache misses).
    pub misses: usize,
    /// Worker retries that eventually succeeded (process mode only).
    pub retried: usize,
    /// End-to-end wall-clock seconds for the whole sweep.
    pub wall_s: f64,
}

/// A finished sweep: outcomes in input order plus the accounting.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// Per-spec outcomes, index-aligned with the input slice.
    pub outputs: Vec<RunOutcome>,
    /// Hit/miss/wall accounting.
    pub stats: RunStats,
}

/// The worker protocol request: what to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRequest {
    /// The run.
    pub spec: RunSpec,
}

/// Run every spec, reading through the cache. Outcomes come back in
/// input order. Fails only when a run (after retries, in process mode)
/// cannot be completed.
pub fn run_matrix(specs: &[RunSpec], opts: &RunnerOptions) -> Result<MatrixRun, String> {
    let t0 = Instant::now();
    let slots: Vec<Mutex<Option<RunOutcome>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let retried = AtomicUsize::new(0);
    let first_error: Mutex<Option<String>> = Mutex::new(None);
    let jobs = opts.jobs.clamp(1, specs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                if first_error.lock().unwrap().is_some() {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { return };
                match run_one(spec, opts, &retried) {
                    Ok(outcome) => {
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if !opts.quiet {
                            eprintln!(
                                "[{finished}/{}] {} {} ({:.1}s)",
                                specs.len(),
                                if outcome.cached { "hit " } else { "run " },
                                spec.label(),
                                outcome.wall_s,
                            );
                        }
                        *slots[i].lock().unwrap() = Some(outcome);
                    }
                    Err(e) => {
                        first_error
                            .lock()
                            .unwrap()
                            .get_or_insert_with(|| format!("{}: {e}", spec.label()));
                        return;
                    }
                }
            });
        }
    });
    if let Some(e) = first_error.into_inner().unwrap() {
        return Err(e);
    }
    let outputs: Vec<RunOutcome> = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every slot filled"))
        .collect();
    let hits = outputs.iter().filter(|o| o.cached).count();
    let stats = RunStats {
        total: outputs.len(),
        hits,
        misses: outputs.len() - hits,
        retried: retried.load(Ordering::Relaxed),
        wall_s: t0.elapsed().as_secs_f64(),
    };
    Ok(MatrixRun { outputs, stats })
}

fn run_one(
    spec: &RunSpec,
    opts: &RunnerOptions,
    retried: &AtomicUsize,
) -> Result<RunOutcome, String> {
    let key = spec.cache_key();
    let t0 = Instant::now();
    if let Some(report) = opts.cache.load(&key, spec) {
        return Ok(RunOutcome {
            spec: spec.clone(),
            key,
            report,
            wall_s: t0.elapsed().as_secs_f64(),
            cached: true,
        });
    }
    let report = match &opts.mode {
        ExecMode::Threads => spec.execute(),
        ExecMode::Processes { timeout, retries } => {
            run_in_subprocess(spec, &key, *timeout, *retries, retried)?
        }
    };
    opts.cache.store(&key, spec, &report);
    Ok(RunOutcome {
        spec: spec.clone(),
        key,
        report,
        wall_s: t0.elapsed().as_secs_f64(),
        cached: false,
    })
}

fn run_in_subprocess(
    spec: &RunSpec,
    key: &str,
    timeout: Duration,
    retries: u32,
    retried: &AtomicUsize,
) -> Result<SimReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = std::env::temp_dir().join(format!("ccfit-sweep-{}-{key}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let req_path = scratch.join("request.json");
    let out_path = scratch.join("entry.json");
    let request = RunRequest { spec: spec.clone() };
    std::fs::write(&req_path, serde_json::to_string(&request).unwrap())
        .map_err(|e| format!("write request: {e}"))?;
    let mut last_error = String::new();
    for attempt in 0..=retries {
        if attempt > 0 {
            retried.fetch_add(1, Ordering::Relaxed);
        }
        std::fs::remove_file(&out_path).ok();
        match try_worker(&exe, &req_path, &out_path, key, spec, timeout) {
            Ok(report) => {
                std::fs::remove_dir_all(&scratch).ok();
                return Ok(report);
            }
            Err(e) => last_error = e,
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
    Err(format!("{last_error} (after {} attempts)", retries + 1))
}

fn try_worker(
    exe: &Path,
    req_path: &Path,
    out_path: &Path,
    key: &str,
    spec: &RunSpec,
    timeout: Duration,
) -> Result<SimReport, String> {
    let mut child = std::process::Command::new(exe)
        .arg(RUN_ONE_ARGV)
        .arg(req_path)
        .arg(out_path)
        .spawn()
        .map_err(|e| format!("spawn worker: {e}"))?;
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                child.kill().ok();
                child.wait().ok();
                return Err(format!("worker timed out after {timeout:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if !status.success() {
        return Err(format!("worker exited with {status}"));
    }
    let text = std::fs::read_to_string(out_path).map_err(|e| format!("read worker output: {e}"))?;
    let entry: CacheEntry =
        serde_json::from_str(&text).map_err(|e| format!("parse worker output: {e}"))?;
    if entry.key != key || &entry.spec != spec || entry.salt != ENGINE_SALT {
        return Err("worker output does not match the requested spec".to_string());
    }
    Ok(entry.report)
}

/// The worker side of the process protocol: read the [`RunRequest`] at
/// `req_path`, simulate it, write a [`CacheEntry`] to `out_path`
/// (plain write — the parent validates and does the atomic cache
/// store). Returns the process exit code.
pub fn run_one_worker(req_path: &str, out_path: &str) -> i32 {
    let request: RunRequest = match std::fs::read_to_string(req_path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{RUN_ONE_ARGV}: bad request {req_path}: {e}");
            return 2;
        }
    };
    let report = request.spec.execute();
    let entry = CacheEntry {
        salt: ENGINE_SALT.to_string(),
        key: request.spec.cache_key(),
        spec: request.spec,
        report,
    };
    if let Err(e) = std::fs::write(out_path, serde_json::to_string(&entry).unwrap()) {
        eprintln!("{RUN_ONE_ARGV}: write {out_path}: {e}");
        return 3;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfit::{ConfigId, Mechanism, SimConfig};

    fn specs() -> Vec<RunSpec> {
        let config = ConfigId::Config1Case1 { scale: 0.01 };
        [Mechanism::OneQ, Mechanism::VoqSw]
            .into_iter()
            .flat_map(|m| {
                [1u64, 2].map(|seed| RunSpec::new(config.clone(), m.clone(), seed, 10_000.0))
            })
            .collect()
    }

    #[test]
    fn threads_mode_hits_on_the_second_pass() {
        let dir = std::env::temp_dir().join(format!("ccfit-runner-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = RunnerOptions {
            jobs: 4,
            cache: Cache::new(&dir),
            ..RunnerOptions::default()
        };
        let specs = specs();
        let cold = run_matrix(&specs, &opts).unwrap();
        assert_eq!(cold.stats.misses, specs.len());
        assert_eq!(cold.stats.hits, 0);
        let warm = run_matrix(&specs, &opts).unwrap();
        assert_eq!(warm.stats.hits, specs.len());
        assert_eq!(warm.stats.misses, 0);
        // Input order, and cached == fresh byte-for-byte.
        for (i, (c, w)) in cold.outputs.iter().zip(&warm.outputs).enumerate() {
            assert_eq!(c.spec, specs[i]);
            assert_eq!(c.key, w.key);
            assert_eq!(
                serde_json::to_string(&c.report).unwrap(),
                serde_json::to_string(&w.report).unwrap()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_cache_always_simulates() {
        let opts = RunnerOptions {
            jobs: 2,
            cache: Cache::disabled(),
            ..RunnerOptions::default()
        };
        let specs = specs()[..2].to_vec();
        for _ in 0..2 {
            let run = run_matrix(&specs, &opts).unwrap();
            assert_eq!(run.stats.hits, 0);
            assert_eq!(run.stats.misses, 2);
        }
    }

    /// The runner simulates exactly what the experiment API runs.
    #[test]
    fn orchestrated_runs_match_direct_runs() {
        let opts = RunnerOptions {
            jobs: 2,
            cache: Cache::disabled(),
            ..RunnerOptions::default()
        };
        let specs = [Mechanism::fbicm(), Mechanism::ith()]
            .map(|m| RunSpec::new(ConfigId::Config1Case1 { scale: 0.02 }, m, 7, 10_000.0));
        let cfg = SimConfig {
            metrics_bin_ns: 10_000.0,
            ..SimConfig::default()
        };
        let run = run_matrix(&specs, &opts).unwrap();
        for out in &run.outputs {
            let (s, experiment) = (&out.spec, out.spec.config.resolve());
            let direct = experiment.run_with(s.mechanism.clone(), s.seed, cfg.clone());
            assert_eq!(out.report, direct, "{} diverged in the runner", s.label());
        }
    }
}
