//! The sweep runner: cache read-through + parallel fan-out.
//!
//! Every pending spec is first looked up in the [`Cache`]; misses are
//! simulated on a pool of OS threads inside this process and stored.
//! A run that panics is caught (the release profile unwinds) and named
//! in the sweep's error; every other run still finishes and is stored,
//! so a re-run simulates only the runs that failed. There is no retry
//! and no kill timeout: the engine is deterministic, so a retry would
//! repeat the same cycles to the same panic, and every run ends at its
//! finite `end` cycle (DESIGN.md §13.4).
//!
//! Outcomes come back in input order and the stats account hits vs.
//! misses, so callers can assert "warm = 100% hits".

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ccfit_metrics::SimReport;
use serde::Serialize;

use crate::cache::Cache;
use crate::spec::RunSpec;

/// How cache misses are executed. There is one way, threads of this
/// process; the type stays only because the benchmark names it, and
/// nothing reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecMode {
    /// In-process worker threads.
    Threads,
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Maximum concurrent runs.
    pub jobs: usize,
    /// Always [`ExecMode::Threads`]; kept for the benchmark, which sets
    /// it, and read by nothing.
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

/// Run every spec, reading through the cache. Outcomes come back in
/// input order. A run that panics does not stop the others: every run
/// that does not panic is simulated and stored, and then the sweep
/// fails with one error that lists each panicking run, in input order,
/// with its label, its cache key and the panic message.
pub fn run_matrix(specs: &[RunSpec], opts: &RunnerOptions) -> Result<MatrixRun, String> {
    let t0 = Instant::now();
    let slots: Vec<Mutex<Option<Result<RunOutcome, String>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let jobs = opts.jobs.clamp(1, specs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { return };
                let outcome = run_one(spec, &opts.cache);
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                if !opts.quiet {
                    let label = spec.label();
                    let status = match &outcome {
                        Ok(o) if o.cached => format!("hit  {label} ({:.1}s)", o.wall_s),
                        Ok(o) => format!("run  {label} ({:.1}s)", o.wall_s),
                        Err(_) => format!("FAIL {label}"),
                    };
                    eprintln!("[{finished}/{}] {status}", specs.len());
                }
                *slots[i].lock().unwrap() = Some(outcome);
            });
        }
    });
    let (mut outputs, mut failed) = (Vec::with_capacity(specs.len()), Vec::new());
    for slot in slots {
        let slot = slot.into_inner().expect("no panic escapes run_one");
        match slot.expect("every slot filled") {
            Ok(outcome) => outputs.push(outcome),
            Err(e) => failed.push(e),
        }
    }
    if !failed.is_empty() {
        let (n, list) = (failed.len(), failed.join("\n"));
        return Err(format!("{n} of {} runs panicked:\n{list}", specs.len()));
    }
    let hits = outputs.iter().filter(|o| o.cached).count();
    let stats = RunStats {
        total: outputs.len(),
        hits,
        misses: outputs.len() - hits,
        wall_s: t0.elapsed().as_secs_f64(),
    };
    Ok(MatrixRun { outputs, stats })
}

/// One spec: a verified cache hit, or a simulation that is then stored.
/// A panic in the simulation is the `Err`, naming the run.
fn run_one(spec: &RunSpec, cache: &Cache) -> Result<RunOutcome, String> {
    let key = spec.cache_key();
    let t0 = Instant::now();
    let (report, cached) = match cache.load(&key, spec) {
        Some(report) => (report, true),
        None => {
            let report = panic::catch_unwind(|| spec.execute()).map_err(|payload| {
                let message = (payload.downcast_ref::<&str>().copied())
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("(no message)");
                format!("  {} [{key}]: {message}", spec.label())
            })?;
            cache.store(&key, spec, &report);
            (report, false)
        }
    };
    Ok(RunOutcome {
        spec: spec.clone(),
        key,
        report,
        wall_s: t0.elapsed().as_secs_f64(),
        cached,
    })
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

    /// A panicking run is named in the sweep's error and stops nothing:
    /// the runs around it are simulated and stored, whatever the
    /// number of jobs.
    #[test]
    fn a_panicking_run_is_named_and_the_others_finish() {
        let [good_a, good_b] = [1u64, 2].map(|seed| {
            RunSpec::new(
                ConfigId::Config1Case1 { scale: 0.01 },
                Mechanism::OneQ,
                seed,
                10_000.0,
            )
        });
        let bad = RunSpec::new(
            ConfigId::Config1Case1 { scale: 0.0 },
            Mechanism::OneQ,
            1,
            10_000.0,
        );
        for jobs in [1, 2] {
            let dir = std::env::temp_dir()
                .join(format!("ccfit-runner-panic-{jobs}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let opts = RunnerOptions {
                jobs,
                cache: Cache::new(&dir),
                ..RunnerOptions::default()
            };
            let specs = [good_a.clone(), bad.clone(), good_b.clone()];
            let err = run_matrix(&specs, &opts).expect_err("a run panicked");
            for needle in [
                bad.label(),
                bad.cache_key(),
                "`scale` must be positive".into(),
            ] {
                assert!(
                    err.contains(&needle),
                    "jobs={jobs}: {needle:?} not in {err}"
                );
            }
            let warm = run_matrix(&[good_a.clone(), good_b.clone()], &opts).unwrap();
            assert_eq!((warm.stats.hits, warm.stats.misses), (2, 0), "jobs={jobs}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
