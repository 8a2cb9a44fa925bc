//! Parallel experiment execution for `cc_shootout`.
//!
//! Runs go through [`run_specs`], which reads through the orchestrator's
//! content-hashed result cache (DESIGN.md §13): re-running a panel whose
//! runs are already cached costs a directory scan, not a re-simulation.
//! `--no-cache` and `--cache-dir <dir>` (parsed by [`RunCtx::from_args`])
//! control the cache.

use ccfit::Mechanism;
use ccfit_metrics::SimReport;
use ccfit_orchestrator::{cache_from_args, run_matrix, Cache, ExecMode, RunSpec, RunnerOptions};

/// One mechanism's result within a panel.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Mechanism display name.
    pub mechanism: String,
    /// The frozen report.
    pub report: SimReport,
    /// Wall-clock seconds the simulation took.
    pub wall_s: f64,
}

/// `--threads` selected the in-run sharded engine, which is gone
/// (DESIGN.md §9): refuse it rather than silently run on one core.
pub fn reject_threads_flag(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--threads") {
        return Err("`--threads` was removed with the sharded engine; \
             use `ccfit-sweep --jobs` to spread a sweep over cores"
            .to_string());
    }
    Ok(())
}

/// Shared execution context: the CLI-controlled result cache.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// The orchestrator's content-hashed result cache.
    pub cache: Cache,
}

impl RunCtx {
    /// Parse `--no-cache` and `--cache-dir <dir>`.
    ///
    /// # Panics
    /// Exits the process with an error message on `--threads` (see
    /// [`reject_threads_flag`]).
    pub fn from_args(args: &[String]) -> Self {
        if let Err(e) = reject_threads_flag(args) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        RunCtx {
            cache: cache_from_args(args),
        }
    }

    /// A context that always simulates (tests).
    pub fn uncached() -> Self {
        RunCtx {
            cache: Cache::disabled(),
        }
    }
}

/// Run every spec through the orchestrator (in-process worker threads,
/// cache read-through; one job per spec — simulations are independent,
/// so this is an embarrassingly parallel sweep). Results come back in
/// input order.
pub fn run_specs(specs: &[RunSpec], ctx: &RunCtx) -> Vec<RunOutput> {
    let opts = RunnerOptions {
        jobs: specs.len().max(1),
        mode: ExecMode::Threads,
        cache: ctx.cache.clone(),
        quiet: true,
    };
    let run = run_matrix(specs, &opts).unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        std::process::exit(1);
    });
    run.outputs
        .into_iter()
        .map(|o| RunOutput {
            mechanism: o.spec.mechanism.name().to_string(),
            report: o.report,
            wall_s: o.wall_s,
        })
        .collect()
}

/// Parse a `--mech <name>[,<name>...]` argument pair through the
/// [`Mechanism`] registry, falling back to `default` when absent.
/// Unknown names abort with the list of registered mechanisms, so
/// `--mech` spells each scheme exactly as a matrix's `mechanisms` does.
///
/// # Panics
/// Exits the process with an error message on an unknown mechanism name.
pub fn mechanisms_from_args(args: &[String], default: Vec<Mechanism>) -> Vec<Mechanism> {
    let Some(spec) = args
        .iter()
        .position(|a| a == "--mech")
        .and_then(|i| args.get(i + 1))
    else {
        return default;
    };
    spec.split(',')
        .map(|name| {
            Mechanism::parse(name).unwrap_or_else(|| {
                let known: Vec<&str> = Mechanism::all().iter().map(|m| m.name()).collect();
                eprintln!("unknown mechanism {name:?}; known: {}", known.join(", "));
                std::process::exit(2);
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfit::experiment::config1_case1_scaled;
    use ccfit::{ConfigId, SimConfig};

    /// One run per mechanism of a compressed Config #1 at the default bin.
    fn small_specs(mechs: &[Mechanism], seed: u64) -> Vec<RunSpec> {
        let (config, bin) = (ConfigId::Config1Case1 { scale: 0.02 }, 100_000.0);
        let spec = |m: &Mechanism| RunSpec::new(config.clone(), m.clone(), seed, bin);
        mechs.iter().map(spec).collect()
    }

    #[test]
    fn mech_filter_parses_registry_names_case_insensitively() {
        let args: Vec<String> = ["x", "--mech", "ccfit,hpcc,1q"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let ms = mechanisms_from_args(&args, vec![]);
        let names: Vec<&str> = ms.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["CCFIT", "HPCC", "1Q"]);
        let none: Vec<String> = vec![];
        assert_eq!(
            mechanisms_from_args(&none, Mechanism::paper_set()),
            Mechanism::paper_set()
        );
    }

    #[test]
    fn run_specs_preserves_input_order() {
        let specs = small_specs(&[Mechanism::OneQ, Mechanism::ccfit()], 1);
        let runs = run_specs(&specs, &RunCtx::uncached());
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].mechanism, "1Q");
        assert_eq!(runs[1].mechanism, "CCFIT");
        assert!(runs.iter().all(|r| r.report.delivered_packets > 0));
    }

    #[test]
    fn orchestrated_runs_match_direct_runs() {
        let mechs = [Mechanism::fbicm(), Mechanism::ith()];
        let par = run_specs(&small_specs(&mechs, 7), &RunCtx::uncached());
        let spec = config1_case1_scaled(0.02);
        for (mech, out) in mechs.iter().zip(&par) {
            let seq = spec.run_with(mech.clone(), 7, SimConfig::default());
            assert_eq!(
                seq,
                out.report,
                "{} diverged under orchestrated execution",
                mech.name()
            );
        }
    }

    #[test]
    fn cached_rerun_returns_identical_reports() {
        let dir = std::env::temp_dir().join(format!("ccfit-harness-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ctx = RunCtx {
            cache: Cache::new(&dir),
        };
        let specs = small_specs(&[Mechanism::OneQ], 3);
        let cold = run_specs(&specs, &ctx);
        let warm = run_specs(&specs, &ctx);
        assert_eq!(cold[0].report, warm[0].report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_removed_threads_flag_is_rejected_not_ignored() {
        let args: Vec<String> = ["x", "--smoke", "--threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = reject_threads_flag(&args).unwrap_err();
        assert!(err.starts_with("`--threads` was removed"), "{err}");
        assert!(err.contains("ccfit-sweep --jobs"), "{err}");
        assert_eq!(reject_threads_flag(&args[..2]), Ok(()));
    }
}
