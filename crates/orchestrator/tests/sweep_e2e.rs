//! End-to-end orchestrator tests: a real cold/warm sweep through the
//! `ccfit-sweep` binary (process workers included) and the
//! byte-identity guarantee between cached and freshly-simulated
//! reports.

use ccfit::{ConfigId, Mechanism};
use ccfit_orchestrator::{run_matrix, Cache, ExecMode, RunSpec, RunnerOptions};
use std::process::Command;

fn smoke_specs() -> Vec<RunSpec> {
    [Mechanism::OneQ, Mechanism::ccfit()]
        .into_iter()
        .map(|m| RunSpec::new(ConfigId::Config1Case1 { scale: 0.02 }, m, 1, 10_000.0))
        .collect()
}

/// A warm re-run must return reports that are byte-identical to the
/// cold run's — not merely equal: the JSON the cache stored and the
/// JSON a fresh simulation serializes to must match byte for byte.
#[test]
fn cached_reports_are_byte_identical_to_fresh() {
    let dir = std::env::temp_dir().join(format!("ccfit-e2e-bytes-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = RunnerOptions {
        jobs: 2,
        mode: ExecMode::Threads,
        cache: Cache::new(&dir),
        quiet: true,
    };
    let specs = smoke_specs();
    let cold = run_matrix(&specs, &opts).unwrap();
    let warm = run_matrix(&specs, &opts).unwrap();
    assert_eq!(cold.stats.misses, specs.len());
    assert_eq!(warm.stats.hits, specs.len());
    for (c, w) in cold.outputs.iter().zip(&warm.outputs) {
        assert!(!c.cached && w.cached);
        let fresh = serde_json::to_string(&c.report).unwrap();
        let cached = serde_json::to_string(&w.report).unwrap();
        assert_eq!(
            fresh,
            cached,
            "cached report bytes diverged for {}",
            c.spec.label()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The only end-to-end test of `ExecMode::Processes`: `ccfit-sweep run`
/// on the smoke matrix (process workers are its default) simulates all
/// four runs into an empty cache, then serves all four from it. The
/// counts come from the binary's own `done:` line on stderr; on both
/// passes stdout carries the report, with one scorecard row per run,
/// and the warm report is the cold one byte for byte. What the two
/// passes cost is the benchmark's `paper-matrix` / `paper-matrix-warm`.
#[test]
fn sweep_bench_smoke_is_cache_dominated_when_warm() {
    let dir = std::env::temp_dir().join(format!("ccfit-e2e-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let matrix = concat!(env!("CARGO_MANIFEST_DIR"), "/../../matrices/smoke.toml");
    let pass = || {
        let out = Command::new(env!("CARGO_BIN_EXE_ccfit-sweep"))
            .args(["run", matrix, "--quiet", "--cache-dir"])
            .arg(&dir)
            .output()
            .expect("spawn ccfit-sweep");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "ccfit-sweep run failed:\n{stderr}");
        let done = stderr
            .lines()
            .find(|l| l.starts_with("done: "))
            .unwrap_or_else(|| panic!("no `done:` line in:\n{stderr}"));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        let scorecard = stdout.split("-- scorecard --\n").nth(1).unwrap_or_default();
        let rows = scorecard.lines().skip(1).take_while(|l| !l.is_empty());
        assert_eq!(rows.count(), 4, "one row per run under a header:\n{stdout}");
        (done[done.find('(').expect("counts")..].to_string(), stdout)
    };
    let (cold, cold_report) = pass();
    let (warm, warm_report) = pass();
    assert_eq!(cold, "(0 hits, 4 simulated, 0 retried)", "cold pass");
    assert_eq!(warm, "(4 hits, 0 simulated, 0 retried)", "warm pass");
    assert_eq!(
        cold_report, warm_report,
        "a warm pass prints the cold report"
    );
    std::fs::remove_dir_all(&dir).ok();
}
