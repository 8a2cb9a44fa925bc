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

/// `ccfit-sweep bench --smoke` runs the smoke matrix cold then warm
/// with process workers and hard-asserts 100 % warm hits and a ≥ 10×
/// warm speedup before exiting 0; this test re-checks the numbers it
/// wrote so a silently-weakened assertion would still be caught.
#[test]
fn sweep_bench_smoke_is_cache_dominated_when_warm() {
    let out = std::env::temp_dir().join(format!("ccfit-e2e-bench-{}.json", std::process::id()));
    std::fs::remove_file(&out).ok();
    let status = Command::new(env!("CARGO_BIN_EXE_ccfit-sweep"))
        .args(["bench", "--smoke", "--out"])
        .arg(&out)
        .status()
        .expect("spawn ccfit-sweep");
    assert!(status.success(), "ccfit-sweep bench --smoke failed");

    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out).expect("bench output"))
            .expect("bench JSON");
    let runs = doc.get("runs").and_then(|v| v.as_u64()).expect("runs");
    let warm_hits = doc
        .get("warm")
        .and_then(|w| w.get("hits"))
        .and_then(|v| v.as_u64())
        .expect("warm.hits");
    let speedup = doc
        .get("warm_speedup")
        .and_then(|v| v.as_f64())
        .expect("warm_speedup");
    assert_eq!(warm_hits, runs, "warm pass was not 100% cache hits");
    assert!(
        speedup >= 10.0,
        "warm pass only {speedup:.1}x faster than cold"
    );
    std::fs::remove_file(&out).ok();
}
