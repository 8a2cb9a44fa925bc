//! `ccfit-sweep` — run experiment matrices through the orchestrator.
//!
//! ```text
//! ccfit-sweep run <matrix.toml> [--jobs N] [--no-cache] [--cache-dir D]
//!                 [--timeout-s S] [--retries R] [--in-process] [--quiet]
//! ccfit-sweep bench [--smoke] [--jobs N] [--matrix F] [--out BENCH_sweep.json]
//! ccfit-sweep gc [--cache-dir D]
//! ccfit-sweep hash <matrix.toml>
//! ```
//!
//! `run` executes a matrix (process-parallel workers by default,
//! reading through the cache). `bench` measures the cache's perf
//! story: a cold pass into a fresh cache directory, then a warm pass,
//! asserting the warm pass is 100% hits and ≥10× faster, and writes
//! the timings to `BENCH_sweep.json`. `gc` prunes stale-salt and
//! corrupt entries. `hash` prints each resolved run's cache key and
//! canonical bytes (the golden-pin test uses it for debugging).
//!
//! The hidden `__ccfit-run-one <request.json> <out.json>` argv is the
//! worker half of the process protocol (DESIGN.md §13.4).

use std::time::Duration;

use ccfit_orchestrator::{
    cache_from_args, run_matrix, run_one_worker, Cache, ExecMode, ExperimentMatrix, MatrixRun,
    RunnerOptions, ENGINE_SALT, RUN_ONE_ARGV,
};
use serde::Serialize;

/// The committed paper sweep matrix (also at `matrices/paper.toml`).
const PAPER_MATRIX: &str = include_str!("../../../../matrices/paper.toml");
/// Tiny CI matrix (also at `matrices/smoke.toml`).
const SMOKE_MATRIX: &str = include_str!("../../../../matrices/smoke.toml");

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Worker hook first: must never be shadowed by flag parsing.
    if args.get(1).map(String::as_str) == Some(RUN_ONE_ARGV) {
        let (Some(req), Some(out)) = (args.get(2), args.get(3)) else {
            eprintln!("usage: ccfit-sweep {RUN_ONE_ARGV} <request.json> <out.json>");
            std::process::exit(2);
        };
        std::process::exit(run_one_worker(req, out));
    }
    let code = match args.get(1).map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("bench") => cmd_bench(&args),
        Some("gc") => cmd_gc(&args),
        Some("hash") => cmd_hash(&args),
        _ => {
            eprintln!("usage: ccfit-sweep <run|bench|gc|hash> ...");
            eprintln!();
            eprintln!("  run   <matrix.toml> [--jobs N] [--no-cache] [--cache-dir D]");
            eprintln!("        [--timeout-s S] [--retries R] [--in-process] [--quiet]");
            eprintln!("  bench [--smoke] [--jobs N] [--matrix F] [--out BENCH_sweep.json]");
            eprintln!("  gc    [--cache-dir D]");
            eprintln!("  hash  <matrix.toml>");
            2
        }
    };
    std::process::exit(code);
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_jobs(args: &[String]) -> usize {
    flag_value(args, "--jobs")
        .map(|v| v.parse().expect("--jobs expects a positive integer"))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn load_matrix(path: &str) -> Result<ExperimentMatrix, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ExperimentMatrix::from_toml_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn process_mode(args: &[String]) -> ExecMode {
    if args.iter().any(|a| a == "--in-process") {
        return ExecMode::Threads;
    }
    let timeout_s: u64 = flag_value(args, "--timeout-s")
        .map(|v| v.parse().expect("--timeout-s expects seconds"))
        .unwrap_or(900);
    let retries: u32 = flag_value(args, "--retries")
        .map(|v| v.parse().expect("--retries expects an integer"))
        .unwrap_or(1);
    ExecMode::Processes {
        timeout: Duration::from_secs(timeout_s),
        retries,
    }
}

fn cmd_run(args: &[String]) -> i32 {
    let Some(path) = args.get(2).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: ccfit-sweep run <matrix.toml> [flags]");
        return 2;
    };
    let matrix = match load_matrix(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let specs = matrix.resolve();
    let opts = RunnerOptions {
        jobs: parse_jobs(args),
        mode: process_mode(args),
        cache: cache_from_args(args),
        quiet: args.iter().any(|a| a == "--quiet"),
    };
    eprintln!(
        "matrix `{}`: {} runs, {} jobs, cache {}",
        matrix.name,
        specs.len(),
        opts.jobs,
        if opts.cache.is_enabled() {
            opts.cache.dir().display().to_string()
        } else {
            "disabled".to_string()
        }
    );
    match run_matrix(&specs, &opts) {
        Ok(run) => {
            let s = run.stats;
            eprintln!(
                "done: {} runs in {:.1}s ({} hits, {} simulated, {} retried)",
                s.total, s.wall_s, s.hits, s.misses, s.retried
            );
            0
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            1
        }
    }
}

fn cmd_gc(args: &[String]) -> i32 {
    let cache = cache_from_args(args);
    match cache.gc() {
        Ok(stats) => {
            println!(
                "{}: kept {}, pruned {} stale + {} corrupt (salt {ENGINE_SALT:?})",
                cache.dir().display(),
                stats.kept,
                stats.stale,
                stats.corrupt
            );
            0
        }
        Err(e) => {
            eprintln!("gc failed: {e}");
            1
        }
    }
}

fn cmd_hash(args: &[String]) -> i32 {
    let Some(path) = args.get(2) else {
        eprintln!("usage: ccfit-sweep hash <matrix.toml>");
        return 2;
    };
    match load_matrix(path) {
        Ok(matrix) => {
            for spec in matrix.resolve() {
                println!("{}  {}", spec.cache_key(), spec.canonical_bytes());
            }
            0
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

#[derive(Serialize)]
struct PassTimings {
    wall_s: f64,
    hits: usize,
    misses: usize,
}

#[derive(Serialize)]
struct SweepBench {
    schema: u32,
    matrix: String,
    engine_salt: String,
    runs: usize,
    jobs: usize,
    host_cpus: usize,
    cold: PassTimings,
    warm: PassTimings,
    /// cold.wall_s / warm.wall_s.
    warm_speedup: f64,
    warm_hit_rate: f64,
}

fn pass(run: &MatrixRun) -> PassTimings {
    PassTimings {
        wall_s: run.stats.wall_s,
        hits: run.stats.hits,
        misses: run.stats.misses,
    }
}

fn cmd_bench(args: &[String]) -> i32 {
    let smoke = args.iter().any(|a| a == "--smoke");
    let matrix = match flag_value(args, "--matrix") {
        Some(path) => match load_matrix(path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        },
        None => {
            let text = if smoke { SMOKE_MATRIX } else { PAPER_MATRIX };
            ExperimentMatrix::from_toml_str(text).expect("embedded matrix parses")
        }
    };
    let out_path = flag_value(args, "--out").unwrap_or("BENCH_sweep.json");
    let specs = matrix.resolve();
    // A dedicated scratch cache so "cold" really means cold.
    let cache_dir = std::env::temp_dir().join(format!("ccfit-sweep-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let opts = RunnerOptions {
        jobs: parse_jobs(args),
        mode: process_mode(args),
        cache: Cache::new(&cache_dir),
        quiet: false,
    };
    eprintln!(
        "bench: matrix `{}`, {} runs, {} jobs, scratch cache {}",
        matrix.name,
        specs.len(),
        opts.jobs,
        cache_dir.display()
    );
    let result = (|| -> Result<SweepBench, String> {
        eprintln!("-- cold pass --");
        let cold = run_matrix(&specs, &opts)?;
        eprintln!("-- warm pass --");
        let warm = run_matrix(&specs, &opts)?;
        Ok(SweepBench {
            schema: 1,
            matrix: matrix.name.clone(),
            engine_salt: ENGINE_SALT.to_string(),
            runs: specs.len(),
            jobs: opts.jobs,
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            warm_speedup: cold.stats.wall_s / warm.stats.wall_s.max(1e-9),
            warm_hit_rate: warm.stats.hits as f64 / warm.stats.total.max(1) as f64,
            cold: pass(&cold),
            warm: pass(&warm),
        })
    })();
    std::fs::remove_dir_all(&cache_dir).ok();
    let bench = match result {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench failed: {e}");
            return 1;
        }
    };
    let json = serde_json::to_string_pretty(&bench).unwrap();
    if let Err(e) = std::fs::write(out_path, format!("{json}\n")) {
        eprintln!("cannot write {out_path}: {e}");
        return 1;
    }
    println!(
        "cold {:.2}s -> warm {:.2}s ({:.1}x, {}/{} warm hits) -> {out_path}",
        bench.cold.wall_s, bench.warm.wall_s, bench.warm_speedup, bench.warm.hits, bench.runs
    );
    // The perf contract this PR ships (ISSUE 9 acceptance criteria).
    assert_eq!(
        bench.warm.hits, bench.runs,
        "warm pass must be 100% cache hits"
    );
    assert!(
        bench.warm_speedup >= 10.0,
        "warm pass must be >=10x faster than cold ({:.1}x)",
        bench.warm_speedup
    );
    0
}
