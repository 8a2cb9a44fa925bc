//! `ccfit-sweep` — run experiment matrices through the orchestrator.
//!
//! ```text
//! ccfit-sweep run <matrix.toml> [--jobs N] [--no-cache] [--cache-dir D]
//!                 [--timeout-s S] [--retries R] [--in-process] [--quiet]
//! ccfit-sweep gc [--cache-dir D]
//! ccfit-sweep hash <matrix.toml>
//! ```
//!
//! `run` executes a matrix (process-parallel workers by default,
//! reading through the cache) and ends with a `done: N runs in Ts (H
//! hits, M simulated, R retried)` line. `gc` prunes stale-salt and
//! corrupt entries. `hash` prints each resolved run's cache key and
//! canonical bytes (the golden-pin test uses it for debugging). What a
//! cold and a warm pass cost is the benchmark's `paper-matrix` /
//! `paper-matrix-warm` workloads (`benchmark/README.md`).
//!
//! The hidden `__ccfit-run-one <request.json> <out.json>` argv is the
//! worker half of the process protocol (DESIGN.md §13.4).

use std::time::Duration;

use ccfit_orchestrator::{
    cache_from_args, run_matrix, run_one_worker, ExecMode, ExperimentMatrix, RunnerOptions,
    ENGINE_SALT, RUN_ONE_ARGV,
};

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
        Some("gc") => cmd_gc(&args),
        Some("hash") => cmd_hash(&args),
        _ => {
            eprintln!("usage: ccfit-sweep <run|gc|hash> ...");
            eprintln!();
            eprintln!("  run   <matrix.toml> [--jobs N] [--no-cache] [--cache-dir D]");
            eprintln!("        [--timeout-s S] [--retries R] [--in-process] [--quiet]");
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
