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
//! reading through the cache), ends its stderr with a `done: N runs in
//! Ts (H hits, M simulated, R retried)` line and prints the matrix's
//! report on stdout (`ccfit_orchestrator::report`). `gc` prunes
//! stale-salt and corrupt entries. `hash` prints each resolved run's
//! cache key and canonical bytes (the golden-pin test uses it for
//! debugging). What a cold and a warm pass cost is the benchmark's
//! `paper-matrix` / `paper-matrix-warm` workloads (`benchmark/README.md`).
//!
//! The hidden `__ccfit-run-one <request.json> <out.json>` argv is the
//! worker half of the process protocol (DESIGN.md §13.4).

use std::io::Write;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::Duration;

use ccfit_orchestrator::{
    cache_from_args, report, run_matrix, run_one_worker, ExecMode, ExperimentMatrix, RunnerOptions,
    ENGINE_SALT, RUN_ONE_ARGV,
};

const USAGE: &str = "\
usage: ccfit-sweep <run|gc|hash> ...

  run   <matrix.toml> [--jobs N] [--no-cache] [--cache-dir D]
        [--timeout-s S] [--retries R] [--in-process] [--quiet]
  gc    [--cache-dir D]
  hash  <matrix.toml>";

/// `run`'s flags that take a value, and those that do not.
const RUN_VALUE_FLAGS: [&str; 4] = ["--jobs", "--cache-dir", "--timeout-s", "--retries"];
const RUN_SWITCHES: [&str; 3] = ["--no-cache", "--in-process", "--quiet"];

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
            eprintln!("{USAGE}");
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

/// `flag`'s value parsed as a `T` (`None` when the flag is absent).
fn parsed<T: FromStr>(flags: &[String], flag: &str, what: &str) -> Result<Option<T>, String> {
    let parse = |v: &str| {
        v.parse()
            .map_err(|_| format!("`{flag}` expects {what}, got {v:?}"))
    };
    flag_value(flags, flag).map(parse).transpose()
}

/// The runner options `run`'s flags (those after the matrix path) ask
/// for. An unknown flag, a flag without its value and a value that does
/// not parse are errors, not defaults.
fn run_options(flags: &[String]) -> Result<RunnerOptions, String> {
    let mut rest = flags.iter();
    while let Some(flag) = rest.next() {
        if RUN_VALUE_FLAGS.contains(&flag.as_str()) {
            rest.next().ok_or(format!("`{flag}` expects a value"))?;
        } else if !RUN_SWITCHES.contains(&flag.as_str()) {
            return Err(format!("unknown flag `{flag}`"));
        }
    }
    let jobs: Option<NonZeroUsize> = parsed(flags, "--jobs", "a positive integer")?;
    let timeout_s: Option<u64> = parsed(flags, "--timeout-s", "whole seconds")?;
    let retries: Option<u32> = parsed(flags, "--retries", "a non-negative integer")?;
    let mode = match flags.iter().any(|a| a == "--in-process") {
        true => ExecMode::Threads,
        false => ExecMode::Processes {
            timeout: Duration::from_secs(timeout_s.unwrap_or(900)),
            retries: retries.unwrap_or(1),
        },
    };
    let available = || std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(RunnerOptions {
        jobs: jobs.map_or_else(available, NonZeroUsize::get),
        mode,
        cache: cache_from_args(flags),
        quiet: flags.iter().any(|a| a == "--quiet"),
    })
}

/// Write `text` to stdout; the exit code. A reader that went away (`|
/// head`) ends the output quietly, any other write error is reported.
fn emit(text: &str) -> i32 {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => 0,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            1
        }
    }
}

fn load_matrix(path: &str) -> Result<ExperimentMatrix, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ExperimentMatrix::from_toml_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_run(args: &[String]) -> i32 {
    let Some(path) = args.get(2).filter(|a| !a.starts_with("--")) else {
        eprintln!("{USAGE}");
        return 2;
    };
    let opts = match run_options(&args[3..]) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return 2;
        }
    };
    let matrix = match load_matrix(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let specs = matrix.resolve();
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
            emit(&report::render(&run.outputs))
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
            let lines: String = (matrix.resolve().into_iter())
                .map(|spec| format!("{}  {}\n", spec.cache_key(), spec.canonical_bytes()))
                .collect();
            emit(&lines)
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}
