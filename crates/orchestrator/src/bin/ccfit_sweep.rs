//! `ccfit-sweep` — run experiment matrices through the orchestrator.
//!
//! ```text
//! ccfit-sweep run <matrix.toml> [--jobs N] [--no-cache] [--cache-dir D] [--quiet]
//! ccfit-sweep gc [--cache-dir D]
//! ccfit-sweep hash <matrix.toml>
//! ```
//!
//! `run` executes a matrix (misses on threads of this process, reading
//! through the cache), ends its stderr with a `done: N runs in Ts (H
//! hits, M simulated)` line and prints the matrix's report on stdout
//! (`ccfit_orchestrator::report`); a run that panics is named once the
//! others finish, and `run` exits 1. `gc` prunes stale-salt, orphaned
//! and corrupt entries. `hash` prints each resolved run's cache key and
//! canonical bytes. An unknown flag exits 2 with the usage text. What a
//! cold and a warm pass cost is the benchmark's `paper-matrix` /
//! `paper-matrix-warm` workloads (`benchmark/README.md`).

use std::io::Write;
use std::num::NonZeroUsize;

use ccfit_orchestrator::{
    cache_from_args, report, run_matrix, ExperimentMatrix, RunnerOptions, ENGINE_SALT,
};

const USAGE: &str = "\
usage: ccfit-sweep <run|gc|hash> ...

  run   <matrix.toml> [--jobs N] [--no-cache] [--cache-dir D] [--quiet]
  gc    [--cache-dir D]
  hash  <matrix.toml>";

/// The flags each subcommand knows: those that take a value, then the
/// switches.
const RUN_FLAGS: (&[&str], &[&str]) = (&["--jobs", "--cache-dir"], &["--no-cache", "--quiet"]);
const GC_FLAGS: (&[&str], &[&str]) = (&["--cache-dir"], &[]);
const HASH_FLAGS: (&[&str], &[&str]) = (&[], &[]);

fn main() {
    let args: Vec<String> = std::env::args().collect();
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

/// Refuse a flag the subcommand does not know and a value flag given
/// without its value: the exit code, after the message and the usage.
fn check_flags(flags: &[String], (values, switches): (&[&str], &[&str])) -> Result<(), i32> {
    let mut rest = flags.iter();
    while let Some(flag) = rest.next() {
        if values.contains(&flag.as_str()) {
            rest.next()
                .ok_or_else(|| usage_error(&format!("`{flag}` expects a value")))?;
        } else if !switches.contains(&flag.as_str()) {
            return Err(usage_error(&format!("unknown flag `{flag}`")));
        }
    }
    Ok(())
}

/// Print `error` and the usage text; the exit code.
fn usage_error(error: &str) -> i32 {
    eprintln!("{error}\n\n{USAGE}");
    2
}

/// `args[2]`, the matrix path, once the flags after it pass
/// [`check_flags`]; `Err` is the exit code.
fn matrix_path<'a>(args: &'a [String], known: (&[&str], &[&str])) -> Result<&'a str, i32> {
    let path = args.get(2).filter(|a| !a.starts_with("--"));
    let path = path.ok_or_else(|| usage_error("missing <matrix.toml>"))?;
    check_flags(&args[3..], known)?;
    Ok(path)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The runner options `run`'s flags (those after the matrix path) ask
/// for. A value that does not parse is an error, not a default.
fn run_options(flags: &[String]) -> Result<RunnerOptions, String> {
    let mut opts = RunnerOptions {
        cache: cache_from_args(flags),
        quiet: flags.iter().any(|a| a == "--quiet"),
        ..RunnerOptions::default()
    };
    if let Some(v) = flag_value(flags, "--jobs") {
        let jobs = v.parse::<NonZeroUsize>();
        let bad = |_| format!("`--jobs` expects a positive integer, got {v:?}");
        opts.jobs = jobs.map_err(bad)?.get();
    }
    Ok(opts)
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
    let path = match matrix_path(args, RUN_FLAGS) {
        Ok(path) => path,
        Err(code) => return code,
    };
    let opts = match run_options(&args[3..]) {
        Ok(opts) => opts,
        Err(e) => return usage_error(&e),
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
                "done: {} runs in {:.1}s ({} hits, {} simulated)",
                s.total, s.wall_s, s.hits, s.misses
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
    if let Err(code) = check_flags(&args[2..], GC_FLAGS) {
        return code;
    }
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
    let path = match matrix_path(args, HASH_FLAGS) {
        Ok(path) => path,
        Err(code) => return code,
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
