//! End-to-end orchestrator tests: a real cold/warm sweep through the
//! `ccfit-sweep` binary, the byte-identity guarantee between cached
//! and freshly-simulated reports, and the binary's refusal of flags it
//! cannot honour.

use ccfit::{ConfigId, Mechanism};
use ccfit_orchestrator::{run_matrix, Cache, RunSpec, RunnerOptions};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

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
        cache: Cache::new(&dir),
        ..RunnerOptions::default()
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

/// The end-to-end test of the binary's runner: `ccfit-sweep run` on the
/// smoke matrix simulates all four runs into an empty cache, then
/// serves all four from it. The
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
    assert_eq!(cold, "(0 hits, 4 simulated)", "cold pass");
    assert_eq!(warm, "(4 hits, 0 simulated)", "warm pass");
    assert_eq!(
        cold_report, warm_report,
        "a warm pass prints the cold report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `ccfit-sweep run` refuses a value it cannot parse and a flag it does
/// not know — a misspelt `--no-cache` must not run with the cache on,
/// and the deleted process runner's flags are gone — with exit code 2,
/// a one-line message and the usage text, never a panic, and before it
/// simulates anything.
#[test]
fn bad_run_flags_exit_2_with_usage() {
    let matrix = concat!(env!("CARGO_MANIFEST_DIR"), "/../../matrices/smoke.toml");
    for (flags, message) in [
        (
            &["--jobs", "abc"][..],
            "`--jobs` expects a positive integer, got \"abc\"",
        ),
        (
            &["--jobs", "0"],
            "`--jobs` expects a positive integer, got \"0\"",
        ),
        (&["--timeout-s", "9"], "unknown flag `--timeout-s`"),
        (&["--in-process"], "unknown flag `--in-process`"),
        (&["--no-cahce"], "unknown flag `--no-cahce`"),
        (&["--job", "4"], "unknown flag `--job`"),
        (&["--quiet", "--jobs"], "`--jobs` expects a value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ccfit-sweep"))
            .args(["run", matrix])
            .args(flags)
            .output()
            .expect("spawn ccfit-sweep");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}:\n{stderr}");
        assert_eq!(stderr.lines().next(), Some(message), "{flags:?}");
        assert!(
            stderr.contains("usage: ccfit-sweep"),
            "{flags:?}:\n{stderr}"
        );
        assert!(!stderr.contains("panicked at"), "{flags:?}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{flags:?}: printed a report");
    }
}

/// `gc` and `hash` refuse a flag they do not know, `gc` a `--cache-dir`
/// without its value and `hash` a missing matrix, the way `run` does:
/// exit code 2, a one-line message and the usage text, before anything
/// is touched. A
/// misspelt `--cache-dir` must not prune the default cache, so each case
/// runs where a corrupt entry sits in the default cache, and it stays.
#[test]
fn bad_gc_and_hash_flags_exit_2_with_usage() {
    let matrix = concat!(env!("CARGO_MANIFEST_DIR"), "/../../matrices/smoke.toml");
    let cwd = std::env::temp_dir().join(format!("ccfit-e2e-gc-{}", std::process::id()));
    let corrupt = cwd
        .join(ccfit_orchestrator::DEFAULT_CACHE_DIR)
        .join(format!("{}.json", "1".repeat(64)));
    std::fs::create_dir_all(corrupt.parent().unwrap()).unwrap();
    std::fs::write(&corrupt, "not json").unwrap();
    for (args, message) in [
        (
            &["gc", "--cache-dri", "elsewhere"][..],
            "unknown flag `--cache-dri`",
        ),
        (&["gc", "--cache-dir"], "`--cache-dir` expects a value"),
        (&["gc", "--no-cache"], "unknown flag `--no-cache`"),
        (&["hash", matrix, "--bogus"], "unknown flag `--bogus`"),
        (&["hash", matrix, "--jobs", "2"], "unknown flag `--jobs`"),
        (&["hash", "--bogus"], "missing <matrix.toml>"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ccfit-sweep"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("spawn ccfit-sweep");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert_eq!(stderr.lines().next(), Some(message), "{args:?}");
        assert!(stderr.contains("usage: ccfit-sweep"), "{args:?}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: printed output");
        assert!(corrupt.exists(), "{args:?}: pruned the default cache");
    }
    std::fs::remove_dir_all(&cwd).ok();
}

/// A one-run matrix on the 4-node uniform tree; `{extra}` is the end.
const MATRIX: &str = "[matrix]\nname = \"bad\"\nmechanisms = [\"1Q\"]\nseeds = [1]\n\
    metrics_bin_ns = 1e4\n\n[[matrix.config]]\nkind = \"uniform-tree\"\nary = 2\nlevels = 2\n\
    load = 0.5\nduration_ns = 5e4\n{extra}";

/// A value no builder can honour, or a tree too big to build, is refused
/// at parse time with its line and exit code 2 — before any run starts,
/// so no simulation panics on it or exhausts memory. Each case edits
/// `MATRIX`; `#!` marks the line its message must name.
#[test]
fn bad_matrix_values_exit_2_with_their_line() {
    // The whole tree table, so a case that swaps in another kind leaves
    // no key that kind does not know.
    let tree = "kind = \"uniform-tree\"\nary = 2\nlevels = 2\nload = 0.5\nduration_ns = 5e4";
    let load = |kind: &str| format!("[matrix.workload]\nkind = \"{kind}\"\nbytes = 64\n");
    let cases = [
        (
            "bin_ns = 1e4",
            "bin_ns = 0.0 #!".into(),
            "`metrics_bin_ns` must be positive",
        ),
        (
            tree,
            "kind = \"config1/case1\"\nscale = -1.0 #!".into(),
            "`scale` must be positive",
        ),
        ("ary = 2", "ary = 0 #!".into(), "`ary` must be at least 2"),
        ("ary = 2", "ary = 33 #!".into(), "`ary` must be at most 32"),
        (
            "ary = 2\nlevels = 2",
            "ary = 16\nlevels = 4 #!".into(),
            "`levels` must keep ary^levels at most 32768, got 16^4",
        ),
        (
            "levels = 2",
            "levels = 64 #!".into(),
            "`levels` must keep ary^levels at most 32768, got 2^64",
        ),
        (
            "load = 0.5",
            "load = 2.0 #!".into(),
            "`load` must be in (0, 1]",
        ),
        (
            tree,
            "kind = \"config3/case4\"\nhotspots = 0 #!".into(),
            "`hotspots` must be at least 1",
        ),
        (
            tree,
            "kind = \"uniform-mesh\" #!".into(),
            "unknown config kind",
        ),
        (
            "[\"1Q\"]",
            "[\"1Q\", \"DBBM\"] #!".into(),
            "unknown mechanism",
        ),
        (
            "ns = 5e4",
            "ns = -5.0 #!".into(),
            "`duration_ns` must be positive",
        ),
        (
            "{extra}",
            "[[matrix.event]]\nkind = \"switch_up\"\nat = 1\nswitch = 99 #!".into(),
            "unknown switch",
        ),
        (
            "{extra}",
            "[[matrix.event]]\nkind = \"link_down\"\nat = 1\nswitch = 0\nport = 2\n\
             policy = \"fail-stop\" #!"
                .into(),
            "unknown key `policy` in [[matrix.event]] kind=link_down",
        ),
        (
            "load = 0.5",
            "load = 0.5\nscal = 0.1 #!".into(),
            "unknown key `scal` in [[matrix.config]] kind=uniform-tree",
        ),
        (
            "{extra}",
            load("incast") + "senders = 0 #!",
            "`senders` must be at least 1",
        ),
        (
            "{extra}",
            load("incast") + "senders = 99 #!",
            "99 senders + 1 receiver do not fit the network's 4",
        ),
        (
            "{extra}",
            load("all-to-all").replace("64", "0 #!"),
            "`bytes` must be at least 1",
        ),
        (
            "{extra}",
            load("permutation-shift") + "shift = 0 #!",
            "maps every node to itself",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("ccfit-e2e-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (from, to, message)) in cases.iter().enumerate() {
        let doc = MATRIX.replace(from, to).replace("{extra}", "");
        let path = dir.join(format!("bad{i}.toml"));
        std::fs::write(&path, &doc).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_ccfit-sweep"))
            .arg("run")
            .arg(&path)
            .args(["--no-cache", "--quiet"])
            .output()
            .expect("spawn ccfit-sweep");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = doc.lines().position(|l| l.ends_with("#!")).unwrap() + 1;
        assert_eq!(out.status.code(), Some(2), "{message}:\n{stderr}");
        let located = stderr.contains(&format!("line {line}: "));
        assert!(located && stderr.contains(message), "{message}:\n{stderr}");
        assert!(!stderr.contains("panicked at"), "{message}:\n{stderr}");
        let started = stderr.contains("matrix `bad`: ") || !out.stdout.is_empty();
        assert!(!started, "{message}: a run started:\n{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `ccfit-sweep hash <m> | head -1`: once the reader has gone, the rest
/// of the output is dropped without a panic.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let seeds: Vec<String> = (1..=3000).map(|s| s.to_string()).collect();
    let seeds = format!("seeds = [{}]", seeds.join(", "));
    let doc = MATRIX.replace("seeds = [1]", &seeds).replace("{extra}", "");
    let path = std::env::temp_dir().join(format!("ccfit-e2e-pipe-{}.toml", std::process::id()));
    std::fs::write(&path, doc).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ccfit-sweep"))
        .arg("hash")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ccfit-sweep");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert_eq!(first.split("  ").next().map(str::len), Some(64), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    std::fs::remove_file(&path).ok();
}
