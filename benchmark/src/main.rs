//! The repo's benchmark. See README.md for the workloads and metrics,
//! and ../BENCHMARK.json for the contract they are measured under.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! bench run    [--seed N] [--seconds S] [--workload W] [--label L] [--smoke]
//! bench traced [--seed N] [--seconds S] [--workload W] [--label L] [--smoke]
//! bench compare A.json B.json
//! ```

mod compare;
mod e2e;
mod host;
mod manifest;
mod measure;
mod span;
mod stats;
mod traced;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use manifest::{manifest, MetricDef};
use measure::{Checks, Ctx};
use span::Tracer;
use stats::is_valid_name;
use stats::Summary;
use workloads::{is_matrix_workload, sim_workload};

/// Where the benchmark writes: result files and scratch cache
/// directories, inside the checkout and ignored by git.
pub const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    label: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        label: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--label" => out.label = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                out.seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or(bad("a number of seconds"))?,
                )
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if let Some(w) = &out.workload {
        let known = manifest().workloads;
        if !known.contains(w) {
            return Err(format!("unknown workload {w}; known: {known:?}"));
        }
    }
    Ok(out)
}

/// A JSON object with its keys in the order given.
pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn summary_json(s: &Summary, unit: &str) -> Value {
    object([
        ("value", Value::Float(s.median)),
        ("unit", Value::Str(unit.into())),
        ("q1", Value::Float(s.q1)),
        ("q3", Value::Float(s.q3)),
        ("min", Value::Float(s.min)),
        ("max", Value::Float(s.max)),
        ("n", Value::UInt(s.n as u64)),
    ])
}

/// Pair every metric the manifest lists for this mode with its measured
/// value. A metric measured but not listed, or listed but not measured,
/// is a defect of the benchmark.
fn in_manifest_order<'a>(
    defs: &'a [MetricDef],
    measured: &[(String, Summary)],
) -> Vec<(&'a MetricDef, Summary)> {
    for (name, _) in measured {
        assert!(is_valid_name(name), "`{name}` is not a metric name");
        assert!(
            defs.iter().any(|d| &d.name == name),
            "measured `{name}`, which BENCHMARK.json does not list"
        );
    }
    defs.iter()
        .map(|d| {
            let (_, s) = measured
                .iter()
                .find(|(name, _)| name == &d.name)
                .unwrap_or_else(|| panic!("BENCHMARK.json lists `{}`, not measured", d.name));
            (d, *s)
        })
        .collect()
}

/// Run one workload in this process; the driver's entry point.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let m = manifest();
    let host = host::host_info();
    let mut tracer = Tracer::new(args.trace);
    let root = tracer.open(workload, None);
    let seconds = args.seconds.unwrap_or(m.run_seconds);
    let mut ctx = Ctx {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        tracer,
        root,
        checks: Checks::default(),
        digests: Default::default(),
    };
    std::fs::create_dir_all(OUT_DIR).expect("the checkout is writable");

    let measured = match (sim_workload(workload, args.seed, args.smoke), args.trace) {
        (Some(w), false) => e2e::sim_e2e(&w, &mut ctx),
        (Some(w), true) => {
            let mut metrics = traced::sim_traced(&w, &mut ctx);
            metrics.extend(traced::no_orchestrator());
            metrics
        }
        (None, false) => {
            assert!(is_matrix_workload(workload));
            e2e::matrix_e2e(workload == "paper-matrix-warm", &mut ctx)
        }
        (None, true) => traced::matrix_traced(&mut ctx),
    };
    ctx.tracer.close(root);

    let defs = if args.trace {
        &m.per_layer
    } else {
        &m.end_to_end
    };
    let metrics = in_manifest_order(defs, &measured);
    for (d, s) in &metrics {
        println!(
            "{workload:<18} {:<52} {:>16.6} {:<8} (q1 {:.6}, q3 {:.6}, min {:.6}, max {:.6}, n {})",
            d.name, s.median, d.unit, s.q1, s.q3, s.min, s.max, s.n
        );
    }
    for (label, sha256) in &ctx.digests {
        println!("{workload:<18} report_sha256 {sha256} {label}");
    }
    for failure in &ctx.checks.failures {
        eprintln!("CHECK FAILED: {failure}");
    }

    let failed = ctx.checks.failures.len() as u64;
    let verdict = [
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::UInt(ctx.checks.attempted)),
        ("failed", Value::UInt(failed)),
    ];
    let failures = ctx.checks.failures.iter().cloned().map(Value::Str);
    let digests = ctx
        .digests
        .iter()
        .map(|(label, sha)| (label.as_str(), Value::Str(sha.clone())));
    let mut doc = vec![
        ("workload", Value::Str(workload.into())),
        ("seed", Value::UInt(ctx.seed)),
        ("seconds", Value::Float(seconds)),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        ("host", host),
    ];
    doc.extend(verdict.clone());
    doc.extend([
        ("failures", Value::Array(failures.collect())),
        (
            "metrics",
            object(
                metrics
                    .iter()
                    .map(|(d, s)| (d.name.as_str(), summary_json(s, &d.unit))),
            ),
        ),
        ("report_sha256", object(digests)),
    ]);
    if args.trace {
        doc.push(("spans", ctx.tracer.to_json()));
    }
    let path = out_path(workload, ctx.seed, args.trace);
    write_json(&path, &object(doc));

    let result_metrics = metrics.iter().map(|(d, s)| {
        let value = [
            ("value", Value::Float(s.median)),
            ("unit", Value::Str(d.unit.clone())),
        ];
        (d.name.as_str(), object(value))
    });
    let result = object(
        verdict
            .into_iter()
            .chain([("metrics", object(result_metrics))]),
    );
    println!(
        "{}",
        serde_json::to_string(&result).expect("a Value serialises")
    );
    ExitCode::SUCCESS
}

fn write_json(path: &str, doc: &Value) {
    let text = serde_json::to_string_pretty(doc).expect("a Value serialises");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

fn out_path(workload: &str, seed: u64, trace: bool) -> String {
    let kind = if trace { "trace" } else { "run" };
    format!("{OUT_DIR}/{workload}.seed{seed}.{kind}.json")
}

/// `run` / `traced`: one child process of this binary per workload, one
/// after the other, so that `peak_rss_mb` is per workload and allocator
/// state does not leak between workloads. Collects the children's files
/// into `benchmark/out/<label>.json`.
fn run_all(trace: bool, args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let names = match &args.workload {
        Some(w) => vec![w.clone()],
        None => manifest().workloads,
    };
    let mut docs = Vec::new();
    let mut all_correct = true;
    for name in names {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", &name, "--seed", &args.seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null());
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().expect("the benchmark can start itself");
        if !status.success() {
            eprintln!("{name}: child exited with {status}");
            return ExitCode::FAILURE;
        }
        let path = out_path(&name, args.seed, trace);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: child left no {path}: {e}"));
        let doc: Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} does not parse: {e}"));
        all_correct &= doc.get("correct") == Some(&Value::Bool(true));
        docs.push((name, doc));
    }
    let label = args
        .label
        .clone()
        .unwrap_or_else(|| format!("{}-seed{}", if trace { "traced" } else { "run" }, args.seed));
    let path = format!("{OUT_DIR}/{label}.json");
    write_json(
        &path,
        &object([
            ("label", Value::Str(label)),
            ("workloads", Value::Object(docs)),
        ]),
    );
    println!("wrote {path}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "traced" | "compare")) => (c, &argv[1..]),
        _ => ("one", &argv[..]),
    };
    if command == "compare" {
        return match rest {
            [a, b] => compare::compare(a, b),
            _ => {
                eprintln!("usage: bench compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match (command, &args.workload) {
        ("run", _) => run_all(false, &args),
        ("traced", _) => run_all(true, &args),
        (_, Some(w)) => run_one(w, &args),
        (_, None) => {
            eprintln!("--workload is required; or use `run`, `traced`, `compare`");
            ExitCode::from(2)
        }
    }
}
