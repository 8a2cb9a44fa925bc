//! Runs the built benchmark the way the driver does, on `--smoke`-sized
//! workloads, and holds its output to `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in the repo root")
}

fn manifest() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    serde_json::from_str(&text).unwrap()
}

fn names(manifest: &Value, key: &str) -> Vec<String> {
    let Some(Value::Array(items)) = manifest.get(key) else {
        panic!("BENCHMARK.json has no `{key}` array");
    };
    items
        .iter()
        .map(|item| match item.get("name") {
            Some(Value::Str(name)) => name.clone(),
            other => panic!("`{key}` entry without a name: {other:?}"),
        })
        .collect()
}

/// The last line of the benchmark's standard output, parsed.
fn smoke(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    serde_json::from_str(stdout.lines().last().expect("a result line"))
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON: {e}"))
}

fn assert_result_matches(workload: &str, trace: &str, listed: &[String]) -> Value {
    let result = smoke(workload, trace);
    let Value::Object(keys) = &result else {
        panic!("{workload}: result is not an object");
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed"), Some(&Value::UInt(0)), "{workload}");
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(reported, listed, "{workload} --trace {trace}");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
        assert!(matches!(m.get("unit"), Some(Value::Str(_))), "{name}");
    }
    result
}

#[test]
fn every_workload_reports_exactly_the_end_to_end_metrics() {
    let m = manifest();
    let listed = names(&m, "end_to_end");
    for workload in names(&m, "workloads") {
        let result = assert_result_matches(&workload, "0", &listed);
        // End-to-end metrics are never 0.
        for name in &listed {
            let v = result.get("metrics").unwrap().get(name).unwrap();
            assert!(v.get("value").and_then(Value::as_f64) > Some(0.0), "{name}");
        }
    }
}

#[test]
fn every_workload_reports_exactly_the_per_layer_metrics() {
    let m = manifest();
    let listed = names(&m, "per_layer");
    for workload in names(&m, "workloads") {
        assert_result_matches(&workload, "1", &listed);
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .current_dir(repo_root())
        .args(["--workload", "nope", "--seed", "1", "--seconds", "0"])
        .args(["--trace", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
