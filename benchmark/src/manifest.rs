//! `BENCHMARK.json` is the one place metric names, units, directions
//! and bounds are written down; the benchmark reads them from there.

use serde_json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: `{key}` must be a string, found {other:?}"),
    }
}

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(a)) => a,
        other => panic!("BENCHMARK.json: `{key}` must be an array, found {other:?}"),
    }
}

fn metric_defs(doc: &Value, key: &str) -> Vec<MetricDef> {
    items(doc, key)
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

/// The manifest compiled into this binary. Panics on a malformed file:
/// that is a defect of the benchmark itself, not of an input.
pub fn manifest() -> Manifest {
    let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .unwrap_or_else(|e| panic!("BENCHMARK.json does not parse: {e}"));
    Manifest {
        workloads: items(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect(),
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("BENCHMARK.json: `run_seconds` must be a number"),
        end_to_end: metric_defs(&doc, "end_to_end"),
        per_layer: metric_defs(&doc, "per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::is_valid_name;
    use crate::workloads::{is_matrix_workload, sim_workload};

    #[test]
    fn manifest_names_are_valid_and_unique() {
        let m = manifest();
        let mut names: Vec<&str> = m
            .end_to_end
            .iter()
            .chain(&m.per_layer)
            .map(|d| d.name.as_str())
            .chain(m.workloads.iter().map(String::as_str))
            .collect();
        assert!(names.iter().all(|n| is_valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn every_listed_workload_is_implemented() {
        for w in manifest().workloads {
            assert!(
                is_matrix_workload(&w) || sim_workload(&w, 1, true).is_some(),
                "{w}"
            );
        }
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_setup_has_the_largest() {
        let m = manifest();
        let bounds: Vec<f64> = m
            .end_to_end
            .iter()
            .map(|d| d.bound.unwrap_or_else(|| panic!("{} has no bound", d.name)))
            .collect();
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        let setup = m.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        assert_eq!(setup.bound, bounds.iter().copied().reduce(f64::max));
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
    }
}
