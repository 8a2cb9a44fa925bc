//! `compare A.json B.json`: apply the bounds of `BENCHMARK.json` to two
//! result files of `run` (or of single workloads), A being the baseline.

use std::process::ExitCode;

use serde_json::Value;

use crate::manifest::{manifest, MetricDef};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    /// The run-to-run spread exceeds the bound and the two ranges
    /// overlap: the runs cannot tell the two apart.
    Unresolved,
    Improved,
    Unchanged,
}

/// By how much of `a`'s median `b`'s median is worse (negative: better).
fn worsening(def: &MetricDef, a: &Summary, b: &Summary) -> f64 {
    let change = (b.median - a.median) / a.median.abs();
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(def: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics have a bound");
    let worse = worsening(def, a, b);
    if worse > bound {
        return Verdict::Regression;
    }
    let spread = |s: &Summary| (s.max - s.min) / s.median.abs();
    let overlap = a.min <= b.max && b.min <= a.max;
    if overlap && (spread(a) > bound || spread(b) > bound) {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Vec<(String, Value)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("workloads") {
        Some(Value::Object(workloads)) => Ok(workloads.clone()),
        Some(_) => Err(format!("{path}: `workloads` is not an object")),
        // The file of a single workload.
        None => match doc.get("workload") {
            Some(Value::Str(name)) => Ok(vec![(name.clone(), doc)]),
            _ => Err(format!("{path}: not a result file of this benchmark")),
        },
    }
}

fn summary_of(workload: &Value, metric: &str) -> Option<Summary> {
    let m = workload.get("metrics")?.get(metric)?;
    let field = |key: &str| m.get(key)?.as_f64();
    Some(Summary {
        median: field("value")?,
        q1: field("q1")?,
        q3: field("q3")?,
        min: field("min")?,
        max: field("max")?,
        n: m.get("n")?.as_u64()? as usize,
    })
}

pub fn compare(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let defs = manifest().end_to_end;
    let mut bad = false;
    println!(
        "{:<18} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (name, wa) in &a {
        let Some((_, wb)) = b.iter().find(|(n, _)| n == name) else {
            println!("{name:<18} only in {path_a}");
            continue;
        };
        for def in &defs {
            let (Some(sa), Some(sb)) = (summary_of(wa, &def.name), summary_of(wb, &def.name))
            else {
                continue;
            };
            let v = verdict(def, &sa, &sb);
            bad |= v == Verdict::Regression;
            println!(
                "{name:<18} {:<22} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}%  {}",
                def.name,
                sa.median,
                sb.median,
                (sb.median - sa.median) / sa.median.abs() * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                format!("{v:?}").to_lowercase(),
            );
        }
        let failed = |w: &Value| w.get("failed").and_then(Value::as_u64).unwrap_or(0);
        let (fa, fb) = (failed(wa), failed(wb));
        if fb > fa {
            bad = true;
            println!("{name:<18} failed checks rose from {fa} to {fb}");
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better,
            bound: Some(0.05),
        }
    }

    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            q1: min,
            q3: max,
            min,
            max,
            n: 5,
        }
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        let a = s(1.0, 0.99, 1.01);
        assert_eq!(
            verdict(&def(false), &a, &s(1.06, 1.05, 1.07)),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&def(true), &a, &s(0.94, 0.93, 0.95)),
            Verdict::Regression
        );
    }

    #[test]
    fn direction_decides_what_improved_means() {
        let a = s(1.0, 0.99, 1.01);
        let b = s(0.9, 0.89, 0.91);
        assert_eq!(verdict(&def(false), &a, &b), Verdict::Improved);
        assert_eq!(verdict(&def(true), &a, &b), Verdict::Regression);
    }

    #[test]
    fn within_the_bound_is_unchanged() {
        let a = s(1.0, 0.99, 1.01);
        assert_eq!(
            verdict(&def(false), &a, &s(1.02, 1.01, 1.03)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_overlapping_ranges_are_unresolved() {
        let a = s(1.0, 0.9, 1.1);
        assert_eq!(
            verdict(&def(false), &a, &s(1.02, 0.95, 1.2)),
            Verdict::Unresolved
        );
        // Every run of B reads better than every run of A: resolved.
        assert_eq!(
            verdict(&def(false), &a, &s(0.8, 0.75, 0.85)),
            Verdict::Improved
        );
    }
}
