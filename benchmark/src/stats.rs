//! Order statistics over rep samples, and metric-name hygiene.

/// Linear-interpolated quantile of `sorted` (non-empty, ascending) at
/// `q` in [0, 1].
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// First and third quartile.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    (quantile_sorted(&s, 0.25), quantile_sorted(&s, 0.75))
}

/// Geometric mean of strictly positive values.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The reps behind one reported value: the median is what is reported,
/// the rest says how far to trust it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        let (q1, q3) = quartiles(xs);
        Summary {
            median: median(xs),
            q1,
            q3,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        }
    }

    /// A value that was computed, not sampled (simulated results,
    /// counts).
    pub fn exact(v: f64) -> Self {
        Summary::of(&[v])
    }
}

/// Metric names are 1–64 letters, digits, `_`, `.`, `-`, starting with
/// a letter or digit (the `BENCHMARK.json` contract).
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Map a simulator-side label (a phase name such as `iso+congestion`)
/// onto the metric-name alphabet: every other character becomes `_`.
pub fn sanitise_name(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.75, 3.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn geometric_mean_of_powers() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_keeps_extremes() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
        assert_eq!(Summary::exact(2.5).max, 2.5);
    }

    #[test]
    fn names_follow_the_contract() {
        assert!(is_valid_name(
            "core.simulator.phase.iso_congestion.ns_per_cycle"
        ));
        assert!(is_valid_name("1Q"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("_leading"));
        assert!(!is_valid_name("iso+congestion"));
        assert!(!is_valid_name(&"x".repeat(65)));
    }

    #[test]
    fn sanitise_maps_foreign_characters() {
        assert_eq!(sanitise_name("iso+congestion"), "iso_congestion");
        assert_eq!(sanitise_name("gauges+advance"), "gauges_advance");
        assert_eq!(sanitise_name("nodes"), "nodes");
        assert!(is_valid_name(&sanitise_name("a b/c")));
    }
}
