//! Time-binned series.

use serde::{Deserialize, Serialize};

/// A fixed-bin time series of `f64` samples accumulated by addition.
///
/// Bins are laid out from time zero; bin `i` covers
/// `[i·bin_ns, (i+1)·bin_ns)`. The series grows on demand — adding at a
/// time beyond the current end extends it with zero-filled bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Bin width in nanoseconds.
    pub bin_ns: f64,
    /// Accumulated value per bin.
    pub bins: Vec<f64>,
}

impl TimeSeries {
    /// An empty series with the given bin width.
    pub fn new(bin_ns: f64) -> Self {
        assert!(bin_ns > 0.0, "bin width must be positive");
        Self {
            bin_ns,
            bins: Vec::new(),
        }
    }

    /// Bin index covering time `ns`.
    pub fn bin_of(&self, ns: f64) -> usize {
        (ns / self.bin_ns) as usize
    }

    /// Add `value` into the bin covering `ns`.
    pub fn add(&mut self, ns: f64, value: f64) {
        let idx = self.bin_of(ns);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += value;
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when no bins exist.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Ensure the series covers `[0, ns)` with zero-filled bins — used to
    /// give every series of a report the same length.
    pub fn extend_to(&mut self, ns: f64) {
        let want = (ns / self.bin_ns).ceil() as usize;
        if want > self.bins.len() {
            self.bins.resize(want, 0.0);
        }
    }

    /// Accumulate another series into this one, bin by bin. Both series
    /// must share the same bin width; the result covers the longer of
    /// the two. Because each bin is a plain sum, `merge` is commutative
    /// up to f64 rounding and exactly associative whenever the bin
    /// values are exactly representable (property-tested in
    /// `tests/proptests.rs`).
    pub fn merge(&mut self, other: &TimeSeries) {
        assert!(
            self.bin_ns == other.bin_ns,
            "cannot merge series with different bin widths ({} vs {})",
            self.bin_ns,
            other.bin_ns
        );
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0.0);
        }
        for (dst, src) in self.bins.iter_mut().zip(&other.bins) {
            *dst += *src;
        }
    }

    /// Total across all bins.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Mean of the bins in `[from, to)` (bin indices), ignoring an empty
    /// range.
    pub fn mean_over(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.bins.len());
        if from >= to {
            return 0.0;
        }
        self.bins[from..to].iter().sum::<f64>() / (to - from) as f64
    }

    /// Midpoint time (ns) of bin `i`, for plotting.
    pub fn bin_center_ns(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * self.bin_ns
    }

    /// The per-bin values scaled by a constant (e.g. bytes → GB/s).
    pub fn scaled(&self, factor: f64) -> Vec<f64> {
        self.bins.iter().map(|v| v * factor).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_into_the_right_bin() {
        let mut s = TimeSeries::new(100.0);
        s.add(0.0, 1.0);
        s.add(99.9, 2.0);
        s.add(100.0, 5.0);
        s.add(250.0, 7.0);
        assert_eq!(s.bins, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn extend_to_zero_fills() {
        let mut s = TimeSeries::new(100.0);
        s.add(50.0, 1.0);
        s.extend_to(1000.0);
        assert_eq!(s.len(), 10);
        assert_eq!(s.total(), 1.0);
    }

    #[test]
    fn extend_never_shrinks() {
        let mut s = TimeSeries::new(100.0);
        s.add(950.0, 1.0);
        s.extend_to(100.0);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn mean_over_partial_range() {
        let mut s = TimeSeries::new(1.0);
        for i in 0..10 {
            s.add(i as f64, i as f64);
        }
        assert_eq!(s.mean_over(0, 10), 4.5);
        assert_eq!(s.mean_over(5, 10), 7.0);
        assert_eq!(s.mean_over(8, 100), 8.5, "range clamps to length");
        assert_eq!(s.mean_over(5, 5), 0.0, "empty range");
    }

    #[test]
    fn bin_centers() {
        let s = TimeSeries::new(200.0);
        assert_eq!(s.bin_center_ns(0), 100.0);
        assert_eq!(s.bin_center_ns(3), 700.0);
    }

    #[test]
    fn scaled_multiplies_every_bin() {
        let mut s = TimeSeries::new(1.0);
        s.add(0.0, 2.0);
        s.add(1.0, 4.0);
        assert_eq!(s.scaled(0.5), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bin_width_rejected() {
        TimeSeries::new(0.0);
    }

    #[test]
    fn merge_sums_bins_and_extends() {
        let mut a = TimeSeries::new(100.0);
        a.add(0.0, 1.0);
        let mut b = TimeSeries::new(100.0);
        b.add(50.0, 2.0);
        b.add(250.0, 4.0);
        a.merge(&b);
        assert_eq!(a.bins, vec![3.0, 0.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "different bin widths")]
    fn merge_rejects_mismatched_bins() {
        let mut a = TimeSeries::new(100.0);
        a.merge(&TimeSeries::new(200.0));
    }
}
