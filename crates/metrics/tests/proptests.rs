//! Property-based tests for the metrics crate.

use ccfit_metrics::{jain_index, TimeSeries};
use proptest::prelude::*;

proptest! {
    /// Jain's index is always in [1/n, 1] and is scale-invariant.
    #[test]
    fn jain_bounds_and_scale_invariance(
        xs in prop::collection::vec(0.0f64..1e6, 1..32),
        scale in 0.001f64..1e3,
    ) {
        let j = jain_index(&xs);
        let n = xs.len() as f64;
        prop_assert!(j <= 1.0 + 1e-9, "J = {}", j);
        if xs.iter().any(|&x| x > 0.0) {
            prop_assert!(j >= 1.0 / n - 1e-9, "J = {} below 1/n", j);
        }
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        prop_assert!((jain_index(&scaled) - j).abs() < 1e-6);
    }

    /// Equalizing any two allocations never decreases Jain's index
    /// (Pigou-Dalton-style transfer principle).
    #[test]
    fn jain_rewards_equalization(
        mut xs in prop::collection::vec(0.1f64..100.0, 2..16),
        i in 0usize..16,
        j in 0usize..16,
    ) {
        let n = xs.len();
        let (i, j) = (i % n, j % n);
        prop_assume!(i != j);
        let before = jain_index(&xs);
        let mean = (xs[i] + xs[j]) / 2.0;
        xs[i] = mean;
        xs[j] = mean;
        prop_assert!(jain_index(&xs) >= before - 1e-9);
    }

    /// TimeSeries: sum of bins always equals the sum of added values,
    /// wherever they land.
    #[test]
    fn series_total_is_conserved(
        adds in prop::collection::vec((0.0f64..1e6, 0.0f64..1e4), 1..100),
    ) {
        let mut s = TimeSeries::new(250.0);
        let mut expect = 0.0;
        for (t, v) in adds {
            s.add(t, v);
            expect += v;
        }
        prop_assert!((s.total() - expect).abs() < 1e-6 * expect.max(1.0));
    }

    /// extend_to never changes the total and makes the length cover the
    /// requested horizon.
    #[test]
    fn extend_preserves_total(t_end in 1.0f64..1e6) {
        let mut s = TimeSeries::new(100.0);
        s.add(42.0, 7.0);
        let before = s.total();
        s.extend_to(t_end);
        prop_assert_eq!(s.total(), before);
        prop_assert!(s.len() as f64 * 100.0 >= t_end.min(1e6) - 100.0);
    }
}

// ---- observability-layer properties (DESIGN.md §10) ----

use ccfit_engine::units::Cycle;
use ccfit_metrics::{CcEvent, CcEventKind, EventClass, EventConfig, EventLog};

fn fecn_ev(at: Cycle) -> CcEvent {
    CcEvent {
        at,
        kind: CcEventKind::FecnMark {
            sw: 0,
            port: 1,
            dst: 2,
            flow: 3,
        },
    }
}

proptest! {
    /// TimeSeries::merge is associative and commutative for
    /// integer-valued bins.
    #[test]
    fn series_merge_is_associative_and_commutative(
        series in prop::collection::vec(
            prop::collection::vec((0.0f64..1e5, 0u32..1000), 0..30),
            2..5,
        ),
    ) {
        let build = |adds: &[(f64, u32)]| {
            let mut s = TimeSeries::new(500.0);
            for &(t, v) in adds {
                s.add(t, f64::from(v));
            }
            s
        };
        let parts: Vec<TimeSeries> = series.iter().map(|a| build(a)).collect();

        // Left fold: ((a ∪ b) ∪ c) ∪ ...
        let mut left = parts[0].clone();
        for p in &parts[1..] {
            left.merge(p);
        }
        // Right fold: a ∪ (b ∪ (c ∪ ...))
        let mut right = parts[parts.len() - 1].clone();
        for p in parts[..parts.len() - 1].iter().rev() {
            let mut acc = p.clone();
            acc.merge(&right);
            right = acc;
        }
        // Reversed order (commutativity).
        let mut rev = parts[parts.len() - 1].clone();
        for p in parts[..parts.len() - 1].iter().rev() {
            rev.merge(p);
        }
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left.bins, &rev.bins);

        // And the merge conserves mass.
        let expect: f64 = parts.iter().map(|p| p.total()).sum();
        prop_assert_eq!(left.total(), expect);
    }

    /// Samples landing exactly on a multiple of `bin_ns` belong to the
    /// bin *starting* there — `[i·bin, (i+1)·bin)` — never the one
    /// ending there.
    #[test]
    fn series_bin_boundary_at_exact_multiples(
        i in 0usize..1000,
        bin_pow in 4u32..12,
    ) {
        let bin = f64::from(2u32.pow(bin_pow)); // exactly representable
        let s = TimeSeries::new(bin);
        let t = i as f64 * bin;
        prop_assert_eq!(s.bin_of(t), i);
        let mut s = s;
        s.add(t, 1.0);
        prop_assert_eq!(s.len(), i + 1, "boundary sample opens bin {}", i);
        prop_assert_eq!(s.bins[i], 1.0);
        if i > 0 {
            prop_assert_eq!(s.bins[i - 1], 0.0);
        }
        // Just below the boundary falls in the previous bin.
        let below = t - bin / 2.0;
        if i > 0 {
            prop_assert_eq!(s.bin_of(below), i - 1);
        }
    }

    /// The event log's drop accounting is exact for every (cap, load)
    /// with every class recorded: dropped_cap == seen − held, the log
    /// never holds more than its cap, and the survivors are precisely
    /// the newest `held` events in order.
    #[test]
    fn event_ring_cap_accounting_is_exact(
        cap in 0usize..40,
        offered in 0u64..200,
    ) {
        let mut log = EventLog::new(EventConfig { classes: EventClass::ALL, cap });
        for at in 0..offered {
            log.offer(fecn_ev(at));
        }
        let held = log.iter().count();
        prop_assert!(held <= cap);
        prop_assert_eq!(log.seen(), offered);
        prop_assert_eq!(log.dropped_cap(), offered - held as u64);
        let kept: Vec<Cycle> = log.iter().map(|e| e.at).collect();
        let expect: Vec<Cycle> =
            (offered.saturating_sub(cap as u64)..offered).collect();
        prop_assert_eq!(kept, expect, "oldest events are evicted first");
    }
}
