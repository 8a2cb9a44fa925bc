//! End-to-end flow-workload tests: sized flows run to completion, the
//! FCT block is populated and internally consistent, and the ideal-FCT
//! lower bound (measured FCT ≥ ideal ⇔ slowdown ≥ 1) holds across
//! workload shapes, mechanisms and seeds.

use ccfit::{ConfigId, Mechanism, SimConfig, Workload};
use ccfit_metrics::{FctReport, SimReport};
use ccfit_traffic::{all_to_all, incast, mpi_phase_bursts, parse_trace, permutation_shift};
use proptest::prelude::*;

/// Host configuration for workloads: the 2-ary 3-tree (8 nodes). The
/// uniform load parameter is irrelevant — the workload replaces the
/// pattern — but must be a valid rate for resolve().
fn host(duration_ns: f64) -> ConfigId {
    ConfigId::UniformTree {
        ary: 2,
        levels: 3,
        load: 1.0,
        duration_ns,
    }
}

fn run(workload: &Workload, mech: Mechanism, duration_ns: f64) -> SimReport {
    let spec = host(duration_ns).resolve().with_workload(workload);
    let cfg = SimConfig {
        metrics_bin_ns: 20_000.0,
        ..SimConfig::default()
    };
    spec.run_with(mech, 7, cfg)
}

/// The FCT block's internal consistency: every completed flow delivered
/// all its bytes, FCT ≥ ideal, slowdown ≥ 1, and the aggregates are
/// finite and ordered.
fn assert_fct_consistent(fct: &FctReport) {
    assert_eq!(fct.completed + fct.incomplete, fct.flows.len());
    for f in &fct.flows {
        assert!(f.ideal_ns > 0.0, "{}: ideal must be positive", f.label);
        match (f.completion_ns, f.fct_ns, f.slowdown) {
            (Some(c), Some(fct_ns), Some(s)) => {
                assert!(fct_ns.is_finite() && c.is_finite() && s.is_finite());
                assert_eq!(f.delivered_bytes, f.bytes, "{}", f.label);
                assert!(
                    fct_ns >= f.ideal_ns,
                    "{}: measured FCT {fct_ns} ns < ideal {} ns",
                    f.label,
                    f.ideal_ns
                );
                assert!(s >= 1.0, "{}: slowdown {s} < 1", f.label);
                assert!((s - fct_ns / f.ideal_ns).abs() < 1e-12);
            }
            (None, None, None) => assert!(f.delivered_bytes < f.bytes),
            other => panic!("{}: inconsistent completion triple {other:?}", f.label),
        }
    }
    for v in [
        fct.avg_fct_ns,
        fct.p50_fct_ns,
        fct.p99_fct_ns,
        fct.p999_fct_ns,
        fct.avg_slowdown,
        fct.max_slowdown,
    ] {
        assert!(v.is_finite() && v >= 0.0);
    }
    assert!(fct.p50_fct_ns <= fct.p99_fct_ns);
    assert!(fct.p99_fct_ns <= fct.p999_fct_ns);
}

/// Every registered mechanism runs the incast to completion and fills
/// the FCT block with finite, positive aggregates.
#[test]
fn incast_completes_with_populated_fct_block() {
    for mech in Mechanism::all() {
        let name = mech.name();
        let r = run(&incast(4, 65_536), mech.clone(), 600_000.0);
        let fct = r.fct.as_ref().expect("sized workload produces FCT block");
        assert_eq!(fct.flows.len(), 4, "{name}");
        assert_eq!(
            fct.completed, 4,
            "{name}: all incast senders finish: {fct:?}"
        );
        assert_fct_consistent(fct);
        let aggregates = [
            fct.avg_fct_ns,
            fct.p50_fct_ns,
            fct.p99_fct_ns,
            fct.p999_fct_ns,
            fct.avg_slowdown,
        ];
        assert!(aggregates.iter().all(|&v| v > 0.0), "{name}: {fct:?}");
        // Fan-in of 4 through one reception link: nobody finishes at ideal
        // (the ideal assumes an uncontended path).
        assert!(fct.avg_slowdown > 1.5, "{name}: got {}", fct.avg_slowdown);
        // Per-flow report series carry the sized flows too.
        assert_eq!(r.flows.len(), 4, "{name}");
        assert!(r.flows.iter().all(|f| f.label.starts_with('S')), "{name}");
    }
}

#[test]
fn all_to_all_and_permutation_complete() {
    for (w, n_flows) in [
        (all_to_all(8_192), 56),
        (permutation_shift(3, 32_768), 8),
        (mpi_phase_bursts(2, 16_384, 100_000.0), 16),
    ] {
        let r = run(&w, Mechanism::ccfit(), 1_500_000.0);
        let fct = r
            .fct
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no FCT", w.name()));
        assert_eq!(fct.flows.len(), n_flows, "{}", w.name());
        assert_eq!(fct.completed, n_flows, "{}: {fct:?}", w.name());
        assert_fct_consistent(fct);
    }
}

#[test]
fn trace_file_workload_runs_end_to_end() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../traces/incast4.trace"
    ))
    .expect("checked-in trace file");
    let flows = parse_trace(&text).expect("checked-in trace parses");
    let w = Workload::Trace { flows };
    let r = run(&w, Mechanism::ccfit(), 600_000.0);
    let fct = r.fct.as_ref().unwrap();
    assert_eq!(fct.completed, fct.flows.len());
    assert_fct_consistent(fct);
}

#[test]
fn rate_only_runs_have_a_null_fct_block() {
    let spec = host(200_000.0).resolve();
    let r = spec.run_with(Mechanism::ccfit(), 7, SimConfig::default());
    assert!(r.fct.is_none());
    assert!(r.to_json().contains("\"fct\": null"));
}

#[test]
fn fct_block_survives_report_json_roundtrip() {
    let r = run(&incast(2, 16_384), Mechanism::ccfit(), 300_000.0);
    let back: SimReport = serde_json::from_str(&r.to_json()).unwrap();
    assert_eq!(r, back);
    assert!(back.fct.is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The ideal-FCT lower bound holds for arbitrary incast shapes,
    /// mechanisms and seeds — not just the hand-picked cases above.
    #[test]
    fn measured_fct_never_beats_ideal(
        senders in 1usize..7,
        kib in 1u64..64,
        mech_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mechs = [Mechanism::ccfit(), Mechanism::dcqcn(), Mechanism::hpcc()];
        let spec = host(2_000_000.0)
            .resolve()
            .with_workload(&incast(senders, kib * 1024));
        let r = spec.run_with(mechs[mech_idx].clone(), seed, SimConfig::default());
        let fct = r.fct.as_ref().expect("FCT block present");
        assert_fct_consistent(fct);
        prop_assert_eq!(fct.completed, senders, "{:?}", fct);
    }
}
