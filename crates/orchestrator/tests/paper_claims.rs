//! The paper's claims (§IV; the "Paper claim" rows of EXPERIMENTS.md),
//! asserted on the committed matrices: each test runs a
//! `matrices/*.toml` as `ccfit-sweep run` does (the same specs and cache
//! keys, without the cache) and measures in the windows and flow roles
//! its report prints.
//!
//! `slow_*` tests run the Config #3 storms (6–17 s each in release) and
//! are ignored in tier-1; CI runs them with `cargo test --release -p
//! ccfit-orchestrator --test paper_claims -- --ignored slow_`.
//! `deviation_*` tests assert the paper's wording where this
//! reproduction measures otherwise: each fails, and is ignored with the
//! measured deviation as its reason.

use std::collections::BTreeMap;
use std::sync::Mutex;

use ccfit::engine::ids::FlowId;
use ccfit::{ConfigId, ExperimentSpec};
use ccfit_metrics::SimReport;
use ccfit_orchestrator::report::{windows, FlowRoles};
use ccfit_orchestrator::{run_matrix, Cache, ExperimentMatrix, RunOutcome, RunnerOptions};

/// One configuration of a matrix and its runs, in matrix order.
struct Panel {
    experiment: ExperimentSpec,
    runs: Vec<RunOutcome>,
}

/// A matrix name and the mechanisms whose runs are kept.
type Key = (&'static str, &'static [&'static str]);

/// The panels of the committed matrix `name` with only the runs of
/// `mechanisms` (all when empty), run once however many claims read it.
fn committed(name: &'static str, mechanisms: &'static [&str]) -> &'static [Panel] {
    static RUNS: Mutex<BTreeMap<Key, &[Panel]>> = Mutex::new(BTreeMap::new());
    let mut runs = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    (runs.entry((name, mechanisms))).or_insert_with(|| run(name, mechanisms).leak())
}

fn run(name: &str, mechanisms: &[&str]) -> Vec<Panel> {
    let path = format!("{}/../../matrices/{name}.toml", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).unwrap();
    let mut specs = ExperimentMatrix::from_toml_str(&text).unwrap().resolve();
    specs.retain(|s| mechanisms.is_empty() || mechanisms.contains(&s.mechanism.name()));
    let opts = RunnerOptions {
        cache: Cache::disabled(),
        ..RunnerOptions::default()
    };
    let outputs = run_matrix(&specs, &opts).unwrap().outputs;
    let configs = outputs.chunk_by(|a, b| a.spec.config == b.spec.config);
    let panel = |runs: &[RunOutcome]| (runs[0].spec.config.resolve(), runs.to_vec());
    let panels = configs.map(panel);
    panels
        .map(|(experiment, runs)| Panel { experiment, runs })
        .collect()
}

/// Panel `i` of the committed matrix `name`, every run.
fn panel(name: &'static str, i: usize) -> &'static Panel {
    &committed(name, &[])[i]
}

/// The throughput of 1Q, ITh, FBICM and CCFIT in the window `window` of
/// panel `i` of the committed matrix `name`.
fn thr(name: &'static str, i: usize, window: &str) -> [f64; 4] {
    MECHS.map(|m| panel(name, i).thr(m, window))
}

impl Panel {
    /// The reports of `mech`'s runs, in matrix order.
    fn all<'a>(&'a self, mech: &'a str) -> impl Iterator<Item = &'a SimReport> {
        let of_mech = move |r: &&RunOutcome| r.spec.mechanism.name() == mech;
        self.runs.iter().filter(of_mech).map(|r| &r.report)
    }

    /// The report of `mech`'s one run.
    fn run<'a>(&'a self, mech: &'a str) -> &'a SimReport {
        let mut runs = self.all(mech);
        let run = runs.next().expect("a run of the mechanism");
        assert!(runs.next().is_none(), "{mech} runs more than once");
        run
    }

    /// The report's window `name`, or its first when `name` is empty.
    fn window(&self, name: &str) -> (f64, f64) {
        let all = windows(&self.runs[0].spec.config, self.experiment.duration_ns);
        let (_, from, to) = *all.iter().find(|w| w.0 == name).unwrap_or(&all[0]);
        (from, to)
    }

    fn roles(&self) -> FlowRoles<'_> {
        FlowRoles::of(&self.experiment.pattern)
    }

    /// `mech`'s mean normalized throughput over `(from, to)`.
    fn mean(&self, mech: &str, (from, to): (f64, f64)) -> f64 {
        self.run(mech).mean_normalized_throughput(from, to)
    }

    /// `mech`'s mean normalized throughput in the report's window `name`.
    fn thr(&self, mech: &str, name: &str) -> f64 {
        self.mean(mech, self.window(name))
    }

    /// What the scorecard reads of run `r` in the first window: the
    /// victim's GB/s, each hot flow's GB/s (by flow id) and their Jain
    /// index.
    fn flows(&self, r: &SimReport) -> (f64, Vec<f64>, f64) {
        let (roles, (from, to)) = (self.roles(), self.window(""));
        let hot: Vec<FlowId> = roles.hot.iter().map(|f| f.id).collect();
        let bw = |id| r.flow_mean_bandwidth_gbps(id, from, to);
        let victim = roles.victim.map_or(f64::NAN, |v| bw(v.id));
        let jain = r.jain_over(&hot, from, to);
        (victim, hot.into_iter().map(bw).collect(), jain)
    }
}

const MECHS: [&str; 4] = ["1Q", "ITh", "FBICM", "CCFIT"];

fn min(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

fn max(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// Fig. 7a's [4, 6] ms: from F2's activation to F5's and F6's.
fn fig7a_frame(p: &Panel) -> (f64, f64) {
    let mut starts: Vec<f64> = p.roles().hot.iter().map(|f| f.start_ns).collect();
    starts.dedup();
    (starts[1], starts[2])
}

/// Fig. 7a: "the three CC techniques show similar results"; 1Q
/// struggles as soon as congestion is introduced.
#[test]
fn fig7a_cc_techniques_track_each_other_and_1q_struggles() {
    let [oneq, cc @ ..] = thr("fig7", 0, "steady");
    assert!(min(cc) > 0.85 * max(cc) && min(cc) > 1.3 * oneq, "{cc:?}");
}

/// Fig. 7a: "ITh experiences a drop in performance in the [4 ms, 6 ms]
/// time frame"; FBICM does not.
#[test]
fn fig7a_ith_dips_in_the_4_to_6_ms_frame() {
    let p = panel("fig7", 0);
    let (from, to) = fig7a_frame(p);
    let low = |m| {
        let r = p.run(m);
        let bins = r.total_bytes.bin_of(from)..r.total_bytes.bin_of(to);
        min(r.network_throughput_normalized()[bins].iter().copied())
    };
    let (ith, fbicm) = (low("ITh"), low("FBICM"));
    assert!(ith < fbicm - 0.05, "{ith} vs {fbicm}");
}

/// Fig. 7a: 1Q collapses further when F5 and F6 join at 6 ms.
#[test]
fn fig7a_1q_collapses_when_f5_and_f6_join() {
    let p = panel("fig7", 0);
    let (before, after) = (p.mean("1Q", fig7a_frame(p)), p.thr("1Q", "steady"));
    assert!(after < before - 0.03, "{before} -> {after}");
}

/// Fig. 7b: all five flows converge on node 7, whose link (0.125
/// normalized) bounds every mechanism: "similar results".
#[test]
fn fig7b_the_hot_link_bounds_every_mechanism() {
    let thr = thr("fig7", 1, "steady");
    assert!(min(thr) >= 0.1 && max(thr) <= 0.126, "{thr:?}");
}

/// Fig. 7c: "ITh operating too slow as it takes time for the throughput
/// to reach the level of the others".
#[test]
fn fig7c_ith_takes_time_to_reach_the_others() {
    let p = panel("fig7", 2);
    let early = (0.0, p.roles().onset_ns.unwrap());
    let (ith, fbicm) = (p.mean("ITh", early), p.mean("FBICM", early));
    assert!(ith < fbicm - 0.03, "before the onset: {ith} vs {fbicm}");
    let [_, ith, fbicm, _] = thr("fig7", 2, "steady");
    assert!(ith > fbicm - 0.03, "steady: {ith} vs {fbicm}");
}

#[test]
#[ignore = "deviation: Fig. 7c steady window, CCFIT 0.415 < 1Q 0.428"]
fn deviation_fig7c_ccfit_beats_1q() {
    let [oneq, _, _, ccfit] = thr("fig7", 2, "steady");
    assert!(ccfit > oneq, "{ccfit} vs {oneq}");
}

/// Fig. 8: "VOQnet achieves the maximum performance" in every panel.
#[test]
#[ignore = "slow: the Config #3 storms"]
fn slow_fig8_voqnet_is_the_ceiling() {
    for (i, p) in committed("fig8", &[]).iter().enumerate() {
        assert!(max(thr("fig8", i, "burst")) < p.thr("VOQnet", "burst"));
    }
}

/// Fig. 8a: ITh "is not able to cope well with the situation".
#[test]
#[ignore = "slow: the Config #3 storms"]
fn slow_fig8a_ith_reacts_slowly() {
    let [_, ith, fbicm, ccfit] = thr("fig8", 0, "burst");
    assert!(ith < 0.6 * fbicm.min(ccfit), "{ith}");
}

/// Fig. 8b: "FBICM struggles as it has not enough resources … CCFIT
/// shows a significant throughput improvement", with either transport.
#[test]
#[ignore = "slow: the Config #3 storms"]
fn slow_fig8b_ccfit_beats_fbicm_when_cfqs_run_out() {
    assert!(panel("fig8", 1).run("FBICM").counters["cfq_exhausted"] > 0);
    let [_, _, fbicm, ccfit] = thr("fig8", 1, "burst");
    let oob = panel("fig8-out-of-band", 1).thr("CCFIT", "burst");
    assert!(ccfit.min(oob) > fbicm + 0.05, "{ccfit}, {oob} vs {fbicm}");
}

/// Fig. 8b: "ITh is in this scenario able to better cope".
#[test]
#[ignore = "slow: the Config #3 storms"]
fn slow_fig8b_ith_copes() {
    let [_, ith, fbicm, _] = thr("fig8", 1, "burst");
    assert!(ith > fbicm + 0.1, "{ith} vs {fbicm}");
}

/// Fig. 8c: "again CCFIT outperforms FBICM", with out-of-band BECNs.
#[test]
#[ignore = "slow: the Config #3 storms"]
fn slow_fig8c_out_of_band_ccfit_beats_fbicm() {
    let fbicm = panel("fig8", 2).thr("FBICM", "burst");
    let ccfit = panel("fig8-out-of-band", 2).thr("CCFIT", "burst");
    assert!(ccfit > fbicm, "{ccfit} vs {fbicm}");
}

/// Fig. 8: 1Q is the worst in every burst and, with one tree, the
/// slowest to recover.
#[test]
#[ignore = "slow: the Config #3 storms"]
fn slow_fig8_1q_is_worst_and_recovers_slowly() {
    for (i, window) in [(0, "burst"), (1, "burst"), (2, "burst"), (0, "recovery")] {
        let [oneq, others @ ..] = thr("fig8", i, window);
        assert!(oneq < min(others), "{i} {window}: {oneq} vs {others:?}");
    }
}

#[test]
#[ignore = "deviation: Fig. 8a burst window, CCFIT 0.589 well above FBICM 0.517"]
fn deviation_fig8a_ccfit_at_the_level_of_fbicm() {
    let [_, _, fbicm, ccfit] = thr("fig8", 0, "burst");
    assert!((ccfit - fbicm).abs() < 0.03, "{ccfit} vs {fbicm}");
}

#[test]
#[ignore = "deviation: Fig. 8c in-band burst window, CCFIT 0.676 < FBICM 0.691"]
fn deviation_fig8c_in_band_ccfit_beats_fbicm() {
    let [_, _, fbicm, ccfit] = thr("fig8", 2, "burst");
    assert!(ccfit > fbicm, "{ccfit} vs {fbicm}");
}

/// Fig. 8a at a tenth of the time scale (`cc-shootout-storm.toml`): 1Q
/// the worst, FBICM and CCFIT level, VOQnet the ceiling.
#[test]
fn fig8a_compressed_orders_1q_below_isolation_below_voqnet() {
    const READ: [&str; 4] = ["1Q", "FBICM", "CCFIT", "VOQnet"];
    let p = &committed("cc-shootout-storm", &READ)[0];
    let [oneq, fbicm, ccfit, voqnet] = READ.map(|m| p.thr(m, "burst"));
    assert!(oneq + 0.2 < fbicm.min(ccfit), "{oneq} vs {fbicm}, {ccfit}");
    assert!((ccfit - fbicm).abs() < 0.03, "{ccfit} vs {fbicm}");
    assert!(fbicm.max(ccfit) + 0.1 < voqnet, "{voqnet}");
}

/// `mech`'s [`Panel::flows`] in Fig. 9.
fn fig9(mech: &str) -> (f64, Vec<f64>, f64) {
    let p = panel("fig9", 0);
    p.flows(p.run(mech))
}

/// Fig. 9, 1Q: the victim is HoL-blocked, and the parking lot gives F5
/// and F6 1/3 of the hot link, F1 and F2 1/6.
#[test]
fn fig9_1q_hol_blocks_the_victim_and_shows_the_parking_lot() {
    let (victim, hot, _) = fig9("1Q");
    let mut shares = hot.iter().zip([6.0, 6.0, 3.0, 3.0]);
    let parking_lot = shares.all(|(bw, n)| (bw - 2.5 / n).abs() < 0.05);
    assert!(victim < 1.0 && parking_lot, "{victim} {hot:?}");
}

/// Fig. 9, ITh: the victim improves and the parking lot is solved.
#[test]
fn fig9_ith_recovers_the_victim_and_solves_the_parking_lot() {
    let ((victim, _, jain), oneq) = (fig9("ITh"), fig9("1Q").0);
    assert!(victim > oneq + 1.5 && jain > 0.98, "{victim} {jain}");
}

/// Fig. 9, FBICM: the victim improves "even beyond ITh", but "the
/// parking lot problem prevails".
#[test]
fn fig9_fbicm_runs_the_victim_at_line_rate_but_keeps_the_parking_lot() {
    let (victim, hot, jain) = fig9("FBICM");
    assert!(victim > 2.45 && victim >= fig9("ITh").0, "{victim}");
    assert!(hot[2].min(hot[3]) > 1.6 * hot[0].max(hot[1]) && jain < 0.92);
}

/// Fig. 9, CCFIT: the victim is protected and the contributors share.
#[test]
fn fig9_ccfit_protects_the_victim_and_is_fair() {
    let (victim, _, jain) = fig9("CCFIT");
    assert!(victim > 2.4 && jain > 0.98, "{victim} {jain}");
}

/// The hot-link total (GB/s) and Jain index of each of [`MECHS`] in
/// Fig. 10.
fn fig10() -> [(f64, f64); 4] {
    let p = panel("fig10", 0);
    MECHS
        .map(|m| p.flows(p.run(m)))
        .map(|(_, hot, jain)| (hot.iter().sum(), jain))
}

/// Fig. 10: 1Q's HoL blocking and parking lot make it unfair.
#[test]
fn fig10_1q_is_unfair() {
    assert!(fig10()[0].1 < 0.7, "{:?}", fig10()[0]);
}

/// Fig. 10: ITh improves fairness.
#[test]
fn fig10_ith_is_fair() {
    assert!(fig10()[1].1 > 0.98, "{:?}", fig10()[1]);
}

/// Fig. 10: FBICM has the best raw throughput, but "the unfairness in
/// the network is dominant".
#[test]
fn fig10_fbicm_saturates_the_hot_link_but_is_unfair() {
    let [.., (total, jain), _] = fig10();
    let best = max(fig10().map(|m| m.0));
    assert!(
        total > 2.45 && total >= best && jain < 0.7,
        "{total} {jain}"
    );
}

/// Fig. 10: CCFIT has "the highest degree of fairness": far above 1Q
/// and FBICM, level with ITh.
#[test]
fn fig10_ccfit_is_fair() {
    let [oneq, ith, fbicm, ccfit] = fig10().map(|m| m.1);
    assert!(ccfit > oneq.max(fbicm) + 0.2 && ccfit > ith - 0.03);
}

#[test]
#[ignore = "deviation: Fig. 10 hot-link total, CCFIT 2.06 vs FBICM 2.50 GB/s"]
fn deviation_fig10_ccfit_has_the_best_throughput() {
    let totals = fig10().map(|m| m.0);
    assert!(totals[3] > max(totals) - 0.05, "{totals:?}");
}

/// §IV-B: "CCFIT is not as sensitive to the parameters": over
/// `Marking_Rate` 0.1–1.0 the ITh victim collapses, CCFIT's does not.
#[test]
fn ablate_marking_ccfit_is_less_sensitive_than_ith() {
    let p = panel("ablate-marking", 0);
    let victim = |m| min(p.all(m).map(|r| p.flows(r).0));
    assert!(victim("ITh") < 1.0 && victim("CCFIT") > 2.3);
}

/// The victim's, the hot flows' and the Jain index of each CCFIT run of
/// `ablate-timer`, by CCTI_Timer 2, 4, 8, 16, 32 µs.
fn ablate_timer() -> Vec<(f64, Vec<f64>, f64)> {
    let p = panel("ablate-timer", 0);
    p.all("CCFIT").map(|r| p.flows(r)).collect()
}

/// §II, CCTI_Timer: CCFIT is fair from 4 µs up, and a slower timer
/// idles more of the hot link.
#[test]
fn ablate_timer_ccfit_is_fair_from_4_us() {
    let runs = ablate_timer().split_off(1);
    let totals: Vec<f64> = runs.iter().map(|r| r.1.iter().sum()).collect();
    assert!(runs.iter().all(|r| r.2 > 0.96), "{runs:?}");
    assert!(totals.windows(2).all(|w| w[1] < w[0]), "{totals:?}");
}

#[test]
#[ignore = "deviation: in-band CCTI_Timer = 2 us, Jain 0.899"]
fn deviation_ablate_timer_2_us_is_fair() {
    assert!(ablate_timer()[0].2 > 0.96, "{:?}", ablate_timer()[0]);
}

/// Each of `mech`'s runs' burst throughput, in matrix order.
fn bursts(p: &Panel, mech: &str) -> Vec<f64> {
    let (from, to) = p.window("burst");
    p.all(mech)
        .map(|r| r.mean_normalized_throughput(from, to))
        .collect()
}

/// §III-E: isolation alone needs about one CFQ per tree (n = 1, 2, 4,
/// 8); CCFIT does as well with one as with eight.
#[test]
#[ignore = "slow: the Config #3 storms"]
fn slow_ablate_cfqs_ccfit_needs_one_cfq() {
    let p = panel("ablate-cfqs", 0);
    let (fbicm, ccfit) = (bursts(p, "FBICM"), bursts(p, "CCFIT"));
    assert!(max(ccfit.clone()) - min(ccfit.clone()) < 0.03, "{ccfit:?}");
    assert!(ccfit[0] > fbicm[0] + 0.15 && fbicm[2] > fbicm[0] + 0.2);
}

/// §III-E, detection "not too early, not too late": CCFIT is flat over
/// 4–24 MTUs and loses throughput to allocation churn at 2.
#[test]
#[ignore = "slow: the Config #3 storms"]
fn slow_ablate_detect_ccfit_is_flat_around_the_default() {
    let p = panel("ablate-detect", 0);
    let thr = bursts(p, "CCFIT");
    let rest = || thr[1..].iter().copied();
    assert!(max(rest()) - min(rest()) < 0.02 && thr[0] < min(rest()) - 0.02);
    let churn = |i| p.all("CCFIT").nth(i).unwrap().counters["cfq_allocated"];
    assert!(churn(0) > 2 * churn(2), "{} vs {}", churn(0), churn(2));
}

/// Below saturation no CC mechanism costs accepted throughput: at an
/// offered load of at most 0.6 every run's `tail` throughput is within
/// 0.01 of the load.
fn no_mechanism_costs_throughput_below_saturation(matrix: &'static str) {
    for p in committed(matrix, &[]) {
        let ConfigId::UniformTree { load, .. } = p.runs[0].spec.config else {
            panic!("{matrix} sweeps uniform trees")
        };
        let (from, to) = p.window("tail");
        let off = |r: &RunOutcome| (r.report.mean_normalized_throughput(from, to) - load).abs();
        assert!(
            load > 0.6 || p.runs.iter().all(|r| off(r) <= 0.01),
            "{load}"
        );
    }
}

#[test]
fn sweep_tree_no_mechanism_costs_throughput_below_saturation() {
    no_mechanism_costs_throughput_below_saturation("sweep-tree");
}

#[test]
#[ignore = "slow: 72 runs on the 4-ary 3-tree"]
fn slow_sweep_config3_no_mechanism_costs_throughput_below_saturation() {
    no_mechanism_costs_throughput_below_saturation("sweep-config3");
}
