//! The paper's claims (§IV, §III-E) as one table of rows, asserted on the
//! committed matrices run as `ccfit-sweep run` does (same specs and cache
//! keys, no cache) in the windows and flow roles its report prints. A
//! `Holds` row's test fails when the paper's words stop holding on what it
//! measures; a `Deviation` row's once they hold. Tests under `slow_` run on
//! Config #3's 4-ary 3-tree and are ignored in tier-1; CI runs them, and
//! the check of EXPERIMENTS.md's claim tables, with `cargo test --release
//! -p ccfit-orchestrator --test paper_claims -- --ignored slow_`.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;
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

/// The panels of the committed matrix `name` with only the runs of
/// `mechanisms` (all when empty), run once however many claims read it.
fn committed(name: &'static str, mechanisms: &'static [&str]) -> &'static [Panel] {
    type Key = (&'static str, &'static [&'static str]);
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

/// The throughput of each of the mechanisms `m` in the window `w` of panel
/// `i` of the committed matrix `name`, labelled by mechanism.
fn thr<const N: usize>(name: &'static str, i: usize, w: &str, m: [&'static str; N]) -> Measured {
    vals(m, m.map(|m| panel(name, i).thr(m, w)))
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

/// `mech`'s lowest binned throughput in Fig. 7a's [4, 6] ms.
fn fig7a_low(mech: &str) -> f64 {
    let (p, r) = (panel("fig7", 0), panel("fig7", 0).run(mech));
    let (from, to) = fig7a_frame(p);
    let bins = r.total_bytes.bin_of(from)..r.total_bytes.bin_of(to);
    min(r.network_throughput_normalized()[bins].iter().copied())
}

/// `mech`'s [`Panel::flows`] in Fig. 9.
fn fig9(mech: &str) -> (f64, Vec<f64>, f64) {
    let p = panel("fig9", 0);
    p.flows(p.run(mech))
}

/// The hot-link total (GB/s) and Jain index of each of [`MECHS`] in
/// Fig. 10.
fn fig10() -> [(f64, f64); 4] {
    let p = panel("fig10", 0);
    MECHS
        .map(|m| p.flows(p.run(m)))
        .map(|(_, hot, jain)| (hot.iter().sum(), jain))
}

/// Each of `mech`'s runs' burst throughput, in matrix order.
fn bursts(p: &Panel, mech: &str) -> Vec<f64> {
    let (from, to) = p.window("burst");
    p.all(mech)
        .map(|r| r.mean_normalized_throughput(from, to))
        .collect()
}

/// The sweeps' one value: the largest gap between a run's `tail`
/// throughput and its offered load, over the loads of at most 0.6.
const GAP: &str = "largest gap at loads ≤ 0.6";

fn gap_below_saturation(matrix: &'static str) -> f64 {
    max(committed(matrix, &[]).iter().flat_map(|p| {
        let ConfigId::UniformTree { load, .. } = p.runs[0].spec.config else {
            panic!("{matrix} sweeps uniform trees")
        };
        let (from, to) = p.window("tail");
        let runs = if load <= 0.6 { &p.runs[..] } else { &[] };
        let gap =
            move |r: &RunOutcome| (r.report.mean_normalized_throughput(from, to) - load).abs();
        runs.iter().map(gap)
    }))
}

/// Whether the committed data bears the paper's words out or contradicts them.
#[derive(Clone, Copy)]
enum Status {
    Holds,
    Deviation,
}
use Status::*;

/// One claim row: the test that checks it, the EXPERIMENTS.md claim table
/// that lists it, the committed matrices it reads, the paper's words, its
/// status, the labelled values it reads off the runs and whether the
/// paper's words hold on them (the row's thresholds).
struct Claim {
    test: &'static str,
    panel: &'static str,
    matrix: &'static str,
    paper: &'static str,
    status: Status,
    measure: fn() -> Measured,
    holds: fn(&Measured) -> bool,
}

/// Labelled values, in the order a claim table lists them.
struct Measured(Vec<(&'static str, f64)>);

fn vals<const N: usize>(labels: [&'static str; N], v: impl IntoIterator<Item = f64>) -> Measured {
    let v = Measured(labels.into_iter().zip(v).collect());
    assert_eq!(v.0.len(), N, "a value per label");
    v
}

impl Measured {
    /// The values whose labels start with `prefix` (all for ""), in order.
    fn of<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = f64> + 'a {
        let labelled = move |(l, _): &&(&str, f64)| l.starts_with(prefix);
        self.0.iter().filter(labelled).map(|&(_, v)| v)
    }
}

impl Index<&str> for Measured {
    type Output = f64;

    fn index(&self, label: &str) -> &f64 {
        let i = self.0.iter().position(|(l, _)| *l == label);
        &self.0[i.unwrap_or_else(|| panic!("no value labelled {label}"))].1
    }
}

/// The values as a claim table's cell: counts whole, the rest to three
/// decimals.
impl fmt::Display for Measured {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cell = |&(label, v): &(&str, f64)| match v.fract() == 0.0 {
            true => format!("{label} = {v}"),
            false => format!("{label} = {v:.3}"),
        };
        f.write_str(&self.0.iter().map(cell).collect::<Vec<_>>().join(", "))
    }
}

/// Checks the row `test` against its status.
fn check(test: &str) {
    let row = CLAIMS
        .iter()
        .find(|c| c.test == test)
        .expect("a row per claim test");
    let v = (row.measure)();
    match (row.status, (row.holds)(&v)) {
        (Holds, false) => panic!("{test}: the claim fails: {v}"),
        (Deviation, true) => panic!("{test} now holds: make it a `Holds` row: {v}"),
        _ => {}
    }
}

/// The test that checks the row `test`: `slow` ignores it in tier-1, and
/// a module name before `test` puts it where CI's `slow_` filter finds it.
macro_rules! claim {
    ($(#[$attr:meta])* $test:ident) => {
        $(#[$attr])* #[test] fn $test() { check(stringify!($test)); }
    };
    (slow $test:ident) => { claim!(#[ignore = "slow: runs on Config #3's 4-ary 3-tree"] $test); };
    (slow $module:ident $test:ident) => { mod $module { use super::check; claim!(slow $test); } };
}

/// The claim rows, in the order EXPERIMENTS.md lists them, each led by
/// the test that checks it (and the words `claim!` takes before it).
macro_rules! claims {
    ($($([$($how:ident)+])? $test:ident: { $($field:tt)* },)*) => {
        const CLAIMS: &[Claim] = &[$(Claim { test: stringify!($test), $($field)* }),*];
        $(claim!($($($how)+)? $test);)*
    };
}

claims! {
    fig7a_cc_techniques_track_each_other_and_1q_struggles: { panel: "Fig. 7a", matrix: "fig7", status: Holds,
        paper: "The three CC techniques show similar results; 1Q struggles as soon as congestion is introduced",
        measure: || thr("fig7", 0, "steady", MECHS),
        holds: |v| { let cc = [v["ITh"], v["FBICM"], v["CCFIT"]]; min(cc) > 0.85 * max(cc) && min(cc) > 1.3 * v["1Q"] } },
    fig7a_ith_dips_in_the_4_to_6_ms_frame: { panel: "Fig. 7a", matrix: "fig7", status: Holds,
        paper: "\"ITh experiences a drop in performance in the [4 ms, 6 ms] time frame\"; FBICM does not",
        measure: || vals(["ITh low", "FBICM low"], [fig7a_low("ITh"), fig7a_low("FBICM")]),
        holds: |v| v["ITh low"] < v["FBICM low"] - 0.05 },
    fig7a_1q_collapses_when_f5_and_f6_join: { panel: "Fig. 7a", matrix: "fig7", status: Holds,
        paper: "1Q collapses further when F5 and F6 join at 6 ms",
        measure: || { let p = panel("fig7", 0); vals(["1Q [4, 6] ms", "1Q steady"], [p.mean("1Q", fig7a_frame(p)), p.thr("1Q", "steady")]) },
        holds: |v| v["1Q steady"] < v["1Q [4, 6] ms"] - 0.03 },
    fig7b_the_hot_link_bounds_every_mechanism: { panel: "Fig. 7b", matrix: "fig7", status: Holds,
        paper: "\"The three CC techniques all show similar results\": node 7's link (0.125 normalized) bounds every mechanism",
        measure: || thr("fig7", 1, "steady", MECHS), holds: |v| min(v.of("")) >= 0.1 && max(v.of("")) <= 0.126 },
    fig7c_ith_takes_time_to_reach_the_others: { panel: "Fig. 7c", matrix: "fig7", status: Holds,
        paper: "\"the tendency of ITh operating too slow as it takes time for the throughput to reach the level of the others\"",
        measure: || { let p = panel("fig7", 2); let early = (0.0, p.roles().onset_ns.unwrap());
            vals(["ITh early", "FBICM early", "ITh steady", "FBICM steady"],
                [p.mean("ITh", early), p.mean("FBICM", early), p.thr("ITh", "steady"), p.thr("FBICM", "steady")]) },
        holds: |v| v["ITh early"] < v["FBICM early"] - 0.03 && v["ITh steady"] > v["FBICM steady"] - 0.03 },
    deviation_fig7c_ccfit_beats_1q: { panel: "Fig. 7c", matrix: "fig7", status: Deviation,
        paper: "CCFIT, a CC technique, does not lose to 1Q",
        measure: || thr("fig7", 2, "steady", ["1Q", "CCFIT"]), holds: |v| v["CCFIT"] > v["1Q"] },
    [slow] slow_fig8_voqnet_is_the_ceiling: { panel: "Fig. 8", matrix: "fig8", status: Holds,
        paper: "\"VOQnet achieves the maximum performance\"",
        measure: || vals(["H=1 best other", "H=1 VOQnet", "H=4 best other", "H=4 VOQnet", "H=6 best other", "H=6 VOQnet"],
            [0, 1, 2].map(|i| [max(thr("fig8", i, "burst", MECHS).of("")), panel("fig8", i).thr("VOQnet", "burst")]).concat()),
        holds: |v| ["H=1", "H=4", "H=6"].iter().all(|h| v[&format!("{h} best other")] < v[&format!("{h} VOQnet")]) },
    [slow] slow_fig8a_ith_reacts_slowly: { panel: "Fig. 8", matrix: "fig8", status: Holds,
        paper: "Fig. 8a: ITh \"is not able to cope well with the situation … reacts slow\"",
        measure: || thr("fig8", 0, "burst", ["ITh", "FBICM", "CCFIT"]), holds: |v| v["ITh"] < 0.6 * v["FBICM"].min(v["CCFIT"]) },
    [slow slow_fig8a] deviation_fig8a_ccfit_at_the_level_of_fbicm: { panel: "Fig. 8", matrix: "fig8", status: Deviation,
        paper: "Fig. 8a: CCFIT \"at the level of FBICM\"",
        measure: || thr("fig8", 0, "burst", ["FBICM", "CCFIT"]), holds: |v| (v["CCFIT"] - v["FBICM"]).abs() < 0.03 },
    fig8a_compressed_orders_1q_below_isolation_below_voqnet: { panel: "Fig. 8", matrix: "cc-shootout-storm",
        status: Holds, paper: "Fig. 8a at a tenth of the time scale: 1Q the worst, FBICM and CCFIT level, VOQnet the ceiling",
        measure: || { const READ: [&str; 4] = ["1Q", "FBICM", "CCFIT", "VOQnet"];
            let p = &committed("cc-shootout-storm", &READ)[0]; vals(READ, READ.map(|m| p.thr(m, "burst"))) },
        holds: |v| v["1Q"] + 0.2 < v["FBICM"].min(v["CCFIT"]) && (v["CCFIT"] - v["FBICM"]).abs() < 0.03
            && v["FBICM"].max(v["CCFIT"]) + 0.1 < v["VOQnet"] },
    [slow] slow_fig8b_ccfit_beats_fbicm_when_cfqs_run_out: { panel: "Fig. 8", matrix: "fig8, fig8-out-of-band",
        status: Holds, paper: "Fig. 8b: \"FBICM struggles as it has not enough resources … HoL-blocking is happening in the \
            NFQs. CCFIT shows a significant throughput improvement with respect to FBICM\"",
        measure: || { let (p, oob) = (panel("fig8", 1), panel("fig8-out-of-band", 1));
            let exhausted = |m| p.run(m).counters["cfq_exhausted"] as f64;
            vals(["FBICM", "CCFIT", "CCFIT out-of-band", "FBICM cfq_exhausted", "CCFIT cfq_exhausted"],
                [p.thr("FBICM", "burst"), p.thr("CCFIT", "burst"), oob.thr("CCFIT", "burst"), exhausted("FBICM"), exhausted("CCFIT")]) },
        holds: |v| v["FBICM cfq_exhausted"] > 0.0 && v["CCFIT"].min(v["CCFIT out-of-band"]) > v["FBICM"] + 0.05 },
    [slow] slow_fig8b_ith_copes: { panel: "Fig. 8", matrix: "fig8", status: Holds,
        paper: "Fig. 8b: \"ITh is in this scenario able to better cope with the congestion\"",
        measure: || thr("fig8", 1, "burst", ["ITh", "FBICM"]), holds: |v| v["ITh"] > v["FBICM"] + 0.1 },
    [slow] slow_fig8c_out_of_band_ccfit_beats_fbicm: { panel: "Fig. 8", matrix: "fig8, fig8-out-of-band", status: Holds,
        paper: "Fig. 8c: better-balanced trees; \"again CCFIT outperforms FBICM\", with out-of-band BECNs",
        measure: || vals(["FBICM", "CCFIT out-of-band"],
            [panel("fig8", 2).thr("FBICM", "burst"), panel("fig8-out-of-band", 2).thr("CCFIT", "burst")]),
        holds: |v| v["CCFIT out-of-band"] > v["FBICM"] },
    [slow slow_fig8c] deviation_fig8c_in_band_ccfit_beats_fbicm: { panel: "Fig. 8", matrix: "fig8", status: Deviation,
        paper: "Fig. 8c: \"again CCFIT outperforms FBICM\", with in-band BECNs",
        measure: || thr("fig8", 2, "burst", ["FBICM", "CCFIT"]), holds: |v| v["CCFIT"] > v["FBICM"] },
    [slow] slow_fig8_1q_is_worst_and_recovers_slowly: { panel: "Fig. 8", matrix: "fig8", status: Holds,
        paper: "1Q is the worst in every burst and, with one tree, the slowest to recover",
        measure: || vals(["H=1 1Q", "H=1 next", "H=4 1Q", "H=4 next", "H=6 1Q", "H=6 next", "H=1 recovery 1Q", "H=1 recovery next"],
            [(0, "burst"), (1, "burst"), (2, "burst"), (0, "recovery")]
                .map(|(i, w)| { let v = thr("fig8", i, w, MECHS); [v["1Q"], min(v.of("").skip(1))] }).concat()),
        holds: |v| ["H=1", "H=4", "H=6", "H=1 recovery"].iter().all(|h| v[&format!("{h} 1Q")] < v[&format!("{h} next")]) },
    fig9_1q_hol_blocks_the_victim_and_shows_the_parking_lot: { panel: "Fig. 9", matrix: "fig9", status: Holds,
        paper: "1Q: the victim suffers HoL blocking *and* the contributors the parking lot (F5 and F6, sole users of their \
            inputs, get 1/3 of the hot link, F1 and F2 1/6)",
        measure: || { let (victim, hot, _) = fig9("1Q"); vals(["victim", "F1", "F2", "F5", "F6"], [victim].into_iter().chain(hot)) },
        holds: |v| v["victim"] < 1.0 && [("F1", 6.0), ("F2", 6.0), ("F5", 3.0), ("F6", 3.0)]
            .iter().all(|&(f, n)| (v[f] - 2.5 / n).abs() < 0.05) },
    fig9_ith_recovers_the_victim_and_solves_the_parking_lot: { panel: "Fig. 9", matrix: "fig9", status: Holds,
        paper: "ITh: the victim improves *and* the parking lot is solved per flow",
        measure: || { let (victim, _, jain) = fig9("ITh"); vals(["victim", "Jain", "1Q victim"], [victim, jain, fig9("1Q").0]) },
        holds: |v| v["victim"] > v["1Q victim"] + 1.5 && v["Jain"] > 0.98 },
    fig9_fbicm_runs_the_victim_at_line_rate_but_keeps_the_parking_lot: { panel: "Fig. 9", matrix: "fig9", status: Holds,
        paper: "FBICM: the victim improves \"even beyond ITh\", but \"the parking lot problem prevails … unfairness has increased\"",
        measure: || { let (victim, hot, jain) = fig9("FBICM"); let ith = fig9("ITh").0;
            vals(["victim", "ITh victim", "F1", "F2", "F5", "F6", "Jain"], [victim, ith].into_iter().chain(hot).chain([jain])) },
        holds: |v| v["victim"] > 2.45 && v["victim"] >= v["ITh victim"]
            && v["F5"].min(v["F6"]) > 1.6 * v["F1"].max(v["F2"]) && v["Jain"] < 0.92 },
    fig9_ccfit_protects_the_victim_and_is_fair: { panel: "Fig. 9", matrix: "fig9", status: Holds,
        paper: "CCFIT (the paper shows it in Fig. 10): the victim is protected and the contributors share",
        measure: || { let (victim, _, jain) = fig9("CCFIT"); vals(["victim", "Jain"], [victim, jain]) },
        holds: |v| v["victim"] > 2.4 && v["Jain"] > 0.98 },
    fig10_1q_is_unfair: { panel: "Fig. 10", matrix: "fig10", status: Holds,
        paper: "1Q: HoL blocking and the parking lot make it unfair",
        measure: || { let (total, jain) = fig10()[0]; vals(["total", "Jain"], [total, jain]) }, holds: |v| v["Jain"] < 0.7 },
    fig10_ith_is_fair: { panel: "Fig. 10", matrix: "fig10", status: Holds, paper: "ITh improves fairness",
        measure: || { let (total, jain) = fig10()[1]; vals(["total", "Jain"], [total, jain]) }, holds: |v| v["Jain"] > 0.98 },
    fig10_fbicm_saturates_the_hot_link_but_is_unfair: { panel: "Fig. 10", matrix: "fig10", status: Holds,
        paper: "FBICM: the best raw throughput, but \"the unfairness in the network is dominant\"",
        measure: || { let (total, jain) = fig10()[2]; vals(["total", "best total", "Jain"], [total, max(fig10().map(|m| m.0)), jain]) },
        holds: |v| v["total"] > 2.45 && v["total"] >= v["best total"] && v["Jain"] < 0.7 },
    fig10_ccfit_is_fair: { panel: "Fig. 10", matrix: "fig10", status: Holds,
        paper: "CCFIT: \"the highest degree of fairness\", far above 1Q and FBICM and level with ITh",
        measure: || vals(["1Q Jain", "ITh Jain", "FBICM Jain", "CCFIT Jain"], fig10().map(|m| m.1)),
        holds: |v| v["CCFIT Jain"] > v["1Q Jain"].max(v["FBICM Jain"]) + 0.2 && v["CCFIT Jain"] > v["ITh Jain"] - 0.03 },
    deviation_fig10_ccfit_has_the_best_throughput: { panel: "Fig. 10", matrix: "fig10", status: Deviation,
        paper: "CCFIT: \"the best throughput\"",
        measure: || vals(["CCFIT total", "best total"], [fig10()[3].0, max(fig10().map(|m| m.0))]),
        holds: |v| v["CCFIT total"] > v["best total"] - 0.05 },
    ablate_marking_ccfit_is_less_sensitive_than_ith: { panel: "Ablations", matrix: "ablate-marking", status: Holds,
        paper: "§IV-B: \"CCFIT is not as sensitive to the parameters\": over `Marking_Rate` 0.1–1.0 the ITh victim (GB/s) \
            collapses, CCFIT's does not",
        measure: || { let p = panel("ablate-marking", 0); let victims = |m| p.all(m).map(|r| p.flows(r).0);
            vals(["ITh 0.10", "ITh 0.25", "ITh 0.50", "ITh 0.85", "ITh 1.00", "CCFIT 0.10", "CCFIT 0.25", "CCFIT 0.50",
                "CCFIT 0.85", "CCFIT 1.00"], victims("ITh").chain(victims("CCFIT"))) },
        holds: |v| min(v.of("ITh")) < 1.0 && min(v.of("CCFIT")) > 2.3 },
    ablate_timer_ccfit_is_fair_from_4_us: { panel: "Ablations", matrix: "ablate-timer", status: Holds,
        paper: "§II, `CCTI_Timer`: CCFIT is fair from 4 µs up, and a slower timer idles more of the hot link (GB/s)",
        measure: || { let p = panel("ablate-timer", 0); let runs: Vec<_> = p.all("CCFIT").skip(1).map(|r| p.flows(r)).collect();
            vals(["Jain 4 µs", "Jain 8 µs", "Jain 16 µs", "Jain 32 µs", "total 4 µs", "total 8 µs", "total 16 µs", "total 32 µs"],
                runs.iter().map(|r| r.2).chain(runs.iter().map(|r| r.1.iter().sum()))) },
        holds: |v| v.of("Jain").all(|j| j > 0.96) && v.of("total").collect::<Vec<_>>().windows(2).all(|w| w[1] < w[0]) },
    deviation_ablate_timer_2_us_is_fair: { panel: "Ablations", matrix: "ablate-timer", status: Deviation,
        paper: "§II, `CCTI_Timer`: CCFIT is fair at 2 µs too (contributors in GB/s)",
        measure: || { let p = panel("ablate-timer", 0); let (_, hot, jain) = p.flows(p.all("CCFIT").next().unwrap());
            vals(["Jain", "total", "F1", "F2", "F5", "F6"], [jain, hot.iter().sum()].into_iter().chain(hot)) },
        holds: |v| v["Jain"] > 0.96 },
    [slow] slow_ablate_cfqs_ccfit_needs_one_cfq: { panel: "Ablations", matrix: "ablate-cfqs", status: Holds,
        paper: "§III-E: isolation alone needs about one CFQ per tree; CCFIT does as well with one CFQ as with eight (burst \
            throughput by CFQs per port)",
        measure: || { let p = panel("ablate-cfqs", 0); vals(["FBICM 1", "FBICM 2", "FBICM 4", "FBICM 8", "CCFIT 1", "CCFIT 2",
            "CCFIT 4", "CCFIT 8"], bursts(p, "FBICM").into_iter().chain(bursts(p, "CCFIT"))) },
        holds: |v| max(v.of("CCFIT")) - min(v.of("CCFIT")) < 0.03 && v["CCFIT 1"] > v["FBICM 1"] + 0.15
            && v["FBICM 4"] > v["FBICM 1"] + 0.2 },
    [slow] slow_ablate_detect_ccfit_is_flat_around_the_default: { panel: "Ablations", matrix: "ablate-detect",
        status: Holds, paper: "§III-E, detection \"not too early, not too late\": CCFIT's burst throughput is flat over 4–24 \
            MTUs and loses to allocation churn (`cfq_allocated`) at 2",
        measure: || { let p = panel("ablate-detect", 0); let churn = p.all("CCFIT").map(|r| r.counters["cfq_allocated"] as f64);
            vals(["2 MTUs", "4 MTUs", "8 MTUs", "16 MTUs", "24 MTUs", "allocated 2", "allocated 4", "allocated 8", "allocated 16",
                "allocated 24"], bursts(p, "CCFIT").into_iter().chain(churn)) },
        holds: |v| { let rest = [v["4 MTUs"], v["8 MTUs"], v["16 MTUs"], v["24 MTUs"]];
            max(rest) - min(rest) < 0.02 && v["2 MTUs"] < min(rest) - 0.02 && v["allocated 2"] > 2.0 * v["allocated 8"] } },
    sweep_tree_no_mechanism_costs_throughput_below_saturation: { panel: "Sweeps", matrix: "sweep-tree",
        status: Holds, paper: "Below saturation no CC mechanism costs accepted throughput",
        measure: || vals([GAP], [gap_below_saturation("sweep-tree")]), holds: |v| v[GAP] <= 0.01 },
    [slow] slow_sweep_config3_no_mechanism_costs_throughput_below_saturation: { panel: "Sweeps", matrix: "sweep-config3",
        status: Holds, paper: "Below saturation no CC mechanism costs accepted throughput",
        measure: || vals([GAP], [gap_below_saturation("sweep-config3")]), holds: |v| v[GAP] <= 0.01 },
}

/// EXPERIMENTS.md's claim tables: each block between `<!-- claims:
/// <panel> -->` and `<!-- /claims -->` lists the rows of its panel, as
/// rendered here. `UPDATE_SNAPSHOTS=1` rewrites the blocks.
#[test]
#[ignore = "slow: every claim row's matrices, Config #3's included"]
fn slow_experiments_md_claim_tables_match_the_rows() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let committed = std::fs::read_to_string(path).unwrap();
    let (mut text, mut rest, mut rows) = (String::new(), committed.as_str(), 0);
    while let Some((head, tail)) = rest.split_once("<!-- claims: ") {
        let (panel, tail) = tail.split_once(" -->\n").expect("a closed start marker");
        let (_, tail) = tail.split_once("<!-- /claims -->").expect("an end marker");
        text += &format!("{head}<!-- claims: {panel} -->\n");
        text += "| Paper claim | Matrix | Measured | Status | Test |\n|---|---|---|---|---|\n";
        for c in CLAIMS.iter().filter(|c| c.panel == panel) {
            let status = ["✓", "**deviation**"][c.status as usize];
            let (paper, matrix, measured, test) = (c.paper, c.matrix, (c.measure)(), c.test);
            text += &format!("| {paper} | `{matrix}` | {measured} | {status} | `{test}` |\n");
            rows += 1;
        }
        text += "<!-- /claims -->";
        rest = tail;
    }
    text += rest;
    assert_eq!(rows, CLAIMS.len(), "every row is in one claim table");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        return std::fs::write(path, text).unwrap();
    }
    let first_change = text.lines().zip(committed.lines()).find(|(a, c)| a != c);
    let stale = "EXPERIMENTS.md's claim tables are stale (UPDATE_SNAPSHOTS=1 rewrites them)";
    assert!(
        text == committed,
        "{stale}; first change (now, committed): {first_change:?}"
    );
}
