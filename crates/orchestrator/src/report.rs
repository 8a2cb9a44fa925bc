//! What `ccfit-sweep run` prints on stdout once a matrix has run. Per
//! configuration: a Table-I-style description of the network; the
//! normalized throughput per time bin, one column per run (Figs. 7, 8);
//! each run's per-flow bandwidth of the victim and the hot set (Figs. 9,
//! 10); a scorecard with one row per run. The windows come from the
//! configuration ([`windows`]) and the flow roles and congestion onset
//! from its traffic case ([`FlowRoles`]); no wall-clock time, so a warm
//! pass prints the same bytes as the cold one.

use std::collections::{BTreeMap, BTreeSet};

use ccfit::engine::ids::FlowId;
use ccfit::engine::units::{DEFAULT_REF_BANDWIDTH_BYTES_PER_S, MTU_BYTES};
use ccfit::traffic::{Destination, FlowSpec, TrafficPattern};
use ccfit::{ConfigId, ExperimentSpec, SimConfig, ISLIP_ITERATIONS};
use ccfit_metrics::SimReport;

use crate::matrix::mechanism_label;
use crate::runner::RunOutcome;
use crate::spec::RunSpec;

/// Render the report of a finished matrix (outcomes in matrix order).
pub fn render(outputs: &[RunOutcome]) -> String {
    let mut out = String::new();
    for runs in outputs.chunk_by(|a, b| a.spec.config == b.spec.config) {
        render_config(&mut out, runs);
    }
    out
}

fn render_config(out: &mut String, runs: &[RunOutcome]) {
    let spec = &runs[0].spec;
    let mut experiment = spec.config.resolve();
    if let Some(w) = &spec.workload {
        experiment = experiment.with_workload(w);
    }
    let roles = FlowRoles::of(&experiment.pattern);
    let windows = windows(&spec.config, experiment.duration_ns);
    let tags = tags(runs);
    out.push_str(&describe(&experiment, spec, &roles, &windows));
    out.push_str("\n-- normalized throughput --\n");
    let width = tags.iter().map(String::len).max().unwrap_or(0).max(8);
    let series = runs.iter().zip(&tags);
    let columns = series.map(|(r, tag)| (tag.clone(), r.report.network_throughput_normalized()));
    out.push_str(&time_table(&runs[0].report, columns.collect(), width));
    if !roles.hot.is_empty() {
        out.push_str("\n-- per-flow bandwidth, GB/s --\n");
        for (run, tag) in runs.iter().zip(&tags) {
            out.push_str(&flow_table(&run.report, tag, &roles));
        }
    }
    out.push_str("\n-- scorecard --\n");
    let rows: Vec<_> = (runs.iter().zip(&tags))
        .map(|(run, tag)| scorecard_row(run, tag, &roles, &windows))
        .collect();
    out.push_str(&aligned(&rows, 2));
    out.push('\n');
}

/// Table I's rows for one configuration, plus its BECN transport,
/// traffic roles, windows and fault schedule.
fn describe(
    experiment: &ExperimentSpec,
    spec: &RunSpec,
    roles: &FlowRoles,
    windows: &[(&str, f64, f64)],
) -> String {
    let (t, pattern) = (&experiment.topology, &experiment.pattern);
    let gbps_per_flit = DEFAULT_REF_BANDWIDTH_BYTES_PER_S / 1e9;
    let gbps = |flits: u32| format!("{} GB/s", f64::from(flits) * gbps_per_flit);
    let links: BTreeSet<u32> = (t.switch_ids())
        .flat_map(|sw| t.switch(sw).connected().map(move |p| (sw, p)))
        .filter_map(|(sw, p)| t.peer(sw, p).map(|(_, link)| link.bw_flits_per_cycle))
        .collect();
    let links: Vec<String> = links.into_iter().map(gbps).collect();
    let mut traffic = format!("{}: {} flows", pattern.name, pattern.flows.len());
    if !pattern.sized.is_empty() {
        traffic += &format!(", {} sized flows", pattern.sized.len());
    }
    if let Some(v) = roles.victim {
        traffic += &format!("; victim {}", v.label);
    }
    if let Some(Destination::Fixed(dst)) = roles.hot.first().map(|f| f.dst) {
        let hot: Vec<&str> = roles.hot.iter().map(|f| f.label.as_str()).collect();
        traffic += &format!("; hot set {} -> node {}", hot.join(" "), dst.0);
    }
    let windows: Vec<String> = (windows.iter())
        .map(|(name, a, b)| format!("{name} [{:.2}, {:.2}] ms", a / 1e6, b / 1e6))
        .collect();
    let workload = spec.workload.as_ref().map(|w| format!("+{}", w.name()));
    let cfg = SimConfig::default();
    let mut out = format!(
        "=== {}{} ===\n\
         # Nodes       {}\nTopology      {}\n# Switches    {}\nCrossbar BW   {}\n\
         Link BW       {}\nSwitching     Virtual Cut-Through\n\
         Scheduling    iSLIP, {} iterations\nPacket MTU    {} Bytes\n\
         Memory size   {} KBytes\nFlow control  Credit-based\nBECNs         {:?}\n\
         Traffic       {traffic}\nDuration      {:.2} ms\nWindows       {}\n",
        spec.config.label(),
        workload.unwrap_or_default(),
        t.num_nodes(),
        t.name(),
        t.num_switches(),
        gbps(experiment.crossbar_bw_flits_per_cycle),
        links.join(", "),
        ISLIP_ITERATIONS,
        MTU_BYTES,
        cfg.port_ram_bytes / 1024,
        spec.becn_transport,
        experiment.duration_ns / 1e6,
        windows.join(", "),
    );
    if let Some(faults) = &spec.faults {
        out += &format!("Faults        {:?}\n", faults.events());
    }
    out
}

/// Who is who in a traffic case. The victim is the fixed-destination
/// flow with no end; the hot set is the flows converging on the
/// most-targeted destination (ties go to the lowest node), by flow id.
/// The hot set's flows other than the victim (Fig. 10's victim is one
/// of its five) time the congestion: it sets in when the first of them
/// starts and is over when the last of them ends, if all of them do.
pub struct FlowRoles<'a> {
    /// The fixed-destination flow that never ends, if any.
    pub victim: Option<&'a FlowSpec>,
    /// The flows converging on the most-targeted destination, by id.
    pub hot: Vec<&'a FlowSpec>,
    /// When the congestion sets in.
    pub onset_ns: Option<f64>,
    /// When the congestion is over: the end of the last of its flows,
    /// if every one of them ends.
    pub burst_end_ns: Option<f64>,
}

impl<'a> FlowRoles<'a> {
    /// The roles of `pattern`'s flows.
    pub fn of(pattern: &'a TrafficPattern) -> Self {
        let dst = |f: &FlowSpec| match f.dst {
            Destination::Fixed(d) => Some(d.0),
            Destination::Uniform => None,
        };
        let mut fan_in: BTreeMap<u32, usize> = BTreeMap::new();
        for d in pattern.flows.iter().filter_map(dst) {
            *fan_in.entry(d).or_default() += 1;
        }
        // `max_by_key` keeps the last maximum: walk the nodes downwards
        // so that a tie goes to the lowest.
        let hot_dst = fan_in.iter().rev().max_by_key(|(_, n)| **n).map(|m| *m.0);
        let mut hot: Vec<&FlowSpec> = (pattern.flows.iter())
            .filter(|f| hot_dst.is_some() && dst(f) == hot_dst)
            .collect();
        hot.sort_by_key(|f| f.id);
        let victim = (pattern.flows.iter()).find(|f| dst(f).is_some() && f.end_ns.is_none());
        let burst = || (hot.iter()).filter(|f| victim.is_none_or(|v| v.id != f.id));
        let onset_ns = burst().map(|f| f.start_ns).reduce(f64::min);
        let ends: Option<Vec<f64>> = burst().map(|f| f.end_ns).collect();
        let burst_end_ns = ends.and_then(|ends| ends.into_iter().reduce(f64::max));
        FlowRoles {
            victim,
            hot,
            onset_ns,
            burst_end_ns,
        }
    }
}

/// The measurement windows `(name, from_ns, to_ns)` of a configuration;
/// the victim and the hot set are measured in the first.
///
/// * Cases #1–#3: the steady window, [6.5, 10] ms at full scale.
/// * Case #4: the burst [1.1, 2.0] ms and the recovery [2.1, 4.0] ms,
///   scaled with the schedule (and cut at the end of the run).
/// * Uniform load: everything after the first third of the run.
pub fn windows(config: &ConfigId, duration_ns: f64) -> Vec<(&'static str, f64, f64)> {
    match *config {
        ConfigId::Config1Case1 { .. }
        | ConfigId::Config2Case2 { .. }
        | ConfigId::Config2Case3 { .. } => vec![("steady", 0.65 * duration_ns, duration_ns)],
        ConfigId::Config3Case4 { scale, .. } => vec![
            ("burst", 1.1e6 * scale, 2.0e6 * scale),
            ("recovery", 2.1e6 * scale, (4.0e6 * scale).min(duration_ns)),
        ],
        ConfigId::UniformTree { .. } => {
            vec![("tail", duration_ns / 3.0, duration_ns)]
        }
    }
}

/// Column tag of each run: its mechanism's name, suffixed with the
/// run's position (`.1`, `.2`, …) when a name repeats within the
/// configuration (parameter or seed variants the scorecard spells out).
fn tags(runs: &[RunOutcome]) -> Vec<String> {
    let names: Vec<&str> = runs.iter().map(|r| r.spec.mechanism.name()).collect();
    if (1..names.len()).all(|i| !names[..i].contains(&names[i])) {
        return names.iter().map(|n| n.to_string()).collect();
    }
    (names.iter().enumerate())
        .map(|(i, n)| format!("{n}.{}", i + 1))
        .collect()
}

/// One row per time bin (the partial last bin dropped rather than
/// plotted as a dip), one `width`-wide column per series.
fn time_table(report: &SimReport, columns: Vec<(String, Vec<f64>)>, width: usize) -> String {
    let mut out = String::from("time_ms");
    for (label, _) in &columns {
        out.push_str(&format!(" {label:>width$}"));
    }
    out.push('\n');
    let bins = columns.iter().map(|c| c.1.len()).max().unwrap_or(0);
    for b in 0..bins.saturating_sub(1) {
        let t = report.total_bytes.bin_center_ns(b) / 1e6;
        out.push_str(&format!("{t:7.2}"));
        for (_, s) in &columns {
            let v = s.get(b).copied().unwrap_or(0.0);
            out.push_str(&format!(" {v:>width$.3}"));
        }
        out.push('\n');
    }
    out
}

/// Per-flow bandwidth (GB/s) per time bin of one run: the victim and
/// the hot set, by flow id.
fn flow_table(report: &SimReport, tag: &str, roles: &FlowRoles) -> String {
    let columns = (report.flows.iter())
        .filter(|f| roles.victim.iter().chain(&roles.hot).any(|r| r.id == f.id))
        .map(|f| (f.label.clone(), f.bytes.scaled(1.0 / report.bin_ns)))
        .collect();
    format!("== {tag} ==\n{}", time_table(report, columns, 12))
}

/// Mean of the per-bin mean packet latency over the bins that overlap
/// `[from_ns, to_ns]` and delivered anything. Unlike a rate, a per-packet
/// mean is not diluted by the partial bin a run ends in, so the bin
/// holding `to_ns` counts.
fn windowed_latency_ns(report: &SimReport, from_ns: f64, to_ns: f64) -> f64 {
    let per_bin = report.mean_latency_ns_per_bin();
    let bin = |ns: f64| report.latency_count.bin_of(ns).min(per_bin.len());
    let (a, b) = (bin(from_ns), (bin(to_ns) + 1).min(per_bin.len()));
    let busy: Vec<f64> = per_bin[a..b.max(a)]
        .iter()
        .copied()
        .filter(|&v| v > 0.0)
        .collect();
    busy.iter().sum::<f64>() / busy.len().max(1) as f64
}

/// Victim recovery time: scanning from `from_ns`, find the first bin
/// where `series` drops below 90 % of its `[0, baseline_to_ns)` mean
/// (the congestion impact), then the first point after it where the
/// series sustains ≥ 90 % of baseline for three consecutive bins.
/// Returns ns from the dip to the recovery; `Some(0)` when the victim
/// was never impacted, `None` when it never recovered before the run
/// ended.
fn recovery_ns(series: &[f64], bin_ns: f64, baseline_to_ns: f64, from_ns: f64) -> Option<f64> {
    let base_bins = ((baseline_to_ns / bin_ns) as usize)
        .min(series.len())
        .max(1);
    let baseline = series[..base_bins].iter().sum::<f64>() / base_bins as f64;
    if baseline <= 0.0 {
        return Some(0.0);
    }
    let target = 0.9 * baseline;
    let start = (from_ns / bin_ns) as usize;
    // The final bin is partial (it undercounts bytes) — keep it out of
    // both the dip scan and the recovery scan.
    let usable = series.len().saturating_sub(1);
    let Some(dip) = (start..usable).find(|&i| series[i] < target) else {
        return Some(0.0); // never impacted
    };
    let dip_ns = dip as f64 * bin_ns;
    let mut run = 0usize;
    for (i, &v) in series.iter().enumerate().take(usable).skip(dip) {
        run = if v >= target { run + 1 } else { 0 };
        if run == 3 {
            let first = i + 1 - run;
            let center = (first as f64 + 0.5) * bin_ns;
            return Some((center - dip_ns).max(0.0));
        }
    }
    None
}

/// The `victim_recovery_ns` cell: [`recovery_ns`] against the baseline
/// `[0, onset)` — of the victim's bandwidth from the onset, or, with no
/// victim, of network throughput from the end of a burst that ends
/// before the run does. `None` (no column) when neither applies.
fn victim_recovery(r: &SimReport, roles: &FlowRoles) -> Option<String> {
    let onset = roles.onset_ns?;
    let (series, from) = match roles.victim {
        Some(v) => (r.flow_bandwidth_gbps(v.id)?, onset),
        None => {
            let end = roles.burst_end_ns.filter(|&end| end < r.duration_ns)?;
            (r.network_throughput_normalized(), end)
        }
    };
    let ns = recovery_ns(&series, r.bin_ns, onset, from);
    Some(ns.map_or("never".to_string(), |ns| format!("{ns:.0}")))
}

/// A run's scorecard cells `(header, value)`: throughput and mean
/// latency per window, the whole-run latency distribution, the victim
/// and the hot set in the first window, the victim's recovery from the
/// congestion ([`victim_recovery`]), the isolation and marking
/// counters, and the fault ledger / FCT block when the run has them.
fn scorecard_row(
    run: &RunOutcome,
    tag: &str,
    roles: &FlowRoles,
    windows: &[(&str, f64, f64)],
) -> Vec<(String, String)> {
    let r = &run.report;
    let mut cells: Vec<(String, String)> = Vec::new();
    let mut put = |header: &str, value: String| cells.push((header.to_string(), value));
    put("run", tag.to_string());
    put("mechanism", mechanism_label(&run.spec.mechanism));
    put("seed", run.spec.seed.to_string());
    for &(name, a, b) in windows {
        let thr = r.mean_normalized_throughput(a, b);
        let lat = windowed_latency_ns(r, a, b);
        put(&format!("{name}_thr"), format!("{thr:.3}"));
        put(&format!("{name}_lat_ns"), format!("{lat:.0}"));
    }
    let (p50, p95, p99) = r.latency_percentiles_ns();
    let percentiles = [p50, p95, p99, r.latency_hist.max_ns()];
    let headers = ["p50_us", "p95_us", "p99_us", "max_us"];
    for (header, ns) in headers.into_iter().zip(percentiles) {
        put(header, format!("{:.1}", ns / 1e3));
    }
    let (_, from, to) = windows[0];
    if let Some(v) = roles.victim {
        let bw = r.flow_mean_bandwidth_gbps(v.id, from, to);
        put("victim_gbps", format!("{bw:.2}"));
    }
    if !roles.hot.is_empty() {
        let hot: Vec<FlowId> = roles.hot.iter().map(|f| f.id).collect();
        let bws: Vec<f64> = (hot.iter())
            .map(|&id| r.flow_mean_bandwidth_gbps(id, from, to))
            .collect();
        for (f, bw) in roles.hot.iter().zip(&bws) {
            put(&f.label, format!("{bw:.2}"));
        }
        put("hot_total", format!("{:.2}", bws.iter().sum::<f64>()));
        put("jain", format!("{:.3}", r.jain_over(&hot, from, to)));
    }
    if let Some(cell) = victim_recovery(r, roles) {
        put("victim_recovery_ns", cell);
    }
    for counter in ["cfq_allocated", "cfq_exhausted", "fecn_marked"] {
        let n = r.counters.get(counter).copied().unwrap_or(0);
        put(counter, n.to_string());
    }
    put("packets", r.delivered_packets.to_string());
    if let Some(f) = &r.faults {
        put("lost", f.packets_lost().to_string());
        put("wire", f.packets_lost_wire.to_string());
        put("purged", f.packets_purged.to_string());
        put("refused", f.packets_refused.to_string());
        put("ctrl_lost", f.ctrl_lost.to_string());
        put("unreachable_ns", format!("{:.0}", f.node_unreachable_ns));
        put("stale_ns", format!("{:.0}", f.stale_route_ns));
        put("reroutes", f.reroutes.to_string());
        let recovery = r.fault_recovery_ns().map(|ns| format!("{ns:.0}"));
        put("recovery_ns", recovery.unwrap_or_else(|| "n/a".to_string()));
    }
    if let Some(fct) = &r.fct {
        put("fct_done", format!("{}/{}", fct.completed, fct.flows.len()));
        put("fct_avg_ns", format!("{:.0}", fct.avg_fct_ns));
        put("fct_p99_ns", format!("{:.0}", fct.p99_fct_ns));
        put("slowdown", format!("{:.2}", fct.avg_slowdown));
    }
    cells
}

/// Lay out rows of `(header, cell)` pairs as a table under one header
/// line: the first `text` columns left-aligned, the rest (numbers)
/// right-aligned.
fn aligned(rows: &[Vec<(String, String)>], text: usize) -> String {
    let header = rows[0].iter().map(|c| &c.0);
    let lines: Vec<Vec<&String>> = std::iter::once(header.collect())
        .chain(rows.iter().map(|r| r.iter().map(|c| &c.1).collect()))
        .collect();
    let mut widths = vec![0; lines[0].len()];
    for line in &lines {
        for (w, cell) in widths.iter_mut().zip(line) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for line in lines {
        let cells: Vec<String> = (line.into_iter().zip(&widths).enumerate())
            .map(|(c, (cell, &w))| match c < text {
                true => format!("{cell:<w$}"),
                false => format!("{cell:>w$}"),
            })
            .collect();
        out.push_str(cells.join("  ").trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_matrix, Cache, RunnerOptions};
    use ccfit::traffic::{case1, case2, case4, uniform_all};
    use ccfit::Mechanism;

    fn sample_runs() -> Vec<RunOutcome> {
        let config = ConfigId::Config1Case1 { scale: 0.02 };
        let specs: Vec<RunSpec> = [Mechanism::OneQ, Mechanism::ccfit()]
            .map(|m| RunSpec::new(config.clone(), m, 3, 100_000.0))
            .to_vec();
        let opts = RunnerOptions {
            cache: Cache::disabled(),
            ..RunnerOptions::default()
        };
        run_matrix(&specs, &opts).unwrap().outputs
    }

    /// The lines of `report` from the one after `header` to a blank line.
    fn section<'a>(report: &'a str, header: &str) -> Vec<&'a str> {
        let body = report.split(header).nth(1).unwrap();
        body.lines().skip(1).take_while(|l| !l.is_empty()).collect()
    }

    #[test]
    fn series_table_has_header_and_aligned_rows() {
        let report = render(&sample_runs());
        let table = section(&report, "-- normalized throughput --");
        assert_eq!(table[0], "time_ms       1Q    CCFIT");
        for line in &table[1..] {
            assert_eq!(line.split_whitespace().count(), 3, "{line}");
        }
    }

    #[test]
    fn flow_table_lists_requested_flows() {
        let runs = sample_runs();
        let t = flow_table(&runs[1].report, "CCFIT", &FlowRoles::of(&case1(10.0)));
        let labels = ["F0 (victim)", "F1", "F2", "F5", "F6"].map(|l| format!(" {l:>12}"));
        let header = format!("== CCFIT ==\ntime_ms{}\n", labels.concat());
        assert!(t.starts_with(&header), "{t}");
    }

    #[test]
    fn scorecard_has_one_row_per_run_with_the_windowed_mean() {
        let runs = sample_runs();
        let report = render(&runs);
        let rows = section(&report, "-- scorecard --");
        assert_eq!(rows.len(), 1 + runs.len(), "header + one row per run");
        let cells = |row: &str| row.split_whitespace().take(4).collect::<Vec<_>>().join(" ");
        assert_eq!(cells(rows[0]), "run mechanism seed steady_thr");
        // The steady window of a 0.2 ms run: [0.13, 0.2] ms.
        let mean = runs[0].report.mean_normalized_throughput(1.3e5, 2e5);
        assert_eq!(cells(rows[1]), format!("1Q 1Q 3 {mean:.3}"));
        assert_eq!(render(&runs), report, "the report is deterministic");
    }

    #[test]
    fn describes_the_network_from_its_topology() {
        let report = render(&sample_runs());
        for row in [
            "=== config1/case1@0.02 ===",
            "# Nodes       7",
            "# Switches    2",
            "Link BW       2.5 GB/s, 5 GB/s",
            "Traffic       case1: 5 flows; victim F0 (victim); hot set F1 F2 F5 F6 -> node 4",
            "Windows       steady [0.13, 0.20] ms",
        ] {
            assert!(report.lines().any(|l| l == row), "no {row:?} in\n{report}");
        }
    }

    #[test]
    fn flow_roles_follow_the_traffic_case() {
        let ids = |p: &TrafficPattern| {
            let roles = FlowRoles::of(p);
            let hot = roles.hot.iter().map(|f| f.id.0).collect::<Vec<_>>();
            (roles.victim.map(|f| f.id.0), hot)
        };
        let times = |p: &TrafficPattern| {
            let roles = FlowRoles::of(p);
            (roles.onset_ns, roles.burst_end_ns)
        };
        let ms = |t: f64| Some(t * 1e6);
        assert_eq!(ids(&case1(10.0)), (Some(0), vec![1, 2, 5, 6]), "Fig. 9");
        assert_eq!(times(&case1(10.0)), (ms(2.0), ms(10.0)));
        // The victim F1 is one of Fig. 10's five; F0 starts the congestion.
        assert_eq!(ids(&case2(10.0)), (Some(1), vec![0, 1, 2, 3, 4]), "Fig. 10");
        assert_eq!(times(&case2(10.0)), (ms(2.0), ms(10.0)));
        // Case #4's bursts end; six trees tie at three sources each and
        // the lowest destination (node 1) wins.
        assert_eq!(ids(&case4(64, 6)), (None, vec![3, 27, 51]));
        assert_eq!(times(&case4(64, 6)), (ms(1.0), ms(2.0)));
        assert_eq!(ids(&uniform_all(8, 0.5)), (None, vec![]));
        assert_eq!(times(&uniform_all(8, 0.5)), (None, None));
    }

    #[test]
    fn recovery_is_dip_to_the_first_of_three_recovered_bins() {
        // 10 ns bins, baseline [0, 20) ns = 1.0, scanned from 20 ns.
        let scan = |series: &[f64]| recovery_ns(series, 10.0, 20.0, 20.0);
        assert_eq!(scan(&[1.0; 6]), Some(0.0), "never dips");
        // Dip at bin 2 (20 ns); bins 4–6 recover, bin 4's centre is 45 ns.
        let dip = [1.0, 1.0, 0.5, 0.5, 0.95, 1.0, 0.9, 0.2];
        assert_eq!(scan(&dip), Some(25.0));
        // Two recovered bins, then only the partial last one: never.
        assert_eq!(scan(&[1.0, 1.0, 0.5, 1.0, 1.0, 1.0]), None);
        // A dip only in the partial last bin is not a dip.
        assert_eq!(scan(&[1.0, 1.0, 1.0, 1.0, 0.2]), Some(0.0));
    }
}
