//! Frozen simulation reports.

use crate::events::EventLogReport;
use crate::fairness::jain_index;
use crate::faults::FaultSummary;
use crate::fct::FctReport;
use crate::histogram::LatencyHistogram;
use crate::series::TimeSeries;
use ccfit_engine::ids::FlowId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-flow delivered-bytes series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowReport {
    /// Flow id.
    pub id: FlowId,
    /// Display label from the traffic pattern (e.g. `"F0 (victim)"`).
    pub label: String,
    /// Delivered payload bytes per bin.
    pub bytes: TimeSeries,
}

/// The result of one simulation run: everything the figure harness and
/// the tests need, serializable for archiving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Run label (mechanism + scenario).
    pub name: String,
    /// Simulated duration in nanoseconds.
    pub duration_ns: f64,
    /// Sampling bin width in nanoseconds.
    pub bin_ns: f64,
    /// Per-flow series.
    pub flows: Vec<FlowReport>,
    /// Aggregate delivered payload bytes per bin.
    pub total_bytes: TimeSeries,
    /// Sum of packet latencies (ns) per bin.
    pub latency_sum_ns: TimeSeries,
    /// Packets delivered per bin.
    pub latency_count: TimeSeries,
    /// Whole-run latency distribution (log-bucketed).
    pub latency_hist: LatencyHistogram,
    /// Sampled gauge series (sum per bin; `<name>_samples` counts the
    /// samples per bin).
    pub gauges: BTreeMap<String, TimeSeries>,
    /// Aggregate reception capacity in bytes per nanosecond (Σ node-link
    /// bandwidths); normalization denominator for network throughput.
    pub reception_capacity_bytes_per_ns: f64,
    /// Named event counters from the congestion-control machinery.
    pub counters: BTreeMap<String, u64>,
    /// Total data packets delivered.
    pub delivered_packets: u64,
    /// Total payload bytes delivered.
    pub delivered_bytes: u64,
    /// Number of simulator cycles the run executed (deterministic — the
    /// benchmark divides it by measured wall time for cycles/sec;
    /// wall time itself lives outside the report so identical runs stay
    /// byte-identical).
    pub simulated_cycles: u64,
    /// Fault-injection accounting; `None` (serialized as `null`) when
    /// the run had no fault schedule.
    pub faults: Option<FaultSummary>,
    /// Structured CC event log; `None` (serialized as `null`) when the
    /// run did not enable event recording.
    pub events: Option<EventLogReport>,
    /// Flow-completion-time block; `None` (serialized as `null`) when
    /// the workload had no sized flows.
    pub fct: Option<FctReport>,
}

impl SimReport {
    /// Per-bin bandwidth of one flow in GB/s (`1 GB/s = 1 byte/ns`).
    pub fn flow_bandwidth_gbps(&self, id: FlowId) -> Option<Vec<f64>> {
        self.flows
            .iter()
            .find(|f| f.id == id)
            .map(|f| f.bytes.scaled(1.0 / self.bin_ns))
    }

    /// Mean bandwidth of one flow (GB/s) over a time window in ns.
    pub fn flow_mean_bandwidth_gbps(&self, id: FlowId, from_ns: f64, to_ns: f64) -> f64 {
        let Some(f) = self.flows.iter().find(|f| f.id == id) else {
            return 0.0;
        };
        let from = f.bytes.bin_of(from_ns);
        let to = f.bytes.bin_of(to_ns);
        f.bytes.mean_over(from, to) / self.bin_ns
    }

    /// Per-bin network throughput, normalized to the reception capacity
    /// (1.0 = every end node receiving at line rate). This is the y-axis
    /// of Figs. 7 and 8.
    pub fn network_throughput_normalized(&self) -> Vec<f64> {
        self.total_bytes
            .scaled(1.0 / (self.bin_ns * self.reception_capacity_bytes_per_ns))
    }

    /// Per-bin aggregate throughput in GB/s.
    pub fn network_throughput_gbps(&self) -> Vec<f64> {
        self.total_bytes.scaled(1.0 / self.bin_ns)
    }

    /// Mean normalized network throughput over a time window in ns.
    pub fn mean_normalized_throughput(&self, from_ns: f64, to_ns: f64) -> f64 {
        let from = self.total_bytes.bin_of(from_ns);
        let to = self.total_bytes.bin_of(to_ns);
        self.total_bytes.mean_over(from, to) / (self.bin_ns * self.reception_capacity_bytes_per_ns)
    }

    /// Mean packet latency per bin in ns (0 where nothing was delivered).
    pub fn mean_latency_ns_per_bin(&self) -> Vec<f64> {
        self.latency_sum_ns
            .bins
            .iter()
            .zip(&self.latency_count.bins)
            .map(|(&s, &c)| if c > 0.0 { s / c } else { 0.0 })
            .collect()
    }

    /// Per-bin mean of a sampled gauge (None if never sampled).
    pub fn gauge_mean_per_bin(&self, name: &str) -> Option<Vec<f64>> {
        let sums = self.gauges.get(name)?;
        let counts = self.gauges.get(&format!("{name}_samples"))?;
        Some(
            sums.bins
                .iter()
                .zip(&counts.bins)
                .map(|(&s, &c)| if c > 0.0 { s / c } else { 0.0 })
                .collect(),
        )
    }

    /// Latency percentile summary `(p50, p95, p99)` in ns.
    pub fn latency_percentiles_ns(&self) -> (f64, f64, f64) {
        (
            self.latency_hist.p50_ns(),
            self.latency_hist.p95_ns(),
            self.latency_hist.p99_ns(),
        )
    }

    /// Jain fairness index over the mean bandwidths of `flows` in the
    /// window `[from_ns, to_ns)` — the §IV-C fairness measure.
    pub fn jain_over(&self, flows: &[FlowId], from_ns: f64, to_ns: f64) -> f64 {
        let bws: Vec<f64> = flows
            .iter()
            .map(|&id| self.flow_mean_bandwidth_gbps(id, from_ns, to_ns))
            .collect();
        jain_index(&bws)
    }

    /// Post-fault recovery time in ns: how long after the last repair's
    /// re-routing completed (`FaultSummary::last_recovery_ns`) the
    /// network throughput needed to climb back to ≥ 90 % of its
    /// pre-fault baseline (mean normalized throughput over the bins
    /// before the first fault).
    ///
    /// Returns `None` when the run had no applied faults, when the
    /// fault fired too early for a baseline to exist, or when the run
    /// ended before throughput recovered (an unrecovered run — report
    /// it as such rather than as a number).
    pub fn fault_recovery_ns(&self) -> Option<f64> {
        let f = self.faults.as_ref()?;
        if !f.any_applied() {
            return None;
        }
        let nt = self.network_throughput_normalized();
        let fault_bin = self.total_bytes.bin_of(f.first_fault_ns);
        if fault_bin == 0 || nt.is_empty() {
            return None;
        }
        let baseline = nt[..fault_bin.min(nt.len())].iter().sum::<f64>() / fault_bin as f64;
        if baseline <= 0.0 {
            return Some(0.0);
        }
        let resume_bin = self.total_bytes.bin_of(f.last_recovery_ns).min(nt.len());
        for (i, &v) in nt.iter().enumerate().skip(resume_bin) {
            if v >= 0.9 * baseline {
                return Some((self.total_bytes.bin_center_ns(i) - f.last_recovery_ns).max(0.0));
            }
        }
        None
    }

    /// All flow ids present in the report.
    pub fn flow_ids(&self) -> Vec<FlowId> {
        self.flows.iter().map(|f| f.id).collect()
    }

    /// Serialize to pretty JSON (for archiving runs).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports always serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SimReport {
        let bin = 1000.0;
        let mut f0 = TimeSeries::new(bin);
        let mut f1 = TimeSeries::new(bin);
        let mut total = TimeSeries::new(bin);
        // Flow 0: 2500 B/bin (2.5 GB/s); flow 1: 1250 B/bin.
        for i in 0..10 {
            let t = i as f64 * bin;
            f0.add(t, 2500.0);
            f1.add(t, 1250.0);
            total.add(t, 3750.0);
        }
        SimReport {
            name: "sample".into(),
            duration_ns: 10_000.0,
            bin_ns: bin,
            flows: vec![
                FlowReport {
                    id: FlowId(0),
                    label: "F0".into(),
                    bytes: f0,
                },
                FlowReport {
                    id: FlowId(1),
                    label: "F1".into(),
                    bytes: f1,
                },
            ],
            total_bytes: total,
            latency_sum_ns: TimeSeries::new(bin),
            latency_count: TimeSeries::new(bin),
            latency_hist: LatencyHistogram::new(),
            gauges: BTreeMap::new(),
            reception_capacity_bytes_per_ns: 5.0, // two 2.5 GB/s sinks
            counters: BTreeMap::new(),
            delivered_packets: 20,
            delivered_bytes: 37_500,
            simulated_cycles: 2500,
            faults: None,
            events: None,
            fct: None,
        }
    }

    #[test]
    fn flow_bandwidth_is_bytes_over_bin() {
        let r = sample_report();
        let bw = r.flow_bandwidth_gbps(FlowId(0)).unwrap();
        assert!((bw[0] - 2.5).abs() < 1e-9);
        assert!(r.flow_bandwidth_gbps(FlowId(9)).is_none());
    }

    #[test]
    fn normalized_throughput_uses_reception_capacity() {
        let r = sample_report();
        let nt = r.network_throughput_normalized();
        // 3.75 GB/s of 5 GB/s capacity.
        assert!((nt[0] - 0.75).abs() < 1e-9);
        let g = r.network_throughput_gbps();
        assert!((g[0] - 3.75).abs() < 1e-9);
    }

    #[test]
    fn mean_bandwidth_over_window() {
        let r = sample_report();
        let m = r.flow_mean_bandwidth_gbps(FlowId(1), 2000.0, 8000.0);
        assert!((m - 1.25).abs() < 1e-9);
        assert_eq!(r.flow_mean_bandwidth_gbps(FlowId(7), 0.0, 1e4), 0.0);
    }

    #[test]
    fn jain_reflects_unequal_flows() {
        let r = sample_report();
        let j = r.jain_over(&[FlowId(0), FlowId(1)], 0.0, 10_000.0);
        // shares 2:1 -> J = 9/(2*5) = 0.9
        assert!((j - 0.9).abs() < 1e-9);
    }

    #[test]
    fn json_round_trip() {
        let r = sample_report();
        let j = r.to_json();
        let r2: SimReport = serde_json::from_str(&j).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn mean_normalized_throughput_window() {
        let r = sample_report();
        let m = r.mean_normalized_throughput(0.0, 10_000.0);
        assert!((m - 0.75).abs() < 1e-9);
    }

    #[test]
    fn fault_recovery_finds_first_recovered_bin() {
        let mut r = sample_report();
        // Fault at 3 µs, recovery (reroute done) at 5 µs. Crater the
        // delivery series between them and during the first post-repair
        // bin, so throughput regains the 90 % baseline in bin 6.
        for bin in 3..6 {
            r.total_bytes.bins[bin] = 100.0;
        }
        r.faults = Some(FaultSummary {
            events_applied: 2,
            first_fault_ns: 3_000.0,
            last_recovery_ns: 5_000.0,
            ..FaultSummary::default()
        });
        let rec = r.fault_recovery_ns().unwrap();
        // Bin 6 center = 6500 ns, recovery reference = 5000 ns.
        assert!((rec - 1_500.0).abs() < 1e-9);

        // No faults applied -> no recovery number.
        r.faults = Some(FaultSummary::default());
        assert_eq!(r.fault_recovery_ns(), None);
        r.faults = None;
        assert_eq!(r.fault_recovery_ns(), None);
    }

    #[test]
    fn event_log_round_trips_in_report_json() {
        use crate::events::{CcEvent, CcEventKind, EventClass};
        let mut r = sample_report();
        r.events = Some(EventLogReport {
            classes: EventClass::ALL.0,
            cap: 1024,
            seen: 2,
            dropped_cap: 0,
            events: vec![
                CcEvent {
                    at: 5,
                    kind: CcEventKind::FecnMark {
                        sw: 0,
                        port: 1,
                        dst: 2,
                        flow: 3,
                    },
                },
                CcEvent {
                    at: 9,
                    kind: CcEventKind::BecnReceived { node: 4, dst: 2 },
                },
            ],
        });
        let back: SimReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn fault_summary_round_trips_in_report_json() {
        let mut r2 = sample_report();
        r2.faults = Some(FaultSummary {
            events_applied: 3,
            packets_lost_wire: 11,
            node_unreachable_ns: 987.5,
            ..FaultSummary::default()
        });
        let back: SimReport = serde_json::from_str(&r2.to_json()).unwrap();
        assert_eq!(r2, back);
    }
}
