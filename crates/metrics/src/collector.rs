//! The live metrics collector driven by the simulator.

use crate::events::{CcEvent, CcEventKind, EventConfig, EventLog, SiteCounter};
use crate::faults::FaultSummary;
use crate::fct::{FctTracker, FlowGoal};
use crate::histogram::LatencyHistogram;
use crate::report::{FlowReport, SimReport};
use crate::series::TimeSeries;
use ccfit_engine::ids::FlowId;
use ccfit_engine::packet::Packet;
use ccfit_engine::units::{Cycle, UnitModel};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Declares [`HOT_COUNTERS`] and its inverse [`hot_slot`] from one list.
macro_rules! hot_counters {
    ($($slot:literal => $name:literal,)*) => {
        /// The fixed counter names: literal `count`s and the fixed names
        /// of [`CcEventKind::counters`]. They live in fixed slots instead
        /// of the name map: a congested run bumps `packets_isolated` and
        /// the wire-byte tallies hundreds of thousands of times, while the
        /// map holds over a thousand per-(switch, port, destination)
        /// names.
        const HOT_COUNTERS: [&str; [$($slot),*].len()] = [$($name),*];

        /// Slot of `name` in [`HOT_COUNTERS`]; a `match`, so a constant
        /// name resolves at compile time where [`MetricsCollector::count`]
        /// (or [`MetricsCollector::record`] of a known kind) is inlined.
        #[inline]
        fn hot_slot(name: &str) -> Option<usize> {
            match name {
                $($name => Some($slot),)*
                _ => None,
            }
        }
    };
}

hot_counters! {
    0 => "ack_generated",
    1 => "ack_received",
    2 => "allocs_propagated",
    3 => "becn_generated",
    4 => "becn_received",
    5 => "cfq_allocated",
    6 => "cfq_deallocated",
    7 => "cfq_exhausted",
    8 => "cnp_generated",
    9 => "cnp_received",
    10 => "congestion_detected",
    11 => "ctrl_wire_bytes_delivered",
    12 => "ctrl_wire_bytes_sent",
    13 => "dcqcn_throttled_injections",
    14 => "delivered_packets_total",
    15 => "ecn_marked",
    16 => "fecn_marked",
    17 => "gos_received",
    18 => "gos_sent",
    19 => "ia_cam_exhausted",
    20 => "ia_cfq_allocated",
    21 => "ia_cfq_deallocated",
    22 => "ia_cfq_exhausted",
    23 => "injected_packets",
    24 => "out_cam_exhausted",
    25 => "overhead_bytes_delivered",
    26 => "packets_isolated",
    27 => "payload_bytes_delivered",
    28 => "stops_received",
    29 => "stops_sent",
    30 => "throttled_injections",
    31 => "wire_bytes_delivered",
    32 => "wire_bytes_injected",
}

/// Collects per-flow and aggregate delivery statistics plus named event
/// counters during a run.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    units: UnitModel,
    bin_ns: f64,
    per_flow_bytes: BTreeMap<FlowId, TimeSeries>,
    total_bytes: TimeSeries,
    latency_sum_ns: TimeSeries,
    latency_count: TimeSeries,
    latency_hist: LatencyHistogram,
    /// [`HOT_COUNTERS`] by slot; `None` until first counted.
    hot: [Option<u64>; HOT_COUNTERS.len()],
    /// Every other counter; [`Self::finish`] merges `hot` into it.
    counters: BTreeMap<String, u64>,
    /// Reused buffer for the per-site counter names [`Self::record`]
    /// builds.
    key_buf: String,
    delivered_packets: u64,
    delivered_bytes: u64,
    faults: Option<FaultSummary>,
    events: Option<EventLog>,
    fct: Option<FctTracker>,
}

impl MetricsCollector {
    /// Create a collector sampling with the given bin width.
    pub fn new(units: UnitModel, bin_ns: f64) -> Self {
        Self {
            units,
            bin_ns,
            per_flow_bytes: BTreeMap::new(),
            total_bytes: TimeSeries::new(bin_ns),
            latency_sum_ns: TimeSeries::new(bin_ns),
            latency_count: TimeSeries::new(bin_ns),
            latency_hist: LatencyHistogram::new(),
            hot: [None; HOT_COUNTERS.len()],
            counters: BTreeMap::new(),
            key_buf: String::new(),
            delivered_packets: 0,
            delivered_bytes: 0,
            faults: None,
            events: None,
            fct: None,
        }
    }

    /// Track flow completion for the given sized-flow goals (set once
    /// before the run starts; runs without sized flows leave it unset
    /// so their reports carry a `null` FCT block). Completion is
    /// detected inside [`Self::record_delivery`].
    pub fn track_flows(&mut self, goals: Vec<FlowGoal>) {
        self.fct = Some(FctTracker::new(goals));
    }

    /// Turn on the structured CC event log (off by default). See
    /// [`crate::events`].
    pub fn enable_events(&mut self, cfg: EventConfig) {
        self.events = Some(EventLog::new(cfg));
    }

    /// Record one congestion-control occurrence at cycle `at`: bump the
    /// counters [`CcEventKind::counters`] names by its
    /// [`CcEventKind::weight`], then offer the event to
    /// the log, which keeps it when its class is enabled. With the log
    /// off that costs one branch beyond the counters.
    ///
    /// Always inlined: every site passes a known variant, so the match
    /// in `counters()` folds away and the site makes the same `count`
    /// calls a hand-written one would, with no match on the kind at run
    /// time.
    #[inline(always)]
    pub fn record(&mut self, at: Cycle, kind: CcEventKind) {
        let (names, site) = kind.counters();
        for name in names {
            self.count(name, kind.weight());
        }
        if let Some(site) = site {
            self.count_site(site);
        }
        if let Some(log) = &mut self.events {
            log.offer(CcEvent { at, kind });
        }
    }

    /// Bump a per-site counter, its name built in the reused buffer.
    fn count_site(&mut self, site: SiteCounter) {
        let mut key = std::mem::take(&mut self.key_buf);
        key.clear();
        write!(key, "{site}").expect("writing to a String cannot fail");
        self.count(&key, 1);
        self.key_buf = key;
    }

    /// The live event log, if enabled.
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// Attach fault-injection accounting (set once, at the end of a run
    /// with a fault schedule). Fault-free runs leave it unset so their
    /// reports stay byte-identical to pre-fault archives.
    pub fn set_faults(&mut self, summary: FaultSummary) {
        self.faults = Some(summary);
    }

    /// Record a data packet delivered to its destination at cycle `now`.
    /// BECNs and control traffic are not counted as throughput.
    pub fn record_delivery(&mut self, now: Cycle, pkt: &Packet) {
        if !pkt.is_data() {
            return;
        }
        let ns = self.units.cycles_to_ns(now);
        if let Some(t) = &mut self.fct {
            t.on_delivery(ns, pkt.flow, pkt.size_bytes as u64);
        }
        let bytes = pkt.size_bytes as f64;
        self.per_flow_bytes
            .entry(pkt.flow)
            .or_insert_with(|| TimeSeries::new(self.bin_ns))
            .add(ns, bytes);
        self.total_bytes.add(ns, bytes);
        let latency_ns = self.units.cycles_to_ns(now.saturating_sub(pkt.injected_at));
        self.latency_sum_ns.add(ns, latency_ns);
        self.latency_count.add(ns, 1.0);
        self.latency_hist.record(latency_ns);
        self.delivered_packets += 1;
        self.delivered_bytes += pkt.size_bytes as u64;
    }

    /// Increment a named counter: the ones [`Self::record`] derives from
    /// an event, and those no event stands behind (packets isolated,
    /// wire bytes, …).
    ///
    /// Hot: a congested run bumps the same few names hundreds of
    /// thousands of times. Those are [`HOT_COUNTERS`] slots; any other
    /// existing name is found in the map by `&str`, and only a new one
    /// allocates its key.
    #[inline]
    pub fn count(&mut self, name: &str, delta: u64) {
        if let Some(slot) = hot_slot(name) {
            *self.hot[slot].get_or_insert(0) += delta;
            return;
        }
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match hot_slot(name) {
            Some(slot) => self.hot[slot],
            None => self.counters.get(name).copied(),
        }
        .unwrap_or(0)
    }

    /// Total delivered data packets so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Total delivered payload bytes so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Freeze into a report.
    ///
    /// * `name` — run label,
    /// * `duration_ns` — simulated time (every series is padded to it),
    /// * `reception_capacity_bytes_per_ns` — aggregate rate at which the
    ///   end nodes could absorb traffic (Σ node-link bandwidths); the
    ///   normalization denominator for "network throughput",
    /// * `labels` — flow id → display label.
    pub fn finish(
        mut self,
        name: impl Into<String>,
        duration_ns: f64,
        reception_capacity_bytes_per_ns: f64,
        labels: &BTreeMap<FlowId, String>,
    ) -> SimReport {
        self.total_bytes.extend_to(duration_ns);
        self.latency_sum_ns.extend_to(duration_ns);
        self.latency_count.extend_to(duration_ns);
        for (name, value) in HOT_COUNTERS.iter().zip(self.hot) {
            if let Some(value) = value {
                self.counters.insert(name.to_string(), value);
            }
        }
        let flows = self
            .per_flow_bytes
            .into_iter()
            .map(|(id, mut series)| {
                series.extend_to(duration_ns);
                FlowReport {
                    id,
                    label: labels
                        .get(&id)
                        .cloned()
                        .unwrap_or_else(|| format!("flow{}", id.0)),
                    bytes: series,
                }
            })
            .collect();
        SimReport {
            name: name.into(),
            duration_ns,
            bin_ns: self.bin_ns,
            flows,
            total_bytes: self.total_bytes,
            latency_sum_ns: self.latency_sum_ns,
            latency_count: self.latency_count,
            latency_hist: self.latency_hist,
            reception_capacity_bytes_per_ns,
            counters: self.counters,
            delivered_packets: self.delivered_packets,
            delivered_bytes: self.delivered_bytes,
            simulated_cycles: self.units.ns_to_cycles(duration_ns),
            faults: self.faults,
            events: self.events.map(EventLog::into_report),
            fct: self.fct.map(FctTracker::into_report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfit_engine::ids::{NodeId, PacketId};

    fn pkt(flow: u32, bytes: u32, injected: Cycle) -> Packet {
        Packet::data(
            PacketId(0),
            NodeId(0),
            NodeId(1),
            bytes.div_ceil(64),
            bytes,
            FlowId(flow),
            injected,
        )
    }

    #[test]
    fn deliveries_accumulate_per_flow_and_total() {
        let mut c = MetricsCollector::new(UnitModel::default(), 1000.0);
        c.record_delivery(10, &pkt(0, 2048, 0));
        c.record_delivery(20, &pkt(1, 2048, 0));
        c.record_delivery(30, &pkt(0, 1024, 0));
        assert_eq!(c.delivered_packets(), 3);
        assert_eq!(c.delivered_bytes(), 2048 + 2048 + 1024);
        let r = c.finish("t", 2000.0, 1.0, &BTreeMap::new());
        assert_eq!(r.flows.len(), 2);
        let f0 = r.flows.iter().find(|f| f.id == FlowId(0)).unwrap();
        assert_eq!(f0.bytes.total(), 3072.0);
    }

    #[test]
    fn becns_are_not_throughput() {
        let mut c = MetricsCollector::new(UnitModel::default(), 1000.0);
        let b = Packet::becn(PacketId(1), NodeId(1), NodeId(0), 0);
        c.record_delivery(10, &b);
        assert_eq!(c.delivered_packets(), 0);
        assert_eq!(c.delivered_bytes(), 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = MetricsCollector::new(UnitModel::default(), 1000.0);
        c.count("fecn_marked", 3);
        c.count("fecn_marked", 2);
        assert_eq!(c.counter("fecn_marked"), 5);
        assert_eq!(c.counter("missing"), 0);
    }

    #[test]
    fn record_counts_always_and_logs_enabled_classes() {
        use crate::events::EventClass;
        let alloc = |root| CcEventKind::CfqAlloc {
            sw: 3,
            port: 1,
            dst: 7,
            root,
        };
        let mark = CcEventKind::FecnMark {
            sw: 3,
            port: 2,
            dst: 7,
            flow: 9,
        };

        // Recording off: the counters only, per-site names included.
        let mut off = MetricsCollector::new(UnitModel::default(), 1000.0);
        off.record(10, alloc(true));
        off.record(11, mark);
        off.record(12, mark);
        assert!(off.events().is_none());
        for (name, n) in [
            ("cfq_allocated", 1),
            ("congestion_detected", 1),
            ("detected_sw3_in1_dst7", 1),
            ("fecn_marked", 2),
            ("fecn_marked_sw3_out2_dst7", 2),
        ] {
            assert_eq!(off.counter(name), n, "{name}");
        }

        // A masked class still counts, but only enabled kinds are logged.
        let mut on = MetricsCollector::new(UnitModel::default(), 1000.0);
        on.enable_events(EventConfig {
            classes: EventClass::FECN,
            ..EventConfig::default()
        });
        on.record(20, alloc(false));
        assert_eq!(on.counter("cfq_allocated"), 1);
        assert_eq!(on.events().unwrap().seen(), 0);
        on.record(21, mark);
        let logged: Vec<CcEvent> = on.events().unwrap().iter().copied().collect();
        assert_eq!(logged, [CcEvent { at: 21, kind: mark }]);
        assert_eq!(on.counter("fecn_marked_sw3_out2_dst7"), 1);

        // A root allocation bumps three counters, a propagated one one.
        let counted = |kind: CcEventKind| {
            let mut c = MetricsCollector::new(UnitModel::default(), 1000.0);
            c.record(0, kind);
            c.finish("t", 1000.0, 1.0, &BTreeMap::new()).counters
        };
        assert_eq!(
            counted(alloc(true)).keys().collect::<Vec<_>>(),
            [
                "cfq_allocated",
                "congestion_detected",
                "detected_sw3_in1_dst7"
            ]
        );
        assert_eq!(
            counted(alloc(false)).keys().collect::<Vec<_>>(),
            ["cfq_allocated"]
        );
    }

    /// `count` as it was before the lookup-first rewrite:
    /// `entry(name.to_string())` on every call.
    fn entry_count(map: &mut BTreeMap<String, u64>, name: &str, delta: u64) {
        *map.entry(name.to_string()).or_insert(0) += delta;
    }

    #[test]
    fn lookup_first_count_builds_the_same_map_as_entry() {
        // New names, repeated names and a name that is a prefix of
        // another.
        let counts = [("b", 1), ("a", 2), ("b", 3), ("ab", 4), ("a", 0), ("b", 5)];
        let mut c = MetricsCollector::new(UnitModel::default(), 1000.0);
        let mut want_counters = BTreeMap::new();
        for (name, delta) in counts {
            c.count(name, delta);
            entry_count(&mut want_counters, name, delta);
        }
        assert_eq!(c.counters, want_counters);

        // Same report JSON as a collector fed the reference map.
        let mut reference = MetricsCollector::new(UnitModel::default(), 1000.0);
        reference.counters = want_counters;
        let labels = BTreeMap::new();
        assert_eq!(
            c.finish("t", 3000.0, 1.0, &labels).to_json(),
            reference.finish("t", 3000.0, 1.0, &labels).to_json()
        );
    }

    #[test]
    fn hot_counters_report_like_named_ones() {
        // Hot and map names interleaved, a zero delta (the key must still
        // appear) and a map name that extends a hot one.
        let counts = [
            ("cfq_exhausted", 2),
            ("fecn_marked_sw3_out1_dst7", 1),
            ("injected_packets", 0),
            ("cfq_exhausted", 5),
            ("cfq_exhausted_", 4),
            ("wire_bytes_injected", 9),
        ];
        let mut c = MetricsCollector::new(UnitModel::default(), 1000.0);
        let mut reference = MetricsCollector::new(UnitModel::default(), 1000.0);
        for (name, delta) in counts {
            c.count(name, delta);
            entry_count(&mut reference.counters, name, delta);
        }
        assert_eq!(c.counter("cfq_exhausted"), 7);
        assert_eq!(c.counter("cfq_exhausted_"), 4);
        assert_eq!(c.counter("stops_sent"), 0);
        for (slot, &name) in HOT_COUNTERS.iter().enumerate() {
            assert_eq!(hot_slot(name), Some(slot), "{name} is numbered {slot}");
        }
        let labels = BTreeMap::new();
        let report = c.finish("t", 3000.0, 1.0, &labels);
        assert_eq!(report.counters.get("injected_packets"), Some(&0));
        assert_eq!(
            report.to_json(),
            reference.finish("t", 3000.0, 1.0, &labels).to_json()
        );
    }

    #[test]
    fn latency_is_binned_by_delivery_time() {
        let u = UnitModel::default();
        let mut c = MetricsCollector::new(u, 10_000.0);
        // Injected at cycle 0, delivered at cycle 100 -> latency 100
        // cycles = 2560 ns.
        c.record_delivery(100, &pkt(0, 2048, 0));
        let r = c.finish("t", 20_000.0, 1.0, &BTreeMap::new());
        let lat = r.mean_latency_ns_per_bin();
        assert!((lat[0] - 2560.0).abs() < 1.0);
        assert_eq!(lat[1], 0.0);
    }

    #[test]
    fn finish_pads_all_series_to_duration() {
        let mut c = MetricsCollector::new(UnitModel::default(), 1000.0);
        c.record_delivery(1, &pkt(0, 64, 0));
        let r = c.finish("t", 10_000.0, 1.0, &BTreeMap::new());
        assert_eq!(r.total_bytes.len(), 10);
        assert_eq!(r.flows[0].bytes.len(), 10);
    }

    #[test]
    fn labels_are_applied() {
        let mut c = MetricsCollector::new(UnitModel::default(), 1000.0);
        c.record_delivery(1, &pkt(5, 64, 0));
        let mut labels = BTreeMap::new();
        labels.insert(FlowId(5), "F5".to_string());
        let r = c.finish("t", 1000.0, 1.0, &labels);
        assert_eq!(r.flows[0].label, "F5");
    }
}
