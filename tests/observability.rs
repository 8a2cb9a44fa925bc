//! Cross-validation of the CC observability layer (DESIGN.md §10).
//!
//! The event log, the packet traces and the aggregate `SimReport` are
//! three independent recordings of the same run. These tests recompute
//! the aggregates *from the event log* (and from the traces) and demand
//! exact agreement — so a bug that drops, duplicates or mistimes events
//! cannot hide behind a plausible-looking summary, and vice versa.

use ccfit::experiment::config1_case1_scaled;
use ccfit::metrics::export::{chrome_trace_json, events_csv, events_jsonl};
use ccfit::metrics::{SimReport, TimeSeries};
use ccfit::trace::PacketTrace;
use ccfit::{
    CcEvent, CcEventKind, EventClass, EventConfig, Mechanism, SimBuilder, SimConfig, Simulator,
};
use ccfit_engine::units::UnitModel;
use std::collections::BTreeMap;

/// Run CCFIT on the scaled Config #1 / Case #1 scenario to the end,
/// with every observability channel wide open or with none, returning
/// the simulator and the unit model used for conversions.
fn run(observed: bool) -> (Simulator, UnitModel) {
    let spec = config1_case1_scaled(0.02);
    let mut cfg = SimConfig {
        metrics_bin_ns: 20_000.0,
        ..SimConfig::default()
    };
    cfg.duration_ns = spec.duration_ns;
    cfg.crossbar_bw_flits_per_cycle = spec.crossbar_bw_flits_per_cycle;
    let units = cfg.units;
    let mut builder = SimBuilder::new(spec.topology.clone())
        .routing(spec.routing.clone())
        .mechanism(Mechanism::ccfit())
        .traffic(spec.pattern.clone())
        .config(cfg)
        .seed(7);
    if observed {
        builder = builder
            .events(EventConfig {
                classes: EventClass::ALL,
                sample_every: 1,
                cap: 1 << 22,
            })
            .trace_sample_every(1)
            .port_telemetry(true);
    }
    let mut sim = builder.build();
    sim.run_to_end();
    (sim, units)
}

/// The fully observed run: the frozen report, the owned packet traces
/// and the unit model.
fn instrumented_run() -> (SimReport, Vec<PacketTrace>, UnitModel) {
    let (sim, units) = run(true);
    let traces: Vec<PacketTrace> = sim.traces().into_iter().cloned().collect();
    (sim.finish(), traces, units)
}

fn count_kind(events: &[CcEvent], pred: impl Fn(&CcEventKind) -> bool) -> u64 {
    events.iter().filter(|e| pred(&e.kind)).count() as u64
}

#[test]
fn event_log_aggregates_match_sim_report() {
    let (report, traces, units) = instrumented_run();
    let log = report.events.as_ref().expect("events were enabled");
    assert_eq!(log.dropped_cap, 0, "cap must not truncate this run");
    assert_eq!(log.sampled_out, 0, "sample_every=1 keeps everything");
    assert_eq!(log.seen, log.events.len() as u64);
    let events = &log.events;
    assert!(
        !events.is_empty(),
        "an instrumented congested run emits events"
    );

    // --- per-packet delivery records vs the delivery aggregates ---
    let mut delivered = 0u64;
    let mut bytes = 0u64;
    let mut latency_cycles_sum = 0u64;
    let mut fecn_deliveries = 0u64;
    // Rebuild the binned series exactly as the collector does: same
    // timestamps, same values, same order => bitwise-equal f64 bins.
    let mut total_bytes = TimeSeries::new(report.bin_ns);
    let mut latency_sum_ns = TimeSeries::new(report.bin_ns);
    let mut latency_count = TimeSeries::new(report.bin_ns);
    let mut per_flow: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in events.iter() {
        if let CcEventKind::Delivered {
            flow,
            bytes: b,
            latency_cycles,
            fecn,
            ..
        } = ev.kind
        {
            delivered += 1;
            bytes += u64::from(b);
            latency_cycles_sum += latency_cycles;
            fecn_deliveries += u64::from(fecn);
            *per_flow.entry(flow).or_insert(0) += u64::from(b);
            let ns = units.cycles_to_ns(ev.at);
            total_bytes.add(ns, f64::from(b));
            latency_sum_ns.add(ns, units.cycles_to_ns(latency_cycles));
            latency_count.add(ns, 1.0);
        }
    }
    assert_eq!(delivered, report.delivered_packets);
    assert_eq!(bytes, report.delivered_bytes);
    total_bytes.extend_to(report.duration_ns);
    latency_sum_ns.extend_to(report.duration_ns);
    latency_count.extend_to(report.duration_ns);
    assert_eq!(total_bytes, report.total_bytes);
    assert_eq!(latency_sum_ns, report.latency_sum_ns);
    assert_eq!(latency_count, report.latency_count);
    for fr in &report.flows {
        let from_events = per_flow.remove(&fr.id.0).unwrap_or(0);
        assert_eq!(
            from_events,
            fr.bytes.total() as u64,
            "flow {} bytes diverge between event log and report",
            fr.label
        );
    }
    assert!(per_flow.is_empty(), "event log saw flows the report lacks");

    // --- CC machinery events vs the mechanism counters ---
    use CcEventKind::*;
    type KindPred<'a> = &'a dyn Fn(&CcEventKind) -> bool;
    let expect: &[(&str, KindPred)] = &[
        ("fecn_marked", &|k| matches!(k, FecnMark { .. })),
        ("becn_generated", &|k| matches!(k, BecnGenerated { .. })),
        ("becn_received", &|k| matches!(k, BecnReceived { .. })),
        ("throttled_injections", &|k| {
            matches!(k, ThrottledInjection { .. })
        }),
        ("cfq_allocated", &|k| matches!(k, CfqAlloc { .. })),
        ("cfq_deallocated", &|k| matches!(k, CfqDealloc { .. })),
        ("cfq_exhausted", &|k| matches!(k, CfqExhausted { .. })),
        ("congestion_detected", &|k| {
            matches!(k, CfqAlloc { root: true, .. })
        }),
        ("ia_cfq_allocated", &|k| matches!(k, IaCfqAlloc { .. })),
        ("ia_cfq_deallocated", &|k| matches!(k, IaCfqDealloc { .. })),
        ("ia_cfq_exhausted", &|k| matches!(k, IaCfqExhausted { .. })),
        ("allocs_propagated", &|k| {
            matches!(k, AllocPropagated { .. })
        }),
        ("stops_sent", &|k| matches!(k, StopSent { .. })),
        ("gos_sent", &|k| matches!(k, GoSent { .. })),
        ("stops_received", &|k| matches!(k, StopReceived { .. })),
        ("gos_received", &|k| matches!(k, GoReceived { .. })),
    ];
    for (counter, pred) in expect {
        assert_eq!(
            count_kind(events, pred),
            report.counters.get(*counter).copied().unwrap_or(0),
            "event count diverges from counter {counter:?}"
        );
    }
    // The run actually exercises the CC path, or the equalities above
    // are vacuous.
    assert!(count_kind(events, |k| matches!(k, FecnMark { .. })) > 0);
    assert!(count_kind(events, |k| matches!(k, CfqAlloc { .. })) > 0);

    // --- congestion enter/leave alternate per output port ---
    let mut open: BTreeMap<(u32, u32), bool> = BTreeMap::new();
    for ev in events.iter() {
        match ev.kind {
            CongestionEnter { sw, port, .. } => {
                let slot = open.entry((sw, port)).or_insert(false);
                assert!(!*slot, "double CongestionEnter on sw{sw} port{port}");
                *slot = true;
            }
            CongestionLeave { sw, port, .. } => {
                let slot = open.entry((sw, port)).or_insert(false);
                assert!(*slot, "CongestionLeave without Enter on sw{sw} port{port}");
                *slot = false;
            }
            _ => {}
        }
    }

    // --- event log vs the independent per-packet traces ---
    let delivered_traces: Vec<&PacketTrace> =
        traces.iter().filter(|t| t.delivered_at.is_some()).collect();
    assert_eq!(delivered_traces.len() as u64, report.delivered_packets);
    let trace_latency: u64 = delivered_traces
        .iter()
        .map(|t| t.latency_cycles().unwrap())
        .sum();
    assert_eq!(trace_latency, latency_cycles_sum);
    let trace_fecn = delivered_traces.iter().filter(|t| t.fecn).count() as u64;
    assert_eq!(trace_fecn, fecn_deliveries);

    // --- events are timestamp-ordered (the canonical merge contract) ---
    // Delivery-side records (Delivered, BecnGenerated) carry the
    // packet's tail-landing cycle, which under virtual cut-through runs
    // ahead of the tick that processes the head by up to the packet's
    // serialization time — so the log is two interleaved streams, each
    // monotone in its own clock.
    let monotone = |pred: &dyn Fn(&CcEventKind) -> bool| {
        for w in events
            .iter()
            .filter(|e| pred(&e.kind))
            .collect::<Vec<_>>()
            .windows(2)
        {
            assert!(
                w[0].at <= w[1].at,
                "stream not monotone: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    };
    monotone(&|k| matches!(k, Delivered { .. } | BecnGenerated { .. }));
    monotone(&|k| !matches!(k, Delivered { .. } | BecnGenerated { .. }));
}

/// Recording never perturbs the run: with its recordings stripped — the
/// event log and the per-port telemetry series — the observed report is
/// the unobserved one, every counter, series, histogram and flow curve
/// included. (What recording costs in host time is the benchmark's
/// `core.simulator.trace_overhead_pct`.)
#[test]
fn recording_never_perturbs_the_run() {
    let (mut observed, traces, _) = instrumented_run();
    let plain = run(false).0.finish();
    assert!(!traces.is_empty(), "the observed run did trace packets");
    assert!(observed.events.take().is_some());
    assert!(plain.events.is_none());
    let all = observed.gauges.len();
    observed.gauges.retain(|k, _| !k.starts_with("port_"));
    assert!(observed.gauges.len() < all, "per-port series were recorded");
    assert!(plain.delivered_packets > 0 && !plain.counters.is_empty());
    // The counters first: a far shorter failure message than the whole
    // report's when a recording site has side effects.
    assert_eq!(observed.counters, plain.counters);
    assert_eq!(observed, plain);
}

#[test]
fn port_telemetry_gauges_cover_connected_ports() {
    let (report, _, _) = instrumented_run();
    let occ: Vec<&String> = report
        .gauges
        .keys()
        .filter(|k| k.starts_with("port_occ_sw") && !k.ends_with("_samples"))
        .collect();
    let credits: Vec<&String> = report
        .gauges
        .keys()
        .filter(|k| k.starts_with("port_credits_sw") && !k.ends_with("_samples"))
        .collect();
    assert!(!occ.is_empty(), "per-port occupancy series were recorded");
    assert!(!credits.is_empty(), "per-port credit series were recorded");
    // Every telemetry series has its paired sample-count series so means
    // are recoverable.
    for k in occ.iter().chain(credits.iter()) {
        assert!(
            report.gauges.contains_key(&format!("{k}_samples")),
            "{k} lacks its _samples companion"
        );
    }
}

#[test]
fn exporters_render_the_whole_log() {
    let (report, _, units) = instrumented_run();
    let events = &report.events.as_ref().unwrap().events;
    let jsonl = events_jsonl(events);
    assert_eq!(jsonl.lines().count(), events.len());
    let csv = events_csv(events, units.cycle_ns);
    assert_eq!(
        csv.lines().count(),
        events.len() + 1,
        "header + one row each"
    );
    let chrome = chrome_trace_json(events, units.cycle_ns);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("\"displayTimeUnit\":\"ms\"}"));
    // Congestion episodes render as paired duration slices.
    let b = chrome.matches("\"ph\":\"B\"").count();
    let e = chrome.matches("\"ph\":\"E\"").count();
    let enters = events
        .iter()
        .filter(|ev| matches!(ev.kind, CcEventKind::CongestionEnter { .. }))
        .count();
    let leaves = events
        .iter()
        .filter(|ev| matches!(ev.kind, CcEventKind::CongestionLeave { .. }))
        .count();
    assert_eq!(b, enters);
    assert_eq!(e, leaves);
    // The JSONL round-trips.
    for line in jsonl.lines().take(32) {
        let back: CcEvent = serde_json::from_str(line).unwrap();
        assert!(back.at <= report.simulated_cycles);
    }
}
