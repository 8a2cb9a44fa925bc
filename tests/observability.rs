//! Cross-validation of the CC event log (DESIGN.md §10).
//!
//! The event log and the aggregate `SimReport` are two recordings of the
//! same run. These tests recompute the aggregates *from the event log*
//! and demand exact agreement — so a bug that drops, duplicates or
//! mistimes events cannot hide behind a plausible-looking summary, and
//! vice versa.

use ccfit::metrics::{SimReport, TimeSeries};
use ccfit::{CcEventKind, ConfigId, EventClass, EventConfig, Mechanism, SimBuilder, SimConfig};
use ccfit_engine::units::UnitModel;
use std::collections::BTreeMap;

/// Run `mech` on the scaled Config #1 / Case #1 scenario, with every
/// event class recorded or with none.
fn run(mech: Mechanism, observed: bool) -> SimReport {
    run_spec(&ConfigId::Config1Case1 { scale: 0.02 }, mech, observed)
}

/// [`run`] on any scenario.
fn run_spec(config: &ConfigId, mech: Mechanism, observed: bool) -> SimReport {
    let spec = config.resolve();
    let mut cfg = SimConfig {
        metrics_bin_ns: 20_000.0,
        ..SimConfig::default()
    };
    cfg.duration_ns = spec.duration_ns;
    cfg.crossbar_bw_flits_per_cycle = spec.crossbar_bw_flits_per_cycle;
    let mut builder = SimBuilder::new(spec.topology.clone())
        .routing(spec.routing.clone())
        .mechanism(mech)
        .traffic(spec.pattern.clone())
        .config(cfg)
        .seed(7);
    if observed {
        builder = builder.events(EventConfig {
            classes: EventClass::ALL,
            cap: 1 << 22,
        });
    }
    builder.build().run()
}

/// Fig. 8b's four congestion trees outnumber the CFQs: FBICM's ports run
/// out of them.
fn exhausting_run() -> SimReport {
    let (hotspots, duration_ms, scale) = (4, 4.0, 0.02);
    let storm = ConfigId::Config3Case4 {
        hotspots,
        duration_ms,
        scale,
    };
    run_spec(&storm, Mechanism::fbicm(), true)
}

/// The counters no event stands behind. Every other counter of a report
/// is derived, through `CcEventKind::counters`, from the events a fully
/// recorded run logs.
const EVENTLESS_COUNTERS: &[&str] = &[
    "packets_isolated",
    "dcqcn_throttled_injections",
    "injected_packets",
    "delivered_packets_total",
    "wire_bytes_injected",
    "wire_bytes_delivered",
    "payload_bytes_delivered",
    "overhead_bytes_delivered",
    "ctrl_wire_bytes_sent",
    "ctrl_wire_bytes_delivered",
    "ack_generated",
];

/// The paper's scheme and the two modern ones, each with the derived
/// counters its run must drive above zero — or the equalities below are
/// vacuous for it.
#[test]
fn event_log_aggregates_match_sim_report() {
    for (mech, exercised) in [
        (
            Mechanism::ccfit(),
            &[
                "fecn_marked",
                "becn_generated",
                "becn_received",
                "cfq_allocated",
                "congestion_detected",
            ][..],
        ),
        (
            Mechanism::dcqcn(),
            &["ecn_marked", "cnp_generated", "cnp_received"][..],
        ),
        (Mechanism::hpcc(), &["ack_received"][..]),
    ] {
        let name = mech.name();
        check_event_log(&run(mech, true), exercised);
        eprintln!("{name}: event log agrees with the report");
    }
}

/// `cfq_exhausted` counts port-cycles spent exhausted, logged as one
/// `CfqExhausted` per episode: the episodes rebuild the counter, and the
/// episodes of one (switch, port, site) never overlap.
#[test]
fn exhaustion_episodes_rebuild_cfq_exhausted() {
    let report = exhausting_run();
    check_event_log(
        &report,
        &["cfq_exhausted", "cfq_allocated", "congestion_detected"],
    );
    let events = &report.events.as_ref().unwrap().events;
    let mut last_end: BTreeMap<(u32, u32, bool), u64> = BTreeMap::new();
    let mut episodes = 0;
    for ev in events.iter() {
        if let CcEventKind::CfqExhausted {
            sw,
            port,
            root,
            cycles,
            ..
        } = ev.kind
        {
            episodes += 1;
            assert!(cycles > 0, "an empty episode at {ev:?}");
            let begin = ev.at - cycles;
            let end = last_end.entry((sw, port, root)).or_insert(0);
            assert!(*end <= begin, "{ev:?} overlaps an episode ending at {end}");
            *end = ev.at;
        }
    }
    assert!(
        episodes < report.counters["cfq_exhausted"],
        "{episodes} episodes cover many more port-cycles"
    );
}

fn check_event_log(report: &SimReport, exercised: &[&str]) {
    use CcEventKind::*;
    let units = UnitModel::default();
    let log = report.events.as_ref().expect("events were enabled");
    assert_eq!(log.dropped_cap, 0, "cap must not truncate this run");
    assert_eq!(log.seen, log.events.len() as u64);
    let events = &log.events;
    assert!(
        !events.is_empty(),
        "an instrumented congested run emits events"
    );

    // --- per-packet delivery records vs the delivery aggregates ---
    let mut delivered = 0u64;
    let mut bytes = 0u64;
    // Rebuild the binned series exactly as the collector does: same
    // timestamps, same values, same order => bitwise-equal f64 bins.
    let mut total_bytes = TimeSeries::new(report.bin_ns);
    let mut latency_sum_ns = TimeSeries::new(report.bin_ns);
    let mut latency_count = TimeSeries::new(report.bin_ns);
    let mut per_flow: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in events.iter() {
        if let Delivered {
            flow,
            bytes: b,
            latency_cycles,
            ..
        } = ev.kind
        {
            delivered += 1;
            bytes += u64::from(b);
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

    // --- CC machinery events vs the counters they derive ---
    let mut from_events: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events.iter() {
        let (names, site) = ev.kind.counters();
        for name in names {
            *from_events.entry(name.to_string()).or_insert(0) += ev.kind.weight();
        }
        if let Some(site) = site {
            *from_events.entry(site.to_string()).or_insert(0) += 1;
        }
    }
    let mut derived = report.counters.clone();
    derived.retain(|name, _| !EVENTLESS_COUNTERS.contains(&name.as_str()));
    assert_eq!(
        from_events, derived,
        "the counters diverge from the event log"
    );
    for name in exercised {
        assert!(derived.get(*name) > Some(&0), "{name} was never counted");
    }

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

    // --- events are timestamp-ordered (the canonical merge contract) ---
    // Delivery-side records (Delivered, and the BECN / CNP it answers)
    // carry the packet's tail-landing cycle, which under virtual
    // cut-through runs ahead of the tick that processes the head by up
    // to the packet's serialization time — so the log is two interleaved
    // streams, each monotone in its own clock.
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
    let delivery_side = |k: &CcEventKind| {
        matches!(
            k,
            Delivered { .. } | BecnGenerated { .. } | CnpGenerated { .. }
        )
    };
    monotone(&delivery_side);
    monotone(&|k| !delivery_side(k));
}

/// Recording never perturbs the run: with its event log stripped, the
/// observed report is the unobserved one, every counter, series,
/// histogram and flow curve included. Nothing measures what recording
/// costs in host time: the benchmark's `core.simulator.trace_overhead_pct`
/// is the phase profiler's overhead (`tick_profiled` against `tick`, on
/// runs built with `SimConfig::default()`, which record nothing).
#[test]
fn recording_never_perturbs_the_run() {
    let mut observed = run(Mechanism::ccfit(), true);
    let plain = run(Mechanism::ccfit(), false);
    assert!(observed.events.take().is_some());
    assert!(plain.events.is_none());
    assert!(plain.delivered_packets > 0 && !plain.counters.is_empty());
    // The counters first: a far shorter failure message than the whole
    // report's when a recording site has side effects.
    assert_eq!(observed.counters, plain.counters);
    assert_eq!(observed, plain);
}
