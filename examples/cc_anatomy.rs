//! The anatomy of one congestion episode, read off the CC event log.
//!
//! ```sh
//! cargo run --release --example cc_anatomy            # compressed run
//! cargo run --release --example cc_anatomy -- --full  # paper's 10 ms
//! ```
//!
//! Replays Fig. 7a (Config #1 / Case #1 under InfiniBand-style injection
//! throttling, ITh) with full event recording and narrates the paper's
//! claim that "ITh dips in [4, 6] ms" from the *mechanism's own events*
//! instead of inferring it from the throughput curve: in that window the
//! fourth hotspot contributor activates, the left switch's VOQ crosses
//! the detection threshold (`congestion_enter`), marked packets fan
//! BECNs back, and source CCT indices ratchet up until the hotspot —
//! and, collaterally, the victim flow sharing its input port — is
//! throttled.

use ccfit::{CcEventKind, ConfigId, EventClass, EventConfig, Mechanism, SimBuilder, SimConfig};
use ccfit_engine::units::UnitModel;

fn main() {
    let full = std::env::args().skip(1).any(|a| a == "--full");
    // The schedule activates hotspot contributors at 2/4/6 ms; the
    // compressed run keeps the shape at a tenth of the runtime.
    let scale = if full { 1.0 } else { 0.1 };
    let spec = ConfigId::Config1Case1 { scale }.resolve();

    let mut cfg = SimConfig {
        metrics_bin_ns: 20_000.0,
        ..SimConfig::default()
    };
    cfg.duration_ns = spec.duration_ns;
    cfg.crossbar_bw_flits_per_cycle = spec.crossbar_bw_flits_per_cycle;
    let units = UnitModel::default();
    let report = SimBuilder::new(spec.topology.clone())
        .routing(spec.routing.clone())
        .mechanism(Mechanism::ith())
        .traffic(spec.pattern.clone())
        .config(cfg)
        .events(EventConfig {
            classes: EventClass::CONGESTION
                | EventClass::FECN
                | EventClass::BECN
                | EventClass::CCTI
                | EventClass::THROTTLE,
            cap: 1 << 21,
        })
        .seed(7)
        .build()
        .run();

    let log = report.events.as_ref().expect("events enabled");
    println!(
        "{} under ITh, {:.1} ms simulated — {} CC events recorded\n",
        spec.name,
        report.duration_ns / 1e6,
        log.events.len()
    );

    // The window Fig. 7a argues about, under the active compression.
    let (win_lo, win_hi) = (4e6 * scale, 6e6 * scale);
    let mut enters = 0u64;
    let mut marks = 0u64;
    let mut becns = 0u64;
    let mut throttled = 0u64;
    let mut max_ccti = 0u32;
    println!(
        "detection events in the [4, 6] ms window (scaled: [{:.1}, {:.1}] ms):",
        win_lo / 1e6,
        win_hi / 1e6
    );
    for ev in &log.events {
        let ns = units.cycles_to_ns(ev.at);
        if !(win_lo..win_hi).contains(&ns) {
            continue;
        }
        match ev.kind {
            CcEventKind::CongestionEnter {
                sw,
                port,
                occupancy_flits,
            } => {
                enters += 1;
                println!(
                    "  {:>9.3} ms  congestion_enter  sw{sw} out{port}  voq occupancy {occupancy_flits} flits",
                    ns / 1e6
                );
            }
            CcEventKind::CongestionLeave { sw, port, .. } => {
                println!("  {:>9.3} ms  congestion_leave  sw{sw} out{port}", ns / 1e6);
            }
            CcEventKind::CctiIncrease {
                node,
                dst,
                ccti,
                ird_cycles,
            } if ccti > max_ccti => {
                max_ccti = ccti;
                println!(
                    "  {:>9.3} ms  ccti -> {ccti:<3} node{node} dst{dst}  (inter-release delay {ird_cycles} cycles)",
                    ns / 1e6
                );
            }
            CcEventKind::FecnMark { .. } => marks += 1,
            CcEventKind::BecnReceived { .. } => becns += 1,
            CcEventKind::ThrottledInjection { .. } => throttled += 1,
            _ => {}
        }
    }
    println!(
        "\nwindow totals: {enters} congestion entries, {marks} FECN marks, \
         {becns} BECNs received, {throttled} throttled injections"
    );
    println!(
        "window throughput {:.3} vs steady-state {:.3} (normalized)",
        report.mean_normalized_throughput(win_lo, win_hi),
        report.mean_normalized_throughput(0.2 * win_lo, 0.8 * win_lo),
    );
    println!(
        "\nThe dip is the mechanism, not the traffic: each hotspot activation\n\
         re-triggers detection, and ITh throttles sources feeding the marked\n\
         VOQ — including the victim flow, which shares the left switch's\n\
         input port. CCFIT exists to break exactly that coupling (§III)."
    );
}
