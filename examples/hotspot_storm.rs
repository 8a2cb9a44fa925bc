//! Hotspot storm on a 64-node fat tree — the scenario of the paper's
//! Fig. 8 (Config #3, Case #4), parameterized from the command line.
//!
//! ```sh
//! cargo run --release --example hotspot_storm -- [hotspots] [mechanism]
//! # e.g.
//! cargo run --release --example hotspot_storm -- 4 ccfit
//! ```
//!
//! `hotspots` (at least 1) defaults to 4 and `mechanism` (any registered
//! name, case-insensitive) to CCFIT; a value that does not parse exits 2.
//!
//! 75 % of the 64 nodes send uniform background traffic; the other 25 %
//! burst into `<hotspots>` congestion trees during [1 ms, 2 ms]. The
//! example prints the throughput timeline and the CFQ bookkeeping, which
//! shows *why* CCFIT survives storms that exhaust FBICM's two CFQs per
//! port.

use ccfit::experiment::config3_case4;
use ccfit::{Mechanism, SimConfig};

/// Print `msg` and the usage, then exit 2.
fn usage_error(msg: &str) -> ! {
    let known: Vec<&str> = Mechanism::all().iter().map(|m| m.name()).collect();
    eprintln!("{msg}");
    eprintln!(
        "usage: hotspot_storm [hotspots] [mechanism]; mechanisms: {}",
        known.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let hotspots: usize = args.get(1).map_or(4, |a| {
        a.parse()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| usage_error(&format!("bad hotspot count {a:?}")))
    });
    let mech = args.get(2).map_or_else(Mechanism::ccfit, |a| {
        Mechanism::parse(a).unwrap_or_else(|| usage_error(&format!("unknown mechanism {a:?}")))
    });
    let name = mech.name();

    let spec = config3_case4(hotspots, 4.0);
    println!(
        "{}: {} nodes, {} switches, {hotspots} congestion trees during [1, 2] ms, mechanism {name}",
        spec.name,
        spec.topology.num_nodes(),
        spec.topology.num_switches()
    );
    let report = spec.run_with(
        mech,
        7,
        SimConfig {
            metrics_bin_ns: 200_000.0,
            ..SimConfig::default()
        },
    );

    println!("\ntime_ms  normalized_throughput");
    let nt = report.network_throughput_normalized();
    for (i, v) in nt.iter().enumerate().take(nt.len() - 1) {
        let bar = "#".repeat((v * 60.0) as usize);
        println!(
            "{:6.1}   {v:.3} {bar}",
            report.total_bytes.bin_center_ns(i) / 1e6
        );
    }
    println!(
        "\nphase means: pre-burst {:.3}, burst {:.3}, recovery {:.3}",
        report.mean_normalized_throughput(0.4e6, 1.0e6),
        report.mean_normalized_throughput(1.1e6, 2.0e6),
        report.mean_normalized_throughput(2.1e6, 4.0e6)
    );
    println!("\ncongestion-control bookkeeping:");
    for key in [
        "congestion_detected",
        "cfq_allocated",
        "cfq_deallocated",
        "cfq_exhausted",
        "stops_sent",
        "fecn_marked",
        "becn_received",
        "throttled_injections",
        "ecn_marked",
        "cnp_received",
        "ack_received",
    ] {
        println!(
            "  {key:<22} {}",
            report.counters.get(key).copied().unwrap_or(0)
        );
    }
}
