//! The parking-lot problem, §IV-C: why congested-flow isolation alone is
//! unfair, and how injection throttling fixes it.
//!
//! ```sh
//! cargo run --release --example parking_lot_fairness
//! ```
//!
//! Runs the paper's Config #1 / Case #1: four flows converge on node 4.
//! F1 and F2 arrive through the inter-switch trunk and *share* one input
//! queue at the hot switch, while F5 and F6 each have their own input
//! port — so round-robin arbitration gives F5/F6 double the bandwidth
//! (the parking-lot effect). Per-flow throttling (ITh, CCFIT) equalises
//! the flows; pure isolation (FBICM) does not.

use ccfit::experiment::config1_case1;
use ccfit::{Mechanism, SimConfig};
use ccfit_engine::ids::FlowId;

fn main() {
    let spec = config1_case1(10.0);
    let contributors = [FlowId(1), FlowId(2), FlowId(5), FlowId(6)];
    let window = (6.5e6, 10e6); // all four contributors active

    println!("Config #1 / Case #1 — contributor bandwidth (GB/s) in [6.5, 10] ms\n");
    println!(
        "{:<8} {:>6} {:>6} {:>6} {:>6} {:>8} {:>9}",
        "scheme", "F1", "F2", "F5", "F6", "Jain", "victim F0"
    );
    for mech in [
        Mechanism::OneQ,
        Mechanism::ith(),
        Mechanism::fbicm(),
        Mechanism::ccfit(),
    ] {
        let name = mech.name();
        let r = spec.run_with(
            mech,
            9,
            SimConfig {
                metrics_bin_ns: 250_000.0,
                ..SimConfig::default()
            },
        );
        let bw: Vec<f64> = contributors
            .iter()
            .map(|&f| r.flow_mean_bandwidth_gbps(f, window.0, window.1))
            .collect();
        println!(
            "{name:<8} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>8.3} {:>9.2}",
            bw[0],
            bw[1],
            bw[2],
            bw[3],
            r.jain_over(&contributors, window.0, window.1),
            r.flow_mean_bandwidth_gbps(FlowId(0), window.0, window.1)
        );
    }
    println!(
        "\nFair share of the 2.5 GB/s hot link is 0.625 GB/s per contributor.\n\
         1Q/FBICM: F5/F6 take ~0.83 while F1/F2 get ~0.42 (parking lot).\n\
         ITh/CCFIT: all four converge, because a flow exceeding its share\n\
         receives proportionally more FECN marks and throttles harder."
    );
}
