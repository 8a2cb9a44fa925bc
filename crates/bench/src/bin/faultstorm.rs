//! **faultstorm** — resilience study on Config #3 (4-ary 3-tree, 64
//! nodes) under the Fig. 8 hotspot storm (75 % uniform sources + one
//! congestion tree during the burst window) with a dynamic fault on
//! top: a trunk cable fail-stops in the middle of the burst and is
//! repaired one burst-length later, forcing a live re-route each way.
//!
//! * `faultstorm` — the full 4 ms run (burst [1, 2] ms, failure at
//!   1.2 ms, repair at 2.2 ms)
//! * `faultstorm --smoke` — the same shape compressed 10× (CI-friendly)
//! * `--csv <dir>` — archive every report as CSV + JSON
//! * `--mech <name>[,<name>...]` — narrow the mechanism set by registry
//!   display name
//!
//! Mechanisms: the paper's evaluated set ([`Mechanism::paper_set`]) by
//! default. Per mechanism the run reports the data packets lost to
//! the fault, injections refused while the victim subtree was cut off,
//! node-unreachable and stale-routing time, and the post-repair
//! recovery time derived from the delivered-throughput series.
//!
//! The fault schedule is part of the orchestrator's cache key, so a
//! repeated faultstorm reads its reports back from the result cache
//! while a changed schedule re-simulates (`--no-cache` to force).

use ccfit::experiment::ExperimentSpec;
use ccfit::{ConfigId, FaultPolicy, FaultSchedule, Mechanism};
use ccfit_bench::harness::{archive, csv_dir_from_args, mechanisms_from_args, run_specs, RunCtx};
use ccfit_bench::series_table;
use ccfit_engine::ids::{NodeId, PortId, SwitchId};
use ccfit_engine::units::UnitModel;
use ccfit_orchestrator::RunSpec;
use ccfit_topology::Endpoint;

/// The first trunk (switch-to-switch) cable of node 0's leaf switch —
/// an up-link that carries real traffic in every case-4 run.
fn victim_cable(spec: &ExperimentSpec) -> (SwitchId, PortId) {
    let leaf = spec.topology.node_attachment(NodeId(0)).0;
    for p in spec.topology.switch(leaf).connected() {
        if let Some((Endpoint::Switch(..), _)) = spec.topology.peer(leaf, p) {
            return (leaf, p);
        }
    }
    panic!("leaf switch has no up-link");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let ctx = RunCtx::from_args(&args);
    let csv = csv_dir_from_args(&args);
    let units = UnitModel::default();

    // Burst window is [1, 2] ms in the full run; the smoke run
    // compresses the whole schedule 10x.
    let (config, fail_ns, repair_ns, bin_ns) = if smoke {
        (
            ConfigId::Config3Case4 {
                hotspots: 1,
                duration_ms: 4.0,
                scale: 0.1,
            },
            120_000.0,
            220_000.0,
            10_000.0,
        )
    } else {
        (
            ConfigId::config3_case4(1),
            1_200_000.0,
            2_200_000.0,
            100_000.0,
        )
    };
    let spec = config.resolve();
    let (s, p) = victim_cable(&spec);
    let mut schedule = FaultSchedule::new();
    schedule
        .link_down(units.ns_to_cycles(fail_ns), s, p, FaultPolicy::FailStop)
        .link_up(units.ns_to_cycles(repair_ns), s, p);

    let mechanisms = mechanisms_from_args(&args, Mechanism::paper_set());

    println!(
        "=== faultstorm: {} | cable {s}:{p} fail-stop @ {:.2} ms, repaired @ {:.2} ms{} ===",
        spec.name,
        fail_ns / 1e6,
        repair_ns / 1e6,
        if smoke { " (smoke)" } else { "" },
    );

    let specs: Vec<RunSpec> = mechanisms
        .iter()
        .map(|m| {
            RunSpec::new(config.clone(), m.clone(), 0xFA_017, bin_ns).with_faults(schedule.clone())
        })
        .collect();
    let runs = run_specs(&specs, &ctx);

    print!("{}", series_table(&runs));
    println!("-- fault damage & availability --");
    for r in &runs {
        let f = r
            .report
            .faults
            .as_ref()
            .expect("fault schedule was installed");
        let recovery = r
            .report
            .fault_recovery_ns()
            .map(|ns| format!("{:.0} ns", ns))
            .unwrap_or_else(|| "n/a".into());
        println!(
            "{:>7}: lost={} (wire={} purged={}) refused={} ctrl_lost={} \
             unreachable={:.0} ns stale={:.0} ns reroutes={} recovery={}",
            r.mechanism,
            f.packets_lost(),
            f.packets_lost_wire,
            f.packets_purged,
            f.packets_refused,
            f.ctrl_lost,
            f.node_unreachable_ns,
            f.stale_route_ns,
            f.reroutes,
            recovery,
        );
    }
    if let Some(dir) = &csv {
        archive(
            dir,
            if smoke {
                "faultstorm-smoke"
            } else {
                "faultstorm"
            },
            &runs,
        )
        .expect("archive");
        println!("archived to {dir}/");
    }
}
