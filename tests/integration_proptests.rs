//! Property-based end-to-end tests: the simulator's global invariants
//! hold for randomly drawn workloads, mechanisms, topologies and seeds.

use ccfit::{Mechanism, SimBuilder, SimConfig};
use ccfit_engine::ids::NodeId;
use ccfit_topology::{config1_topology, KAryNTree, LinkParams, RoutingTable, Topology};
use ccfit_traffic::{Destination, FlowSpec, TrafficPattern};
use proptest::prelude::*;

fn mechanism_strategy() -> impl Strategy<Value = Mechanism> {
    let set = Mechanism::paper_set();
    (0..set.len()).prop_map(move |i| set[i].clone())
}

/// Random flows on the 2-ary 3-tree (8 nodes).
fn pattern_strategy(num_nodes: u32) -> impl Strategy<Value = TrafficPattern> {
    prop::collection::vec(
        (
            0..num_nodes,     // src
            0..num_nodes + 1, // dst; == num_nodes means Uniform
            0.1f64..=1.0,     // rate
            0u64..300,        // start (us)
            0u64..2,          // open-ended?
        ),
        1..6,
    )
    .prop_map(move |flows| {
        let specs = flows
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst, rate, start_us, open))| FlowSpec {
                id: ccfit_engine::ids::FlowId(i as u32),
                label: format!("F{i}"),
                src: NodeId(src),
                dst: if dst == num_nodes {
                    Destination::Uniform
                } else if dst == src {
                    Destination::Fixed(NodeId((dst + 1) % num_nodes))
                } else {
                    Destination::Fixed(NodeId(dst))
                },
                start_ns: start_us as f64 * 1000.0,
                end_ns: (open == 0).then_some(400_000.0),
                rate,
            })
            .collect();
        TrafficPattern::new("random", specs)
    })
}

fn build(
    topo: Topology,
    routing: Option<RoutingTable>,
    mech: Mechanism,
    pattern: TrafficPattern,
    seed: u64,
    xbar: u32,
) -> ccfit::Simulator {
    let mut b = SimBuilder::new(topo)
        .mechanism(mech)
        .crossbar_bw(xbar)
        .traffic(pattern)
        .duration_ns(500_000.0)
        .config(SimConfig {
            metrics_bin_ns: 50_000.0,
            ..SimConfig::default()
        })
        .seed(seed);
    if let Some(r) = routing {
        b = b.routing(r);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Packet conservation holds mid-run for any workload/mechanism/seed
    /// on the fat tree.
    #[test]
    fn conservation_holds_for_random_workloads(
        mech in mechanism_strategy(),
        pattern in pattern_strategy(8),
        seed in 0u64..1000,
    ) {
        let tree = KAryNTree::new(2, 3);
        let mut sim = build(tree.build(LinkParams::default()), Some(tree.det_routing()), mech, pattern, seed, 1);
        // Check at several points mid-flight, not only at the end.
        for _ in 0..5 {
            sim.run_cycles(sim.end_cycle() / 5);
            prop_assert_eq!(
                sim.injected(),
                sim.delivered() + sim.resident_packets() as u64
            );
        }
    }

    /// Determinism: identical configuration twice gives identical
    /// reports, for any mechanism and workload.
    #[test]
    fn determinism_for_random_workloads(
        mech in mechanism_strategy(),
        pattern in pattern_strategy(7),
        seed in 0u64..1000,
    ) {
        let run = || {
            build(config1_topology(), None, mech.clone(), pattern.clone(), seed, 2).run()
        };
        prop_assert_eq!(run(), run());
    }

    /// Flows that end leave a drainable network: after enough silence,
    /// injected == delivered and no CFQ stays allocated.
    #[test]
    fn random_bursts_always_drain(
        mech in mechanism_strategy(),
        pattern in pattern_strategy(8),
        seed in 0u64..1000,
    ) {
        // Close every flow at 300 us, then give 700 us of silence.
        let mut pattern = pattern;
        for f in &mut pattern.flows {
            f.end_ns = Some(f.end_ns.map_or(300_000.0, |e| e.min(300_000.0)).max(f.start_ns + 1.0));
        }
        let tree = KAryNTree::new(2, 3);
        let mut sim = build(tree.build(LinkParams::default()), Some(tree.det_routing()), mech, pattern, seed, 1);
        sim.run_cycles(ccfit_engine::units::UnitModel::default().ns_to_cycles(1_000_000.0));
        prop_assert_eq!(sim.resident_packets(), 0);
        prop_assert_eq!(sim.injected(), sim.delivered());
        prop_assert_eq!(sim.cfqs_allocated(), 0);
    }

    /// Throughput never exceeds physical capacity: each flow is bounded
    /// by its injection link, the network by its reception capacity.
    #[test]
    fn throughput_respects_capacity(
        mech in mechanism_strategy(),
        pattern in pattern_strategy(8),
        seed in 0u64..1000,
    ) {
        let tree = KAryNTree::new(2, 3);
        let report = build(tree.build(LinkParams::default()), Some(tree.det_routing()), mech, pattern, seed, 1).run();
        for nt in report.network_throughput_normalized() {
            prop_assert!(nt <= 1.0 + 1e-9, "normalized throughput {nt} > 1");
        }
        for f in &report.flows {
            for bw in f.bytes.scaled(1.0 / report.bin_ns) {
                prop_assert!(bw <= 2.5 * 1.05, "flow above line rate: {bw}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The scheduler's activation rules are conservative for any
    /// workload/mechanism/seed: a component never acts in a cycle where
    /// it was off the work-list. Two layers check this — in debug builds
    /// every engine cycle asserts every non-member is inert (quiescent
    /// switch / quiet adapter / idle link), and the resulting report
    /// must still be byte-identical to the oracle's, which visits
    /// everything every cycle.
    #[test]
    fn sparse_activation_rules_are_conservative(
        mech in mechanism_strategy(),
        pattern in pattern_strategy(8),
        seed in 0u64..1000,
    ) {
        let build = || {
            let tree = KAryNTree::new(2, 3);
            SimBuilder::new(tree.build(LinkParams::default()))
                .routing(tree.det_routing())
                .mechanism(mech.clone())
                .crossbar_bw(1)
                .traffic(pattern.clone())
                .duration_ns(500_000.0)
                .config(SimConfig {
                    metrics_bin_ns: 50_000.0,
                    ..SimConfig::default()
                })
                .seed(seed)
                .build()
        };
        let mut oracle = build();
        oracle.run_reference();
        prop_assert_eq!(build().run(), oracle.finish());
    }
}

fn every_mechanism() -> impl Strategy<Value = Mechanism> {
    let set = Mechanism::all();
    (0..set.len()).prop_map(move |i| set[i].clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The park rule (DESIGN.md §12): a switch or adapter that has proved
    /// it can do nothing before a named cycle leaves the work-list until
    /// then, so it must sit out only cycles in which it would have done
    /// nothing. Small trees, all eight mechanisms, rate flows beside sized
    /// ones, link failures and repairs, and AdVOQs short enough that
    /// generators are refused: the engine's report equals the oracle's
    /// byte for byte, and the engine did leave components out — an
    /// engine that never parked would pass the first half vacuously. In
    /// debug builds every engine cycle also re-derives the bound of each
    /// component it left out (`assert_work_list_invariants`).
    #[test]
    fn parked_components_sit_out_only_idle_cycles(
        shape in 0usize..3,
        mech in every_mechanism(),
        rate_flows in prop::collection::vec(
            (0u32..16, 0u32..17, 0.2f64..=1.0, 0u64..40, 0u64..2),
            1..6,
        ),
        sized_flows in prop::collection::vec((0u32..16, 1u32..16, 1u64..40, 0u64..40), 0..4),
        failures in 0usize..3,
        advoq_cap_mtus in 1u32..4,
        seed in 0u64..1000,
    ) {
        // The vendored proptest neither shrinks nor echoes its inputs; the
        // harness shows this line when the case fails.
        eprintln!(
            "shape {shape}, {}, rate flows {rate_flows:?}, sized flows {sized_flows:?}, \
             {failures} failures, AdVOQ cap {advoq_cap_mtus}, seed {seed}",
            mech.name()
        );
        let (k, n) = [(2, 2), (2, 3), (4, 2)][shape];
        let tree = KAryNTree::new(k, n);
        let nodes = k.pow(n);
        let mut flows = Vec::new();
        for &(src, dst, rate, start_us, open) in &rate_flows {
            let src = src % nodes;
            let mut f = FlowSpec::uniform(flows.len() as u32, NodeId(src), start_us as f64 * 1000.0, None);
            if dst < 16 {
                // Never the source itself.
                f.dst = Destination::Fixed(NodeId((src + 1 + dst % (nodes - 1)) % nodes));
            }
            f.rate = rate;
            f.end_ns = (open == 0).then_some(70_000.0);
            flows.push(f);
        }
        let first_sized = flows.len();
        let sized = sized_flows.iter().enumerate().map(|(i, &(src, hop, kb, start_us))| {
            let (src, id) = (src % nodes, (first_sized + i) as u32);
            let dst = NodeId((src + 1 + hop % (nodes - 1)) % nodes);
            ccfit::SizedFlow::new(id, NodeId(src), dst, kb * 1024, start_us as f64 * 1000.0)
        });
        let pattern = TrafficPattern::with_sized("random", flows, sized.collect());
        let storm = ccfit::RandomFaults {
            seed,
            failures,
            window_start: 400,
            window_end: 2400,
            repair_after: Some(700),
        };
        let build = || {
            let topo = tree.build(LinkParams::default());
            let schedule = storm.schedule(&topo);
            SimBuilder::new(topo)
                .routing(tree.det_routing())
                .mechanism(mech.clone())
                .traffic(pattern.clone())
                .config(SimConfig {
                    duration_ns: 100_000.0,
                    metrics_bin_ns: 20_000.0,
                    advoq_cap_mtus,
                    seed,
                    ..SimConfig::default()
                })
                .faults(schedule)
                .build()
        };
        let (mut engine, mut oracle) = (build(), build());
        engine.run_to_end();
        oracle.run_reference();
        let (visits, all) = (engine.active_set_stats(), oracle.active_set_stats());
        prop_assert!(
            visits.sw_sum + visits.node_sum < all.sw_sum + all.node_sum,
            "the engine left nothing out"
        );
        let (engine, oracle) = (engine.finish(), oracle.finish());
        prop_assert_eq!(engine.to_json(), oracle.to_json());
    }
}
