//! Every committed experiment matrix resolves to exactly the runs its
//! experiment is documented to make — configuration, mechanism
//! parameters, seed, bin width, fault schedule and BECN transport —
//! written out here literally. Equal specs mean equal cache keys, so a
//! matrix edit that changes a figure's runs fails here instead of
//! silently re-keying (and re-simulating) the figure.

use ccfit::engine::ids::{NodeId, PortId, SwitchId};
use ccfit::engine::units::UnitModel;
use ccfit::params::CctProfile::{Exponential, Linear};
use ccfit::params::{IsolationParams as Iso, ThrottleParams as Thr};
use ccfit::topology::Endpoint;
use ccfit::{BecnTransport, ConfigId, FaultPolicy, FaultSchedule, Mechanism as M};
use ccfit_orchestrator::{ExperimentMatrix, RunSpec};

fn committed(name: &str) -> Vec<RunSpec> {
    let path = format!("{}/../../matrices/{name}.toml", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap();
    ExperimentMatrix::from_toml_str(&text).unwrap().resolve()
}

/// `configs` × `mechs` in matrix order (config-major).
fn grid(configs: &[ConfigId], mechs: &[M], seed: u64, bin_ns: f64) -> Vec<RunSpec> {
    let run = |c: &ConfigId, m: &M| RunSpec::new(c.clone(), m.clone(), seed, bin_ns);
    (configs.iter())
        .flat_map(|c| mechs.iter().map(move |m| run(c, m)))
        .collect()
}

/// Registry-default parameters with `edit` applied.
fn with<P: Default>(edit: impl FnOnce(&mut P)) -> P {
    let mut p = P::default();
    edit(&mut p);
    p
}

#[test]
fn figures() {
    use ConfigId as C;
    let fig = [M::OneQ, M::ith(), M::fbicm(), M::ccfit()];
    let fig7 = [C::config1_case1(), C::config2_case2(), C::config2_case3()];
    assert_eq!(committed("fig7"), grid(&fig7, &fig, 0xF17, 250_000.0));
    let storms = [1, 4, 6].map(C::config3_case4);
    let fig8 = [&fig[..], &[M::voqnet()]].concat();
    assert_eq!(committed("fig8"), grid(&storms, &fig8, 0xF18, 100_000.0));
    let mut out_of_band = grid(&storms, &[M::ith(), M::ccfit()], 0xF18, 1e5);
    for spec in &mut out_of_band {
        spec.becn_transport = BecnTransport::OutOfBand;
    }
    assert_eq!(committed("fig8-out-of-band"), out_of_band);
    let fig9 = grid(&[C::config1_case1()], &fig, 0xF19, 250_000.0);
    assert_eq!(committed("fig9"), fig9);
    let fig10 = grid(&[C::config2_case2()], &fig, 0xF10, 250_000.0);
    assert_eq!(committed("fig10"), fig10);
}

#[test]
fn offered_load_sweeps() {
    let loads = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.85, 1.0];
    let sweep =
        |config: &dyn Fn(f64) -> ConfigId| grid(&loads.map(config), &M::all(), 0x5EE9, 100_000.0);
    let tree = |ary| {
        move |load| ConfigId::UniformTree {
            ary,
            levels: 3,
            load,
            duration_ns: 600_000.0,
        }
    };
    assert_eq!(committed("sweep-tree"), sweep(&tree(2)));
    assert_eq!(committed("sweep-config3"), sweep(&tree(4)));
    let mesh = |load| ConfigId::UniformMesh {
        width: 4,
        height: 4,
        load,
        duration_ns: 600_000.0,
    };
    assert_eq!(committed("sweep-mesh"), sweep(&mesh));
}

#[test]
fn ablations() {
    let fairness = [ConfigId::Config1Case1 { scale: 0.3 }];
    let storm = [ConfigId::Config3Case4 {
        hotspots: 4,
        duration_ms: 3.0,
        scale: 1.0,
    }];
    let runs = |configs: &[ConfigId], mechs: Vec<M>| grid(configs, &mechs, 1, 100_000.0);
    let ccfit = |iso: Iso, thr: Thr| M::Ccfit(iso, thr);

    let cfqs = [1, 2, 4, 8].into_iter().flat_map(|n| {
        let iso: Iso = with(|p: &mut Iso| (p.num_cfqs, p.out_cam_lines) = (n, 2 * n));
        [M::Fbicm(iso), ccfit(iso, Thr::default())]
    });
    assert_eq!(committed("ablate-cfqs"), runs(&storm, cfqs.collect()));

    let marking = [0.1, 0.25, 0.5, 0.85, 1.0].into_iter().flat_map(|rate| {
        let thr: Thr = with(|p: &mut Thr| p.marking_rate = rate);
        [M::Ith(thr.clone()), ccfit(Iso::default(), thr)]
    });
    assert_eq!(
        committed("ablate-marking"),
        runs(&fairness, marking.collect())
    );

    let timer = [2000.0, 4000.0, 8000.0, 16000.0, 32000.0]
        .map(|ns| ccfit(Iso::default(), with(|p: &mut Thr| p.ccti_timer_ns = ns)));
    assert_eq!(committed("ablate-timer"), runs(&fairness, timer.to_vec()));

    let stopgo = [(6, 2), (10, 4), (10, 8), (16, 4), (24, 8)]
        .map(|stop_go| M::Fbicm(with(|p: &mut Iso| (p.stop_mtus, p.go_mtus) = stop_go)));
    assert_eq!(committed("ablate-stopgo"), runs(&fairness, stopgo.to_vec()));

    let detect = [2, 4, 8, 16, 24].map(|mtus| {
        ccfit(
            with(|p: &mut Iso| p.detect_threshold_mtus = mtus),
            Thr::default(),
        )
    });
    assert_eq!(committed("ablate-detect"), runs(&storm, detect.to_vec()));

    let exp = |period| Exponential { period };
    let profiles = [Linear, exp(4), exp(8), exp(16)];
    let cct =
        profiles.map(|shape| ccfit(Iso::default(), with(|p: &mut Thr| p.cct_profile = shape)));
    assert_eq!(committed("ablate-cct"), runs(&fairness, cct.to_vec()));
}

#[test]
fn fault_storms() {
    // The cable is the first trunk (switch-to-switch) port of node 0's
    // leaf switch: an up-link that carries traffic in every case-4 run.
    let network = ConfigId::config3_case4(1).resolve().topology;
    let leaf = network.node_attachment(NodeId(0)).0;
    let trunk = |&p: &PortId| matches!(network.peer(leaf, p), Some((Endpoint::Switch(..), _)));
    let cable = (leaf, network.switch(leaf).connected().find(trunk));
    assert_eq!(cable, (SwitchId(0), Some(PortId(4))));

    let at = |ns| UnitModel::default().ns_to_cycles(ns);
    let storm = |config: ConfigId, fail_ns, repair_ns, bin_ns| {
        let mut schedule = FaultSchedule::new();
        schedule
            .link_down(at(fail_ns), SwitchId(0), PortId(4), FaultPolicy::FailStop)
            .link_up(at(repair_ns), SwitchId(0), PortId(4));
        let mut runs = grid(&[config], &M::paper_set(), 0xFA017, bin_ns);
        runs.iter_mut()
            .for_each(|s| s.faults = Some(schedule.clone()));
        runs
    };
    let full = storm(ConfigId::config3_case4(1), 1.2e6, 2.2e6, 100_000.0);
    assert_eq!(committed("faultstorm"), full);
    let smoke = ConfigId::Config3Case4 {
        hotspots: 1,
        duration_ms: 4.0,
        scale: 0.1,
    };
    let smoke = storm(smoke, 1.2e5, 2.2e5, 10_000.0);
    assert_eq!(committed("faultstorm-smoke"), smoke);
}
