//! The paper's experiments as ready-to-run specifications (Table I +
//! §IV-A).
//!
//! Every figure of the evaluation is a combination of a network
//! configuration, a traffic case and a mechanism. [`ConfigId`] is the
//! one name of a `(configuration, case)` pair, and
//! [`ConfigId::resolve`] the one place it is built, so the experiment
//! matrices, the tests and the examples only pick mechanisms, seeds and
//! time scales.

use crate::params::Mechanism;
use crate::simulator::{SimBuilder, SimConfig};
use ccfit_engine::BadParam;
use ccfit_metrics::SimReport;
use ccfit_topology::{config1_topology, KAryNTree, LinkParams, RoutingTable, Topology};
use ccfit_traffic::{case1, case2, case3, case4, uniform_all, TrafficPattern, Workload};
use serde::{Deserialize, Serialize};

/// A fully specified experiment minus the mechanism.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Human-readable name (e.g. `"config2/case3"`).
    pub name: String,
    /// The network.
    pub topology: Topology,
    /// Routing tables (DET for the fat trees), shared with every
    /// simulator built from this spec.
    pub routing: RoutingTable,
    /// The workload.
    pub pattern: TrafficPattern,
    /// Simulated time in nanoseconds.
    pub duration_ns: f64,
    /// Crossbar bandwidth in flits/cycle (Table I).
    pub crossbar_bw_flits_per_cycle: u32,
}

impl ExperimentSpec {
    /// Run with a custom [`SimConfig`] (tests shrink bins/durations).
    pub fn run_with(&self, mech: Mechanism, seed: u64, cfg: SimConfig) -> SimReport {
        self.build_sim(mech, seed, cfg).run()
    }

    /// Assemble the simulator without running it, so callers that need
    /// mid-run access — the bench harness's per-phase profiler and
    /// active-set occupancy counters — can drive the tick loop
    /// themselves.
    pub fn build_sim(&self, mech: Mechanism, seed: u64, cfg: SimConfig) -> crate::Simulator {
        self.builder(mech, seed, cfg).build()
    }

    /// [`Self::build_sim`] with a dynamic network-event schedule on top
    /// of the workload (mid-run link/switch failures; see
    /// `ccfit_faults`).
    pub fn build_sim_with_faults(
        &self,
        mech: Mechanism,
        seed: u64,
        cfg: SimConfig,
        schedule: ccfit_faults::FaultSchedule,
    ) -> crate::Simulator {
        self.builder(mech, seed, cfg).faults(schedule).build()
    }

    /// The one way a spec becomes a [`SimBuilder`]: the spec owns the
    /// duration and the crossbar bandwidth, the caller everything else
    /// in `cfg`.
    fn builder(&self, mech: Mechanism, seed: u64, mut cfg: SimConfig) -> SimBuilder {
        cfg.duration_ns = self.duration_ns;
        cfg.crossbar_bw_flits_per_cycle = self.crossbar_bw_flits_per_cycle;
        SimBuilder::new(self.topology.clone())
            .routing(self.routing.clone())
            .mechanism(mech)
            .traffic(self.pattern.clone())
            .config(cfg)
            .seed(seed)
    }

    /// Compress the whole schedule (flow activations, deactivations and
    /// the run duration) by `scale`. `scale = 1.0` is an exact identity
    /// (`x * 1.0 == x` for every finite `f64`), so a "scaled to 1"
    /// spec is byte-identical to the unscaled one — the experiment
    /// orchestrator's declarative configs rely on this.
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        for f in &mut self.pattern.flows {
            f.start_ns *= scale;
            if let Some(e) = &mut f.end_ns {
                *e *= scale;
            }
        }
        for f in &mut self.pattern.sized {
            f.start_ns *= scale;
        }
        self.duration_ns *= scale;
        self
    }

    /// Replace the traffic pattern with a closed-loop [`Workload`]
    /// resolved against this spec's machine size, renaming the spec
    /// `<name>+<workload>`. The topology, routing and duration are
    /// kept — the workload rides the host configuration's network.
    #[must_use]
    pub fn with_workload(mut self, workload: &Workload) -> Self {
        self.pattern = workload.build(self.topology.num_nodes());
        self.name = format!("{}+{}", self.name, workload.name());
        self
    }
}

/// A declarative, serializable name for one of the repo's experiment
/// setups: everything a `[[matrix.config]]` table names, minus the
/// mechanism and the seed. Where [`ExperimentSpec`] holds the
/// *assembled* network (topology, routing tables, flow list), a
/// `ConfigId` holds only the handful of parameters that generate it —
/// which makes it cheap to hash, compare and archive.
/// [`ConfigId::resolve`] rebuilds the exact `ExperimentSpec`; the
/// orchestrator's content-addressed run cache keys off this (plus
/// mechanism, seed and metric knobs), relying on the determinism suite's
/// guarantee that equal specs produce byte-identical reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConfigId {
    /// Config #1 / Case #1 (Figs. 7a, 9) with the 10 ms schedule
    /// compressed by `scale` (1.0 = the paper's shape).
    Config1Case1 {
        /// Schedule compression factor.
        scale: f64,
    },
    /// Config #2 / Case #2 (Figs. 7b, 10), 10 ms compressed by `scale`.
    Config2Case2 {
        /// Schedule compression factor.
        scale: f64,
    },
    /// Config #2 / Case #3 (Fig. 7c), 10 ms compressed by `scale`.
    Config2Case3 {
        /// Schedule compression factor.
        scale: f64,
    },
    /// Config #3 / Case #4 (Fig. 8): `hotspots` congestion trees, a
    /// `duration_ms` horizon (the paper plots 4 ms), compressed by
    /// `scale`.
    Config3Case4 {
        /// Number of simultaneous congestion trees (1/4/6 in Fig. 8).
        hotspots: usize,
        /// Uncompressed horizon in milliseconds.
        duration_ms: f64,
        /// Schedule compression factor.
        scale: f64,
    },
    /// Uniform traffic from every node on a k-ary n-tree — the
    /// offered-load sweep scenario.
    UniformTree {
        /// Tree arity (k).
        ary: usize,
        /// Tree levels (n).
        levels: usize,
        /// Offered load per node, fraction of line rate.
        load: f64,
        /// Simulated time in nanoseconds.
        duration_ns: f64,
    },
}

/// The largest `uniform-tree` the engine has run, 32 768 nodes of
/// 64-port switches (`tests/integration_scale.rs`): [`ConfigId::check`]
/// refuses a bigger one, which would exhaust memory or overflow `k^n`
/// before its first cycle.
const MAX_TREE_ARY: usize = 32;
const MAX_TREE_NODES: usize = 32_768;

impl ConfigId {
    /// The paper configs at their full (Figs. 7–10) time scale.
    pub fn config1_case1() -> Self {
        ConfigId::Config1Case1 { scale: 1.0 }
    }

    /// Config #2 / Case #2 at full scale.
    pub fn config2_case2() -> Self {
        ConfigId::Config2Case2 { scale: 1.0 }
    }

    /// Config #2 / Case #3 at full scale.
    pub fn config2_case3() -> Self {
        ConfigId::Config2Case3 { scale: 1.0 }
    }

    /// Config #3 / Case #4 with the paper's 4 ms horizon at full scale.
    pub fn config3_case4(hotspots: usize) -> Self {
        ConfigId::Config3Case4 {
            hotspots,
            duration_ms: 4.0,
            scale: 1.0,
        }
    }

    /// The kind string used by matrix files and display names.
    pub fn kind(&self) -> &'static str {
        match self {
            ConfigId::Config1Case1 { .. } => "config1/case1",
            ConfigId::Config2Case2 { .. } => "config2/case2",
            ConfigId::Config2Case3 { .. } => "config2/case3",
            ConfigId::Config3Case4 { .. } => "config3/case4",
            ConfigId::UniformTree { .. } => "uniform-tree",
        }
    }

    /// Human-readable label: the kind plus the distinguishing
    /// parameters (`config3/case4-h4@0.1`, `uniform-tree-2x3@0.50`).
    pub fn label(&self) -> String {
        match *self {
            ConfigId::Config1Case1 { scale }
            | ConfigId::Config2Case2 { scale }
            | ConfigId::Config2Case3 { scale } => format!("{}@{scale}", self.kind()),
            ConfigId::Config3Case4 {
                hotspots,
                duration_ms,
                scale,
            } => format!("{}-h{hotspots}/{duration_ms}ms@{scale}", self.kind()),
            ConfigId::UniformTree {
                ary, levels, load, ..
            } => format!("{}-{ary}x{levels}@{load:.2}", self.kind()),
        }
    }

    /// Whether [`Self::resolve`] can build this id: `Err` names the first
    /// parameter it cannot honour.
    pub fn check(&self) -> Result<(), BadParam> {
        let fail = |key, reason: String| Err(BadParam::new(key, reason));
        let positive = |key, v: f64| match v.is_finite() && v > 0.0 {
            true => Ok(()),
            false => fail(key, format!("must be positive and finite, got {v}")),
        };
        let at_least = |key, v: usize, min: usize| match v >= min {
            true => Ok(()),
            false => fail(key, format!("must be at least {min}, got {v}")),
        };
        let at_most = |key, v: usize, max: usize| match v <= max {
            true => Ok(()),
            false => fail(key, format!("must be at most {max}, got {v}")),
        };
        let load = |v: f64| match v > 0.0 && v <= 1.0 {
            true => Ok(()),
            false => fail("load", format!("must be in (0, 1], got {v}")),
        };
        match *self {
            ConfigId::Config1Case1 { scale }
            | ConfigId::Config2Case2 { scale }
            | ConfigId::Config2Case3 { scale } => positive("scale", scale),
            ConfigId::Config3Case4 {
                hotspots,
                duration_ms,
                scale,
            } => at_least("hotspots", hotspots, 1)
                .and(positive("duration_ms", duration_ms))
                .and(positive("scale", scale)),
            ConfigId::UniformTree {
                ary,
                levels,
                load: l,
                duration_ns,
            } => {
                let nodes = u32::try_from(levels).ok().and_then(|n| ary.checked_pow(n));
                let fits = match nodes.is_some_and(|n| n <= MAX_TREE_NODES) {
                    true => Ok(()),
                    false => fail(
                        "levels",
                        format!(
                            "must keep ary^levels at most {MAX_TREE_NODES}, got {ary}^{levels}"
                        ),
                    ),
                };
                at_least("ary", ary, 2)
                    .and(at_most("ary", ary, MAX_TREE_ARY))
                    .and(at_least("levels", levels, 1))
                    .and(fits)
                    .and(load(l))
                    .and(positive("duration_ns", duration_ns))
            }
        }
    }

    /// Assemble the concrete experiment this id names. Equal ids resolve
    /// to equal specs; the determinism suite then guarantees equal
    /// reports for equal (spec, mechanism, seed, knobs).
    ///
    /// # Panics
    /// On an id [`Self::check`] rejects.
    pub fn resolve(&self) -> ExperimentSpec {
        if let Err(e) = self.check() {
            panic!("{}: {e}", self.kind());
        }
        match *self {
            ConfigId::Config1Case1 { scale } => {
                let topology = config1_topology();
                ExperimentSpec {
                    name: self.kind().into(),
                    routing: RoutingTable::shortest_path(&topology),
                    topology,
                    pattern: case1(10.0),
                    duration_ns: 10e6,
                    crossbar_bw_flits_per_cycle: 2, // 5 GB/s (Table I, Config #1)
                }
                .scaled(scale)
            }
            ConfigId::Config2Case2 { scale } => {
                on_tree(self.kind().into(), 2, 3, |_| case2(10.0), 10e6).scaled(scale)
            }
            ConfigId::Config2Case3 { scale } => {
                on_tree(self.kind().into(), 2, 3, |_| case3(10.0), 10e6).scaled(scale)
            }
            ConfigId::Config3Case4 {
                hotspots,
                duration_ms,
                scale,
            } => {
                let name = format!("config3/case4-h{hotspots}");
                let pattern = |nodes| case4(nodes, hotspots);
                on_tree(name, 4, 3, pattern, duration_ms * 1e6).scaled(scale)
            }
            ConfigId::UniformTree {
                ary,
                levels,
                load,
                duration_ns,
            } => {
                let name = format!("uniform-tree-{ary}x{levels}");
                let pattern = |nodes| uniform_all(nodes, load);
                on_tree(name, ary as u32, levels as u32, pattern, duration_ns)
            }
        }
    }
}

/// A `k`-ary `n`-tree with DET routing and Table I's 2.5 GB/s crossbar,
/// running the pattern `pattern` builds for its node count.
fn on_tree(
    name: String,
    ary: u32,
    levels: u32,
    pattern: impl FnOnce(usize) -> TrafficPattern,
    duration_ns: f64,
) -> ExperimentSpec {
    let tree = KAryNTree::new(ary, levels);
    let topology = tree.build(LinkParams::default());
    ExperimentSpec {
        name,
        routing: tree.det_routing(),
        pattern: pattern(topology.num_nodes()),
        topology,
        duration_ns,
        crossbar_bw_flits_per_cycle: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config1_spec_is_consistent() {
        let s = ConfigId::config1_case1().resolve();
        assert_eq!(s.topology.num_nodes(), 7);
        assert_eq!(s.topology.num_switches(), 2);
        assert_eq!(s.pattern.flows.len(), 5);
        s.routing.verify_delivers_all(&s.topology).unwrap();
    }

    #[test]
    fn config2_specs_are_consistent() {
        let s = ConfigId::config2_case2().resolve();
        assert_eq!(s.topology.num_nodes(), 8);
        assert_eq!(s.topology.num_switches(), 12);
        s.routing.verify_delivers_all(&s.topology).unwrap();
        let s3 = ConfigId::config2_case3().resolve();
        assert_eq!(s3.pattern.flows.len(), 8);
    }

    #[test]
    fn config3_spec_matches_table_one() {
        let s = ConfigId::config3_case4(4).resolve();
        assert_eq!(s.topology.num_nodes(), 64);
        assert_eq!(s.topology.num_switches(), 48);
        assert_eq!(s.pattern.flows.len(), 64);
    }

    #[test]
    fn scaled_schedule_compresses_activations() {
        let s = ConfigId::Config1Case1 { scale: 0.1 }.resolve();
        assert!((s.duration_ns - 1e6).abs() < 1.0);
        let f1 = s.pattern.flows.iter().find(|f| f.src.0 == 1).unwrap();
        assert!((f1.start_ns - 0.2e6).abs() < 1.0);
        assert!((f1.end_ns.unwrap() - 1e6).abs() < 1.0);
    }

    #[test]
    fn uniform_config_ids_resolve() {
        let tree = ConfigId::UniformTree {
            ary: 2,
            levels: 3,
            load: 0.5,
            duration_ns: 600_000.0,
        }
        .resolve();
        assert_eq!(tree.topology.num_nodes(), 8);
        tree.routing.verify_delivers_all(&tree.topology).unwrap();
    }

    #[test]
    fn scaled_by_one_is_identity() {
        let a = ConfigId::config1_case1().resolve();
        let b = a.clone().scaled(1.0);
        assert_eq!(a.duration_ns, b.duration_ns);
        assert_eq!(a.pattern.flows, b.pattern.flows);
    }
}
