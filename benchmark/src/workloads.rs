//! The benchmark's workloads: what network, what traffic, under which
//! mechanisms. README.md records why each was chosen.

use ccfit::{ConfigId, ExperimentSpec, Mechanism};
use ccfit_orchestrator::ExperimentMatrix;
use ccfit_topology::{KAryNTree, LinkParams};
use ccfit_traffic::workload::{all_to_all, mpi_phase_bursts};
use ccfit_traffic::{case4, uniform_all, Workload};

use crate::span::{SpanId, Tracer};

const MS: f64 = 1e6;
/// The default unit model's flit: a flow one flit longer is a different
/// flow even to a mechanism that counts only flits.
const FLIT_BYTES: u64 = 64;

#[derive(Clone)]
pub enum Traffic {
    /// Case #4 (Fig. 8): 75 % uniform background plus a hotspot storm
    /// forming `hotspots` congestion trees. Open-loop rate windows.
    Storm { hotspots: usize },
    /// Closed-loop sized flows; every flow must complete.
    Flows(Workload),
    /// Open-loop uniform traffic at `load` of line rate from every node.
    Uniform { load: f64 },
}

/// Where a run's `ExperimentSpec` comes from.
#[derive(Clone)]
pub enum Source {
    /// A k-ary n-tree assembled here, layer by layer, so the traced run
    /// can time topology, routing and pattern construction separately.
    /// `scale` compresses the schedule and the duration together.
    Tree {
        k: u32,
        n: u32,
        traffic: Traffic,
        duration_ns: f64,
        scale: f64,
    },
    /// One of the matrix's declarative configs.
    Config(ConfigId),
}

/// Host seconds spent in each layer while assembling a spec.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecTimes {
    pub topology_s: f64,
    pub routing_s: f64,
    pub pattern_s: f64,
    pub resolve_s: f64,
}

impl SpecTimes {
    pub fn total(&self) -> f64 {
        self.topology_s + self.routing_s + self.pattern_s + self.resolve_s
    }
}

impl Source {
    pub fn build(&self, tracer: &mut Tracer, parent: SpanId) -> (ExperimentSpec, SpecTimes) {
        let mut times = SpecTimes::default();
        let spec = match self {
            Source::Tree {
                k,
                n,
                traffic,
                duration_ns,
                scale,
            } => {
                let tree = KAryNTree::new(*k, *n);
                let (topology, t) = tracer.span("topology.build", parent, || {
                    tree.build(LinkParams::default())
                });
                times.topology_s = t;
                let (routing, t) = tracer.span("topology.routing", parent, || tree.det_routing());
                times.routing_s = t;
                let nodes = topology.num_nodes();
                let (pattern, t) = tracer.span("traffic.pattern_build", parent, || match traffic {
                    Traffic::Storm { hotspots } => case4(nodes, *hotspots),
                    Traffic::Flows(w) => w.build(nodes),
                    Traffic::Uniform { load } => uniform_all(nodes, *load),
                });
                times.pattern_s = t;
                ExperimentSpec {
                    name: format!("{k}-ary-{n}-tree/{}", pattern.name),
                    topology,
                    routing,
                    pattern,
                    duration_ns: *duration_ns,
                    crossbar_bw_flits_per_cycle: 1,
                }
                .scaled(*scale)
            }
            Source::Config(id) => {
                let (spec, t) = tracer.span("core.config_resolve", parent, || id.resolve());
                times.resolve_s = t;
                spec
            }
        };
        (spec, times)
    }
}

/// One simulation run of a workload.
pub struct Case {
    pub label: String,
    pub source: Source,
    pub mech: Mechanism,
}

/// A workload made of direct simulator runs.
pub struct SimWorkload {
    pub cases: Vec<Case>,
    /// Sized flows every run must complete (0 for rate-window traffic).
    pub flows: usize,
}

fn cases(mechs: Vec<Mechanism>, source: Source, flows: usize) -> SimWorkload {
    SimWorkload {
        cases: mechs
            .into_iter()
            .map(|mech| Case {
                label: mech.name().to_string(),
                source: source.clone(),
                mech,
            })
            .collect(),
        flows,
    }
}

/// A k-ary 3-tree; `k = 4` is the paper's Config #3 network (64 nodes).
fn tree(k: u32, traffic: Traffic, duration_ns: f64, scale: f64) -> Source {
    Source::Tree {
        k,
        n: 3,
        traffic,
        duration_ns,
        scale,
    }
}

/// No RNG touches the closed-loop workloads under most mechanisms, so
/// their inputs carry the seed themselves: every flow gets a tail of 1
/// to 32 `step`s derived from it. That is at most one more packet per
/// flow, so the work barely changes from seed to seed.
fn seeded_tail_bytes(seed: u64, step: u64) -> u64 {
    step * (1 + seed % 32)
}

/// The four direct-simulation workloads; `seed` is also the simulation
/// seed of every run. `smoke` shrinks each to a fraction of a second
/// while keeping every check satisfiable.
pub fn sim_workload(name: &str, seed: u64, smoke: bool) -> Option<SimWorkload> {
    let flow_mechs = || vec![Mechanism::ccfit(), Mechanism::dcqcn(), Mechanism::hpcc()];
    Some(match name {
        "storm64" => cases(
            vec![Mechanism::ccfit(), Mechanism::fbicm(), Mechanism::ith()],
            tree(
                4,
                Traffic::Storm { hotspots: 4 },
                4.0 * MS,
                if smoke { 0.02 } else { 0.1 },
            ),
            0,
        ),
        "alltoall64" => {
            let (k, bytes, duration_ns) = if smoke {
                (2, 2048, 0.05 * MS)
            } else {
                (4, 4096, 0.3 * MS)
            };
            let nodes = (k * k * k) as usize;
            cases(
                flow_mechs(),
                tree(
                    k,
                    Traffic::Flows(all_to_all(bytes + seeded_tail_bytes(seed, 1))),
                    duration_ns,
                    1.0,
                ),
                nodes * (nodes - 1),
            )
        }
        "mpi-bursts64" => {
            let (phases, bytes, gap_ns, duration_ns) = if smoke {
                (2, 16 << 10, 0.02 * MS, 0.06 * MS)
            } else {
                (8, 256 << 10, 0.6 * MS, 4.8 * MS)
            };
            cases(
                flow_mechs(),
                tree(
                    4,
                    Traffic::Flows(mpi_phase_bursts(
                        phases,
                        bytes + seeded_tail_bytes(seed, FLIT_BYTES),
                        gap_ns,
                    )),
                    duration_ns,
                    1.0,
                ),
                64 * phases,
            )
        }
        "scale4096" => {
            let (k, duration_ns) = if smoke {
                (4, 0.02 * MS)
            } else {
                (16, 0.05 * MS)
            };
            cases(
                vec![Mechanism::ccfit()],
                tree(k, Traffic::Uniform { load: 0.1 }, duration_ns, 1.0),
                0,
            )
        }
        _ => return None,
    })
}

const PAPER_HALF: &str = include_str!("../matrices/paper-half.toml");
const PAPER_SMOKE: &str = include_str!("../matrices/paper-smoke.toml");

pub fn is_matrix_workload(name: &str) -> bool {
    matches!(name, "paper-matrix" | "paper-matrix-warm")
}

pub fn matrix_text(smoke: bool) -> &'static str {
    if smoke {
        PAPER_SMOKE
    } else {
        PAPER_HALF
    }
}

/// Parse the benchmark's matrix with `seed` as its one `seeds` entry.
pub fn parse_matrix(text: &str, seed: u64) -> ExperimentMatrix {
    let mut matrix = ExperimentMatrix::from_toml_str(text)
        .unwrap_or_else(|e| panic!("the benchmark's own matrix file must parse: {e}"));
    matrix.seeds = vec![seed];
    matrix
}
