#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ccfit
//!
//! A cycle-level reproduction of **CCFIT** — *Combining Congested-Flow
//! Isolation and Injection Throttling in HPC Interconnection Networks*
//! (Escudero-Sahuquillo et al., ICPP 2011) — together with every baseline
//! the paper evaluates: **1Q**, **VOQsw**, **VOQnet**, **FBICM** and
//! InfiniBand-style injection throttling (**ITh**).
//!
//! The crate models lossless input-queued switches with credit-based
//! flow control, virtual cut-through switching, iSLIP scheduling and
//! distributed deterministic routing, plus the end-node input adapters
//! with per-destination admittance queues and the IB congestion-control
//! table machinery.
//!
//! ## Quick start
//!
//! ```
//! use ccfit::{Mechanism, SimBuilder};
//! use ccfit_topology::KAryNTree;
//! use ccfit_topology::graph::LinkParams;
//! use ccfit_traffic::case2;
//!
//! let tree = KAryNTree::new(2, 3); // 8 nodes, 12 switches (Config #2)
//! let report = SimBuilder::new(tree.build(LinkParams::default()))
//!     .routing(tree.det_routing())
//!     .mechanism(Mechanism::ccfit())
//!     .traffic(case2(10.0)) // the paper's 10 ms flow schedule
//!     .duration_ns(200_000.0) // but simulate only a short demo slice
//!     .seed(7)
//!     .build()
//!     .run();
//! assert!(report.delivered_packets > 0);
//! ```
//!
//! See [`experiment`] for the paper's full (configuration, traffic-case)
//! matrix; the figures, ablations and sweeps themselves are experiment
//! matrices (`matrices/*.toml`) that `ccfit-sweep run` (the
//! `ccfit-orchestrator` crate) runs and reports.

pub mod arbiter;
pub mod bitset;
pub mod cam;
pub mod endnode;
pub mod experiment;
mod idle;
pub mod params;
pub mod port;
pub mod simulator;
pub mod switch;

pub use ccfit_faults::{FaultSchedule, NetworkEvent, RandomFaults, ScheduledEvent};
pub use ccfit_metrics::{CcEvent, CcEventKind, EventClass, EventConfig, FaultKind};
pub use ccfit_traffic::{SizedFlow, Workload};
pub use experiment::{ConfigId, ExperimentSpec};
pub use params::{
    DcqcnParams, HpccParams, IsolationParams, Mechanism, QueueingScheme, ThrottleParams,
};
pub use simulator::{
    ActiveSetStats, BecnTransport, PhaseProfile, SimBuilder, SimConfig, Simulator,
    ISLIP_ITERATIONS, PHASE_NAMES,
};

// Re-export the companion crates so downstream users need a single
// dependency.
pub use ccfit_cc as cc;
pub use ccfit_engine as engine;
pub use ccfit_faults as faults;
pub use ccfit_metrics as metrics;
pub use ccfit_topology as topology;
pub use ccfit_traffic as traffic;
