#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ccfit-metrics
//!
//! Measurement infrastructure for the CCFIT reproduction. The paper bases
//! its whole evaluation on two metrics (§IV-A):
//!
//! * **Flow Bandwidth** — the throughput achieved by each traffic flow
//!   over time (Figs. 9 and 10), and
//! * **Network Throughput** — aggregate delivered traffic over time,
//!   normalized to the network's reception capacity (Figs. 7 and 8).
//!
//! A [`MetricsCollector`] is driven by the simulator (one call per
//! delivered packet, plus named event counters for the congestion-control
//! internals); at the end of a run it freezes into a serializable
//! [`SimReport`] from which the figure harness extracts the same series
//! the paper plots, plus Jain's fairness index for the fairness study
//! (§IV-C).

pub mod collector;
pub mod events;
pub mod fairness;
pub mod faults;
pub mod fct;
pub mod histogram;
pub mod report;
pub mod series;

pub use collector::MetricsCollector;
pub use events::{
    CcEvent, CcEventKind, EventClass, EventConfig, EventLog, EventLogReport, FaultKind, SiteCounter,
};
pub use fairness::jain_index;
pub use faults::FaultSummary;
pub use fct::{FctReport, FctTracker, FlowFct, FlowGoal};
pub use histogram::LatencyHistogram;
pub use report::{FlowReport, SimReport};
pub use series::TimeSeries;
