#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ccfit-traffic
//!
//! Workload generation for the CCFIT reproduction.
//!
//! The paper evaluates four traffic cases (§IV-A):
//!
//! * **Case #1** (Config #1): five staggered 100 %-rate flows creating a
//!   single congestion point at the link to end node 4, with a victim
//!   flow crossing the trunk.
//! * **Case #2** (Config #2): five staggered flows converging on one
//!   destination of the 2-ary 3-tree, creating several congestion points
//!   along the merge path.
//! * **Case #3** (Config #2): Case #2 plus three uniform-traffic sources,
//!   adding short-lived congestion that appears and disappears quickly.
//! * **Case #4** (Config #3): 75 % of the sources send uniform traffic at
//!   100 % rate; the remaining 25 % burst into `H ∈ {1, 4, 6}` hotspots
//!   during [1 ms, 2 ms], creating more congestion trees than the
//!   switches have CFQs.
//!
//! A [`TrafficPattern`] is a declarative list of [`FlowSpec`]s; the
//! simulator turns it into per-node [`NodeGenerator`]s (token buckets over
//! saturated sources) via [`TrafficPattern::build_generators`].

pub mod cases;
pub mod flow;
pub mod generator;
pub mod pattern;
pub mod sized;
pub mod trace;
pub mod workload;

pub use cases::{case1, case2, case3, case4, uniform_all};
pub use flow::{Destination, FlowSpec};
pub use generator::{GenPacket, InjectSink, NodeGenerator};
pub use pattern::TrafficPattern;
pub use sized::SizedFlow;
pub use trace::{format_trace, parse_trace, TraceError};
pub use workload::{all_to_all, incast, mpi_phase_bursts, permutation_shift, Workload};
