#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ccfit-topology
//!
//! Network topologies and routing for the CCFIT reproduction.
//!
//! The paper evaluates three networks (Table I):
//!
//! * **Config #1** — an ad-hoc 2-switch, 7-node network ([`adhoc`]),
//! * **Config #2** — a 2-ary 3-tree: 8 nodes, 12 switches ([`fattree`]),
//! * **Config #3** — a 4-ary 3-tree: 64 nodes, 48 switches.
//!
//! All use **distributed deterministic routing**: packets carry only their
//! destination, and each switch holds a table mapping destinations to
//! output ports ([`routing`]). For the fat trees we implement the DET
//! deterministic routing of Gomez et al. (paper ref. \[33\]); for arbitrary
//! topologies a deterministic shortest-path table is derived by
//! breadth-first search.

pub mod adhoc;
pub mod builder;
pub mod fattree;
pub mod graph;
pub mod routing;

pub use adhoc::config1_topology;
pub use builder::TopologyBuilder;
pub use fattree::KAryNTree;
pub use graph::{Endpoint, LinkParams, Topology, TopologyError};
pub use routing::{RouteRow, RoutingTable};
