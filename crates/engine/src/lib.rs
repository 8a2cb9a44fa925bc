#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ccfit-engine
//!
//! Cycle-level simulation substrate for lossless HPC interconnection
//! networks. This crate provides the building blocks shared by the switch,
//! end-node and network models in the [`ccfit`] crate:
//!
//! * a **unit model** ([`units`]) mapping wall-clock nanoseconds onto
//!   simulator cycles and bytes onto flits,
//! * **packets** ([`packet`]) with the congestion-notification header bits
//!   (FECN/BECN) used by InfiniBand-style congestion control,
//! * flit-accounted **packet queues** ([`queue`]) and a dynamically-shared
//!   **port RAM** ([`ram`]) from which queues allocate,
//! * a small **content-addressable memory** ([`cam`]) used to track
//!   congested destinations, modelled after the CAMs of RECN/FBICM/CCFIT,
//! * lossless **links** ([`link`]) with serialization latency, propagation
//!   delay, credit-based flow control, and a reverse control channel,
//! * deterministic **seed splitting** ([`rng`]) so every component draws
//!   from its own reproducible stream.
//!
//! The engine is intentionally agnostic of topology, routing and the
//! congestion-control mechanisms themselves; those live in higher-level
//! crates. Everything here is deterministic: given the same inputs and
//! seeds, every structure evolves identically.
//!
//! [`ccfit`]: https://example.org/ccfit-rs

pub mod active;
pub mod calq;
pub mod cam;
pub mod error;
pub mod ids;
pub mod link;
pub mod packet;
pub mod queue;
pub mod ram;
pub mod rng;
pub mod units;

pub use active::ActiveSet;
pub use calq::CalendarQueue;
pub use cam::{Cam, CamLine};
pub use error::{BadParam, EngineError};
pub use ids::{FlowId, LinkId, NodeId, PacketId, PortId, SwitchId};
pub use link::{CtrlEvent, Link, LinkConfig, WireLoss};
pub use packet::{Packet, PacketKind};
pub use queue::PacketQueue;
pub use ram::PortRam;
pub use rng::SeedSplitter;
pub use units::{Cycle, UnitModel};
