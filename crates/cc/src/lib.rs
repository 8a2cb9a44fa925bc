#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ccfit-cc
//!
//! The pluggable congestion-control subsystem of the CCFIT
//! reproduction: the [`Mechanism`] registry (whose module doc tables
//! each scheme's queueing, congestion **detection**,
//! **marking/feedback** and **source reaction**), the parameter sets,
//! and the DCQCN / HPCC source machines.
//!
//! Alongside the 2011 paper's mechanisms (1Q, VOQsw, VOQnet,
//! FBICM, ITh, CCFIT) this crate implements two modern rate-based
//! schemes the paper predates:
//!
//! * **DCQCN-style** ([`DcqcnParams`], [`DcqcnFlow`]) — RED/ECN
//!   marking at switch queues, CNP feedback, and the reaction-point
//!   rate machine (alpha-EWMA decrease, fast recovery, additive/hyper
//!   increase);
//! * **HPCC-style** ([`HpccParams`], [`HpccFlow`]) — per-hop inband
//!   network telemetry folded into packet headers, echoed in ACKs,
//!   driving multiplicative window control toward η utilization.
//!
//! The crate is deliberately simulator-agnostic: state machines work
//! in abstract cycles/bytes and the `ccfit` core crate wires them into
//! its tick loop. See DESIGN.md §11 for the mechanism table and the
//! phase ordering of detection, feedback and reaction.

pub mod dcqcn;
pub mod hpcc;
pub mod mechanism;
pub mod params;

pub use dcqcn::{DcqcnCfg, DcqcnFlow};
pub use hpcc::{fold_u, hop_utilization, HpccCfg, HpccFlow};
pub use mechanism::Mechanism;
pub use params::{
    CctProfile, DcqcnParams, HpccParams, IsolationParams, QueueingScheme, ThrottleParams,
};
