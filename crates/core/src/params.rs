//! Congestion-control mechanism parameters — re-exported from the
//! [`ccfit-cc`](ccfit_cc) subsystem crate, where the [`Mechanism`]
//! registry and the parameter sets now live.
//!
//! This module exists so every pre-existing `ccfit::params::…` path
//! keeps compiling; new code should consider depending on `ccfit-cc`
//! directly when it only needs mechanism definitions.

pub use ccfit_cc::{
    CctProfile, DcqcnParams, HpccParams, IsolationParams, Mechanism, QueueingScheme, ThrottleParams,
};
