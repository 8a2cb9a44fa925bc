#![forbid(unsafe_code)]

//! # ccfit-bench
//!
//! `cc_shootout`: the modern congestion-control schemes head-to-head
//! with the paper's mechanisms, archived as `BENCH_cc.json`. The paper's
//! own evaluation (Table I, Figs. 7–10, the ablations, the offered-load
//! sweeps and the fault storm) is data: one `matrices/*.toml` per
//! experiment, run and reported by `ccfit-sweep run` (see the
//! `ccfit-orchestrator` crate). Host time and memory are measured
//! elsewhere, by the repo's one benchmark: `benchmark/`.

pub mod harness;

pub use harness::{run_specs, RunCtx, RunOutput};
