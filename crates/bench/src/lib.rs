#![forbid(unsafe_code)]

//! # ccfit-bench
//!
//! The reproduction harness for the paper's evaluation (§IV): one binary
//! per table/figure plus ablation sweeps. (Host time and memory are
//! measured elsewhere, by the repo's one benchmark: `benchmark/`.)
//!
//! | Binary  | Reproduces |
//! |---------|------------|
//! | `table1`| Table I (network configurations) |
//! | `fig7`  | Fig. 7a–c: network throughput vs time, Configs #1/#2 |
//! | `fig8`  | Fig. 8a–c: throughput vs time under 1/4/6-tree storms |
//! | `fig9`  | Fig. 9: per-flow bandwidth vs time, Config #1 Case #1 |
//! | `fig10` | Fig. 10: per-flow bandwidth vs time, Config #2 Case #2 |
//! | `ablate`| §III-E design-choice sweeps (CFQs, marking, timer, Stop/Go, detection) |
//!
//! All binaries print the series the paper plots as aligned text tables
//! (time in ms) and accept `--csv <dir>` to archive machine-readable
//! CSVs plus the full JSON reports.

pub mod chart;
pub mod harness;

pub use chart::{flow_table, series_table};
pub use harness::{run_all, run_specs, RunCtx, RunOutput};
