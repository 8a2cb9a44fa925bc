#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ccfit-orchestrator
//!
//! Sweeps as a batch system (DESIGN.md §13): declarative experiment
//! matrices, a content-hashed result cache keyed on the canonical spec
//! serialization plus an engine-version salt, and a parallel runner
//! with thread- and process-based execution.
//!
//! The simulator is bit-deterministic (pinned by `tests/determinism.rs`
//! and the golden snapshots), so a cache hit is *exact*: the stored
//! report is byte-identical to what a fresh simulation would produce.
//! That turns figure regeneration from minutes of re-simulation into a
//! directory scan.
//!
//! ```no_run
//! use ccfit_orchestrator::{ExperimentMatrix, RunnerOptions, run_matrix};
//!
//! let matrix = ExperimentMatrix::from_toml_str(
//!     std::fs::read_to_string("matrices/paper.toml").unwrap().as_str(),
//! ).unwrap();
//! let run = run_matrix(&matrix.resolve(), &RunnerOptions::default()).unwrap();
//! println!("{} runs, {} cache hits", run.stats.total, run.stats.hits);
//! ```

pub mod cache;
pub mod hash;
pub mod matrix;
pub mod spec;
pub mod toml;

mod runner;

pub use cache::{cache_from_args, Cache, CacheEntry, GcStats, DEFAULT_CACHE_DIR};
pub use matrix::ExperimentMatrix;
pub use runner::{
    run_matrix, run_one_worker, ExecMode, MatrixRun, RunOutcome, RunRequest, RunStats,
    RunnerOptions, RUN_ONE_ARGV,
};
pub use spec::{RunSpec, ENGINE_SALT, SCHEMA_VERSION};
