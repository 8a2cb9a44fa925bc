#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ccfit-orchestrator
//!
//! Sweeps as a batch system (DESIGN.md §13): declarative experiment
//! matrices, a content-hashed result cache keyed on the canonical spec
//! serialization plus an engine-version salt, a runner that simulates
//! the cache misses on threads of this process and names any run that
//! panics, and the plain-text report `ccfit-sweep run` prints for a
//! finished matrix.
//!
//! The simulator is bit-deterministic (pinned by `tests/determinism.rs`
//! and the golden snapshots), so a cache hit is *exact*: the stored
//! report is byte-identical to what a fresh simulation would produce.
//! That turns figure regeneration from minutes of re-simulation into a
//! directory scan: every table and figure of the paper's evaluation is
//! a `matrices/*.toml` file.
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
pub mod report;
pub mod spec;
pub mod toml;

mod runner;

pub use cache::{cache_from_args, Cache, CacheEntry, GcStats, DEFAULT_CACHE_DIR};
pub use matrix::ExperimentMatrix;
pub use runner::{run_matrix, ExecMode, MatrixRun, RunOutcome, RunStats, RunnerOptions};
pub use spec::{RunSpec, ENGINE_SALT, SCHEMA_VERSION};
