//! The benchmark of record for this repository (see `benchmark/README.md`).
//!
//! This package measures the end-to-end metrics and may call only the
//! repository's stable API: `build_suite`, `run_suite`, `run_fleet` /
//! `Ledger::load` / `verify` / `merge_sink_dir`, `Dictionary`,
//! `Runtime::{noop, tsvd}` with `stats` / `reports`, `TsvdConfig::paper()
//! .scaled`, and `analyze_workspace_with`. Probes that reach into a crate's
//! internals live in the sibling `probes` package, so a change that deletes
//! an internal can break a probe but never the numbers changes are compared
//! on.

#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod env;
pub mod json;
pub mod metrics;
pub mod outcome;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod tree;
pub mod workloads;
