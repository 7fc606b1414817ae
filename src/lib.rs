//! # TSVD-RS
//!
//! A from-scratch Rust reproduction of *"Efficient Scalable Thread-Safety-
//! Violation Detection: Finding thousands of concurrency bugs during
//! testing"* (SOSP 2019).
//!
//! TSVD is an *active testing* tool: it watches calls into thread-unsafe
//! APIs, identifies pairs of program locations that nearly collide on the
//! same object, injects delays at those locations to force a real
//! collision, and reports a thread-safety violation (TSV) only when two
//! threads are caught red-handed — so every report is a true bug.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`core`] — the detection algorithms (trap framework, near-miss
//!   tracking, HB inference, decay, the detector variants);
//! - [`collections`] — instrumented thread-unsafe collections
//!   (`Dictionary`, `List`, ...);
//! - [`tasks`] — the task-parallel substrate (pool, first-class join
//!   handles, `parallel_for_each`, instrumented locks);
//! - [`vc`] — immutable AVL-map vector clocks (TSVD-HB);
//! - [`workloads`] — the planted-bug benchmark corpus;
//! - [`harness`] — the experiment runner regenerating every table and
//!   figure of the paper's evaluation;
//! - [`fleet`] — fault-tolerant multi-process fleet mode: supervised
//!   workers with retry, quarantine, and a crash-resumable write-ahead
//!   ledger.
//!
//! # Examples
//!
//! The Fig. 1 bug, detected in one test run:
//!
//! ```
//! use tsvd::prelude::*;
//!
//! let rt = Runtime::tsvd(TsvdConfig::for_testing());
//! let pool = Pool::with_runtime(2, rt.clone());
//! let dict: Dictionary<u64, u64> = Dictionary::new(&rt);
//!
//! for round in 0..20u64 {
//!     let d1 = dict.clone();
//!     let writer = pool.spawn(move || d1.add(round, round)); // Thread 1.
//!     let d2 = dict.clone();
//!     let reader = pool.spawn(move || d2.contains_key(&(round + 1_000))); // Thread 2.
//!     writer.wait();
//!     reader.wait();
//! }
//! // Whether the trap fired this quickly is timing-dependent, but any
//! // report is guaranteed to be a true violation.
//! for v in rt.reports().violations() {
//!     assert!(v.trapped.kind.conflicts_with(v.hitter.kind));
//! }
//! ```

#![warn(missing_docs)]

pub use tsvd_analyze as analyze;
pub use tsvd_collections as collections;
pub use tsvd_core as core;
pub use tsvd_fleet as fleet;
pub use tsvd_harness as harness;
pub use tsvd_tasks as tasks;
pub use tsvd_vc as vc;
pub use tsvd_workloads as workloads;

/// The most common imports, in one place.
pub mod prelude {
    pub use tsvd_collections::{
        BitArray, Cache, Dictionary, HashSet, LinkedDeque, List, MultiMap, PriorityQueue, Queue,
        SortedList, SortedSet, Stack, StringBuilder,
    };
    pub use tsvd_core::{ObjId, OpKind, ReportSink, Runtime, SiteId, TsvdConfig, Violation};
    pub use tsvd_tasks::{parallel_for_each, parallel_invoke, JoinHandle, Pool, TsvdMutex};
}
