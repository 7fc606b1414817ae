//! TSVD: thread-safety-violation detection via active delay injection.
//!
//! This crate implements the detection algorithms of *"Efficient Scalable
//! Thread-Safety-Violation Detection"* (SOSP 2019):
//!
//! - the **trap framework** shared by every variant (Fig. 5 of the paper):
//!   on each call into a thread-unsafe API, check whether a conflicting trap
//!   is set, optionally set a trap and delay, and report a violation when two
//!   threads are caught *red-handed* making conflicting calls on one object;
//! - the **TSVD planner** (§3.4): near-miss tracking, concurrent-phase
//!   inference, happens-before *inference* from observed delay propagation,
//!   probability decay, and trap-set persistence across runs;
//! - the comparison variants (§3.2–§3.5): [`strategy::DynamicRandom`],
//!   [`strategy::StaticRandom`] (the DataCollider emulation), and
//!   [`strategy::TsvdHb`] (vector-clock happens-before analysis).
//!
//! The only interface between an instrumented program and the detector is
//! [`Runtime::on_call`] with the access triple `(thread, object, operation)`
//! — exactly the paper's `OnCall` — plus [`Runtime::on_sync`], which only the
//! TSVD-HB variant consumes.
//!
//! # Examples
//!
//! ```
//! use tsvd_core::{OpKind, Runtime, TsvdConfig};
//!
//! let rt = Runtime::tsvd(TsvdConfig::for_testing());
//! // An instrumented collection wrapper would make this call internally.
//! rt.on_call(tsvd_core::ObjId(0x1000), tsvd_core::site!(), "Dictionary.add", OpKind::Write);
//! assert_eq!(rt.reports().unique_bugs(), 0);
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod audit;
mod chunks;
pub mod clock;
pub mod config;
pub mod context;
pub mod decay;
pub mod epoch;
pub mod hb_infer;
pub mod near_miss;
pub mod phase;
pub mod record;
pub mod report;
pub mod rng;
pub mod runtime;
pub mod sink;
pub mod site;
pub mod stats;
pub mod strategy;
pub mod suggest;
pub mod trap;
pub mod trap_file;
pub mod trapset;
pub mod watchdog;

pub use access::{classify_op, Access, ApiEntry, ObjId, OpKind, API_TABLE};
pub use clock::now_ns;
pub use config::TsvdConfig;
pub use context::ContextId;
pub use record::save_atomic;
pub use report::{ReportSink, Violation};
pub use runtime::Runtime;
pub use sink::{DurableSink, ViolationRecord, VIOLATION_SCHEMA_VERSION};
pub use site::SiteId;
pub use strategy::{Strategy, SyncEvent};
pub use suggest::{SuggestionRecord, SUGGESTION_SCHEMA_VERSION};
pub use trap_file::{PairOrigin, TrapFileData};
pub use watchdog::{DegradeReason, Watchdog, WorkerRegistration};
