//! Scenario catalog: one constructor per bug/non-bug pattern.
//!
//! Grouped by provenance:
//!
//! - [`paper_examples`] — the concrete bugs the paper shows in code
//!   (Fig. 1, Fig. 3, Fig. 10 a/b, and the §5.6 production incident);
//! - [`buggy`] — generic planted-TSV patterns matching the Table 1 bug
//!   characteristics (same-location, read-write, async-heavy, hot-path);
//! - [`hard`] — bugs reproducing the §5.3 false-negative categories
//!   (rare-schedule pairs and single-shot points needing a second run);
//! - [`clean`] — modules with *no* possible TSV, each stressing a
//!   different part of a detector (locks, ad-hoc synchronization,
//!   sequential phases, fork/join ordering, plain sequential CRUD).
//!
//! Bodies are written with `ModuleCtx`'s paced tasks and join-all, so each
//! states only its shared objects, its racing operations, and the waits
//! that differ from the paced loop.

pub mod buggy;
pub mod clean;
pub mod hard;
pub mod paper_examples;

/// Innocent per-worker instrumentation traffic standing in for the rest of
/// a real test's collection usage. Racy modules are not all racy code: the
/// filler dilutes where random delay injection lands, as real corpora do.
pub(crate) struct Filler {
    dict: tsvd_collections::Dictionary<u64, u64>,
}

impl Filler {
    pub(crate) fn new(rt: &std::sync::Arc<tsvd_core::Runtime>) -> Filler {
        Filler {
            dict: tsvd_collections::Dictionary::new(rt),
        }
    }

    /// A couple of private, conflict-free instrumented accesses.
    pub(crate) fn tick(&self, i: u32) {
        self.dict.set(u64::from(i % 8), u64::from(i));
        let _ = self.dict.get(&u64::from(i % 8));
    }
}

/// A deterministic bit of CPU work standing in for application logic.
pub(crate) fn busy_work(units: u32) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..units * 25 {
        acc = acc.rotate_left(7) ^ u64::from(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_work_is_deterministic() {
        assert_eq!(busy_work(4), busy_work(4));
        assert_ne!(busy_work(4), busy_work(5));
    }
}
