//! Delay-injection strategies: the design points of Fig. 2.
//!
//! Every variant shares the trap framework (Fig. 5) provided by the
//! [`Runtime`](crate::Runtime); a [`Strategy`] only answers the two design
//! questions of §3.1 — *where* to inject delays and *when* to inject them —
//! plus whatever bookkeeping that answer needs:
//!
//! | Variant | Where | When | Analysis cost |
//! |---|---|---|---|
//! | [`DynamicRandom`] | every TSVD point | small fixed probability | none |
//! | [`StaticRandom`] | every TSVD point | uniform over *static* sites (DataCollider) | none |
//! | [`Tsvd`] | trap-set members | decaying probability | near-miss + HB inference |
//! | [`TsvdHb`] | trap-set members | decaying probability | full vector-clock HB analysis |
//! | [`Noop`] | nowhere | never | none (instrumentation baseline) |
//! | [`Focused`] | one given pair | always | none (single-bug reproduction) |

mod dynamic_random;
mod focused;
mod noop;
mod plan;
mod static_random;
mod tsvd;
mod tsvd_hb;

pub use dynamic_random::DynamicRandom;
pub use focused::Focused;
pub use noop::Noop;
pub use static_random::StaticRandom;
pub use tsvd::Tsvd;
pub use tsvd_hb::TsvdHb;

use crate::access::Access;
use crate::context::ContextId;
use crate::near_miss::SitePair;
use crate::trap_file::TrapFileData;

/// A synchronization event, visible only to strategies that ask for it.
///
/// TSVD's defining property is that it *ignores* these events — only the
/// TSVD-HB comparison variant consumes them. The task substrate emits them
/// for every fork, join, task completion, and instrumented-lock transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEvent {
    /// `parent` forked `child` (task spawn, thread spawn).
    Fork {
        /// The forking context.
        parent: ContextId,
        /// The new context.
        child: ContextId,
    },
    /// `context` finished executing; its final clock becomes joinable.
    TaskEnd {
        /// The finished context.
        context: ContextId,
    },
    /// `waiter` joined with (blocked on) `target`.
    Join {
        /// The waiting context.
        waiter: ContextId,
        /// The context whose completion was awaited.
        target: ContextId,
    },
    /// `context` acquired the lock identified by `lock`.
    LockAcquire {
        /// The acquiring context.
        context: ContextId,
        /// Stable identity of the lock object.
        lock: u64,
    },
    /// `context` released the lock identified by `lock`.
    LockRelease {
        /// The releasing context.
        context: ContextId,
        /// Stable identity of the lock object.
        lock: u64,
    },
}

/// A delay-injection strategy: answers *where* and *when* to delay.
pub trait Strategy: Send + Sync {
    /// Short name for reports ("tsvd", "datacollider", ...).
    fn name(&self) -> &'static str;

    /// Called on every TSVD point, after the trap check, with the runtime's
    /// phase observation for the call (§3.4.3: did more than one context run
    /// the most recent TSVD points?). Returns the delay to inject right
    /// before the access, or `None` to proceed immediately.
    fn on_access(&self, access: &Access, concurrent: bool) -> Option<u64>;

    /// Called after an injected delay finished. `caught` reports whether a
    /// conflicting access collided with the trap during the sleep.
    fn on_delay_complete(&self, access: &Access, start_ns: u64, end_ns: u64, caught: bool);

    /// Called for every synchronization event. Default: ignored (the whole
    /// point of TSVD).
    fn on_sync(&self, _event: &SyncEvent) {}

    /// Called when a violation is confirmed at `pair`, so the strategy can
    /// prune it (§3.4.1: "a violation is already found at the pair").
    fn on_violation(&self, _pair: SitePair) {}

    /// Exports persistent state for the next run's trap file (§3.4.6).
    fn export_trap_file(&self) -> Option<TrapFileData> {
        None
    }

    /// Imports a previous run's trap file.
    fn import_trap_file(&self, _data: &TrapFileData) {}

    /// Approximate bytes of tracking state the strategy retains (for the
    /// §5.5 resource report). Default: none.
    fn memory_bytes(&self) -> usize {
        0
    }
}
