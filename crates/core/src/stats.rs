//! Runtime statistics: delay accounting, coverage, and resource estimates.
//!
//! The paper's runtime (§4) tracks the total delay injected per thread and
//! per run (to avoid test timeouts) and reports coverage of instrumented
//! APIs — which one product team used to find blind spots where critical
//! code was only ever exercised sequentially. The §5.5 resource evaluation
//! additionally needs memory estimates for the tracking state.
//!
//! `record_call` runs on every instrumented access, so coverage is a
//! grow-only table of atomic cells indexed by the dense [`SiteId::index`]:
//! two pointer loads and one or two relaxed `fetch_add`s — no lock word, no
//! hashing, no reference count. It grows on first touch in 1 KiB chunks, so
//! a runtime pays for the sites it executes, not for the process-wide site
//! count (a suite builds a runtime per module). The call total is the sum
//! of the cells' hits. The per-context delay ledger is sharded by context
//! so concurrent delayers don't share a lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::audit;
use crate::chunks::{ChunkTable, Stripe};
use crate::context::ContextId;
use crate::site::SiteId;

/// Per-site coverage: how often a TSVD point ran at all, and how often it
/// ran inside a concurrent phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct SiteCoverage {
    /// Executions in any context.
    pub hits: u64,
    /// Executions observed during a concurrent phase.
    pub concurrent_hits: u64,
}

#[derive(Default)]
struct CovCell {
    hits: AtomicU64,
    concurrent_hits: AtomicU64,
}

/// Counters shared by the runtime and its strategy.
pub struct RuntimeStats {
    delays_injected: AtomicU64,
    delay_total_ns: AtomicU64,
    traps_caught: AtomicU64,
    sync_events: AtomicU64,
    delay_shards: Box<[Stripe<HashMap<ContextId, u64>>]>,
    /// Indexed by [`SiteId::index`]; one chunk is 1 KiB.
    coverage: ChunkTable<CovCell>,
}

fn shard_of(key: u64, len: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % len
}

impl RuntimeStats {
    /// Creates zeroed counters; `shards` (≥ 1) stripes the delay ledger.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        RuntimeStats {
            delays_injected: AtomicU64::new(0),
            delay_total_ns: AtomicU64::new(0),
            traps_caught: AtomicU64::new(0),
            sync_events: AtomicU64::new(0),
            delay_shards: (0..shards).map(|_| Stripe::default()).collect(),
            coverage: ChunkTable::default(),
        }
    }

    /// Every site executed at least once, in index order.
    fn hits(&self) -> impl Iterator<Item = (SiteId, SiteCoverage)> + '_ {
        self.coverage.allocated().filter_map(|(index, cell)| {
            let hits = cell.hits.load(Ordering::Relaxed);
            let concurrent_hits = cell.concurrent_hits.load(Ordering::Relaxed);
            let coverage = SiteCoverage {
                hits,
                concurrent_hits,
            };
            (hits > 0).then_some((SiteId::from_index(index), coverage))
        })
    }

    /// Records one `OnCall` entry at `site`, noting phase concurrency.
    pub fn record_call(&self, site: SiteId, concurrent: bool) {
        audit::note_shared_write();
        let cell = self.coverage.get(site.index());
        cell.hits.fetch_add(1, Ordering::Relaxed);
        if concurrent {
            cell.concurrent_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an injected delay of `ns` nanoseconds by `context`.
    pub fn record_delay(&self, context: ContextId, ns: u64) {
        self.delays_injected.fetch_add(1, Ordering::Relaxed);
        self.delay_total_ns.fetch_add(ns, Ordering::Relaxed);
        let shard = &self.delay_shards[shard_of(context.0, self.delay_shards.len())];
        *shard.lock().entry(context).or_insert(0) += ns;
    }

    /// Records a trap collision.
    pub fn record_catch(&self) {
        self.traps_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a synchronization event delivered to the strategy.
    pub fn record_sync(&self) {
        self.sync_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Total `OnCall` entries: the sum of every site's hits.
    pub fn on_calls(&self) -> u64 {
        self.hits().map(|(_, c)| c.hits).sum()
    }

    /// Total delays injected.
    pub fn delays_injected(&self) -> u64 {
        self.delays_injected.load(Ordering::Relaxed)
    }

    /// Total nanoseconds of injected delay.
    pub fn delay_total_ns(&self) -> u64 {
        self.delay_total_ns.load(Ordering::Relaxed)
    }

    /// Total trap collisions.
    pub fn traps_caught(&self) -> u64 {
        self.traps_caught.load(Ordering::Relaxed)
    }

    /// Total synchronization events observed.
    pub fn sync_events(&self) -> u64 {
        self.sync_events.load(Ordering::Relaxed)
    }

    /// Delay injected by `context` so far (for the per-thread budget).
    pub fn context_delay_ns(&self, context: ContextId) -> u64 {
        self.delay_shards[shard_of(context.0, self.delay_shards.len())]
            .lock()
            .get(&context)
            .copied()
            .unwrap_or(0)
    }

    /// Number of distinct TSVD points executed.
    pub fn sites_covered(&self) -> usize {
        self.hits().count()
    }

    /// Number of TSVD points that ever ran in a concurrent phase.
    ///
    /// Sites with `hits > 0` but `concurrent_hits == 0` are the "blind
    /// spots" the paper's coverage report surfaces: code only ever tested
    /// sequentially.
    pub fn sites_covered_concurrently(&self) -> usize {
        let concurrent = |(_, c): &(SiteId, SiteCoverage)| c.concurrent_hits > 0;
        self.hits().filter(concurrent).count()
    }

    /// Per-site coverage snapshot, in site-index order.
    pub fn coverage(&self) -> Vec<(SiteId, SiteCoverage)> {
        self.hits().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteData;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "stats_test.rs",
            line: n,
            column: 1,
        })
    }

    #[test]
    fn call_and_coverage_counting() {
        let s = RuntimeStats::with_shards(4);
        s.record_call(site(1), false);
        s.record_call(site(1), true);
        s.record_call(site(2), false);
        assert_eq!(s.on_calls(), 3);
        assert_eq!(s.sites_covered(), 2);
        assert_eq!(s.sites_covered_concurrently(), 1);
    }

    #[test]
    fn delay_accounting_per_context() {
        let s = RuntimeStats::with_shards(4);
        s.record_delay(ContextId(1), 100);
        s.record_delay(ContextId(1), 50);
        s.record_delay(ContextId(2), 10);
        assert_eq!(s.delays_injected(), 3);
        assert_eq!(s.delay_total_ns(), 160);
        assert_eq!(s.context_delay_ns(ContextId(1)), 150);
        assert_eq!(s.context_delay_ns(ContextId(2)), 10);
        assert_eq!(s.context_delay_ns(ContextId(3)), 0);
    }

    #[test]
    fn catch_and_sync_counters() {
        let s = RuntimeStats::with_shards(4);
        s.record_catch();
        s.record_sync();
        s.record_sync();
        assert_eq!(s.traps_caught(), 1);
        assert_eq!(s.sync_events(), 2);
    }

    #[test]
    fn coverage_is_exact_across_chunks_whatever_the_touch_order() {
        // Sites far apart in index land in different chunks and directory
        // rows; touching the highest first must not disturb the lower ones.
        let s = RuntimeStats::with_shards(4);
        let sites: Vec<SiteId> = (0..300).map(|n| site(100 + n)).collect();
        assert!(sites[299].index() - sites[0].index() >= 4 * crate::chunks::CHUNK);
        for round in 0..3 {
            for &site in sites.iter().rev() {
                s.record_call(site, round == 0);
            }
        }
        assert_eq!(s.on_calls(), 900);
        assert_eq!(s.sites_covered(), 300);
        assert_eq!(s.sites_covered_concurrently(), 300);
        let cov = s.coverage();
        let mut covered: Vec<SiteId> = cov.iter().map(|(site, _)| *site).collect();
        covered.sort();
        assert_eq!(covered, sites);
        for (_, c) in cov {
            assert_eq!(c.hits, 3);
            assert_eq!(c.concurrent_hits, 1);
        }
    }
}
