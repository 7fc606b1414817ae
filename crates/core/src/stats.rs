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
//! two pointer loads and one relaxed `fetch_add` — no lock word, no
//! hashing, no reference count. It grows on first touch in 1 KiB chunks, so
//! a runtime pays for the sites it executes, not for the process-wide site
//! count (a suite builds a runtime per module). There are `PLANES` such
//! tables: a thread takes the next plane of a runtime the first time it
//! records a call there and counts into that plane only, so threads running
//! the same sites do not pass the cells' lines back and forth. Every reader
//! sums the planes, so the counts are exact; the call total is the sum of
//! the hits. The per-context delay ledger is striped by context so
//! concurrent delayers don't share a lock.
//!
//! What became of the dangerous pairs is not counted here: the strategy's
//! pair table holds it ([`PairCounts`](crate::trapset::PairCounts), read
//! through [`Runtime::pair_counts`](crate::Runtime::pair_counts)).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::audit;
use crate::chunks::{stripe_of, ChunkTable, IdMap, Stripe};
use crate::context::ContextId;
use crate::site::SiteId;

/// Coverage planes per runtime: the threads that run at once on the
/// machines this is measured on, and more. Threads past the eighth share
/// planes, which costs cache-line transfers, never counts.
pub(crate) const PLANES: usize = 8;

/// Ids of `RuntimeStats`: a count, because a dropped runtime's address is
/// reused.
static NEXT_STATS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(stats id, plane)` of the runtime this thread last counted a call in.
    static PLANE: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// Per-site coverage: how often a TSVD point ran at all, and how often it
/// ran inside a concurrent phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct SiteCoverage {
    /// Executions in any context.
    pub hits: u64,
    /// Executions observed during a concurrent phase.
    pub concurrent_hits: u64,
}

/// One site's calls in one plane: made in a sequential phase, then in a
/// concurrent one. A call adds to exactly one, so it costs one `fetch_add`.
#[derive(Default)]
struct CovCell([AtomicU64; 2]);

impl CovCell {
    fn load(&self) -> SiteCoverage {
        let [sequential, concurrent] = &self.0;
        let concurrent_hits = concurrent.load(Ordering::Relaxed);
        SiteCoverage {
            hits: sequential.load(Ordering::Relaxed) + concurrent_hits,
            concurrent_hits,
        }
    }
}

/// Counters shared by the runtime and its strategy.
pub struct RuntimeStats {
    delays_injected: AtomicU64,
    delay_total_ns: AtomicU64,
    traps_caught: AtomicU64,
    sync_events: AtomicU64,
    delay_shards: Box<[Stripe<IdMap<ContextId, u64>>]>,
    /// Each indexed by [`SiteId::index`]; one chunk is 1 KiB.
    planes: [ChunkTable<CovCell>; PLANES],
    /// Planes handed out so far; a thread new to this runtime takes the
    /// next one, modulo `PLANES`.
    next_plane: AtomicUsize,
    id: u64,
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
            planes: Default::default(),
            next_plane: AtomicUsize::new(0),
            id: NEXT_STATS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The calling thread's plane, picked on its first call here.
    #[inline]
    fn plane(&self) -> &ChunkTable<CovCell> {
        let (id, plane) = PLANE.get();
        if id == self.id {
            // In range already; the `%` lets the compiler see it.
            return &self.planes[plane % PLANES];
        }
        audit::note_shared_write();
        let plane = self.next_plane.fetch_add(1, Ordering::Relaxed) % PLANES;
        PLANE.set((self.id, plane));
        &self.planes[plane]
    }

    /// Records one `OnCall` entry at `site`, noting phase concurrency.
    pub fn record_call(&self, site: SiteId, concurrent: bool) {
        audit::note_shared_write();
        let cell = self.plane().get(site.index());
        cell.0[usize::from(concurrent)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records an injected delay of `ns` nanoseconds by `context`.
    pub fn record_delay(&self, context: ContextId, ns: u64) {
        audit::note_shared_write();
        self.delays_injected.fetch_add(1, Ordering::Relaxed);
        self.delay_total_ns.fetch_add(ns, Ordering::Relaxed);
        *self.ledger(context).lock().entry(context).or_insert(0) += ns;
    }

    /// The delay-ledger stripe of `context`.
    fn ledger(&self, context: ContextId) -> &Stripe<IdMap<ContextId, u64>> {
        &self.delay_shards[stripe_of(context.0, self.delay_shards.len())]
    }

    /// Records a trap collision.
    pub fn record_catch(&self) {
        self.traps_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a synchronization event delivered to the strategy.
    pub fn record_sync(&self) {
        self.sync_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Total `OnCall` entries: the sum of every plane's hits.
    pub fn on_calls(&self) -> u64 {
        let cells = self.planes.iter().flat_map(ChunkTable::allocated);
        cells.map(|(_, cell)| cell.load().hits).sum()
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
        self.ledger(context)
            .lock()
            .get(&context)
            .copied()
            .unwrap_or(0)
    }

    /// Number of distinct TSVD points executed.
    pub fn sites_covered(&self) -> usize {
        self.coverage().len()
    }

    /// Number of TSVD points that ever ran in a concurrent phase.
    ///
    /// Sites with `hits > 0` but `concurrent_hits == 0` are the "blind
    /// spots" the paper's coverage report surfaces: code only ever tested
    /// sequentially.
    pub fn sites_covered_concurrently(&self) -> usize {
        let concurrent = |(_, c): &&(SiteId, SiteCoverage)| c.concurrent_hits > 0;
        self.coverage().iter().filter(concurrent).count()
    }

    /// Per-site coverage snapshot: every site executed at least once, in
    /// site-index order, summed over the planes.
    pub fn coverage(&self) -> Vec<(SiteId, SiteCoverage)> {
        let mut cells: Vec<(usize, SiteCoverage)> = self
            .planes
            .iter()
            .flat_map(ChunkTable::allocated)
            .map(|(index, cell)| (index, cell.load()))
            .filter(|(_, coverage)| coverage.hits > 0)
            .collect();
        cells.sort_unstable_by_key(|&(index, _)| index);
        let sites = cells.chunk_by(|a, b| a.0 == b.0).map(|planes| {
            let mut sum = SiteCoverage::default();
            for (_, c) in planes {
                sum.hits += c.hits;
                sum.concurrent_hits += c.concurrent_hits;
            }
            (SiteId::from_index(planes[0].0), sum)
        });
        sites.collect()
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

    /// Calls counted in each plane, in plane order.
    fn plane_calls(s: &RuntimeStats) -> Vec<u64> {
        let calls = |plane: &ChunkTable<CovCell>| {
            let cells = plane.allocated();
            cells.map(|(_, c)| c.load().hits).sum()
        };
        s.planes.iter().map(calls).collect()
    }

    #[test]
    fn two_threads_count_into_planes_of_their_own() {
        let s = RuntimeStats::with_shards(4);
        let (a, b) = (site(40), site(41));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..300 {
                    s.record_call(a, false);
                }
            });
            scope.spawn(|| {
                start.wait();
                for _ in 0..500 {
                    s.record_call(a, true);
                    s.record_call(b, false);
                }
            });
        });
        // The first two picks of a fresh runtime are planes 0 and 1, in
        // whichever order the threads arrived.
        let calls = plane_calls(&s);
        let mut first_two = calls[..2].to_vec();
        first_two.sort_unstable();
        assert_eq!(first_two, [300, 1_000]);
        assert!(s.planes[2..].iter().all(|p| p.allocated().next().is_none()));
        for (plane, calls) in s.planes.iter().zip(&calls).take(2) {
            let cell = |site: SiteId| {
                let c = plane.get(site.index()).load();
                (c.hits, c.concurrent_hits)
            };
            let want = if *calls == 300 {
                [(300, 0), (0, 0)]
            } else {
                [(500, 500), (500, 0)]
            };
            assert_eq!(
                [cell(a), cell(b)],
                want,
                "a plane holds its thread's calls only"
            );
        }
        assert_eq!(s.on_calls(), 1_300);
        let cov: Vec<(u64, u64)> = s
            .coverage()
            .iter()
            .map(|(_, c)| (c.hits, c.concurrent_hits))
            .collect();
        assert_eq!(cov, [(800, 500), (500, 0)]);
    }

    #[test]
    fn a_thread_moving_between_runtimes_counts_in_each_exactly() {
        let (s, t) = (RuntimeStats::with_shards(1), RuntimeStats::with_shards(1));
        for round in 0..20 {
            s.record_call(site(50), round % 2 == 0);
            t.record_call(site(51), false);
            t.record_call(site(51), false);
        }
        assert_eq!((s.on_calls(), t.on_calls()), (20, 40));
        assert_eq!(s.sites_covered_concurrently(), 1);
        assert_eq!(t.sites_covered_concurrently(), 0);
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
