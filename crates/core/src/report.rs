//! Violation reports and their aggregation.
//!
//! Each report carries the two conflicting accesses — static locations,
//! contexts, operation names, and (optionally) stack traces — which is what
//! made the paper's reports "sufficiently actionable" for developers. The
//! sink deduplicates by the unordered pair of static program locations, the
//! paper's conservative unique-bug key, while also tracking distinct
//! stack-trace pairs and per-bug occurrence counts (Table 1 statistics).

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::access::OpKind;
use crate::chunks::{IdMap, IdSet};
use crate::near_miss::SitePair;
use crate::site::SiteId;

/// One side of a caught violation.
#[derive(Debug, Clone)]
pub struct Party {
    /// Static program location of the call.
    pub site: SiteId,
    /// Execution context that made the call.
    pub context: crate::context::ContextId,
    /// Operation name, e.g. `"Dictionary.add"`.
    pub op_name: &'static str,
    /// Read/write classification.
    pub kind: OpKind,
    /// Stack trace, if capture was enabled.
    pub stack: Option<Arc<str>>,
}

/// A thread-safety violation caught red-handed.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The trap side (the delayed thread).
    pub trapped: Party,
    /// The side that walked into the trap.
    pub hitter: Party,
    /// The object both sides were accessing.
    pub obj: crate::access::ObjId,
    /// When the collision was observed, nanoseconds.
    pub time_ns: u64,
}

impl Violation {
    /// The unordered static-location pair identifying this bug.
    pub fn pair(&self) -> SitePair {
        SitePair::new(self.trapped.site, self.hitter.site)
    }

    /// Returns `true` if exactly one side is a read (a read-write bug —
    /// 48 % of the paper's corpus).
    pub fn is_read_write(&self) -> bool {
        (self.trapped.kind == OpKind::Read) != (self.hitter.kind == OpKind::Read)
    }

    /// Returns `true` if both sides are the same static location (34 % of
    /// the paper's corpus).
    pub fn is_same_location(&self) -> bool {
        self.trapped.site == self.hitter.site
    }
}

/// A pair of captured stack traces (trapped side, hitter side).
type StackPair = (Arc<str>, Arc<str>);

#[derive(Default)]
struct SinkInner {
    all: Vec<Violation>,
    occurrences: IdMap<SitePair, usize>,
    stack_pairs: IdMap<SitePair, HashSet<StackPair>>,
}

/// Collects violations and aggregates unique-bug statistics.
#[derive(Default, Clone)]
pub struct ReportSink {
    inner: Arc<Mutex<SinkInner>>,
}

impl ReportSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a violation. Returns `true` if its location pair is new
    /// (a newly discovered unique bug).
    pub fn report(&self, v: Violation) -> bool {
        let mut inner = self.inner.lock();
        let pair = v.pair();
        if let (Some(a), Some(b)) = (&v.trapped.stack, &v.hitter.stack) {
            inner
                .stack_pairs
                .entry(pair)
                .or_default()
                .insert((a.clone(), b.clone()));
        }
        let count = inner.occurrences.entry(pair).or_insert(0);
        *count += 1;
        let is_new = *count == 1;
        inner.all.push(v);
        is_new
    }

    /// Number of unique bugs (distinct location pairs).
    pub fn unique_bugs(&self) -> usize {
        self.inner.lock().occurrences.len()
    }

    /// Number of distinct static locations involved in any bug.
    pub fn unique_locations(&self) -> usize {
        let inner = self.inner.lock();
        let mut sites = IdSet::default();
        for pair in inner.occurrences.keys() {
            sites.insert(pair.first);
            sites.insert(pair.second);
        }
        sites.len()
    }

    /// Total violations observed, counting repeats.
    pub fn total_occurrences(&self) -> usize {
        self.inner.lock().all.len()
    }

    /// Distinct (stack, stack) pairs across all bugs (needs stack capture).
    pub fn stack_trace_pairs(&self) -> usize {
        self.inner
            .lock()
            .stack_pairs
            .values()
            .map(|s| s.len())
            .sum()
    }

    /// The set of unique bug pairs.
    pub fn bug_pairs(&self) -> Vec<SitePair> {
        self.inner.lock().occurrences.keys().copied().collect()
    }

    /// Occurrence count per unique bug.
    pub fn occurrence_counts(&self) -> Vec<(SitePair, usize)> {
        let inner = self.inner.lock();
        inner.occurrences.iter().map(|(&p, &c)| (p, c)).collect()
    }

    /// Snapshot of every violation observed.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().all.clone()
    }

    /// Summary of every unique bug: locations, operation names and stack
    /// traces, what the deployed tool logs (§4). The persisted report is
    /// the durable sink ([`crate::sink`]).
    pub fn export(&self) -> ReportExport {
        let inner = self.inner.lock();
        let mut seen = IdSet::default();
        let mut bugs = Vec::new();
        for v in &inner.all {
            let pair = v.pair();
            if !seen.insert(pair) {
                continue;
            }
            bugs.push(BugExport {
                location_a: pair.first.to_string(),
                location_b: pair.second.to_string(),
                op_a: v.trapped.op_name.to_string(),
                op_b: v.hitter.op_name.to_string(),
                read_write: v.is_read_write(),
                same_location: v.is_same_location(),
                occurrences: inner.occurrences.get(&pair).copied().unwrap_or(1),
                stack_a: v.trapped.stack.as_deref().map(str::to_owned),
                stack_b: v.hitter.stack.as_deref().map(str::to_owned),
            });
        }
        bugs.sort_by(|a, b| (&a.location_a, &a.location_b).cmp(&(&b.location_a, &b.location_b)));
        ReportExport {
            unique_bugs: bugs.len(),
            total_occurrences: inner.all.len(),
            bugs,
        }
    }
}

/// A sink's unique bugs, one entry each.
#[derive(Debug, Clone)]
pub struct ReportExport {
    /// Number of unique bugs (distinct location pairs).
    pub unique_bugs: usize,
    /// Total violations observed, repeats included.
    pub total_occurrences: usize,
    /// One entry per unique bug.
    pub bugs: Vec<BugExport>,
}

/// One exported bug.
#[derive(Debug, Clone)]
pub struct BugExport {
    /// First static location of the pair (normalized order).
    pub location_a: String,
    /// Second static location of the pair.
    pub location_b: String,
    /// Operation name on the trapped side of the first catch.
    pub op_a: String,
    /// Operation name on the hitter side of the first catch.
    pub op_b: String,
    /// `true` if exactly one side reads.
    pub read_write: bool,
    /// `true` if both sides are one static location.
    pub same_location: bool,
    /// How many times this bug was caught.
    pub occurrences: usize,
    /// Stack trace of the trapped side, if capture was enabled.
    pub stack_a: Option<String>,
    /// Stack trace of the hitter side, if capture was enabled.
    pub stack_b: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::ObjId;
    use crate::context::ContextId;
    use crate::site::{SiteData, SiteId};

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "report_test.rs",
            line: n,
            column: 1,
        })
    }

    fn violation(a: u32, b: u32, ka: OpKind, kb: OpKind) -> Violation {
        Violation {
            trapped: Party {
                site: site(a),
                context: ContextId(1),
                op_name: "x.a",
                kind: ka,
                stack: None,
            },
            hitter: Party {
                site: site(b),
                context: ContextId(2),
                op_name: "x.b",
                kind: kb,
                stack: None,
            },
            obj: ObjId(7),
            time_ns: 0,
        }
    }

    #[test]
    fn dedup_by_unordered_pair() {
        let sink = ReportSink::new();
        assert!(sink.report(violation(1, 2, OpKind::Write, OpKind::Write)));
        assert!(!sink.report(violation(2, 1, OpKind::Write, OpKind::Write)));
        assert_eq!(sink.unique_bugs(), 1);
        assert_eq!(sink.total_occurrences(), 2);
        assert_eq!(sink.unique_locations(), 2);
    }

    #[test]
    fn distinct_pairs_are_distinct_bugs() {
        let sink = ReportSink::new();
        sink.report(violation(1, 2, OpKind::Write, OpKind::Write));
        sink.report(violation(1, 3, OpKind::Write, OpKind::Write));
        assert_eq!(sink.unique_bugs(), 2);
        assert_eq!(sink.unique_locations(), 3);
    }

    #[test]
    fn read_write_classification() {
        let v = violation(1, 2, OpKind::Read, OpKind::Write);
        assert!(v.is_read_write());
        let v = violation(1, 2, OpKind::Write, OpKind::Write);
        assert!(!v.is_read_write());
    }

    #[test]
    fn export_dedups_and_orders() {
        let sink = ReportSink::new();
        sink.report(violation(5, 4, OpKind::Read, OpKind::Write));
        sink.report(violation(1, 2, OpKind::Write, OpKind::Write));
        sink.report(violation(2, 1, OpKind::Write, OpKind::Write)); // repeat
        let export = sink.export();
        assert_eq!(export.unique_bugs, 2);
        assert_eq!(export.total_occurrences, 3);
        assert!(export.bugs[0].location_a <= export.bugs[1].location_a);
        let repeat = export
            .bugs
            .iter()
            .find(|b| b.occurrences == 2)
            .expect("one bug caught twice");
        assert!(!repeat.read_write);
    }

    #[test]
    fn stack_pairs_counted_when_present() {
        let sink = ReportSink::new();
        let mut v = violation(1, 2, OpKind::Write, OpKind::Write);
        v.trapped.stack = Some(Arc::from("stackA"));
        v.hitter.stack = Some(Arc::from("stackB"));
        sink.report(v.clone());
        sink.report(v); // Identical stacks: still one pair.
        let mut v2 = violation(1, 2, OpKind::Write, OpKind::Write);
        v2.trapped.stack = Some(Arc::from("stackC"));
        v2.hitter.stack = Some(Arc::from("stackB"));
        sink.report(v2);
        assert_eq!(sink.unique_bugs(), 1);
        assert_eq!(sink.stack_trace_pairs(), 2);
    }
}
