//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: a span opens in the
//! benchmark's own code right before a call into a layer's public function
//! and closes right after. Spans stay in memory and are written out once,
//! after the last timed region. A disabled tracer costs one branch per span,
//! so the untraced run executes the same driver code as the traced one.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id, unique within a tracer.
    pub id: u32,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u32,
    /// `<layer>.<module>.<function>`; the prefix up to the first dot is the
    /// layer the time is charged to.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span recorder (see module docs).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

struct State {
    next_id: u32,
    spans: Vec<Span>,
}

/// An open span; closes (and is recorded) when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: Mutex::new(State {
                next_id: 1,
                spans: Vec::new(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` (0 for a root). When `on` is false — the
    /// tracer is disabled, or this repetition is the untraced one of a
    /// traced run — nothing is recorded.
    pub fn span(&self, on: bool, name: &'static str, parent: u32) -> SpanGuard<'_> {
        if !(self.enabled && on) {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent: 0,
                name,
                start_ns: 0,
            };
        }
        let id = {
            let mut state = self.state.lock().expect("tracer state poisoned");
            let id = state.next_id;
            state.next_id += 1;
            id
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Every span closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("tracer state poisoned")
            .spans
            .clone()
    }

    /// Prints where the traced time went to stderr: self time per span name.
    pub fn log_self_times(&self, tag: &str) {
        for (name, ns) in self_time_by_name(&self.spans()) {
            eprintln!("[{tag}] self time {:>10.3} ms  {name}", ns as f64 / 1e6);
        }
    }

    /// Appends the spans to `path` as JSON lines tagged with `workload`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        );
        for s in self.spans() {
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl SpanGuard<'_> {
    /// This span's id, to pass as the `parent` of spans it causes (0 when
    /// nothing is being recorded).
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = self.tracer.now_ns();
        // A poisoned lock means another thread already panicked; losing a
        // span must not turn that into an abort.
        if let Ok(mut state) = self.tracer.state.lock() {
            state.spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// part of its interval that its child spans cover (children on parallel
/// threads may overlap each other; covered time counts once). Sorted by
/// name so output is stable.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for span in spans {
        let mut children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|c| c.parent == span.id)
            .map(|c| {
                (
                    c.start_ns.clamp(span.start_ns, span.end_ns),
                    c.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let own = (span.end_ns - span.start_ns).saturating_sub(covered);
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name, own)),
        }
    }
    totals.sort_unstable();
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "rep", 0, 100),
            // Two overlapping children on parallel threads cover 10..70 once.
            span(2, 1, "batch", 10, 50),
            span(3, 1, "batch", 30, 70),
            span(4, 2, "leaf", 20, 25),
        ];
        assert_eq!(
            self_time_by_name(&spans),
            vec![("batch", 35 + 40), ("leaf", 5), ("rep", 40)]
        );
    }

    #[test]
    fn disabled_or_switched_off_spans_record_nothing() {
        let off = Tracer::new(false);
        drop(off.span(true, "a", 0));
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        drop(on.span(false, "a", 0));
        assert!(on.spans().is_empty());
        let root = on.span(true, "root", 0);
        let child = on.span(true, "child", root.id());
        assert_eq!((root.id(), child.id()), (1, 2));
        drop(child);
        drop(root);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("child", 1));
        assert!(spans[1].end_ns >= spans[0].end_ns);
    }
}
