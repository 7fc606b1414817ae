//! Static happens-before: per-function ordering facts over the same token
//! stream and [`ScopeTree`] the site pass walks.
//!
//! The pair deriver in [`analysis`](crate::analysis) asks one question the
//! lockset cannot answer: can these two accesses *overlap in time at all*?
//! A spawned body that is joined before the main thread touches the data
//! again, a scoped-thread block whose closing brace joins every spawn, or
//! a channel recv that cannot return before the send, all serialize the
//! pair by construction. Such pairs waste a trap and depress precision.
//!
//! The edge kinds, in the order they are tried:
//!
//! - **spawn**: everything before a region's spawn call happens-before the
//!   region body (this has always been implicit in the pair rules — a
//!   main-thread access *before* the spawn never pairs).
//! - **join**: `let h = ...spawn(...); h.join();` — the region body
//!   happens-before everything after the join, in the join's own region.
//! - **scope**: `scope(|s| { s.spawn(...); ... })` — every region spawned
//!   inside the scope-call parens completes at the closing paren.
//! - **channel**: for a channel with exactly one syntactic send and one
//!   recv (neither in a loop), an access before the send happens-before an
//!   access after the recv.
//! - **await points** (`.await`) are recorded as task-boundary markers for
//!   the report; the threads-only runtime draws no edges from them yet.
//!
//! Every event and access is a [`Point`]: token, region, `fn` item and the
//! one block it is in. Soundness discipline: a completion event only
//! *orders* a later access when it **dominates** it — the event's block is
//! the access's block or an ancestor of it in the tree
//! ([`ScopeTree::dominates`]) — so a join inside an `if` or a sibling block
//! never prunes. Events inside loops never complete anything (a loop
//! iteration breaks textual-order-equals-program-order). A `scope(...)`
//! call completes at the `)` the tree closes it with; one that never closes
//! completes nothing. Regions materialized from interprocedural summaries
//! are never considered sealed: the callee's spawn is invisible to the
//! caller's joins. When the test fails the pair is *kept* and only its
//! confidence is scaled (window / partial evidence); pruning requires the
//! full dominance argument.

use std::collections::HashMap;

use crate::scope::{ScopeTree, ROOT};

/// A directed graph over dense `usize` nodes with BFS reachability.
///
/// Used region-to-region: an edge `p -> q` means region `p` provably
/// completes before region `q` starts. Reachability is reflexive
/// (`reachable(x, x)` is `true`) and, being plain BFS over an adjacency
/// list, invariant to the order edges were inserted — the property
/// `reachability_is_invariant_to_edge_insertion_order` pins down.
#[derive(Debug, Default, Clone)]
pub struct HbGraph {
    adj: Vec<Vec<usize>>,
}

impl HbGraph {
    /// A graph with `nodes` nodes and no edges.
    pub fn new(nodes: usize) -> Self {
        HbGraph {
            adj: vec![Vec::new(); nodes],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds a directed edge; out-of-range endpoints are ignored and
    /// duplicates are harmless.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        if from < self.adj.len() && to < self.adj.len() && !self.adj[from].contains(&to) {
            self.adj[from].push(to);
        }
    }

    /// Whether `to` is reachable from `from` (reflexively).
    pub fn reachable(&self, from: usize, to: usize) -> bool {
        if from >= self.adj.len() {
            return from == to;
        }
        self.reach_set(from).contains(&to)
    }

    /// Every node reachable from `from`, including `from` itself.
    pub fn reach_set(&self, from: usize) -> Vec<usize> {
        let mut seen = vec![false; self.adj.len()];
        let mut queue = vec![from];
        let mut out = Vec::new();
        if from < seen.len() {
            seen[from] = true;
        }
        while let Some(n) = queue.pop() {
            out.push(n);
            if n < self.adj.len() {
                for &m in &self.adj[n] {
                    if !seen[m] {
                        seen[m] = true;
                        queue.push(m);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// How a region's completion is sealed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealKind {
    /// `handle.join()` on the region's spawn handle.
    Join(String),
    /// The closing paren of the enclosing `scope(...)` call.
    Scope,
}

/// A token as the ordering queries see it: an access, or the `(` of a
/// spawn, join, `scope(...)`, send or recv call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Point {
    /// Token index.
    pub tok: usize,
    /// Region the token runs in (for a spawn: the spawning region).
    pub region: u32,
    /// Function the token appears in.
    pub fn_id: u32,
    /// Block the token is in.
    pub block: u32,
}

/// Per-region happens-before facts; index = region id, entry 0 is the
/// implicit top level. Regions are in token order.
#[derive(Debug, Clone, Default)]
pub struct RegionHb {
    /// The spawn call's `(`.
    pub spawn: Point,
    /// Whether the region body can run against itself.
    pub multi: bool,
    /// Materialized from an interprocedural summary: the spawn lives in a
    /// callee, so no completion in this file can seal it.
    pub synthetic: bool,
    /// `let h = ...spawn(...)` binding name, if any.
    pub handle: Option<String>,
    /// The `(` of the first `h.join()` on the handle.
    pub join: Option<Point>,
}

/// One channel endpoint use (`tx.send(` / `rx.recv(`).
#[derive(Debug, Clone)]
pub struct ChanEvent {
    /// Per-function channel id (see [`crate::lockset`]).
    pub chan: u32,
    /// The call's `(`.
    pub at: Point,
}

/// The verdict [`HbIndex::relate`] returns for one pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HbEvidence {
    /// Provably ordered via a dominating join: prune.
    OrderedJoin(String),
    /// Provably ordered via a scope close: prune.
    OrderedScope,
    /// Provably ordered via a unique send→recv: prune.
    OrderedChannel,
    /// A join on one endpoint's region bounds the overlap window.
    WindowJoin(String),
    /// A scope close bounds the overlap window.
    WindowScope,
    /// A unique channel links the two regions but the position test failed.
    ChannelPartial,
    /// No ordering facts apply.
    None,
}

impl HbEvidence {
    /// Whether the pair is serialized by construction (prune it).
    pub fn is_ordered(&self) -> bool {
        matches!(
            self,
            HbEvidence::OrderedJoin(_) | HbEvidence::OrderedScope | HbEvidence::OrderedChannel
        )
    }

    /// The `hb_evidence` label serialized into reports and trap files.
    pub fn label(&self) -> String {
        match self {
            HbEvidence::OrderedJoin(h) => format!("ordered:join:{h}"),
            HbEvidence::OrderedScope => "ordered:scope".to_string(),
            HbEvidence::OrderedChannel => "ordered:channel".to_string(),
            HbEvidence::WindowJoin(h) => format!("window-join:{h}"),
            HbEvidence::WindowScope => "window-scope".to_string(),
            HbEvidence::ChannelPartial => "channel-partial".to_string(),
            HbEvidence::None => "none".to_string(),
        }
    }

    /// Confidence multiplier for kept pairs (ordered pairs are pruned and
    /// never scored).
    pub fn factor(&self) -> f64 {
        match self {
            HbEvidence::WindowJoin(_) | HbEvidence::WindowScope => 0.95,
            HbEvidence::ChannelPartial => 0.9,
            _ => 1.0,
        }
    }
}

/// A region's completion event: the point after which its body has
/// provably finished.
#[derive(Debug, Clone)]
struct Completion {
    at: Point,
    kind: SealKind,
}

/// All happens-before facts of one file, built alongside the site pass and
/// finalized once the walk ends.
#[derive(Debug)]
pub struct HbIndex<'t> {
    /// The file's block structure: closers, loop bodies, dominance.
    tree: &'t ScopeTree,
    /// Per-region facts; index = region id.
    pub regions: Vec<RegionHb>,
    /// The `(` of every `scope(...)` call; the tree knows its `)`.
    pub scopes: Vec<Point>,
    /// Channel send events.
    pub sends: Vec<ChanEvent>,
    /// Channel recv events.
    pub recvs: Vec<ChanEvent>,
    /// `.await` task-boundary markers as `(line, column)`.
    pub awaits: Vec<(u32, u32)>,
    /// Live spawn-handle bindings of the current function.
    handles: HashMap<String, u32>,
    /// Region-level completion graph, built by [`finalize`](Self::finalize).
    graph: HbGraph,
}

impl<'t> HbIndex<'t> {
    /// An index over `tree`'s file with the implicit top-level region.
    pub fn new(tree: &'t ScopeTree) -> Self {
        HbIndex {
            tree,
            regions: vec![RegionHb::default()],
            scopes: Vec::new(),
            sends: Vec::new(),
            recvs: Vec::new(),
            awaits: Vec::new(),
            handles: HashMap::new(),
            graph: HbGraph::default(),
        }
    }

    /// Called at each `fn` item boundary: handles are function-local.
    pub fn on_fn(&mut self) {
        self.handles.clear();
    }

    /// Binds a spawn handle name to its region.
    pub fn bind_handle(&mut self, name: String, region: u32) {
        if let Some(r) = self.regions.get_mut(region as usize) {
            r.handle = Some(name.clone());
        }
        self.handles.insert(name, region);
    }

    /// Drops a handle rebound by a `let` with an untracked RHS.
    pub fn forget_handle(&mut self, name: &str) {
        self.handles.remove(name);
    }

    /// Records `name.join()` if `name` is a live handle.
    pub fn on_join(&mut self, name: &str, join: Point) {
        let Some(&rid) = self.handles.get(name) else {
            return;
        };
        if let Some(r) = self.regions.get_mut(rid as usize) {
            r.join.get_or_insert(join);
        }
    }

    /// Builds the region completion graph. Call once after the token walk.
    pub fn finalize(&mut self) {
        let n = self.regions.len();
        self.graph = HbGraph::new(n);
        for p in 1..n {
            let Some(c) = self.completion(p as u32) else {
                continue;
            };
            for q in 1..n {
                if p == q {
                    continue;
                }
                let rq = &self.regions[q];
                if rq.synthetic
                    || rq.spawn.fn_id != self.regions[p].spawn.fn_id
                    || c.at.region != rq.spawn.region
                    || c.at.tok >= rq.spawn.tok
                    || !self.tree.dominates(c.at.block, rq.spawn.block)
                {
                    continue;
                }
                self.graph.add_edge(p, q);
            }
        }
    }

    /// The ordering verdict for one pair of endpoints.
    pub fn relate(&self, a: &Point, b: &Point) -> HbEvidence {
        if a.fn_id != b.fn_id || a.region == b.region {
            // Cross-function sites share no completion events; same-region
            // pairs are the multi-instance case, where a region's own seal
            // says nothing about instance overlap.
            return HbEvidence::None;
        }
        if let Some(kind) = self
            .ordered_before(a, b)
            .or_else(|| self.ordered_before(b, a))
        {
            return match kind {
                SealKind::Join(h) => HbEvidence::OrderedJoin(h),
                SealKind::Scope => HbEvidence::OrderedScope,
            };
        }
        if self.channel_ordered(a, b) || self.channel_ordered(b, a) {
            return HbEvidence::OrderedChannel;
        }
        // Kept pair: bounded-window evidence scales confidence. Check the
        // lower region id first so the verdict is orientation-independent.
        let mut regions = [a.region, b.region];
        regions.sort_unstable();
        let completions: Vec<Completion> = regions
            .iter()
            .filter(|&&r| r != 0)
            .filter_map(|&r| self.completion(r))
            .collect();
        for c in &completions {
            if let SealKind::Join(h) = &c.kind {
                return HbEvidence::WindowJoin(h.clone());
            }
        }
        if !completions.is_empty() {
            return HbEvidence::WindowScope;
        }
        if self.channel_links(a, b) {
            return HbEvidence::ChannelPartial;
        }
        HbEvidence::None
    }

    /// Whether everything `x`'s region does provably precedes `y`.
    fn ordered_before(&self, x: &Point, y: &Point) -> Option<SealKind> {
        if x.region == 0 {
            return None;
        }
        // A completion chain from x's region into y's whole region: y runs
        // strictly after x's region finished.
        if y.region != 0 && self.graph.reachable(x.region as usize, y.region as usize) {
            return self.completion(x.region).map(|c| c.kind);
        }
        // A completion of x's region (or one it reaches) lands before y in
        // y's own region and dominates y's position.
        for q in self.graph.reach_set(x.region as usize) {
            if q == 0 || q >= self.regions.len() {
                continue;
            }
            if let Some(c) = self.completion(q as u32) {
                let at = c.at;
                if at.region == y.region && at.tok < y.tok && self.tree.dominates(at.block, y.block)
                {
                    return Some(c.kind);
                }
            }
        }
        None
    }

    /// Whether a unique send→recv orders `x` before `y`: `x` precedes the
    /// send in the send's region, `y` follows the recv (dominated) in the
    /// recv's region.
    fn channel_ordered(&self, x: &Point, y: &Point) -> bool {
        self.unique_channels(x.fn_id).iter().any(|(send, recv)| {
            x.region == send.region
                && x.tok < send.tok
                && y.region == recv.region
                && recv.tok < y.tok
                && self.tree.dominates(recv.block, y.block)
        })
    }

    /// Whether a unique channel touches both endpoints' regions at all.
    fn channel_links(&self, a: &Point, b: &Point) -> bool {
        self.unique_channels(a.fn_id).iter().any(|(send, recv)| {
            (a.region == send.region && b.region == recv.region)
                || (a.region == recv.region && b.region == send.region)
        })
    }

    /// Channels of `fn_id` with exactly one send and one recv, neither in
    /// a loop — the only shape where one syntactic event is one runtime
    /// event and the recv provably receives that send.
    fn unique_channels(&self, fn_id: u32) -> Vec<(Point, Point)> {
        let mut per_chan: HashMap<u32, (Vec<Point>, Vec<Point>)> = HashMap::new();
        for s in self.sends.iter().filter(|e| e.at.fn_id == fn_id) {
            per_chan.entry(s.chan).or_default().0.push(s.at);
        }
        for r in self.recvs.iter().filter(|e| e.at.fn_id == fn_id) {
            per_chan.entry(r.chan).or_default().1.push(r.at);
        }
        let mut out: Vec<(Point, Point)> = per_chan
            .into_values()
            .filter_map(
                |(sends, recvs)| match (sends.as_slice(), recvs.as_slice()) {
                    (&[s], &[r]) if !self.in_loop(s.block) && !self.in_loop(r.block) => {
                        Some((s, r))
                    }
                    _ => None,
                },
            )
            .collect();
        out.sort_by_key(|(s, _)| s.tok);
        out
    }

    /// The completion event sealing region `r`, if any. Join seals only
    /// single-instance regions (a loop rebinding the handle joins just the
    /// last instance); a scope close seals even multi regions (the scope
    /// joins every spawn inside it).
    fn completion(&self, r: u32) -> Option<Completion> {
        let region = self.regions.get(r as usize)?;
        if region.synthetic || r == 0 {
            return None;
        }
        if !region.multi {
            if let (Some(join), Some(handle)) = (&region.join, &region.handle) {
                if !self.in_loop(join.block) {
                    return Some(Completion {
                        at: *join,
                        kind: SealKind::Join(handle.clone()),
                    });
                }
            }
        }
        // Innermost closed scope extent containing the spawn, same fn: it
        // completes at its `)`, in the scope call's region and block.
        let spawn = region.spawn;
        self.scopes
            .iter()
            .filter(|s| !self.in_loop(s.block) && s.fn_id == spawn.fn_id && s.tok < spawn.tok)
            .filter_map(|s| Some((s, self.tree.close_of(s.tok)?)))
            .filter(|&(_, close)| spawn.tok < close)
            .max_by_key(|(s, _)| s.tok)
            .map(|(s, close)| Completion {
                at: Point { tok: close, ..*s },
                kind: SealKind::Scope,
            })
    }

    /// Whether `block` is, or is inside, a loop body.
    fn in_loop(&self, block: u32) -> bool {
        self.tree.in_loop(block, ROOT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_reachability_is_transitive_and_reflexive() {
        let mut g = HbGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.reachable(0, 2), "transitive");
        assert!(g.reachable(3, 3), "reflexive");
        assert!(!g.reachable(2, 0), "directed");
        assert!(!g.reachable(0, 3));
        assert_eq!(g.reach_set(0), vec![0, 1, 2]);
    }

    #[test]
    fn graph_tolerates_out_of_range_and_duplicate_edges() {
        let mut g = HbGraph::new(2);
        g.add_edge(0, 9);
        g.add_edge(9, 0);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.adj[0], vec![1]);
        assert!(g.reachable(9, 9), "out-of-range node reaches itself only");
        assert!(!g.reachable(9, 0));
    }

    #[test]
    fn reachability_is_invariant_to_edge_insertion_order() {
        // Every permutation of a small edge set...
        let edges = [(0usize, 1usize), (1, 2), (2, 3), (0, 3), (3, 1)];
        let n = 5;
        let reference = matrix(&build(n, &edges));
        permute(&mut edges.to_vec(), 0, &mut |order| {
            assert_eq!(
                matrix(&build(n, order)),
                reference,
                "insertion order {order:?} changed reachability"
            );
        });
        // ...and one seeded shuffle, with a duplicated edge, of each of 256
        // sampled 12-node graphs of up to 39 edges.
        let n = 12;
        for seed in 0..256 {
            let mut rng = crate::testrand::Seeded::new(seed);
            let edges: Vec<Edge> = (0..rng.below(40))
                .map(|_| (rng.below(n), rng.below(n)))
                .collect();
            let mut shuffled = edges.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i + 1));
            }
            if let Some(&first) = shuffled.first() {
                shuffled.push(first);
            }
            assert_eq!(
                matrix(&build(n, &shuffled)),
                matrix(&build(n, &edges)),
                "seed {seed}: insertion order {shuffled:?} changed reachability"
            );
        }
    }

    fn build(n: usize, edges: &[(usize, usize)]) -> HbGraph {
        let mut g = HbGraph::new(n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    fn matrix(g: &HbGraph) -> Vec<Vec<bool>> {
        (0..g.len())
            .map(|a| (0..g.len()).map(|b| g.reachable(a, b)).collect())
            .collect()
    }

    type Edge = (usize, usize);

    fn permute(items: &mut Vec<Edge>, k: usize, f: &mut dyn FnMut(&[Edge])) {
        if k == items.len() {
            f(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, f);
            items.swap(k, i);
        }
    }

    /// A tree with one top-level block `{` at token 4 whose `(` at 5 closes
    /// at 30: `x ( ) ; { ( ... ) }`, padded to the token indices below.
    fn tree() -> ScopeTree {
        let mut src = "x ( ) ; { (".to_string();
        src.push_str(&" a".repeat(24));
        src.push_str(" ) }");
        let toks = crate::lexer::tokenize(&src);
        assert_eq!(toks[30].text, ")");
        ScopeTree::build(&toks)
    }

    /// A region of fn 1 spawned at token 10, at top level.
    fn spawned_at_10(multi: bool, synthetic: bool) -> RegionHb {
        RegionHb {
            spawn: Point {
                tok: 10,
                fn_id: 1,
                block: 1,
                ..Point::default()
            },
            multi,
            synthetic,
            ..RegionHb::default()
        }
    }

    /// The `scope(` at token 5 of fn 1, in block 1.
    const SCOPE_CALL: Point = Point {
        tok: 5,
        region: 0,
        fn_id: 1,
        block: 1,
    };

    #[test]
    fn join_seals_a_single_instance_region_only() {
        let tree = tree();
        let mut idx = HbIndex::new(&tree);
        idx.regions.push(spawned_at_10(false, false));
        idx.bind_handle("h".to_string(), 1);
        idx.on_join(
            "h",
            Point {
                tok: 20,
                ..SCOPE_CALL
            },
        );
        assert!(idx.completion(1).is_some());
        idx.regions[1].multi = true;
        assert!(
            idx.completion(1).is_none(),
            "a rebinding loop joins only the last instance"
        );
    }

    #[test]
    fn scope_close_seals_even_multi_regions() {
        let tree = tree();
        let mut idx = HbIndex::new(&tree);
        idx.regions.push(spawned_at_10(true, false));
        idx.scopes.push(SCOPE_CALL);
        let c = idx.completion(1).expect("scope seals multi");
        assert_eq!(c.kind, SealKind::Scope);
        assert_eq!(c.at.tok, 30, "the tree's closer of the scope call");
    }

    #[test]
    fn synthetic_regions_are_never_sealed() {
        let tree = tree();
        let mut idx = HbIndex::new(&tree);
        idx.regions.push(spawned_at_10(false, true));
        idx.scopes.push(SCOPE_CALL);
        assert!(idx.completion(1).is_none());
    }
}
