//! The per-file analyses: escape lint, site database, dangerous-pair
//! candidates.
//!
//! Everything here is a token-level heuristic, deliberately so — the
//! offline build has no real Rust parser, and the paper's own static
//! proxy-method pass (§3.1) is similarly shallow: find the call sites that
//! *look* thread-unsafe and let the dynamic detector confirm. False
//! positives cost a wasted trap; false negatives fall back to dynamic
//! near-miss discovery. The heuristics and their known limits:
//!
//! - **Provenance** comes from `use` statements and fully-qualified paths.
//!   A bare `HashSet` with no import evidence is not flagged.
//! - **Bindings** are tracked through `let x = Class::new()` /
//!   `::unmonitored()` / `::with_*` and `let y = x.clone()` (wrapper
//!   handles share storage, so a clone aliases its root), plus
//!   `Arc::clone(&x)` and constructor-returning helpers resolved through
//!   [`Summaries`]. A shadowing `let` whose RHS is unrecognized *drops*
//!   the old meaning instead of leaking it. Bindings reset at each `fn`
//!   item; fields (`self.map`) are not tracked.
//! - **Interprocedural flow**: a plain call `bump(&d1, 1)` whose callee is
//!   summarized materializes the callee's wrapper accesses at the callee's
//!   own site positions (what `#[track_caller]` reports), attributed to
//!   the caller's binding. Each extra call hop weakens the pair's
//!   confidence.
//! - **Locksets**: `let g = m.lock()` guard regions (see
//!   [`lockset`](crate::lockset)) annotate each site with the locks held.
//!   A pair whose both sides hold an exclusive guard on the same lock is
//!   *pruned* (serialized by construction); weaker evidence only demotes.
//! - **Concurrency regions** are the parenthesized extents of
//!   `spawn`/`spawn_fast`/`parallel_for_each`/`parallel_invoke` calls (plus
//!   `.run`/`.run_with_hook` in files that mention `Task`). A region inside
//!   a loop, or started by `parallel_for_each`/`parallel_invoke`, is
//!   *multi-instance*: its body races with itself.
//! - **Structure** is one [`ScopeTree`] per file, built after lexing: a
//!   site's region is the nearest spawn paren around it, its guards are
//!   the ones whose block encloses it, its loop flag and its HB dominance
//!   are block queries. The walk itself keeps no depth counter.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use tsvd_core::access::{api_class, classify_op};
use tsvd_core::OpKind;

use crate::callgraph::{call_args, GuardMode, Summaries};
use crate::hb::{ChanEvent, HbEvidence, HbIndex, Point, RegionHb};
use crate::lexer::{tokenize, TokKind, Token};
use crate::lockset::LockTracker;
use crate::report::{site_text, AwaitPoint, Escape, StaticPair, StaticSite};
use crate::scope::{ScopeTree, ROOT};

/// Raw (uninstrumented) collection type names worth flagging.
const RAW_TYPES: &[&str] = &[
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "VecDeque",
    "LinkedList",
    "BinaryHeap",
    "RawCell",
];

/// Idents that start a concurrency region when directly called.
pub(crate) const SPAWN_CALLS: &[&str] = &[
    "spawn",
    "spawn_fast",
    "parallel_for_each",
    "parallel_invoke",
];

/// Inherently multi-instance spawn calls: the closure runs once per item.
pub(crate) const MULTI_SPAWN_CALLS: &[&str] = &["parallel_for_each", "parallel_invoke"];

/// Everything the analyzer learned about one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Raw-collection escapes (unfiltered; allowlisting happens later).
    pub escapes: Vec<Escape>,
    /// Instrumented-collection call sites.
    pub sites: Vec<StaticSite>,
    /// Dangerous-pair candidates derived from the sites.
    pub pairs: Vec<StaticPair>,
    /// Candidates removed by lockset or happens-before pruning (reported,
    /// never armed).
    pub pruned_pairs: Vec<StaticPair>,
    /// `.await` task-boundary markers (see [`crate::hb`]).
    pub awaits: Vec<AwaitPoint>,
}

/// Analyzes one file in isolation: a single-file summary set, so
/// constructor returns and helper calls within the file still resolve.
pub fn analyze_file(file: &str, src: &str) -> FileAnalysis {
    let one = [(file.to_string(), src.to_string())];
    analyze_file_with(file, src, &Summaries::build(&one))
}

/// Analyzes one file against a pre-built (usually whole-tree) summary set.
/// `file` must be the analysis-root-relative path with forward slashes —
/// it is embedded verbatim in site texts.
pub fn analyze_file_with(file: &str, src: &str, summaries: &Summaries) -> FileAnalysis {
    let toks = tokenize(src);
    let tree = ScopeTree::build(&toks);
    let evidence = concurrency_evidence(&toks);
    let imports = collect_imports(&toks);
    let use_ranges = use_statement_ranges(&toks);
    let mut out = FileAnalysis::default();
    if let Some(ev) = &evidence {
        out.escapes = find_escapes(file, &toks, &imports, &use_ranges, ev);
    }
    let pass = find_sites(file, &toks, &tree, &imports, summaries);
    let derived = derive_pairs(&pass.sites, &pass.channeled, &pass.hb);
    out.pairs = derived.kept;
    out.pruned_pairs = derived.pruned;
    out.awaits = pass
        .hb
        .awaits
        .iter()
        .map(|&(line, column)| AwaitPoint {
            file: file.to_string(),
            line,
            column,
        })
        .collect();
    out.sites = pass.sites.into_iter().map(|s| s.site).collect();
    out
}

/// Why a file counts as concurrent, if it does.
fn concurrency_evidence(toks: &[Token]) -> Option<String> {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text {
            "tsvd_tasks" => return Some("uses tsvd_tasks".to_string()),
            "spawn" | "spawn_fast" | "parallel_for_each" | "parallel_invoke" | "scope"
                if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                return Some(format!("calls {}", t.text));
            }
            _ => {}
        }
    }
    None
}

/// One resolved `use` import: local name → full path segments.
#[derive(Debug, Clone, PartialEq)]
struct Import {
    path: Vec<String>,
}

impl Import {
    fn is_raw(&self) -> bool {
        let p = &self.path;
        (p.len() >= 2 && p[0] == "std" && p[1] == "collections")
            || (p.len() >= 2
                && p.iter().any(|s| s == "raw")
                && matches!(
                    p[0].as_str(),
                    "tsvd_collections" | "crate" | "super" | "self"
                ))
    }

    fn is_wrapper(&self) -> bool {
        !self.is_raw()
            && matches!(
                self.path.first().map(String::as_str),
                Some("tsvd_collections" | "crate" | "super" | "self")
            )
            && self
                .path
                .last()
                .is_some_and(|leaf| api_class(leaf).is_some())
    }

    /// The path without its leaf: the module the name came from.
    fn module_path(&self) -> String {
        self.path[..self.path.len().saturating_sub(1)].join("::")
    }
}

/// Token index ranges (inclusive start, exclusive end) of `use` statements,
/// so escape scanning can skip the imports themselves.
fn use_statement_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("use") {
            let start = i;
            while i < toks.len() && !toks[i].is_punct(';') {
                i += 1;
            }
            ranges.push((start, i + 1));
        }
        i += 1;
    }
    ranges
}

/// Maps local names to their import paths, flattening `{a, b as c}` groups.
fn collect_imports(toks: &[Token]) -> HashMap<String, Import> {
    let mut map = HashMap::new();
    for (start, end) in use_statement_ranges(toks) {
        let body = &toks[start + 1..end.saturating_sub(1).max(start + 1)];
        collect_use_tree(body, &mut 0, &mut Vec::new(), &mut map);
    }
    map
}

/// Recursive descent over one use-tree. `prefix` holds the segments before
/// the current position.
fn collect_use_tree(
    toks: &[Token],
    i: &mut usize,
    prefix: &mut Vec<String>,
    out: &mut HashMap<String, Import>,
) {
    let depth_at_entry = prefix.len();
    let mut alias: Option<String> = None;
    while *i < toks.len() {
        let t = &toks[*i];
        if t.kind == TokKind::Ident {
            if t.text == "as" {
                *i += 1;
                if let Some(a) = toks.get(*i) {
                    alias = Some(a.text.to_string());
                    *i += 1;
                }
                continue;
            }
            prefix.push(t.text.to_string());
            *i += 1;
        } else if t.is_punct(':') {
            *i += 1; // each `::` lexes as two `:` tokens
        } else if t.is_punct('{') {
            *i += 1;
            collect_use_tree(toks, i, prefix, out);
            // The group consumed the path; nothing is pending at this level.
            prefix.truncate(depth_at_entry);
        } else if t.is_punct(',') || t.is_punct('}') {
            // End of one path in a group: register the leaf.
            if prefix.len() > depth_at_entry || alias.is_some() {
                register_leaf(prefix, alias.take(), out);
                prefix.truncate(depth_at_entry);
            }
            let closing = t.is_punct('}');
            *i += 1;
            if closing {
                return;
            }
        } else if t.is_punct('*') {
            // Glob imports carry no leaf name; nothing to register.
            prefix.truncate(depth_at_entry);
            *i += 1;
        } else {
            *i += 1;
        }
    }
    if prefix.len() > depth_at_entry || alias.is_some() {
        register_leaf(prefix, alias.take(), out);
        prefix.truncate(depth_at_entry);
    }
}

fn register_leaf(path: &[String], alias: Option<String>, out: &mut HashMap<String, Import>) {
    if path.is_empty() {
        return;
    }
    let name = alias.unwrap_or_else(|| path.last().expect("non-empty").clone());
    out.insert(
        name,
        Import {
            path: path.to_vec(),
        },
    );
}

/// The escape lint: raw-collection call sites in a file with concurrency
/// evidence. One escape per `(line, type name)`.
fn find_escapes(
    file: &str,
    toks: &[Token],
    imports: &HashMap<String, Import>,
    use_ranges: &[(usize, usize)],
    evidence: &str,
) -> Vec<Escape> {
    let in_use = |i: usize| use_ranges.iter().any(|&(s, e)| i >= s && i < e);
    let mut escapes: Vec<Escape> = Vec::new();
    let mut push = |t: &Token, name: &str, via: String| {
        if escapes
            .iter()
            .any(|e: &Escape| e.line == t.line && e.name == name)
        {
            return;
        }
        escapes.push(Escape {
            file: file.to_string(),
            line: t.line,
            name: name.to_string(),
            via,
            evidence: evidence.to_string(),
            allowed: false,
        });
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_use(i) {
            continue;
        }
        // Fully qualified: std::collections::T or <...>::raw::T.
        if RAW_TYPES.contains(&t.text) {
            if let Some(prefix) = qualified_prefix(toks, i) {
                if prefix.ends_with(&["std", "collections"]) {
                    push(t, t.text, "std::collections".to_string());
                    continue;
                }
                if prefix.last() == Some(&"raw") {
                    push(t, t.text, "tsvd_collections::raw".to_string());
                    continue;
                }
            }
        }
        // Imported raw name used as a constructor path: `HashMap::new()`.
        let followed_by_path = toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|b| b.is_punct(':'));
        if followed_by_path {
            if let Some(imp) = imports.get(t.text) {
                if imp.is_raw() {
                    push(t, t.text, imp.module_path());
                }
            }
        }
    }
    escapes
}

/// The `::`-separated ident segments immediately before token `i`, if any.
fn qualified_prefix<'src>(toks: &[Token<'src>], i: usize) -> Option<Vec<&'src str>> {
    let mut segs = Vec::new();
    let mut j = i;
    while j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
        j -= 2;
        if j == 0 || toks[j - 1].kind != TokKind::Ident {
            break;
        }
        j -= 1;
        segs.push(toks[j].text);
    }
    if segs.is_empty() {
        None
    } else {
        segs.reverse();
        Some(segs)
    }
}

/// A site plus the bookkeeping pair derivation needs.
#[derive(Debug)]
struct SiteCtx {
    site: StaticSite,
    /// Where the access happens: its token (for a materialized op, the
    /// call's `(`), region, `fn` item and block.
    at: Point,
    kind: OpKind,
    /// Locks held at the site, strongest mode per root.
    locks: Vec<(String, GuardMode)>,
    /// Provenance distance: call hops between the binding's constructor
    /// evidence (plus the op's own propagation depth) and the site.
    hops: u32,
}

#[derive(Debug)]
struct SitePass<'t> {
    sites: Vec<SiteCtx>,
    /// Receiver roots sent through an mpsc channel (ownership transfer).
    channeled: HashSet<String>,
    /// Happens-before facts gathered during the same walk, the
    /// concurrency regions among them (index 0 is the top level).
    hb: HbIndex<'t>,
}

/// Token `i` of `fn` item `fn_id` as a [`Point`]. Its region is the
/// innermost spawn region it is in, 0 at top level: the nearest paren
/// around `i` that a spawn call's region starts at (a synthetic region
/// starts at a plain call's paren, so it never matches).
fn point_at(tree: &ScopeTree, regions: &[RegionHb], fn_id: u32, i: usize) -> Point {
    let region = tree
        .parens_around(i)
        .find_map(|open| {
            let id = regions.binary_search_by_key(&open, |r| r.spawn.tok).ok()?;
            (!regions[id].synthetic).then_some(id as u32)
        })
        .unwrap_or(0);
    Point {
        tok: i,
        region,
        fn_id,
        block: tree.block_at(i),
    }
}

/// What a tracked binding denotes.
#[derive(Debug, Clone)]
struct Binding {
    class: &'static str,
    /// The original binding an aliasing `.clone()` chain leads back to.
    root: String,
    /// 0 for a lexical constructor; 1 when the class came from a
    /// summarized helper's return type.
    hops: u32,
}

fn find_sites<'t>(
    file: &str,
    toks: &[Token],
    tree: &'t ScopeTree,
    imports: &HashMap<String, Import>,
    summaries: &Summaries,
) -> SitePass<'t> {
    let file_has_task = toks.iter().any(|t| t.is_ident("Task"));
    let mut pass = SitePass {
        sites: Vec::new(),
        channeled: HashSet::new(),
        hb: HbIndex::new(tree),
    };
    let mut bindings: HashMap<String, Binding> = HashMap::new();
    let mut locks = LockTracker::new();
    let mut cur_fn: u32 = 0;
    // One fresh region per (call token, callee file, callee region id), so
    // every op a single call materializes from the same spawned task lands
    // in the same region, while two calls get distinct regions.
    let mut spawn_region_map: HashMap<(usize, Arc<str>, u32), u32> = HashMap::new();

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text {
                "fn" => {
                    cur_fn += 1;
                    bindings.clear();
                    locks.reset();
                    pass.hb.on_fn();
                }
                "await" if i > 0 && toks[i - 1].is_punct('.') => {
                    pass.hb.awaits.push((t.line, t.col));
                }
                "let" => {
                    handle_let(
                        toks,
                        i,
                        file,
                        imports,
                        summaries,
                        &mut bindings,
                        &mut locks,
                        tree.block_at(i),
                    );
                    // A rebinding `let` also retires any spawn handle of
                    // the same name (the binding the join would resolve to
                    // is gone). The handle a spawn RHS binds is recorded
                    // later, at the spawn call's own paren.
                    if let Some(name) = single_let_name(toks, i) {
                        pass.hb.forget_handle(name);
                    }
                }
                _ => {}
            }
            continue;
        }
        if !t.is_punct('(') {
            continue;
        }
        let here = |regions: &[RegionHb]| point_at(tree, regions, cur_fn, i);
        // Instrumented call site: `recv . method (`.
        if i >= 3
            && toks[i - 1].kind == TokKind::Ident
            && toks[i - 2].is_punct('.')
            && toks[i - 3].kind == TokKind::Ident
        {
            if let Some(b) = bindings.get(toks[i - 3].text) {
                let method = &toks[i - 1];
                let op = format!("{}.{}", b.class, method.text);
                if let Some(kind) = classify_op(&op) {
                    let at = here(&pass.hb.regions);
                    let active = locks.active(tree, at.block);
                    pass.sites.push(SiteCtx {
                        site: StaticSite {
                            file: file.to_string(),
                            line: method.line,
                            column: method.col,
                            receiver: b.root.clone(),
                            class: b.class.to_string(),
                            method: method.text.to_string(),
                            kind: kind_str(kind).to_string(),
                            region: at.region,
                            guards: guard_strings(&active),
                        },
                        at,
                        kind,
                        locks: active,
                        hops: b.hops,
                    });
                }
            }
            // Channel transfer: `tx.send(x)` hands x's root to whoever
            // holds the receiver. The send itself is an HB event on the
            // channel; a blocking `rx.recv()` is the matching one
            // (`try_recv` deliberately is not: it can return before the
            // send).
            if toks[i - 1].is_ident("send") {
                if let Some(chan) = locks.sender_channel(toks[i - 3].text) {
                    if let Some(root) = call_args(toks, tree, i)
                        .first()
                        .and_then(|a| a.as_deref())
                        .and_then(|a| bindings.get(a).map(|b| b.root.clone()))
                    {
                        pass.channeled.insert(root);
                    }
                    pass.hb.sends.push(ChanEvent {
                        chan,
                        at: here(&pass.hb.regions),
                    });
                }
            }
            if toks[i - 1].is_ident("recv") {
                if let Some(chan) = locks.receiver_channel(toks[i - 3].text) {
                    pass.hb.recvs.push(ChanEvent {
                        chan,
                        at: here(&pass.hb.regions),
                    });
                }
            }
            // `h.join()` on a spawn handle seals that region.
            if toks[i - 1].is_ident("join") {
                pass.hb.on_join(toks[i - 3].text, here(&pass.hb.regions));
            }
        }
        // Spawn call: this paren extent is a new region.
        let spawn_ident = toks
            .get(i.wrapping_sub(1))
            .filter(|p| p.kind == TokKind::Ident)
            .map(|p| p.text);
        let is_spawn = match spawn_ident {
            Some(s) if SPAWN_CALLS.contains(&s) => true,
            Some("run" | "run_with_hook") => file_has_task && i >= 2 && toks[i - 2].is_punct('.'),
            _ => false,
        };
        if is_spawn {
            let spawn = here(&pass.hb.regions);
            let multi = tree.in_loop(spawn.block, ROOT)
                || spawn_ident.is_some_and(|s| MULTI_SPAWN_CALLS.contains(&s));
            let id = pass.hb.regions.len() as u32;
            pass.hb.regions.push(RegionHb {
                spawn,
                multi,
                ..RegionHb::default()
            });
            if let Some(name) = spawn_handle(toks, i) {
                pass.hb.bind_handle(name, id);
            }
        } else if spawn_ident == Some("scope") {
            // A scoped-thread block: every region spawned inside these
            // parens completes at the closing paren.
            pass.hb.scopes.push(here(&pass.hb.regions));
        } else {
            // Interprocedural: a plain call to a summarized fn
            // materializes its wrapper accesses here.
            let after_path = i >= 2 && (toks[i - 2].is_punct('.') || toks[i - 2].is_punct(':'));
            let Some(sum) = spawn_ident
                .filter(|_| !after_path)
                .and_then(|callee| summaries.lookup(file, callee))
            else {
                continue;
            };
            let argv = call_args(toks, tree, i);
            let call = here(&pass.hb.regions);
            let in_loop = tree.in_loop(call.block, ROOT);
            for op in &sum.ops {
                let Some(Some(arg)) = argv.get(op.param) else {
                    continue;
                };
                let Some(b) = bindings.get(arg.as_str()) else {
                    continue;
                };
                if b.class != op.class {
                    continue;
                }
                let region = match op.spawned {
                    None => call.region,
                    Some((rid, op_multi)) => {
                        let key = (i, Arc::clone(&op.file), rid);
                        *spawn_region_map.entry(key).or_insert_with(|| {
                            // Synthetic: the spawn lives in the callee, so
                            // nothing in this file can seal it.
                            pass.hb.regions.push(RegionHb {
                                spawn: call,
                                multi: op_multi || in_loop,
                                synthetic: true,
                                ..RegionHb::default()
                            });
                            pass.hb.regions.len() as u32 - 1
                        })
                    }
                };
                let mut site_locks = locks.active(tree, call.block);
                if let Some((q, mode)) = op.lock_param {
                    if let Some(root) = argv
                        .get(q)
                        .and_then(|a| a.as_deref())
                        .and_then(|a| locks.lock_root(a))
                    {
                        push_lock(&mut site_locks, root.to_string(), mode);
                    }
                }
                pass.sites.push(SiteCtx {
                    site: StaticSite {
                        file: op.file.to_string(),
                        line: op.line,
                        column: op.col,
                        receiver: b.root.clone(),
                        class: op.class.to_string(),
                        method: op.method.clone(),
                        kind: kind_str(op.kind).to_string(),
                        region,
                        guards: guard_strings(&site_locks),
                    },
                    at: Point { region, ..call },
                    kind: op.kind,
                    locks: site_locks,
                    hops: b.hops + op.hops + 1,
                });
            }
        }
    }
    pass.hb.finalize();
    pass
}

/// The `let [mut] NAME =` binding a spawn call's return lands in, found by
/// walking back over the call chain (`pool . spawn`, `tsvd_tasks :: spawn`)
/// from the spawn call's opening paren — the same binding-reader shape the
/// repair pass uses, applied at analysis time so joins resolve to regions.
fn spawn_handle(toks: &[Token], open: usize) -> Option<String> {
    let mut j = open.checked_sub(1)?; // the spawn ident itself
    while j > 0 {
        let p = &toks[j - 1];
        if p.kind == TokKind::Ident || p.is_punct('.') || p.is_punct(':') {
            j -= 1;
        } else {
            break;
        }
    }
    // toks[j] is the chain's first token; `=` must sit right before it.
    if j == 0 || !toks[j - 1].is_punct('=') {
        return None;
    }
    let name_idx = j.checked_sub(2)?;
    let name = &toks[name_idx];
    if name.kind != TokKind::Ident {
        return None;
    }
    let mut let_idx = name_idx.checked_sub(1)?;
    if toks[let_idx].is_ident("mut") {
        let_idx = let_idx.checked_sub(1)?;
    }
    if toks[let_idx].is_ident("let") {
        Some(name.text.to_string())
    } else {
        None
    }
}

/// Renders held locks as sorted `root:mode` strings for the site database
/// (what the repair pass reads to name a reusable guard).
fn guard_strings(locks: &[(String, GuardMode)]) -> Vec<String> {
    let mut out: Vec<String> = locks
        .iter()
        .map(|(root, mode)| {
            let mode = match mode {
                GuardMode::Exclusive => "exclusive",
                GuardMode::Shared => "shared",
            };
            format!("{root}:{mode}")
        })
        .collect();
    out.sort();
    out
}

/// Adds a held lock, upgrading to exclusive when both modes appear.
fn push_lock(locks: &mut Vec<(String, GuardMode)>, root: String, mode: GuardMode) {
    match locks.iter_mut().find(|(r, _)| *r == root) {
        Some((_, m)) => {
            if mode == GuardMode::Exclusive {
                *m = GuardMode::Exclusive;
            }
        }
        None => locks.push((root, mode)),
    }
}

/// Dispatches one `let` statement across the trackers, in priority order:
/// wrapper binding (lexical ctor / clone), constructor-returning helper,
/// lock machinery, and finally — crucially — *shadow removal*: a rebind
/// whose RHS none of them recognize must not leak the old meaning.
#[allow(clippy::too_many_arguments)]
fn handle_let(
    toks: &[Token],
    let_idx: usize,
    file: &str,
    imports: &HashMap<String, Import>,
    summaries: &Summaries,
    bindings: &mut HashMap<String, Binding>,
    locks: &mut LockTracker,
    block: u32,
) {
    if let Some((name, binding)) = parse_let(toks, let_idx, imports, bindings) {
        locks.forget(&name);
        bindings.insert(name, binding);
        return;
    }
    if let Some((name, binding)) = parse_ctor_return(toks, let_idx, file, summaries) {
        locks.forget(&name);
        bindings.insert(name, binding);
        return;
    }
    if locks.on_let(toks, let_idx, block) {
        if let Some(name) = single_let_name(toks, let_idx) {
            bindings.remove(name);
        }
        return;
    }
    if let Some(name) = single_let_name(toks, let_idx) {
        bindings.remove(name);
        locks.forget(name);
    }
}

/// The name bound by `let [mut] NAME [: T] = ...`, `None` for tuple or
/// value-less (`let x;`) forms.
fn single_let_name<'src>(toks: &[Token<'src>], let_idx: usize) -> Option<&'src str> {
    let mut i = let_idx + 1;
    if toks.get(i)?.is_ident("mut") {
        i += 1;
    }
    let name = toks.get(i)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    i += 1;
    while i < toks.len() {
        if toks[i].is_punct('=') {
            return Some(name.text);
        }
        if toks[i].is_punct(';') {
            return None;
        }
        i += 1;
    }
    None
}

/// Recognizes `let NAME = helper(...)` where `helper`'s summary declares a
/// wrapper return class: constructor-return provenance, one hop out.
fn parse_ctor_return(
    toks: &[Token],
    let_idx: usize,
    file: &str,
    summaries: &Summaries,
) -> Option<(String, Binding)> {
    let name = single_let_name(toks, let_idx)?;
    let mut i = let_idx + 1;
    while i < toks.len() && !toks[i].is_punct('=') {
        i += 1;
    }
    i += 1;
    let callee = toks.get(i)?;
    if callee.kind != TokKind::Ident || !toks.get(i + 1)?.is_punct('(') {
        return None;
    }
    let class = summaries.lookup(file, callee.text)?.returns_class?;
    Some((
        name.to_string(),
        Binding {
            class,
            root: name.to_string(),
            hops: 1,
        },
    ))
}

/// Recognizes `let [mut] NAME = <path>::{new,unmonitored,with_*,from,default}(`
/// for a wrapper class (also through an `Arc::new(..)` shell), and the
/// aliasing forms `let NAME = SRC.clone()` and `let NAME = Arc::clone(&SRC)`.
fn parse_let(
    toks: &[Token],
    let_idx: usize,
    imports: &HashMap<String, Import>,
    bindings: &HashMap<String, Binding>,
) -> Option<(String, Binding)> {
    let mut i = let_idx + 1;
    if toks.get(i)?.is_ident("mut") {
        i += 1;
    }
    let name = toks.get(i)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    i += 1;
    // Skip an optional `: Type<...>` ascription up to `=`, bailing at `;`.
    while i < toks.len() && !toks[i].is_punct('=') {
        if toks[i].is_punct(';') {
            return None;
        }
        i += 1;
    }
    i += 1; // past `=`
            // Aliasing clone: `SRC.clone()`.
    if toks.get(i).is_some_and(|t| t.kind == TokKind::Ident)
        && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(i + 2).is_some_and(|t| t.is_ident("clone"))
    {
        let src = bindings.get(toks[i].text)?;
        return Some((name.text.to_string(), src.clone()));
    }
    // Aliasing `Arc::clone(&SRC)`.
    if toks.get(i).is_some_and(|t| t.is_ident("Arc"))
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident("clone"))
        && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
    {
        let mut j = i + 5;
        if toks.get(j).is_some_and(|t| t.is_punct('&')) {
            j += 1;
        }
        let src = bindings.get(toks.get(j)?.text)?;
        return Some((name.text.to_string(), src.clone()));
    }
    // Constructor path: collect `A::B::C` segments up to `(` or `<`,
    // unwrapping at most one `Arc::new(` shell.
    let mut segs: Vec<&str> = Vec::new();
    loop {
        while i < toks.len() {
            let t = &toks[i];
            if t.kind == TokKind::Ident {
                segs.push(t.text);
                i += 1;
            } else if t.is_punct(':') {
                i += 1;
            } else if t.is_punct('<') {
                // Skip a turbofish / generic argument list.
                let mut depth = 1;
                i += 1;
                while i < toks.len() && depth > 0 {
                    if toks[i].is_punct('<') {
                        depth += 1;
                    } else if toks[i].is_punct('>') {
                        depth -= 1;
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        if segs == ["Arc", "new"] && toks.get(i).is_some_and(|t| t.is_punct('(')) {
            i += 1;
            segs.clear();
            continue;
        }
        break;
    }
    // The path must end in a constructor-ish name preceded by a class.
    let ctor = segs.pop()?;
    let is_ctor =
        matches!(ctor, "new" | "unmonitored" | "from" | "default") || ctor.starts_with("with_");
    if !is_ctor {
        return None;
    }
    let class_seg = segs.last()?;
    let class = api_class(class_seg)?;
    // Qualified paths carry their own provenance; bare class names lean on
    // imports. `HashSet` is the one name std shares, so a bare `HashSet`
    // with no import evidence stays unclassified rather than guessed.
    let provenance_ok = if segs.len() > 1 {
        matches!(segs[0], "tsvd_collections" | "crate" | "super" | "self")
    } else if class == "HashSet" {
        imports.get(class).is_some_and(|imp| imp.is_wrapper())
    } else {
        imports.get(class).is_none_or(|imp| imp.is_wrapper())
    };
    if !provenance_ok {
        return None;
    }
    Some((
        name.text.to_string(),
        Binding {
            class,
            root: name.text.to_string(),
            hops: 0,
        },
    ))
}

fn kind_str(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "read",
        OpKind::Write => "write",
    }
}

/// Pair candidates split by the lockset verdict.
#[derive(Debug, Default)]
struct DerivedPairs {
    kept: Vec<StaticPair>,
    pruned: Vec<StaticPair>,
}

/// Derives dangerous-pair candidates from the sites of one file.
///
/// Two sites on the same root receiver conflict when at least one writes
/// and the regions can overlap in time:
///
/// - two *different* spawned regions always can;
/// - one *multi-instance* region can overlap itself (including a single
///   write site racing with its own other instances);
/// - the top level can overlap any region whose spawn started lexically
///   earlier (the spawn has happened; the join may not have).
///
/// Each candidate is then graded: lockset evidence prunes (both sides
/// exclusively guarded by the same lock) or demotes; the happens-before
/// pass prunes provably ordered pairs (`reason: ordered`) and scales the
/// confidence of pairs with weaker ordering evidence (`hb_evidence`);
/// provenance hops and region distance scale the confidence further (see
/// DESIGN.md for the formula).
fn derive_pairs(sites: &[SiteCtx], channeled: &HashSet<String>, hb: &HbIndex) -> DerivedPairs {
    let regions = &hb.regions;
    let mut out = DerivedPairs::default();
    let mut seen: Vec<(String, String)> = Vec::new();
    for (ai, a) in sites.iter().enumerate() {
        for b in &sites[ai..] {
            if a.site.receiver != b.site.receiver || a.site.class != b.site.class {
                continue;
            }
            if a.kind != OpKind::Write && b.kind != OpKind::Write {
                continue;
            }
            let (ra, rb) = (a.at.region as usize, b.at.region as usize);
            let reason = if ra != 0 && rb != 0 && ra != rb {
                "cross-task"
            } else if ra == rb && ra != 0 && regions[ra].multi {
                "multi-instance-task"
            } else if (ra == 0 && rb != 0 && regions[rb].spawn.tok < a.at.tok)
                || (rb == 0 && ra != 0 && regions[ra].spawn.tok < b.at.tok)
            {
                "main-vs-spawned"
            } else {
                continue;
            };
            // Self-pairs only make sense when one site races its own clones.
            if std::ptr::eq(a, b) && !(ra != 0 && regions[ra].multi && a.kind == OpKind::Write) {
                continue;
            }
            let (first, second) = (
                site_text(&a.site.file, a.site.line, a.site.column),
                site_text(&b.site.file, b.site.line, b.site.column),
            );
            let key = if first <= second {
                (first.clone(), second.clone())
            } else {
                (second.clone(), first.clone())
            };
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let (guard, guard_factor, lock_prune) = guard_evidence(a, b, channeled);
            // Lockset pruning keeps precedence (it names the serializing
            // guard); HB only weighs in on pairs the locks let through.
            let hb_verdict = if lock_prune {
                HbEvidence::None
            } else {
                hb.relate(&a.at, &b.at)
            };
            let ordered = hb_verdict.is_ordered();
            let prune = lock_prune || ordered;
            let reason = if ordered { "ordered" } else { reason };
            let hops = a.hops.max(b.hops);
            let provenance = if hops == 0 {
                "direct".to_string()
            } else {
                format!("via-calls:{hops}")
            };
            let confidence = if prune {
                0.0
            } else {
                let distance = 1.0 / (1.0 + 0.1 * (ra as f64 - rb as f64).abs());
                round4(
                    reason_base(reason)
                        * 0.85f64.powi(hops as i32)
                        * guard_factor
                        * hb_verdict.factor()
                        * distance,
                )
            };
            let pair = StaticPair {
                first,
                second,
                receiver: a.site.receiver.clone(),
                class: a.site.class.clone(),
                first_op: format!("{}.{}", a.site.class, a.site.method),
                second_op: format!("{}.{}", b.site.class, b.site.method),
                reason: reason.to_string(),
                confidence,
                guard,
                provenance,
                hb_evidence: hb_verdict.label(),
            };
            if prune {
                out.pruned.push(pair);
            } else {
                out.kept.push(pair);
            }
        }
    }
    out
}

/// Grades the lockset relation of two sites: `(label, factor, prune)`.
fn guard_evidence(a: &SiteCtx, b: &SiteCtx, channeled: &HashSet<String>) -> (String, f64, bool) {
    let mut shared = false;
    for (root, ma) in &a.locks {
        if let Some((_, mb)) = b.locks.iter().find(|(rb, _)| rb == root) {
            if *ma == GuardMode::Shared && *mb == GuardMode::Shared {
                // Two read guards do not exclude each other.
                shared = true;
            } else {
                // An exclusive guard on a common lock serializes the pair.
                return (format!("both-guarded:{root}"), 1.0, true);
            }
        }
    }
    if shared {
        return ("shared-guard".to_string(), 1.0, false);
    }
    if a.locks.is_empty() != b.locks.is_empty() {
        return ("one-side-guarded".to_string(), 1.0, false);
    }
    if !a.locks.is_empty() {
        return ("inconsistent-locks".to_string(), 0.9, false);
    }
    if channeled.contains(&a.site.receiver) {
        return ("channel-transfer".to_string(), 0.6, false);
    }
    ("none".to_string(), 1.0, false)
}

/// How strongly each overlap reason predicts a real race, before grading.
fn reason_base(reason: &str) -> f64 {
    match reason {
        "cross-task" => 0.9,
        "multi-instance-task" => 0.85,
        _ => 0.75, // main-vs-spawned: the join often intervenes
    }
}

/// Confidences are rounded to 4 decimals so they serialize compactly and
/// compare exactly in tests.
fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// Extracts the `(op name, kind)` literals from wrapper source: every
/// `.write(site, "Class.op", ...)` / `.read(site, "Class.op", ...)` call.
/// The wrapper-audit test uses this to prove the shipped wrappers and the
/// shared API table agree exactly.
pub fn instrumented_op_literals(src: &str) -> Vec<(String, OpKind)> {
    let toks = tokenize(src);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "write" && t.text != "read") {
            continue;
        }
        if i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        let (Some(open), Some(site_arg), Some(comma), Some(op)) = (
            toks.get(i + 1),
            toks.get(i + 2),
            toks.get(i + 3),
            toks.get(i + 4),
        ) else {
            continue;
        };
        if open.is_punct('(')
            && site_arg.is_ident("site")
            && comma.is_punct(',')
            && op.kind == TokKind::Str
        {
            let kind = if t.text == "write" {
                OpKind::Write
            } else {
                OpKind::Read
            };
            out.push((op.text.to_string(), kind));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_flagged_with_concurrency_evidence() {
        let src = r#"
use std::collections::HashMap;
use tsvd_tasks::Pool;
fn f(pool: &Pool) {
    let m = HashMap::new();
    pool.spawn(move || drop(m));
}
"#;
        let fa = analyze_file("x.rs", src);
        assert_eq!(fa.escapes.len(), 1);
        assert_eq!(fa.escapes[0].name, "HashMap");
        assert_eq!(fa.escapes[0].via, "std::collections");
        assert_eq!(fa.escapes[0].line, 5);
    }

    #[test]
    fn no_escape_without_concurrency_evidence() {
        let src = "use std::collections::HashMap;\nfn f() { let m = HashMap::new(); }\n";
        let fa = analyze_file("x.rs", src);
        assert!(fa.escapes.is_empty());
    }

    #[test]
    fn fully_qualified_raw_is_flagged_once_per_line() {
        let src = "fn f() { let a = std::collections::HashSet::<u32>::new(); spawn(|| ()); }";
        let fa = analyze_file("x.rs", src);
        assert_eq!(fa.escapes.len(), 1);
        assert_eq!(fa.escapes[0].via, "std::collections");
    }

    #[test]
    fn use_statement_itself_is_not_an_escape() {
        let src = "use std::collections::HashMap;\nfn f() { spawn(|| ()); }\n";
        let fa = analyze_file("x.rs", src);
        assert!(
            fa.escapes.is_empty(),
            "import line alone is not a call site"
        );
    }

    #[test]
    fn wrapper_hashset_is_not_confused_with_std() {
        let src = r#"
use tsvd_collections::HashSet;
fn f() {
    let s = HashSet::new();
    spawn(move || s.add(1));
}
"#;
        let fa = analyze_file("x.rs", src);
        assert!(fa.escapes.is_empty(), "wrapper HashSet is instrumented");
        assert_eq!(fa.sites.len(), 1);
        assert_eq!(fa.sites[0].class, "HashSet");
    }

    #[test]
    fn sites_use_method_ident_column() {
        let src = "use tsvd_collections::Dictionary;\nfn f() {\n    let d = Dictionary::new();\n    d.set(1, 2);\n}\n";
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 1);
        let s = &fa.sites[0];
        assert_eq!((s.line, s.column), (4, 7), "column of `set`, not `d`");
        assert_eq!(s.kind, "write");
        assert_eq!(s.receiver, "d");
    }

    #[test]
    fn clone_aliases_to_root_receiver() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f() {
    let d = Dictionary::new();
    let d2 = d.clone();
    d2.set(1, 2);
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 1);
        assert_eq!(fa.sites[0].receiver, "d", "clone resolves to its root");
    }

    #[test]
    fn arc_new_and_arc_clone_track_like_plain_forms() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f(pool: &Pool) {
    let d = Arc::new(Dictionary::new());
    let d1 = Arc::clone(&d);
    pool.spawn(move || d1.set(1, 1));
    pool.spawn(move || d.set(2, 2));
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 2);
        assert!(fa.sites.iter().all(|s| s.receiver == "d"));
        assert_eq!(fa.pairs.len(), 1);
        assert_eq!(fa.pairs[0].reason, "cross-task");
    }

    #[test]
    fn cross_task_write_write_pair() {
        let src = r#"
use tsvd_collections::Dictionary;
use tsvd_tasks::Pool;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let d1 = d.clone();
    let d2 = d.clone();
    pool.spawn(move || d1.set(1, 1));
    pool.spawn(move || d2.set(2, 2));
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 2);
        assert_eq!(fa.pairs.len(), 1);
        assert_eq!(fa.pairs[0].reason, "cross-task");
        assert_eq!(fa.pairs[0].first_op, "Dictionary.set");
        assert_eq!(fa.pairs[0].confidence, 0.8182, "0.9 / 1.1, rounded");
        assert_eq!(fa.pairs[0].guard, "none");
        assert_eq!(fa.pairs[0].provenance, "direct");
    }

    #[test]
    fn read_read_is_not_a_pair() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let d1 = d.clone();
    let d2 = d.clone();
    pool.spawn(move || d1.get(&1));
    pool.spawn(move || d2.get(&2));
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 2);
        assert!(fa.pairs.is_empty());
    }

    #[test]
    fn parallel_for_each_write_races_itself() {
        let src = r#"
use tsvd_collections::Dictionary;
use tsvd_tasks::parallel_for_each;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let d1 = d.clone();
    parallel_for_each(pool, 0..10, move |n| { d1.set(n, n); });
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 1);
        assert_eq!(fa.pairs.len(), 1);
        assert_eq!(fa.pairs[0].reason, "multi-instance-task");
        assert_eq!(fa.pairs[0].first, fa.pairs[0].second);
        assert_eq!(
            fa.pairs[0].confidence, 0.85,
            "same region: no distance decay"
        );
    }

    #[test]
    fn single_task_does_not_race_itself() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let d1 = d.clone();
    pool.spawn(move || { d1.set(1, 1); d1.set(2, 2); });
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 2);
        assert!(fa.pairs.is_empty(), "one task instance is sequential");
    }

    #[test]
    fn spawn_in_loop_is_multi_instance() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    for i in 0..4 {
        let di = d.clone();
        pool.spawn(move || di.set(i, i));
    }
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.pairs.len(), 1);
        assert_eq!(fa.pairs[0].reason, "multi-instance-task");
    }

    #[test]
    fn main_thread_access_after_spawn_pairs() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let d1 = d.clone();
    pool.spawn(move || d1.set(1, 1));
    d.set(2, 2);
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 2);
        assert_eq!(fa.pairs.len(), 1);
        assert_eq!(fa.pairs[0].reason, "main-vs-spawned");
    }

    #[test]
    fn main_thread_access_before_spawn_does_not_pair() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    d.set(2, 2);
    let d1 = d.clone();
    pool.spawn(move || d1.set(1, 1));
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(
            fa.sites.len(),
            2,
            "pre-spawn write happens-before the spawn"
        );
        assert!(fa.pairs.is_empty());
    }

    #[test]
    fn different_receivers_do_not_pair() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f(pool: &Pool) {
    let a = Dictionary::new();
    let b = Dictionary::new();
    let a1 = a.clone();
    let b1 = b.clone();
    pool.spawn(move || a1.set(1, 1));
    pool.spawn(move || b1.set(2, 2));
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 2);
        assert!(fa.pairs.is_empty());
    }

    #[test]
    fn bindings_reset_between_functions() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f() { let d = Dictionary::new(); }
fn g() { d.set(1, 2); }
"#;
        let fa = analyze_file("w.rs", src);
        assert!(fa.sites.is_empty(), "d is out of scope in g");
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = r#"
use tsvd_collections::Dictionary;
trait T {}
struct S;
impl T for S {}
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let d1 = d.clone();
    pool.spawn(move || d1.set(1, 1));
}
"#;
        let fa = analyze_file("w.rs", src);
        assert!(fa.pairs.is_empty(), "impl-for must not mark multi-instance");
    }

    #[test]
    fn shadowing_let_drops_the_stale_binding() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f(pool: &Pool) {
    let m = Dictionary::new();
    let m = compute_input();
    let m1 = m.clone();
    pool.spawn(move || m1.set(1, 1));
    pool.spawn(move || m.set(2, 2));
}
"#;
        let fa = analyze_file("w.rs", src);
        assert!(fa.sites.is_empty(), "rebound `m` is no longer a wrapper");
        assert!(fa.pairs.is_empty());
    }

    #[test]
    fn shadowing_let_switches_to_the_new_class() {
        let src = r#"
use tsvd_collections::{Dictionary, HashSet};
fn f(pool: &Pool) {
    let m = Dictionary::new();
    let m = HashSet::new();
    let m1 = m.clone();
    pool.spawn(move || m1.add(1));
    pool.spawn(move || m.add(2));
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 2);
        assert!(fa.sites.iter().all(|s| s.class == "HashSet"));
        assert_eq!(fa.pairs.len(), 1);
        assert_eq!(fa.pairs[0].class, "HashSet");
    }

    #[test]
    fn interprocedural_ops_attribute_to_the_caller_binding() {
        let src = r#"
use tsvd_collections::Dictionary;
fn bump(d: &Dictionary<u64, u64>, k: u64) {
    d.set(k, k);
}
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let d1 = d.clone();
    let d2 = d.clone();
    pool.spawn(move || bump(&d1, 1));
    pool.spawn(move || bump(&d2, 2));
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 2, "one materialized site per call");
        assert!(fa.sites.iter().all(|s| s.receiver == "d"));
        assert_eq!(
            (fa.sites[0].line, fa.sites[0].column),
            (4, 7),
            "callee's `set`"
        );
        assert_eq!(fa.pairs.len(), 1);
        let p = &fa.pairs[0];
        assert_eq!(p.reason, "cross-task");
        assert_eq!(p.first, p.second, "both calls hit the same callee site");
        assert_eq!(p.provenance, "via-calls:1");
        assert_eq!(p.confidence, 0.6955, "0.9 * 0.85 / 1.1, rounded");
    }

    #[test]
    fn ctor_return_tracks_provenance() {
        let src = r#"
use tsvd_collections::Dictionary;
fn fresh() -> Dictionary<u64, u64> {
    Dictionary::new()
}
fn f(pool: &Pool) {
    let d = fresh();
    let d1 = d.clone();
    pool.spawn(move || d1.set(1, 1));
    d.set(2, 2);
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 2);
        assert_eq!(fa.pairs.len(), 1);
        let p = &fa.pairs[0];
        assert_eq!(p.reason, "main-vs-spawned");
        assert_eq!(p.provenance, "via-calls:1");
        assert_eq!(p.confidence, 0.5795, "0.75 * 0.85 / 1.1, rounded");
    }

    #[test]
    fn both_sides_guarded_pair_is_pruned() {
        let src = r#"
use tsvd_collections::Dictionary;
use tsvd_tasks::sync::TsvdMutex;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let m = TsvdMutex::new(0);
    let d1 = d.clone();
    let m1 = m.clone();
    let d2 = d.clone();
    let m2 = m.clone();
    pool.spawn(move || { let g = m1.lock(); d1.set(1, 1); });
    pool.spawn(move || { let g = m2.lock(); d2.set(2, 2); });
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.sites.len(), 2);
        assert!(
            fa.pairs.is_empty(),
            "consistently locked pair is serialized"
        );
        assert_eq!(fa.pruned_pairs.len(), 1);
        let p = &fa.pruned_pairs[0];
        assert_eq!(p.guard, "both-guarded:m");
        assert_eq!(p.confidence, 0.0);
        assert_eq!(p.reason, "cross-task");
    }

    #[test]
    fn one_side_guarded_pair_is_kept() {
        let src = r#"
use tsvd_collections::Dictionary;
use tsvd_tasks::sync::TsvdMutex;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let m = TsvdMutex::new(0);
    let d1 = d.clone();
    let m1 = m.clone();
    let d2 = d.clone();
    pool.spawn(move || { let g = m1.lock(); d1.set(1, 1); });
    pool.spawn(move || d2.set(2, 2));
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.pairs.len(), 1);
        assert!(fa.pruned_pairs.is_empty());
        assert_eq!(fa.pairs[0].guard, "one-side-guarded");
        assert_eq!(
            fa.pairs[0].confidence, 0.8182,
            "no demotion: the race stands"
        );
    }

    #[test]
    fn disjoint_locks_demote_but_keep() {
        let src = r#"
use tsvd_collections::Dictionary;
use tsvd_tasks::sync::TsvdMutex;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let m = TsvdMutex::new(0);
    let n = TsvdMutex::new(0);
    let d1 = d.clone();
    let m1 = m.clone();
    let d2 = d.clone();
    let n1 = n.clone();
    pool.spawn(move || { let g = m1.lock(); d1.set(1, 1); });
    pool.spawn(move || { let g = n1.lock(); d2.set(2, 2); });
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.pairs.len(), 1);
        assert_eq!(fa.pairs[0].guard, "inconsistent-locks");
        assert_eq!(fa.pairs[0].confidence, 0.7364, "0.9 * 0.9 / 1.1, rounded");
    }

    #[test]
    fn shared_read_guards_do_not_prune() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let m = RwLock::new(0);
    let d1 = d.clone();
    let m1 = m.clone();
    let d2 = d.clone();
    let m2 = m.clone();
    pool.spawn(move || { let g = m1.read(); d1.set(1, 1); });
    pool.spawn(move || { let g = m2.read(); d2.set(2, 2); });
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.pairs.len(), 1, "read guards do not exclude each other");
        assert!(fa.pruned_pairs.is_empty());
        assert_eq!(fa.pairs[0].guard, "shared-guard");
        assert_eq!(fa.pairs[0].confidence, 0.8182);
    }

    #[test]
    fn guard_scope_ends_with_its_block() {
        let src = r#"
use tsvd_collections::Dictionary;
use tsvd_tasks::sync::TsvdMutex;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let m = TsvdMutex::new(0);
    let d1 = d.clone();
    let m1 = m.clone();
    pool.spawn(move || {
        { let g = m1.lock(); }
        d1.set(1, 1);
    });
    d.set(2, 2);
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.pairs.len(), 1);
        assert_eq!(fa.pairs[0].guard, "none", "guard died before the site");
    }

    #[test]
    fn channel_transfer_demotes_the_pair() {
        let src = r#"
use tsvd_collections::Dictionary;
fn f(pool: &Pool) {
    let d = Dictionary::new();
    let (tx, rx) = mpsc::channel();
    let d1 = d.clone();
    pool.spawn(move || d1.set(1, 1));
    tx.send(d.clone());
    d.set(2, 2);
}
"#;
        let fa = analyze_file("w.rs", src);
        assert_eq!(fa.pairs.len(), 1);
        let p = &fa.pairs[0];
        assert_eq!(p.reason, "main-vs-spawned");
        assert_eq!(p.guard, "channel-transfer");
        assert_eq!(p.confidence, 0.4091, "0.75 * 0.6 / 1.1, rounded");
    }

    #[test]
    fn op_literal_extraction() {
        let src = r#"
impl D {
    pub fn add(&self) {
        let site = tsvd_core::site!();
        self.inner.write(site, "Dictionary.add", |m| m.insert(1))
    }
    pub fn len(&self) -> usize {
        let site = tsvd_core::site!();
        self.inner.read(site, "Dictionary.len", |m| m.len())
    }
}
"#;
        let lits = instrumented_op_literals(src);
        assert_eq!(
            lits,
            vec![
                ("Dictionary.add".to_string(), OpKind::Write),
                ("Dictionary.len".to_string(), OpKind::Read),
            ]
        );
    }
}
