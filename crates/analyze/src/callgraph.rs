//! Per-crate call graph and function summaries: the interprocedural layer.
//!
//! The line-level pass in [`analysis`](crate::analysis) only sees receivers
//! whose constructor is lexically in scope. Real code moves shared handles
//! through helpers — `fn bump(d: &Dictionary<u64, u64>, k: u64)` — and the
//! provenance would die at the call boundary. This module summarizes every
//! `fn` item once (which wrapper-typed parameters it touches, how, and
//! under which locks; what wrapper class it returns; whom it calls) and
//! closes the summaries transitively, so a call site with a tracked
//! argument can materialize the callee's accesses as if they were inlined.
//!
//! Same token-level spirit as the rest of the crate: summaries are
//! heuristic, bounded (the fixed point caps at [`MAX_HOPS`] call-graph
//! hops), and resolve callees by bare name — same file first, then a
//! unique global match; ambiguous names are skipped rather than guessed.
//!
//! The per-file pass reads summaries only through a `Lookups` handle,
//! which records every name it resolves. A file's analysis is therefore a
//! function of its path, its source, and `Summaries::dep_digest` of each
//! recorded name — what the analyzer's cache keys a stored analysis on.
//! A run that needs only some names builds its set through `Reach`, which
//! parses just the files defining them and what they call.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use tsvd_core::access::{api_class, classify_op};
use tsvd_core::OpKind;

use crate::analysis::{call_names, is_call_site, MULTI_SPAWN_CALLS, SPAWN_CALLS};
use crate::lexer::{tokenize, TokKind, Token};
use crate::scope::ScopeTree;

/// Synchronization wrapper type names recognized in parameter positions.
pub const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "TsvdMutex"];

/// Transitive-propagation cap: ops further than this many call hops from a
/// summarized function are dropped (their provenance grade would be noise
/// anyway — see the confidence formula in DESIGN.md).
pub const MAX_HOPS: u32 = 8;

/// How a guard serializes its critical section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardMode {
    /// `lock()` / `write()`: mutual exclusion with every other guard.
    Exclusive,
    /// `read()`: excludes writers only.
    Shared,
}

/// One declared parameter of a summarized function.
#[derive(Debug, Clone, Hash)]
pub struct Param {
    /// Declared parameter name.
    pub name: String,
    /// Instrumented-collection class when the type annotation names one
    /// (through `&`, `&mut`, `Arc<...>`); `None` otherwise.
    pub class: Option<&'static str>,
    /// Whether the type annotation names a lock wrapper.
    pub lock: bool,
}

/// One access a function performs (directly or transitively) on one of its
/// wrapper-typed parameters.
#[derive(Debug, Clone, Hash)]
pub struct ParamOp {
    /// Index of the accessed parameter in [`FnSummary::params`].
    pub param: usize,
    /// The parameter's collection class at the op (callee's declaration).
    pub class: &'static str,
    /// Method name at the access site.
    pub method: String,
    /// Read or write, per the shared API table.
    pub kind: OpKind,
    /// Where the access happens — the *callee's* file and the method
    /// ident's position, i.e. exactly what `#[track_caller]` reports when
    /// the wrapper executes. One allocation per file, shared by every
    /// summary and op that names it.
    pub file: Arc<str>,
    /// 1-based line of the method ident.
    pub line: u32,
    /// 1-based column of the method ident.
    pub col: u32,
    /// `Some((callee-local region id, multi))` when the op runs inside a
    /// task the summarized function itself spawns.
    pub spawned: Option<(u32, bool)>,
    /// Lock-typed parameter whose guard is held at the op, with its mode.
    pub lock_param: Option<(usize, GuardMode)>,
    /// Call hops between the summarized fn and the op (0 = own body).
    pub hops: u32,
}

/// One outgoing call with its bare-ident argument names by position
/// (`None` for arguments too complex to name).
#[derive(Debug, Clone, Hash)]
pub struct CallEdge {
    /// Bare callee name.
    pub callee: String,
    /// Argument names by position.
    pub args: Vec<Option<String>>,
}

/// Everything the interprocedural layer knows about one `fn` item.
#[derive(Debug, Clone, Default, Hash)]
pub struct FnSummary {
    /// File the `fn` item lives in (root-relative, forward slashes).
    pub file: Arc<str>,
    /// Bare function name.
    pub name: String,
    /// Declared parameters, in order.
    pub params: Vec<Param>,
    /// Wrapper class of the return type, if any: `let d = make_dict();`
    /// gives `d` this class (constructor-return provenance).
    pub returns_class: Option<&'static str>,
    /// Accesses to wrapper-typed parameters, own body and propagated.
    pub ops: Vec<ParamOp>,
    /// Outgoing calls with bare-ident arguments: what propagation walks.
    /// Empty in a closed [`Summaries`] — nothing reads an edge once the ops
    /// it carries have been copied to the caller.
    pub calls: Vec<CallEdge>,
}

/// The function summaries of one analysis run — the whole tree's, or the
/// part of it a run needs (see `Reach`) — indexed by bare name.
#[derive(Debug, Default)]
pub struct Summaries {
    /// Every summary, in fragment order.
    all: Vec<FnSummary>,
    /// Bare name → positions in `all`, ascending.
    by_name: HashMap<String, Vec<usize>>,
    /// The names a partial set ([`Reach::summaries`]) was closed over.
    /// It answers for those alone: any other name may be defined in a file
    /// it never parsed, so looking one up is an engine bug.
    #[cfg(debug_assertions)]
    closed_over: Option<std::collections::HashSet<String>>,
}

impl Summaries {
    /// Builds and transitively closes summaries over `(file, source)`
    /// pairs. `file` must be the same root-relative forward-slash path the
    /// per-file analysis uses — it is embedded in materialized sites.
    pub fn build(files: &[(String, String)]) -> Self {
        Self::from_fragments(
            files
                .iter()
                .flat_map(|(file, src)| Self::file_fragments(file, src)),
        )
    }

    /// Parses one file's pre-propagation function summaries — the per-file
    /// unit of the fan-out, independent of every other file.
    pub fn file_fragments(file: &str, src: &str) -> Vec<FnSummary> {
        Self::fragments_of(file, &tokenize(src))
    }

    /// [`file_fragments`](Self::file_fragments) over tokens already lexed.
    fn fragments_of(file: &str, toks: &[Token]) -> Vec<FnSummary> {
        let file: Arc<str> = Arc::from(file);
        let tree = ScopeTree::build(toks);
        let mut out = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
                if let Some((summary, next)) = parse_fn(&file, toks, &tree, i) {
                    out.push(summary);
                    i = next;
                    continue;
                }
            }
            i += 1;
        }
        out
    }

    /// Assembles a summary set from per-file fragments and transitively
    /// closes it. Propagation is a fixed point over every fragment given,
    /// so it runs once over all of them — only the parse is per file.
    pub fn from_fragments(fragments: impl IntoIterator<Item = FnSummary>) -> Self {
        Self::indexed(fragments).closed()
    }

    /// Fragments indexed by name, not yet propagated.
    fn indexed(fragments: impl IntoIterator<Item = FnSummary>) -> Self {
        let all: Vec<FnSummary> = fragments.into_iter().collect();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, summary) in all.iter().enumerate() {
            match by_name.get_mut(&summary.name) {
                Some(indices) => indices.push(i),
                None => {
                    by_name.insert(summary.name.clone(), vec![i]);
                }
            }
        }
        Summaries {
            all,
            by_name,
            #[cfg(debug_assertions)]
            closed_over: None,
        }
    }

    /// Propagates, then drops the call edges nothing reads any more.
    fn closed(mut self) -> Self {
        self.propagate();
        for summary in &mut self.all {
            summary.calls = Vec::new();
        }
        self
    }

    /// Resolves a bare callee name from `file`: a unique same-file match
    /// first, then a unique global one. Ambiguity resolves to `None` — a
    /// wrong summary is worse than no summary.
    pub fn lookup(&self, file: &str, name: &str) -> Option<&FnSummary> {
        #[cfg(debug_assertions)]
        debug_assert!(
            self.closed_over
                .as_ref()
                .is_none_or(|names| names.contains(name)),
            "`{name}` looked up from {file}, outside the names the partial set closed over"
        );
        let all = self.by_name.get(name)?;
        let mut same_file = all.iter().filter(|&&i| &*self.all[i].file == file);
        if let (Some(&i), None) = (same_file.next(), same_file.next()) {
            return Some(&self.all[i]);
        }
        if let [only] = all.as_slice() {
            return Some(&self.all[*only]);
        }
        None
    }

    /// A digest of what [`lookup`](Self::lookup) resolves `name` to from
    /// `file`: the whole closed summary, or the fact that nothing (or more
    /// than one candidate) matched. A file analysis recorded under this
    /// digest holds for as long as the digest does.
    pub(crate) fn dep_digest(&self, file: &str, name: &str) -> u64 {
        let mut h = crate::cache::Fnv64::default();
        self.lookup(file, name).hash(&mut h);
        h.finish()
    }

    /// Number of summarized functions (tests / stats).
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// Whether no function was summarized.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Transitive closure: a call passing my parameter onward inherits the
    /// callee's ops on it, one hop further out. Bounded fixed point —
    /// recursion and cycles converge because the (param, site) dedupe key
    /// stops re-insertion and hops cap at [`MAX_HOPS`]. A round reads every
    /// callee as the last round left it: gains are collected against the
    /// unchanged set, then applied.
    fn propagate(&mut self) {
        for _round in 0..MAX_HOPS {
            let gains: Vec<Vec<ParamOp>> = self.all.iter().map(|s| self.gains(s)).collect();
            let mut changed = false;
            for (summary, gained) in self.all.iter_mut().zip(gains) {
                changed |= !gained.is_empty();
                summary.ops.extend(gained);
            }
            if !changed {
                break;
            }
        }
    }

    /// The ops `summary` inherits this round through its outgoing calls, in
    /// call order then callee-op order, each (param, site) once.
    fn gains(&self, summary: &FnSummary) -> Vec<ParamOp> {
        let mut gained: Vec<ParamOp> = Vec::new();
        for call in &summary.calls {
            let Some(callee) = self.lookup(&summary.file, &call.callee) else {
                continue;
            };
            for op in &callee.ops {
                if op.hops + 1 > MAX_HOPS {
                    continue;
                }
                let Some(arg) = call.args.get(op.param).and_then(|a| a.as_deref()) else {
                    continue;
                };
                let Some(pidx) = summary.params.iter().position(|p| p.name == arg) else {
                    continue;
                };
                if summary.params[pidx].class != Some(op.class) {
                    continue;
                }
                let dup = summary.ops.iter().chain(&gained).any(|o| {
                    o.param == pidx && o.file == op.file && o.line == op.line && o.col == op.col
                });
                if dup {
                    continue;
                }
                let lock_param = op.lock_param.and_then(|(q, mode)| {
                    let lock_arg = call.args.get(q)?.as_deref()?;
                    let lp = summary
                        .params
                        .iter()
                        .position(|p| p.name == lock_arg && p.lock)?;
                    Some((lp, mode))
                });
                gained.push(ParamOp {
                    param: pidx,
                    lock_param,
                    hops: op.hops + 1,
                    ..op.clone()
                });
            }
        }
        gained
    }
}

/// The per-file pass's only view of the summaries: [`Summaries::lookup`]
/// from one file, with every name asked for recorded. Nothing else of the
/// summary set is reachable through it, so the recorded names are all a
/// file's analysis depends on beyond its own source.
pub(crate) struct Lookups<'a> {
    summaries: &'a Summaries,
    file: &'a str,
    names: RefCell<BTreeSet<String>>,
}

impl<'a> Lookups<'a> {
    /// A recording view of `summaries` from `file`.
    pub(crate) fn new(summaries: &'a Summaries, file: &'a str) -> Self {
        Lookups {
            summaries,
            file,
            names: RefCell::default(),
        }
    }

    /// [`Summaries::lookup`] from this handle's file, recorded.
    pub(crate) fn lookup(&self, name: &str) -> Option<&'a FnSummary> {
        let mut names = self.names.borrow_mut();
        if !names.contains(name) {
            names.insert(name.to_string());
        }
        self.summaries.lookup(self.file, name)
    }

    /// Every recorded name, sorted, with its [`Summaries::dep_digest`].
    pub(crate) fn into_deps(self) -> Vec<(String, u64)> {
        let (summaries, file) = (self.summaries, self.file);
        self.names
            .into_inner()
            .into_iter()
            .map(|name| {
                let digest = summaries.dep_digest(file, &name);
                (name, digest)
            })
            .collect()
    }
}

/// What a run reads off a changed file, from one lexing.
pub(crate) struct ParsedFile {
    /// Its pre-propagation summaries.
    pub(crate) fragments: Vec<FnSummary>,
    /// The fn names they define, sorted, each once: what its record keeps
    /// so that the next run can index the tree unparsed.
    pub(crate) fns: Vec<String>,
    /// The names its per-file pass can look up ([`call_names`]).
    pub(crate) calls: Vec<String>,
}

/// Parses one file into a [`ParsedFile`].
pub(crate) fn parse_file(file: &str, src: &str) -> ParsedFile {
    let toks = tokenize(src);
    let fragments = Summaries::fragments_of(file, &toks);
    let fns: BTreeSet<&str> = fragments.iter().map(|f| f.name.as_str()).collect();
    ParsedFile {
        fns: fns.into_iter().map(str::to_string).collect(),
        calls: call_names(&toks),
        fragments,
    }
}

#[cfg(test)]
thread_local! {
    /// Files whose fragments the runs on this thread parsed.
    pub(crate) static FILES_PARSED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The part of the tree's summary set a run needs, parsed on demand.
///
/// `defined_in` says which files define a name without parsing any: it is
/// read off the stored records' `fns` and the changed files' fragments.
/// Closing over a name parses every file that defines it (each file once)
/// and follows the call edges of every definition, so the closed names
/// carry *all* their definitions and all of their callees'. Propagation is
/// round-synchronous — a summary after round *r* depends only on its
/// callees after round *r − 1* — so the set [`summaries`](Self::summaries)
/// builds from them closes to exactly the whole tree's summaries for those
/// names, and [`Summaries::lookup`] sees the same candidates.
pub(crate) struct Reach<'a> {
    sources: &'a [(String, String)],
    threads: usize,
    /// Bare fn name → its last entry in `defs`.
    defined_in: HashMap<&'a str, usize>,
    /// Every (source, name it defines), each with the entry before it of
    /// the same name: one chain per name, and no allocation per name.
    defs: Vec<(usize, Option<usize>)>,
    /// Per source, its fragments once parsed.
    fragments: Vec<Option<Vec<FnSummary>>>,
    /// Every name closed over → the callee names of its definitions,
    /// sorted, each once.
    callees: HashMap<String, Vec<String>>,
}

impl<'a> Reach<'a> {
    /// A reach over `sources`: `defines` pairs a source index with a name
    /// it defines, `fragments` holds the fragments already parsed.
    pub(crate) fn new(
        sources: &'a [(String, String)],
        defines: impl IntoIterator<Item = (usize, &'a str)>,
        fragments: Vec<Option<Vec<FnSummary>>>,
        threads: usize,
    ) -> Self {
        let defines: Vec<(usize, &str)> = defines.into_iter().collect();
        let mut defined_in = HashMap::with_capacity(defines.len());
        let mut defs = Vec::with_capacity(defines.len());
        for (i, name) in defines {
            defs.push((i, defined_in.insert(name, defs.len())));
        }
        Reach {
            sources,
            threads,
            defined_in,
            defs,
            fragments,
            callees: HashMap::new(),
        }
    }

    /// Closes over `names`, parsing the files that define a name reached
    /// on up to `threads` workers. Returns whether any name was new.
    pub(crate) fn close<'n>(&mut self, names: impl IntoIterator<Item = &'n str>) -> bool {
        let mut frontier: Vec<String> = names
            .into_iter()
            .filter(|name| !self.callees.contains_key(*name))
            .map(str::to_string)
            .collect();
        let grew = !frontier.is_empty();
        while !frontier.is_empty() {
            frontier.sort_unstable();
            frontier.dedup();
            let mut unparsed: Vec<usize> = frontier
                .iter()
                .flat_map(|name| self.files_defining(name))
                .filter(|&i| self.fragments[i].is_none())
                .collect();
            unparsed.sort_unstable();
            unparsed.dedup();
            let sources = self.sources;
            let parsed = crate::fan_out(&unparsed, self.threads, |&i| {
                let (file, src) = &sources[i];
                Summaries::file_fragments(file, src)
            });
            #[cfg(test)]
            FILES_PARSED.with(|n| n.set(n.get() + unparsed.len()));
            for (i, fragments) in unparsed.into_iter().zip(parsed) {
                self.fragments[i] = Some(fragments);
            }
            let mut next = Vec::new();
            for name in frontier {
                let calls: BTreeSet<&str> = (self.files_defining(&name))
                    .flat_map(|i| self.fragments[i].iter().flatten())
                    .filter(|f| f.name == name)
                    .flat_map(|f| &f.calls)
                    .map(|call| call.callee.as_str())
                    .collect();
                let calls: Vec<String> = calls.into_iter().map(str::to_string).collect();
                next.extend(calls.iter().cloned());
                self.callees.insert(name, calls);
            }
            next.retain(|name| !self.callees.contains_key(name));
            frontier = next;
        }
        grew
    }

    /// The sources that define `name`.
    fn files_defining(&self, name: &str) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.defined_in.get(name).copied();
        std::iter::from_fn(move || {
            let (file, before) = self.defs[at?];
            at = before;
            Some(file)
        })
    }

    /// The summary set of every name closed over, its fragments in input
    /// order. It answers lookups of those names exactly as the whole
    /// tree's set would, and (in debug builds) refuses any other.
    pub(crate) fn summaries(&self) -> Summaries {
        let fragments = self.fragments.iter().flatten().flatten();
        let needed = fragments.filter(|f| self.callees.contains_key(&f.name));
        let set = Summaries::indexed(needed.cloned());
        #[cfg(debug_assertions)]
        let set = Summaries {
            closed_over: Some(self.callees.keys().cloned().collect()),
            ..set
        };
        set.closed()
    }

    /// What a file's deps were derived from: each dep name and every name
    /// reachable from it through its definitions' call edges, sorted.
    pub(crate) fn support<'s>(&'s self, deps: impl IntoIterator<Item = &'s str>) -> Vec<String> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = deps.into_iter().collect();
        while let Some(name) = stack.pop() {
            if seen.insert(name) {
                let callees = self.callees.get(name);
                debug_assert!(callees.is_some(), "dep `{name}` was never closed over");
                stack.extend(callees.into_iter().flatten().map(String::as_str));
            }
        }
        seen.into_iter().map(str::to_string).collect()
    }
}

/// Wrapper class named by a type-annotation token run, if any. `std` or
/// `raw` segments disqualify — those are the uninstrumented types the
/// escape lint exists for, not provenance.
fn type_class(toks: &[Token]) -> Option<&'static str> {
    if toks.iter().any(|t| t.is_ident("std") || t.is_ident("raw")) {
        return None;
    }
    toks.iter()
        .filter(|t| t.kind == TokKind::Ident)
        .find_map(|t| api_class(t.text))
}

fn type_is_lock(toks: &[Token]) -> bool {
    toks.iter()
        .any(|t| t.kind == TokKind::Ident && LOCK_TYPES.contains(&t.text))
}

/// Parses the parameter list between (exclusive) the fn's parens.
fn parse_params(toks: &[Token]) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut slices: Vec<&[Token]> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('<') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct('>') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            slices.push(&toks[start..i]);
            start = i + 1;
        }
    }
    if start < toks.len() {
        slices.push(&toks[start..]);
    }
    for slice in slices {
        // `self` receivers carry no usable name or annotation.
        let colon = slice.iter().position(|t| t.is_punct(':'));
        let Some(colon) = colon else { continue };
        let name = slice[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && t.text != "mut");
        let Some(name) = name else { continue };
        let ty = &slice[colon + 1..];
        params.push(Param {
            name: name.text.to_string(),
            class: type_class(ty),
            lock: type_is_lock(ty),
        });
    }
    params
}

/// Bare-ident argument names by position inside the call parens at `open`.
pub(crate) fn call_args(toks: &[Token], tree: &ScopeTree, open: usize) -> Vec<Option<String>> {
    let Some(close) = tree.close_of(open) else {
        return Vec::new();
    };
    let inner = &toks[open + 1..close];
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let push = |slice: &[Token], args: &mut Vec<Option<String>>| {
        if !slice.is_empty() {
            args.push(bare_arg_name(slice));
        }
    };
    for (i, t) in inner.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('<') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct('>') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            push(&inner[start..i], &mut args);
            start = i + 1;
        }
    }
    push(&inner[start..], &mut args);
    args
}

/// The single binding name an argument expression denotes, when it is one
/// of the aliasing-preserving shapes: `x`, `&x`, `&mut x`, `x.clone()`,
/// `&x.clone()`, `Arc::clone(&x)`.
fn bare_arg_name(toks: &[Token]) -> Option<String> {
    let idents: Vec<&Token> = toks.iter().filter(|t| t.kind == TokKind::Ident).collect();
    match idents.as_slice() {
        [x] if toks.len() <= 3 => Some(x.text.to_string()),
        [x, m] if m.is_ident("clone") => Some(x.text.to_string()),
        [m, x] if m.is_ident("mut") => Some(x.text.to_string()),
        [a, c, x] if a.is_ident("Arc") && c.is_ident("clone") => Some(x.text.to_string()),
        _ => None,
    }
}

/// Parses one `fn` item starting at `fn_idx`; returns the summary and the
/// token index scanning should resume from (just inside the body, so
/// nested items are discovered by the outer scan).
fn parse_fn(
    file: &Arc<str>,
    toks: &[Token],
    tree: &ScopeTree,
    fn_idx: usize,
) -> Option<(FnSummary, usize)> {
    let name = toks.get(fn_idx + 1)?.text.to_string();
    let mut i = fn_idx + 2;
    if toks.get(i)?.is_punct('<') {
        let mut depth = 1usize;
        i += 1;
        while i < toks.len() && depth > 0 {
            if toks[i].is_punct('<') {
                depth += 1;
            } else if toks[i].is_punct('>') {
                depth -= 1;
            }
            i += 1;
        }
    }
    if !toks.get(i)?.is_punct('(') {
        return None;
    }
    let params_open = i;
    let params_close = tree.close_of(params_open)?;
    let params = parse_params(&toks[params_open + 1..params_close]);

    i = params_close + 1;
    let mut ret_start = None;
    let mut ret_end = None;
    while i < toks.len() && !toks[i].is_punct('{') {
        if toks[i].is_punct(';') {
            // Trait-method declaration: signature only, no body.
            let summary = FnSummary {
                file: Arc::clone(file),
                name,
                params,
                ..FnSummary::default()
            };
            return Some((summary, i + 1));
        }
        // Only the first arrow before any `where` is the return type; a
        // later `->` belongs to a closure bound (`where F: Fn() -> T`).
        if toks[i].is_punct('-')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('>'))
            && ret_start.is_none()
            && ret_end.is_none()
        {
            ret_start = Some(i + 2);
        }
        if toks[i].is_ident("where") && ret_end.is_none() {
            ret_end = Some(i);
        }
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    let body_open = i;
    let returns_class = ret_start
        .map(|s| (s, ret_end.unwrap_or(body_open)))
        .filter(|&(s, e)| s <= e)
        .and_then(|(s, e)| type_class(&toks[s..e]));
    let body_close = tree.close_of(body_open)?;

    let mut summary = FnSummary {
        file: Arc::clone(file),
        name,
        params,
        returns_class,
        ops: Vec::new(),
        calls: Vec::new(),
    };
    summarize_body(&mut summary, toks, tree, body_open, body_close);
    Some((summary, body_open + 1))
}

/// Rust keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "move", "in", "as", "else",
];

/// Fills `ops` and `calls` from the body extent `(body_open, body_close)`.
fn summarize_body(
    summary: &mut FnSummary,
    toks: &[Token],
    tree: &ScopeTree,
    body_open: usize,
    body_close: usize,
) {
    let param_idx: HashMap<&str, usize> = summary
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();
    // The body's own block (an empty body has no token to ask at, and
    // nothing to summarize either).
    let body = tree.block_at(body_open + 1);
    // Spawn calls of this body, as (opening paren, multi); the region id
    // is the position.
    let mut spawns: Vec<(usize, bool)> = Vec::new();
    // Param-lock guards: (block of the `let`, param, mode).
    let mut guards: Vec<(u32, usize, GuardMode)> = Vec::new();

    let mut i = body_open + 1;
    while i < body_close {
        let t = &toks[i];
        // Nested items get their own summary from the outer scan;
        // attributing their body to this fn would be wrong.
        if t.is_ident("fn") {
            let mut j = i + 1;
            while j < body_close && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            let item_body = j < body_close && toks[j].is_punct('{');
            i = match tree.close_of(j).filter(|_| item_body) {
                Some(close) => close + 1,
                None => j + 1,
            };
            continue;
        }
        if t.is_ident("let") {
            if let Some((param, mode)) = parse_param_guard(toks, i, &param_idx) {
                guards.push((tree.block_at(i), param, mode));
            }
        }
        if !t.is_punct('(') {
            i += 1;
            continue;
        }
        // Param access: `p . method (`.
        if i >= 3
            && toks[i - 1].kind == TokKind::Ident
            && toks[i - 2].is_punct('.')
            && toks[i - 3].kind == TokKind::Ident
        {
            if let Some(&pidx) = param_idx.get(toks[i - 3].text) {
                if let Some(class) = summary.params[pidx].class {
                    let method = &toks[i - 1];
                    let op = format!("{class}.{}", method.text);
                    if let Some(kind) = classify_op(&op) {
                        let here = tree.block_at(i);
                        let spawned = tree
                            .parens_around(i)
                            .take_while(|&open| open > body_open)
                            .find_map(|open| {
                                let id = spawns.binary_search_by_key(&open, |s| s.0).ok()?;
                                Some((id as u32, spawns[id].1))
                            });
                        let lock_param = guards
                            .iter()
                            .rev()
                            .find(|g| tree.dominates(g.0, here))
                            .map(|&(_, p, m)| (p, m));
                        summary.ops.push(ParamOp {
                            param: pidx,
                            class,
                            method: method.text.to_string(),
                            kind,
                            file: Arc::clone(&summary.file),
                            line: method.line,
                            col: method.col,
                            spawned,
                            lock_param,
                            hops: 0,
                        });
                    }
                }
            }
        }
        // Spawn extents and plain calls.
        let prev_ident = toks
            .get(i.wrapping_sub(1))
            .filter(|p| p.kind == TokKind::Ident)
            .map(|p| p.text);
        if let Some(callee) = prev_ident {
            if SPAWN_CALLS.contains(&callee) {
                let multi =
                    tree.in_loop(tree.block_at(i), body) || MULTI_SPAWN_CALLS.contains(&callee);
                spawns.push((i, multi));
            } else if is_call_site(toks, i - 1) && !CALL_KEYWORDS.contains(&callee) {
                summary.calls.push(CallEdge {
                    callee: callee.to_string(),
                    args: call_args(toks, tree, i),
                });
            }
        }
        i += 1;
    }
}

/// Recognizes `let [mut] g = P.lock()/read()/write()` (optionally
/// `.unwrap()` / `.expect(..)`) where `P` is a lock-typed parameter.
fn parse_param_guard(
    toks: &[Token],
    let_idx: usize,
    param_idx: &HashMap<&str, usize>,
) -> Option<(usize, GuardMode)> {
    let mut i = let_idx + 1;
    if toks.get(i)?.is_ident("mut") {
        i += 1;
    }
    if toks.get(i)?.kind != TokKind::Ident {
        return None;
    }
    i += 1;
    while i < toks.len() && !toks[i].is_punct('=') {
        if toks[i].is_punct(';') {
            return None;
        }
        i += 1;
    }
    i += 1;
    let recv = toks.get(i)?;
    if recv.kind != TokKind::Ident || !toks.get(i + 1)?.is_punct('.') {
        return None;
    }
    let method = toks.get(i + 2)?;
    let mode = match method.text {
        "lock" | "write" => GuardMode::Exclusive,
        "read" => GuardMode::Shared,
        _ => return None,
    };
    if !toks.get(i + 3)?.is_punct('(') {
        return None;
    }
    let pidx = *param_idx.get(recv.text)?;
    Some((pidx, mode))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_one(src: &str) -> Summaries {
        Summaries::build(&[("a.rs".to_string(), src.to_string())])
    }

    /// `propagate` as it was: every round deep-clones the whole map and
    /// mutates each summary in place against that snapshot. Kept as the
    /// oracle for the two-phase version.
    fn propagate_by_snapshot(by_name: &mut HashMap<String, Vec<FnSummary>>) {
        fn lookup_in<'a>(
            by_name: &'a HashMap<String, Vec<FnSummary>>,
            file: &str,
            name: &str,
        ) -> Option<&'a FnSummary> {
            let all = by_name.get(name)?;
            let mut same_file = all.iter().filter(|s| &*s.file == file);
            if let (Some(s), None) = (same_file.next(), same_file.next()) {
                return Some(s);
            }
            if let [only] = all.as_slice() {
                return Some(only);
            }
            None
        }
        for _round in 0..MAX_HOPS {
            let snapshot = by_name.clone();
            let mut changed = false;
            for summaries in by_name.values_mut() {
                for summary in summaries.iter_mut() {
                    let calls = summary.calls.clone();
                    for call in &calls {
                        let resolved = lookup_in(&snapshot, &summary.file, &call.callee);
                        let Some(callee) = resolved else {
                            continue;
                        };
                        for op in &callee.ops {
                            if op.hops + 1 > MAX_HOPS {
                                continue;
                            }
                            let Some(arg) = call.args.get(op.param).and_then(|a| a.as_deref())
                            else {
                                continue;
                            };
                            let Some(pidx) = summary.params.iter().position(|p| p.name == arg)
                            else {
                                continue;
                            };
                            if summary.params[pidx].class != Some(op.class) {
                                continue;
                            }
                            let lock_param = op.lock_param.and_then(|(q, mode)| {
                                let lock_arg = call.args.get(q)?.as_deref()?;
                                let lp = summary
                                    .params
                                    .iter()
                                    .position(|p| p.name == lock_arg && p.lock)?;
                                Some((lp, mode))
                            });
                            let dup = summary.ops.iter().any(|o| {
                                o.param == pidx
                                    && o.file == op.file
                                    && o.line == op.line
                                    && o.col == op.col
                            });
                            if dup {
                                continue;
                            }
                            summary.ops.push(ParamOp {
                                param: pidx,
                                lock_param,
                                hops: op.hops + 1,
                                ..op.clone()
                            });
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Everything propagation decides about one summary, `ops` order
    /// included (`calls` are its input, and a closed set drops them).
    fn closed_form(s: &FnSummary) -> String {
        format!(
            "{} {} {:?} {:?} {:#?}",
            s.file, s.name, s.params, s.returns_class, s.ops
        )
    }

    /// Closes `files` both ways and compares summary by summary; returns
    /// the ops propagation added, so callers can tell a real check from a
    /// vacuous one.
    fn assert_propagation_matches_the_snapshot_oracle(
        what: &str,
        files: &[(String, String)],
    ) -> Vec<ParamOp> {
        let fragments: Vec<FnSummary> = files
            .iter()
            .flat_map(|(file, src)| Summaries::file_fragments(file, src))
            .collect();
        let mut oracle: HashMap<String, Vec<FnSummary>> = HashMap::new();
        for summary in fragments.iter().cloned() {
            oracle
                .entry(summary.name.clone())
                .or_default()
                .push(summary);
        }
        propagate_by_snapshot(&mut oracle);
        let closed = Summaries::from_fragments(fragments);
        assert_eq!(closed.by_name.len(), oracle.len(), "{what}: names");
        for (name, indices) in &closed.by_name {
            let got: Vec<String> = indices
                .iter()
                .map(|&i| closed_form(&closed.all[i]))
                .collect();
            let want: Vec<String> = oracle[name].iter().map(closed_form).collect();
            assert_eq!(got, want, "{what}: fn {name}");
        }
        assert!(closed.all.iter().all(|s| s.calls.is_empty()));
        let ops = closed.all.iter().flat_map(|s| &s.ops);
        ops.filter(|op| op.hops > 0).cloned().collect()
    }

    #[test]
    fn two_phase_propagation_equals_the_snapshot_version_on_the_fixture_tree() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        let files: Vec<(String, String)> = crate::walk::rust_files(&root)
            .expect("walk fixtures")
            .iter()
            .map(|rel| {
                let src = std::fs::read_to_string(root.join(rel)).expect("read fixture");
                (crate::walk::to_forward_slashes(rel), src)
            })
            .collect();
        assert_eq!(files.len(), 11);
        assert_propagation_matches_the_snapshot_oracle("fixtures", &files);
    }

    #[test]
    fn two_phase_propagation_equals_the_snapshot_version_on_random_call_graphs() {
        let mut rng = crate::testrand::Seeded::new(0x7073_7664_5f32_3300);
        let mut propagated: Vec<ParamOp> = Vec::new();
        let mut graphs_that_propagate = 0;
        for graph in 0..200 {
            let files = crate::testrand::random_call_graph(&mut rng);
            let added =
                assert_propagation_matches_the_snapshot_oracle(&format!("graph {graph}"), &files);
            graphs_that_propagate += usize::from(!added.is_empty());
            propagated.extend(added);
        }
        // The generator reaches what the comparison is for: many rounds,
        // guards carried across a hop, tasks spawned inside a callee.
        let deepest = propagated.iter().map(|op| op.hops).max();
        let guarded = propagated.iter().filter(|op| op.lock_param.is_some());
        let spawned = propagated.iter().filter(|op| op.spawned.is_some());
        assert!(
            graphs_that_propagate >= 100
                && propagated.len() >= 700
                && deepest >= Some(4)
                && guarded.clone().count() >= 20
                && spawned.clone().count() >= 100,
            "{} ops propagated in {graphs_that_propagate} of 200 graphs, deepest {deepest:?}, \
             {} guarded, {} spawned",
            propagated.len(),
            guarded.count(),
            spawned.count()
        );
    }

    #[test]
    fn wrapper_param_op_is_summarized() {
        let s = build_one("fn bump(d: &Dictionary<u64, u64>, k: u64) {\n    d.set(k, k);\n}\n");
        let f = s.lookup("a.rs", "bump").expect("summary");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].class, Some("Dictionary"));
        assert_eq!(f.params[1].class, None);
        assert_eq!(f.ops.len(), 1);
        let op = &f.ops[0];
        assert_eq!((op.param, op.method.as_str()), (0, "set"));
        assert_eq!(op.kind, OpKind::Write);
        assert_eq!((op.line, op.col), (2, 7), "method-ident position");
        assert_eq!(op.hops, 0);
        assert!(op.spawned.is_none());
    }

    #[test]
    fn closure_bound_arrow_in_where_clause_does_not_invert_the_return_span() {
        // The `->` inside the `where` clause comes after the recorded
        // return-type end; it must not be mistaken for the return arrow
        // (this shape used to panic with an inverted slice).
        let s = build_one(
            "fn run<F, T>(f: F) -> T\nwhere\n    F: FnOnce() -> T,\n{\n    f()\n}\n\
             fn make() -> Dictionary<u64, u64>\nwhere\n    u64: Copy,\n{\n    Dictionary::new()\n}\n",
        );
        let run = s.lookup("a.rs", "run").expect("run summary");
        assert_eq!(run.returns_class, None, "generic T is not a collection");
        let make = s.lookup("a.rs", "make").expect("make summary");
        assert_eq!(make.returns_class, Some("Dictionary"));
    }

    #[test]
    fn std_typed_param_is_not_classified() {
        let s = build_one("fn f(m: &std::collections::HashMap<u32, u32>) { m.insert(1, 1); }");
        let f = s.lookup("a.rs", "f").expect("summary");
        assert_eq!(f.params[0].class, None);
        assert!(f.ops.is_empty());
    }

    #[test]
    fn return_class_from_annotation() {
        let s = build_one(
            "fn fresh() -> Dictionary<u64, u64> { Dictionary::new() }\nfn unit() -> u32 { 0 }\n",
        );
        assert_eq!(
            s.lookup("a.rs", "fresh").unwrap().returns_class,
            Some("Dictionary")
        );
        assert_eq!(s.lookup("a.rs", "unit").unwrap().returns_class, None);
    }

    #[test]
    fn transitive_ops_cross_one_call() {
        let s = build_one(
            "fn inner(d: &Dictionary<u64, u64>) { d.set(1, 1); }\n\
             fn outer(q: &Dictionary<u64, u64>) { inner(q); }\n",
        );
        let outer = s.lookup("a.rs", "outer").expect("summary");
        assert_eq!(outer.ops.len(), 1, "inner's op propagates to outer");
        assert_eq!(outer.ops[0].hops, 1);
        assert_eq!(outer.ops[0].line, 1, "site stays at inner's body");
    }

    #[test]
    fn recursion_terminates() {
        let s = build_one("fn f(d: &Dictionary<u64, u64>) { d.set(1, 1); f(d); }");
        let f = s.lookup("a.rs", "f").expect("summary");
        // Self-recursion re-offers the same (param, site); dedupe holds.
        assert_eq!(f.ops.len(), 1);
    }

    #[test]
    fn param_lock_guard_is_recorded_and_translated() {
        let s = build_one(
            "fn locked(d: &Dictionary<u64, u64>, m: &TsvdMutex<u32>) {\n\
             \x20   let g = m.lock();\n\
             \x20   d.set(1, 1);\n\
             }\n\
             fn relay(a: &Dictionary<u64, u64>, b: &TsvdMutex<u32>) { locked(a, b); }\n",
        );
        let locked = s.lookup("a.rs", "locked").expect("summary");
        assert_eq!(locked.ops[0].lock_param, Some((1, GuardMode::Exclusive)));
        let relay = s.lookup("a.rs", "relay").expect("summary");
        assert_eq!(relay.ops.len(), 1);
        assert_eq!(
            relay.ops[0].lock_param,
            Some((1, GuardMode::Exclusive)),
            "lock provenance survives the hop through matching args"
        );
    }

    #[test]
    fn guard_dies_at_block_end() {
        let s = build_one(
            "fn f(d: &Dictionary<u64, u64>, m: &TsvdMutex<u32>) {\n\
             \x20   { let g = m.lock(); d.set(1, 1); }\n\
             \x20   d.set(2, 2);\n\
             }\n",
        );
        let f = s.lookup("a.rs", "f").expect("summary");
        assert_eq!(f.ops.len(), 2);
        assert!(f.ops[0].lock_param.is_some());
        assert!(
            f.ops[1].lock_param.is_none(),
            "guard dropped with its block"
        );
    }

    #[test]
    fn a_fn_pointer_type_does_not_leave_the_groups_it_skips_over_open() {
        // A `fn` token that starts no item still starts a skip to the next
        // `;` (or item body), and here the skip runs over the closers of
        // the `match` and of the spawn call. Both still close where the
        // tree says they do: the guard dies with its block, and the last
        // access is outside the spawn.
        let s = build_one(
            "fn f(d: &Dictionary<u64, u64>, m: &TsvdMutex<u32>, pool: &Pool) {\n\
             \x20   {\n\
             \x20       let g = m.lock();\n\
             \x20       let h = match k { 0 => a as fn(), _ => b as fn() };\n\
             \x20   }\n\
             \x20   pool.spawn(a as fn());\n\
             \x20   d.set(1, 1);\n\
             }\n",
        );
        let f = s.lookup("a.rs", "f").expect("summary");
        assert_eq!(f.ops.len(), 1);
        assert_eq!(f.ops[0].lock_param, None);
        assert_eq!(f.ops[0].spawned, None);
    }

    #[test]
    fn spawned_op_inside_callee_is_tagged() {
        let s = build_one(
            "fn f(d: &Dictionary<u64, u64>, pool: &Pool) {\n\
             \x20   pool.spawn(move || d.set(1, 1));\n\
             }\n",
        );
        let f = s.lookup("a.rs", "f").expect("summary");
        assert_eq!(f.ops.len(), 1);
        assert_eq!(f.ops[0].spawned, Some((0, false)));
    }

    #[test]
    fn ambiguous_names_resolve_to_none() {
        let s = Summaries::build(&[
            (
                "a.rs".to_string(),
                "fn dup(d: &Dictionary<u64, u64>) { d.set(1, 1); }".to_string(),
            ),
            (
                "b.rs".to_string(),
                "fn dup(d: &Dictionary<u64, u64>) { d.get(&1); }".to_string(),
            ),
        ]);
        assert!(
            s.lookup("c.rs", "dup").is_none(),
            "two candidates, no guess"
        );
        assert!(s.lookup("a.rs", "dup").is_some(), "same file disambiguates");
    }

    #[test]
    fn nested_fn_bodies_are_not_attributed_to_the_outer_fn() {
        let s = build_one(
            "fn outer(d: &Dictionary<u64, u64>) {\n\
             \x20   fn helper(d: &Dictionary<u64, u64>) { d.set(9, 9); }\n\
             \x20   d.get(&1);\n\
             }\n",
        );
        let outer = s.lookup("a.rs", "outer").expect("summary");
        // outer's direct ops: only its own `get`; helper's set belongs to
        // helper (and is not called, so it never propagates).
        assert_eq!(outer.ops.len(), 1);
        assert_eq!(outer.ops[0].method, "get");
        let helper = s.lookup("a.rs", "helper").expect("nested summary");
        assert_eq!(helper.ops.len(), 1);
        assert_eq!(helper.ops[0].method, "set");
    }
}
