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

use std::collections::HashMap;
use std::sync::Arc;

use tsvd_core::access::{api_class, classify_op};
use tsvd_core::OpKind;

use crate::analysis::{MULTI_SPAWN_CALLS, SPAWN_CALLS};
use crate::lexer::{tokenize, TokKind, Token};
use crate::scope::ScopeTree;

/// Synchronization wrapper type names recognized in parameter positions.
pub const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "TsvdMutex"];

/// Transitive-propagation cap: ops further than this many call hops from a
/// summarized function are dropped (their provenance grade would be noise
/// anyway — see the confidence formula in DESIGN.md).
pub const MAX_HOPS: u32 = 8;

/// How a guard serializes its critical section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardMode {
    /// `lock()` / `write()`: mutual exclusion with every other guard.
    Exclusive,
    /// `read()`: excludes writers only.
    Shared,
}

/// One declared parameter of a summarized function.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// Bare callee name.
    pub callee: String,
    /// Argument names by position.
    pub args: Vec<Option<String>>,
}

/// Everything the interprocedural layer knows about one `fn` item.
#[derive(Debug, Clone, Default)]
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

/// All function summaries of one analysis run, indexed by bare name.
#[derive(Debug, Default)]
pub struct Summaries {
    /// Every summary, in fragment order.
    all: Vec<FnSummary>,
    /// Bare name → positions in `all`, ascending.
    by_name: HashMap<String, Vec<usize>>,
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
        let file: Arc<str> = Arc::from(file);
        let toks = tokenize(src);
        let tree = ScopeTree::build(&toks);
        let mut out = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
                if let Some((summary, next)) = parse_fn(&file, &toks, &tree, i) {
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
    /// closes it. Propagation is a whole-tree fixed point, so it runs once
    /// over everything — only the parse is per file.
    pub fn from_fragments(fragments: impl IntoIterator<Item = FnSummary>) -> Self {
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
        let mut s = Summaries { all, by_name };
        s.propagate();
        for summary in &mut s.all {
            summary.calls = Vec::new();
        }
        s
    }

    /// Resolves a bare callee name from `file`: a unique same-file match
    /// first, then a unique global one. Ambiguity resolves to `None` — a
    /// wrong summary is worse than no summary.
    pub fn lookup(&self, file: &str, name: &str) -> Option<&FnSummary> {
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
        let after_path = i >= 2 && (toks[i - 2].is_punct('.') || toks[i - 2].is_punct(':'));
        if let Some(callee) = prev_ident {
            if SPAWN_CALLS.contains(&callee) {
                let multi =
                    tree.in_loop(tree.block_at(i), body) || MULTI_SPAWN_CALLS.contains(&callee);
                spawns.push((i, multi));
            } else if !after_path && !CALL_KEYWORDS.contains(&callee) {
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

    /// One random tree of helper functions: a small pool of names (so the
    /// same name lands in one file twice, or in two files), collection,
    /// lock and plain parameters, guarded and unguarded and spawned
    /// accesses, and calls — to itself, backwards and forwards — passing
    /// its own parameters on in random positions.
    fn random_call_graph(rng: &mut crate::testrand::Seeded) -> Vec<(String, String)> {
        const NAMES: &[&str] = &[
            "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q",
            "r", "s", "t", "u", "v", "relay", "leaf",
        ];
        const TYPES: &[&str] = &[
            "&Dictionary<u64, u64>",
            "&Dictionary<u64, u64>",
            "Arc<Dictionary<u64, u64>>",
            "Arc<List<u64>>",
            "&TsvdMutex<u32>",
            "u64",
        ];
        const METHODS: &[&str] = &["set(1, 1)", "get(&1)", "add(2)", "len()", "clear()"];
        let files = 1 + rng.below(3);
        (0..files)
            .map(|f| {
                let mut src = String::new();
                for _ in 0..4 + rng.below(9) {
                    let name = NAMES[rng.below(NAMES.len())];
                    let params: Vec<(String, &str)> = (0..1 + rng.below(4))
                        .map(|p| {
                            // Half the second parameters are locks, so a
                            // guard often survives a positional hand-on.
                            let lock_slot = p == 1 && rng.below(2) == 0;
                            let ty = if lock_slot {
                                TYPES[4]
                            } else {
                                TYPES[rng.below(TYPES.len())]
                            };
                            (format!("p{p}"), ty)
                        })
                        .collect();
                    let decl: Vec<String> =
                        params.iter().map(|(n, t)| format!("{n}: {t}")).collect();
                    src.push_str(&format!("fn {name}({}) {{\n", decl.join(", ")));
                    // Guards go first and on a lock when there is one, so
                    // some of what follows is held under it.
                    for (p, _) in params.iter().filter(|(_, t)| t.contains("Mutex")) {
                        if rng.below(2) == 0 {
                            src.push_str(&format!("    let g = {p}.lock();\n"));
                        }
                    }
                    for _ in 0..1 + rng.below(8) {
                        let (p, _) = &params[rng.below(params.len())];
                        match rng.below(8) {
                            0 => src.push_str(&format!("    let g = {p}.read();\n")),
                            1 => src.push_str(&format!("    {p}.{};\n", METHODS[rng.below(5)])),
                            2 => src.push_str(&format!(
                                "    pool.spawn(move || {p}.{});\n",
                                METHODS[rng.below(5)]
                            )),
                            _ => {
                                let args: Vec<String> = (0..1 + rng.below(4))
                                    .map(|k| match rng.below(6) {
                                        0 => "7".to_string(),
                                        // Its own parameter of that position.
                                        1 | 2 => format!("&p{}", k.min(params.len() - 1)),
                                        3 => {
                                            format!("{}.clone()", params[rng.below(params.len())].0)
                                        }
                                        _ => format!("&{}", params[rng.below(params.len())].0),
                                    })
                                    .collect();
                                let callee = NAMES[rng.below(NAMES.len())];
                                src.push_str(&format!("    {callee}({});\n", args.join(", ")));
                            }
                        }
                    }
                    src.push_str("}\n");
                }
                (format!("f{f}.rs"), src)
            })
            .collect()
    }

    #[test]
    fn two_phase_propagation_equals_the_snapshot_version_on_random_call_graphs() {
        let mut rng = crate::testrand::Seeded::new(0x7073_7664_5f32_3300);
        let mut propagated: Vec<ParamOp> = Vec::new();
        let mut graphs_that_propagate = 0;
        for graph in 0..200 {
            let files = random_call_graph(&mut rng);
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
