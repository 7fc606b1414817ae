//! Lockset/guard analysis: which critical sections protect which sites.
//!
//! Tracks, per function, three things the pair deriver consumes:
//!
//! - **Lock bindings**: `let m = TsvdMutex::new(..)` (also `Mutex`,
//!   `RwLock`, through `Arc::new(..)`), plus the aliasing forms
//!   `let m2 = m.clone()` and `let m2 = Arc::clone(&m)` — a clone guards
//!   the same lock, so clones resolve to their root.
//! - **Guard regions**: `let g = m.lock()` / `.write()` (exclusive) /
//!   `.read()` (shared), live in the block of the `let` and every block
//!   it encloses — the guard's block dominates the site. Only
//!   `let`-bound guards create a region; a temporary like
//!   `m.lock().push(x)` guards a single expression and is deliberately
//!   ignored (it cannot span two sites, so it never changes a verdict).
//! - **Channels**: `let (tx, rx) = channel()` registers both endpoints
//!   under one per-function channel id; `tx.send(x)` marks `x`'s root as
//!   channel-transferred, which *demotes* (not prunes) pairs on that
//!   receiver — ownership transfer usually serializes, but the receiver
//!   may still alias. The happens-before pass ([`crate::hb`]) additionally
//!   uses the endpoint ids to draw send→recv ordering edges.

use std::collections::HashMap;

pub use crate::callgraph::GuardMode;
use crate::callgraph::LOCK_TYPES;
use crate::lexer::{TokKind, Token};
use crate::scope::ScopeTree;

/// One active guard region.
#[derive(Debug, Clone)]
pub struct Guard {
    /// Root lock binding the guard came from.
    pub root: String,
    /// Exclusive or shared.
    pub mode: GuardMode,
    /// Block of the `let`; the guard is held wherever that block dominates.
    block: u32,
}

/// Per-function lock/guard/channel state, driven by the site pass.
#[derive(Debug, Default)]
pub struct LockTracker {
    /// Lock binding name → root lock name.
    locks: HashMap<String, String>,
    guards: Vec<Guard>,
    /// Registered mpsc sender binding names → channel id.
    senders: HashMap<String, u32>,
    /// Registered mpsc receiver binding names → channel id.
    receivers: HashMap<String, u32>,
    /// Next per-function channel id.
    next_channel: u32,
}

impl LockTracker {
    /// A fresh tracker with nothing held.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears everything; called at each `fn` item boundary.
    pub fn reset(&mut self) {
        self.locks.clear();
        self.guards.clear();
        self.senders.clear();
        self.receivers.clear();
        self.next_channel = 0;
    }

    /// The locks held in block `at`, strongest mode per root.
    pub fn active(&self, tree: &ScopeTree, at: u32) -> Vec<(String, GuardMode)> {
        let mut out: Vec<(String, GuardMode)> = Vec::new();
        for g in self.guards.iter().filter(|g| tree.dominates(g.block, at)) {
            match out.iter_mut().find(|(root, _)| *root == g.root) {
                Some((_, mode)) => {
                    if g.mode == GuardMode::Exclusive {
                        *mode = GuardMode::Exclusive;
                    }
                }
                None => out.push((g.root.clone(), g.mode)),
            }
        }
        out
    }

    /// Root lock name for a binding, if it is a tracked lock.
    pub fn lock_root(&self, name: &str) -> Option<&str> {
        self.locks.get(name).map(String::as_str)
    }

    /// Channel id behind a sender binding, if tracked.
    pub fn sender_channel(&self, name: &str) -> Option<u32> {
        self.senders.get(name).copied()
    }

    /// Channel id behind a receiver binding, if tracked.
    pub fn receiver_channel(&self, name: &str) -> Option<u32> {
        self.receivers.get(name).copied()
    }

    /// Removes a rebound name (shadowing `let` with an untracked RHS).
    pub fn forget(&mut self, name: &str) {
        self.locks.remove(name);
        self.senders.remove(name);
        self.receivers.remove(name);
    }

    /// Inspects a `let` statement at `let_idx`; returns `true` when it was
    /// lock-relevant (lock constructor, lock alias, guard, or channel) and
    /// was consumed. `block` is the block the `let` is in.
    pub fn on_let(&mut self, toks: &[Token], let_idx: usize, block: u32) -> bool {
        let mut i = let_idx + 1;
        let Some(first) = toks.get(i) else {
            return false;
        };
        // Tuple pattern: only the channel form is tracked.
        if first.is_punct('(') {
            return self.on_channel_let(toks, i);
        }
        if first.is_ident("mut") {
            i += 1;
        }
        let Some(name_tok) = toks.get(i) else {
            return false;
        };
        if name_tok.kind != TokKind::Ident {
            return false;
        }
        let name = name_tok.text.to_string();
        i += 1;
        while i < toks.len() && !toks[i].is_punct('=') {
            if toks[i].is_punct(';') {
                return false;
            }
            i += 1;
        }
        i += 1; // past `=`

        // Guard: `RECV.lock()/read()/write()` on a tracked lock.
        if let Some((root, mode)) = self.parse_guard_rhs(toks, i) {
            self.guards.push(Guard { root, mode, block });
            // The guard binding itself shadows whatever held the name.
            self.forget(&name);
            return true;
        }
        // Alias: `SRC.clone()` or `Arc::clone(&SRC)` of a tracked lock.
        if let Some(root) = self.parse_alias_rhs(toks, i) {
            self.locks.insert(name, root);
            return true;
        }
        // Constructor: a lock type's ctor anywhere in the RHS head —
        // `TsvdMutex::new(..)`, `Arc::new(Mutex::new(..))`.
        if rhs_is_lock_ctor(toks, i) {
            self.locks.insert(name.clone(), name);
            return true;
        }
        false
    }

    fn parse_guard_rhs(&self, toks: &[Token], i: usize) -> Option<(String, GuardMode)> {
        let recv = toks.get(i)?;
        if recv.kind != TokKind::Ident || !toks.get(i + 1)?.is_punct('.') {
            return None;
        }
        let mode = match toks.get(i + 2)?.text {
            "lock" | "write" => GuardMode::Exclusive,
            "read" => GuardMode::Shared,
            _ => return None,
        };
        if !toks.get(i + 3)?.is_punct('(') {
            return None;
        }
        let root = self.locks.get(recv.text)?.clone();
        Some((root, mode))
    }

    fn parse_alias_rhs(&self, toks: &[Token], i: usize) -> Option<String> {
        // `SRC.clone()`
        if toks.get(i).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("clone"))
        {
            return self.locks.get(toks[i].text).cloned();
        }
        // `Arc::clone(&SRC)`
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
            let src = toks.get(j)?;
            return self.locks.get(src.text).cloned();
        }
        None
    }

    /// `let (tx, rx) = [mpsc::]channel()` — registers `tx` as a sender and
    /// `rx` as a receiver of the same fresh channel id.
    fn on_channel_let(&mut self, toks: &[Token], open_idx: usize) -> bool {
        let tx = toks.get(open_idx + 1);
        let comma = toks.get(open_idx + 2);
        let rx = toks.get(open_idx + 3);
        let close = toks.get(open_idx + 4);
        let (Some(tx), Some(comma), Some(rx), Some(close)) = (tx, comma, rx, close) else {
            return false;
        };
        if tx.kind != TokKind::Ident
            || !comma.is_punct(',')
            || rx.kind != TokKind::Ident
            || !close.is_punct(')')
        {
            return false;
        }
        // RHS must call `channel(` before the statement ends.
        let mut i = open_idx + 5;
        while i < toks.len() && !toks[i].is_punct(';') {
            if toks[i].is_ident("channel") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                let id = self.next_channel;
                self.next_channel += 1;
                self.senders.insert(tx.text.to_string(), id);
                self.receivers.insert(rx.text.to_string(), id);
                return true;
            }
            i += 1;
        }
        false
    }
}

/// Whether the RHS head (from `i` to the statement end) constructs a lock:
/// a lock type name followed by `::ctor(`, possibly inside `Arc::new(..)`.
fn rhs_is_lock_ctor(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while j < toks.len() && !toks[j].is_punct(';') {
        if toks[j].kind == TokKind::Ident
            && LOCK_TYPES.contains(&toks[j].text)
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
        {
            return true;
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::scope::ROOT;

    /// Feeds every `let` of `src` to a fresh tracker, each with its block;
    /// returns the tracker, the tree and what each `let` returned.
    fn track(src: &str) -> (LockTracker, ScopeTree, Vec<bool>) {
        let toks = tokenize(src);
        let tree = ScopeTree::build(&toks);
        let mut lt = LockTracker::new();
        let consumed = (0..toks.len())
            .filter(|&i| toks[i].is_ident("let"))
            .map(|i| lt.on_let(&toks, i, tree.block_at(i)))
            .collect();
        (lt, tree, consumed)
    }

    #[test]
    fn ctor_alias_and_guard_chain() {
        let (lt, tree, consumed) = track(
            "let m = TsvdMutex::new(0);\n\
             let m2 = m.clone();\n\
             let g = m2.lock();\n",
        );
        assert_eq!(consumed, [true; 3]);
        assert_eq!(lt.lock_root("m2"), Some("m"), "clone aliases the root");
        let active = lt.active(&tree, ROOT);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0], ("m".to_string(), GuardMode::Exclusive));
    }

    #[test]
    fn arc_wrapped_ctor_and_arc_clone() {
        let (lt, tree, consumed) = track(
            "let m = Arc::new(Mutex::new(0));\n\
             let m2 = Arc::clone(&m);\n\
             let g = m2.read();\n",
        );
        assert_eq!(consumed, [true; 3]);
        assert_eq!(
            lt.active(&tree, ROOT),
            vec![("m".to_string(), GuardMode::Shared)]
        );
    }

    #[test]
    fn guard_dies_with_its_block() {
        let src = "let m = TsvdMutex::new(0); { { let g = m.lock(); { inner } } after }";
        let (lt, tree, _) = track(src);
        let toks = tokenize(src);
        let at = |name: &str| tree.block_at(toks.iter().position(|t| t.is_ident(name)).unwrap());
        assert_eq!(
            lt.active(&tree, at("inner")).len(),
            1,
            "held in a nested block"
        );
        assert!(lt.active(&tree, at("after")).is_empty(), "its block closed");
        assert!(lt.active(&tree, ROOT).is_empty());
    }

    #[test]
    fn non_lock_lets_are_not_consumed() {
        let (lt, tree, consumed) = track("let d = Dictionary::new(); let x = 5;");
        assert_eq!(consumed, [false; 2]);
        assert!(lt.active(&tree, ROOT).is_empty());
    }

    #[test]
    fn channel_sender_is_registered() {
        let (lt, _, consumed) = track("let (tx, rx) = mpsc::channel(); let y = 1;");
        assert_eq!(consumed, [true, false]);
        assert!(lt.sender_channel("tx").is_some());
        assert!(lt.sender_channel("rx").is_none());
    }

    #[test]
    fn channel_endpoints_share_an_id_and_distinct_channels_differ() {
        let (mut lt, _, consumed) =
            track("let (tx, rx) = mpsc::channel(); let (tx2, rx2) = mpsc::channel();");
        assert_eq!(consumed, [true; 2]);
        assert_eq!(lt.sender_channel("tx"), Some(0));
        assert_eq!(lt.receiver_channel("rx"), Some(0));
        assert_eq!(lt.sender_channel("tx2"), Some(1));
        assert_eq!(lt.receiver_channel("rx2"), Some(1));
        assert_eq!(lt.receiver_channel("tx"), None, "tx is not a receiver");
        lt.forget("rx");
        assert_eq!(lt.receiver_channel("rx"), None, "shadowed rx is dropped");
    }

    #[test]
    fn exclusive_beats_shared_on_the_same_root() {
        let (lt, tree, _) = track("let m = RwLock::new(0); let a = m.read(); let b = m.write();");
        assert_eq!(
            lt.active(&tree, ROOT),
            vec![("m".to_string(), GuardMode::Exclusive)]
        );
    }
}
