//! The block and paren structure of one lexed file, built once.
//!
//! Every analysis in this crate asks the same few structural questions of
//! the flat token stream: where does this `(` or `{` close, which block is
//! this token in, is that block a loop body, does one block enclose another,
//! which call parens is this token inside. [`ScopeTree`] answers all of
//! them from one pass over the tokens; the site pass, the fragment pass,
//! guard lifetimes and happens-before dominance are queries over it.
//!
//! Parens and braces nest independently, each with its own stack, exactly
//! as a depth counter per bracket kind sees them: in `( { ) }` the `)`
//! closes the paren and the `}` the brace. A group that never closes runs
//! to the end of the file, and a closer with nothing open is ignored. Angle
//! brackets are not tracked — `<` and `>` are also comparison operators, so
//! they do not form a tree.
//!
//! A block is a **loop body** when a `for` / `while` / `loop` keyword in
//! statement position (first token, or after `{`, `}`, `;` or `)`) came
//! before it with no other `{` in between — the next `{` takes the flag,
//! even when it opens a closure in the loop header. `impl Trait for Type`
//! is not in statement position and flags nothing.

use crate::lexer::{TokKind, Token};

/// The file itself: the block every token is in, enclosing every other.
pub const ROOT: u32 = 0;

/// The closer of a group that never closes.
const UNCLOSED: u32 = u32::MAX;

/// One `(` group or `{` block. Token indices and ids are `u32`, which keeps
/// a group at 16 bytes; a file would need 2^32 tokens (128 GiB of them)
/// to overflow one.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// Token index of the opener.
    open: u32,
    /// Token index of the matching closer, [`UNCLOSED`] if there is none.
    close: u32,
    /// Enclosing group of the same bracket kind, [`ROOT`] at top level.
    parent: u32,
    /// Blocks only: this block is a loop body.
    loop_body: bool,
}

impl Group {
    /// Whether token `t` lies strictly between the opener and the closer.
    fn encloses(&self, t: usize) -> bool {
        (self.open as usize) < t && (self.close == UNCLOSED || t < self.close as usize)
    }
}

/// Paren groups and blocks of one file. Each list starts with the file as
/// its [`ROOT`] entry, then holds its groups in opener order; a group's id
/// is its index.
#[derive(Debug)]
pub struct ScopeTree {
    parens: Vec<Group>,
    blocks: Vec<Group>,
}

impl ScopeTree {
    /// One pass over `toks`: every group's closer and parent, and every
    /// block's loop flag.
    pub fn build(toks: &[Token]) -> ScopeTree {
        let root = Group {
            open: 0,
            close: UNCLOSED,
            parent: ROOT,
            loop_body: false,
        };
        let mut tree = ScopeTree {
            parens: vec![root],
            blocks: vec![root],
        };
        let (mut open_parens, mut open_blocks) = (Vec::new(), Vec::new());
        let mut loop_keyword_pending = false;
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && matches!(t.text, "for" | "while" | "loop")
                && statement_position(toks, i)
            {
                loop_keyword_pending = true;
            }
            if t.kind != TokKind::Punct {
                continue;
            }
            let (groups, open_now) = match t.text {
                "(" | ")" => (&mut tree.parens, &mut open_parens),
                "{" | "}" => (&mut tree.blocks, &mut open_blocks),
                _ => continue,
            };
            if t.text == "(" || t.text == "{" {
                groups.push(Group {
                    open: i as u32,
                    close: UNCLOSED,
                    parent: open_now.last().copied().unwrap_or(ROOT),
                    loop_body: t.text == "{" && std::mem::take(&mut loop_keyword_pending),
                });
                open_now.push(groups.len() as u32 - 1);
            } else if let Some(id) = open_now.pop() {
                groups[id as usize].close = i as u32;
            }
        }
        tree
    }

    /// Token index of the `)` or `}` that closes the `(` or `{` at `open`;
    /// `None` when it never closes or `open` is not an opener.
    pub fn close_of(&self, open: usize) -> Option<usize> {
        [&self.parens, &self.blocks]
            .into_iter()
            .find_map(|groups| {
                let at = 1 + groups[1..].partition_point(|g| (g.open as usize) < open);
                groups.get(at).filter(|g| g.open as usize == open)
            })
            .filter(|g| g.close != UNCLOSED)
            .map(|g| g.close as usize)
    }

    /// The innermost block token `t` is in ([`ROOT`] at top level). An
    /// opener is outside its own block, and so is its closer.
    pub fn block_at(&self, t: usize) -> u32 {
        innermost(&self.blocks, t)
    }

    /// Opener token indices of the paren groups token `t` is in, innermost
    /// first. A `(` is not in its own group.
    pub fn parens_around(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(innermost(&self.parens, t)), |&id| {
            Some(self.parens[id as usize].parent)
        })
        .take_while(|&id| id != ROOT)
        .map(|id| self.parens[id as usize].open as usize)
    }

    /// Whether `block`, or a block enclosing it inside `within`, is a loop
    /// body. `within` itself does not count; [`ROOT`] takes the whole chain.
    pub fn in_loop(&self, block: u32, within: u32) -> bool {
        let mut b = block;
        while b != within && b != ROOT {
            let g = &self.blocks[b as usize];
            if g.loop_body {
                return true;
            }
            b = g.parent;
        }
        false
    }

    /// Whether block `outer` is `inner` or encloses it: every token of
    /// `inner` is reached only through `outer`.
    pub fn dominates(&self, outer: u32, inner: u32) -> bool {
        let (o, i) = (&self.blocks[outer as usize], &self.blocks[inner as usize]);
        outer == inner || outer == ROOT || (inner != ROOT && o.encloses(i.open as usize))
    }
}

/// Whether the token at `i` starts a statement: first in the file, or
/// right after `{`, `}`, `;` or `)`.
fn statement_position(toks: &[Token], i: usize) -> bool {
    i == 0 || {
        let p = &toks[i - 1];
        p.kind == TokKind::Punct && matches!(p.text, "{" | "}" | ";" | ")")
    }
}

/// Id of the innermost group in `groups` enclosing token `t`, [`ROOT`] if
/// none. The groups open at `t` are the chain from the last one opened
/// before `t` up to the first that is still open: nothing opened in
/// between, so only closers came, and they closed that chain from below.
fn innermost(groups: &[Group], t: usize) -> u32 {
    let mut id = groups[1..].partition_point(|g| (g.open as usize) < t) as u32;
    while id != ROOT && !groups[id as usize].encloses(t) {
        id = groups[id as usize].parent;
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::testrand::{repo_sources, soup, Seeded, LEXER_SOUP};

    /// What a naive replay sees at one token: the open parens and open
    /// blocks (opener token indices, outermost first), and which of those
    /// blocks are loop bodies.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Open {
        parens: Vec<usize>,
        blocks: Vec<usize>,
        loop_bodies: Vec<bool>,
    }

    /// The replay: one paren stack, one brace stack and a pending loop
    /// flag, stepped token by token. Returns what is open *around* every
    /// token — after a closer has closed, before an opener opens — and
    /// every opener's closer.
    fn replay(toks: &[Token]) -> (Vec<Open>, Vec<Option<usize>>) {
        let mut around = Vec::with_capacity(toks.len());
        let mut close = vec![None; toks.len()];
        let mut open = Open::default();
        let mut pending = false;
        for (i, t) in toks.iter().enumerate() {
            if t.is_punct(')') {
                if let Some(o) = open.parens.pop() {
                    close[o] = Some(i);
                }
            } else if t.is_punct('}') {
                if let Some(o) = open.blocks.pop() {
                    open.loop_bodies.pop();
                    close[o] = Some(i);
                }
            }
            around.push(open.clone());
            if t.kind == TokKind::Ident && ["for", "while", "loop"].contains(&t.text) {
                let prev = i.checked_sub(1).map(|p| toks[p]);
                if prev.is_none_or(|p| ['{', '}', ';', ')'].iter().any(|&c| p.is_punct(c))) {
                    pending = true;
                }
            } else if t.is_punct('(') {
                open.parens.push(i);
            } else if t.is_punct('{') {
                open.blocks.push(i);
                open.loop_bodies.push(std::mem::take(&mut pending));
            }
        }
        (around, close)
    }

    /// What one comparison covered, so a run can be held to floors.
    #[derive(Debug, Default)]
    struct Seen {
        files: usize,
        tokens: usize,
        blocks: usize,
        loop_bodies: usize,
        unclosed: usize,
        stray_closers: usize,
        max_depth: usize,
    }

    /// Compares the tree with the replay on every token of `src`.
    fn assert_tree_matches_replay(what: &str, src: &str, rng: &mut Seeded, seen: &mut Seen) {
        let toks = tokenize(src);
        let tree = ScopeTree::build(&toks);
        let (at, close) = replay(&toks);
        seen.files += 1;
        seen.tokens += toks.len();
        seen.blocks += tree.blocks.len() - 1;
        let openers = close
            .iter()
            .enumerate()
            .filter(|(i, _)| toks[*i].is_punct('(') || toks[*i].is_punct('{'));
        seen.unclosed += openers.filter(|(_, c)| c.is_none()).count();
        let closers = toks
            .iter()
            .filter(|t| t.is_punct(')') || t.is_punct('}'))
            .count();
        let closed = close.iter().filter(|c| c.is_some()).count();
        seen.stray_closers += closers - closed;
        let opener_of = |b: u32| tree.blocks[b as usize].open as usize;
        for (t, want) in at.iter().enumerate() {
            let is_opener = toks[t].is_punct('(') || toks[t].is_punct('{');
            let closes = if is_opener { close[t] } else { None };
            assert_eq!(tree.close_of(t), closes, "{what}: close_of({t})");
            let here = tree.block_at(t);
            let chain: Vec<u32> = std::iter::successors(Some(here), |&b| {
                (b != ROOT).then(|| tree.blocks[b as usize].parent)
            })
            .filter(|&b| b != ROOT)
            .collect();
            let blocks: Vec<usize> = chain.iter().rev().map(|&b| opener_of(b)).collect();
            assert_eq!(blocks, want.blocks, "{what}: blocks around token {t}");
            let parens: Vec<usize> = tree.parens_around(t).collect();
            let want_parens: Vec<usize> = want.parens.iter().rev().copied().collect();
            assert_eq!(parens, want_parens, "{what}: parens around token {t}");
            let flags: Vec<bool> = chain
                .iter()
                .rev()
                .map(|&b| tree.blocks[b as usize].loop_body)
                .collect();
            assert_eq!(
                flags, want.loop_bodies,
                "{what}: loop flags around token {t}"
            );
            seen.max_depth = seen.max_depth.max(chain.len());
            // `in_loop` within each enclosing block, and the whole chain.
            for (k, &within) in chain.iter().chain([&ROOT]).enumerate() {
                let inner_flags = &want.loop_bodies[want.loop_bodies.len() - k..];
                assert_eq!(
                    tree.in_loop(here, within),
                    inner_flags.contains(&true),
                    "{what}: in_loop at token {t} within block {within}"
                );
            }
            // Dominance: every block on the chain, and a sample of others.
            for &b in chain.iter().chain([&ROOT]) {
                assert!(tree.dominates(b, here), "{what}: {b} encloses token {t}");
            }
            for _ in 0..4 {
                let b = rng.below(tree.blocks.len()) as u32;
                let on_chain = b == ROOT || chain.contains(&b);
                assert_eq!(
                    tree.dominates(b, here),
                    on_chain,
                    "{what}: dominates({b}, {here})"
                );
            }
        }
        seen.loop_bodies += tree.blocks.iter().filter(|b| b.loop_body).count();
    }

    #[test]
    fn the_tree_equals_a_stack_replay_on_every_source_file_of_the_repo() {
        let mut rng = Seeded::new(0x7363_6f70_6532_3700);
        let mut seen = Seen::default();
        for path in repo_sources() {
            let src = std::fs::read_to_string(&path).expect("source file is UTF-8");
            assert_tree_matches_replay(&path.display().to_string(), &src, &mut rng, &mut seen);
        }
        assert!(
            seen.files > 100
                && seen.tokens > 150_000
                && seen.blocks > 4_000
                && seen.loop_bodies > 400
                && seen.max_depth >= 8,
            "{seen:?}"
        );
    }

    #[test]
    fn the_tree_equals_a_stack_replay_on_seeded_character_soup() {
        // The lexer's soup, where brackets sit inside literals and
        // comments; then a soup of brackets and loop keywords, where most
        // strings are unbalanced one way or the other.
        const BRACKETS: &[&str] = &[
            "(",
            ")",
            "{",
            "}",
            ";",
            " for ",
            " while ",
            " loop ",
            " impl X for ",
            "x",
            "\"}\"",
            "//",
            "\n",
            "/*",
            "*/",
            "'{'",
        ];
        let mut rng = Seeded::new(0x7363_6f70_6532_3701);
        let mut seen = Seen::default();
        let strings = soup(0x6c65_7865_7232_3300, LEXER_SOUP, 5000)
            .into_iter()
            .chain(soup(0x7363_6f70_6532_3702, BRACKETS, 5000));
        for src in strings {
            assert_tree_matches_replay(&format!("{src:?}"), &src, &mut rng, &mut seen);
        }
        assert!(
            seen.files == 10_000
                && seen.blocks > 1_500
                && seen.loop_bodies > 400
                && seen.unclosed > 3_000
                && seen.stray_closers > 2_000
                && seen.max_depth >= 5,
            "{seen:?}"
        );
    }

    /// The tree of `src`, and the index of the first token spelled `text`.
    fn at(src: &str, text: &str) -> (ScopeTree, usize) {
        let toks = tokenize(src);
        let i = toks.iter().position(|t| t.text == text).expect("token");
        (ScopeTree::build(&toks), i)
    }

    #[test]
    fn parens_and_braces_nest_independently() {
        // `( { ) }`: the `)` closes the paren, the `}` the brace.
        let (tree, _) = at("( { ) }", "(");
        assert_eq!(tree.close_of(0), Some(2));
        assert_eq!(tree.close_of(1), Some(3));
        assert_eq!(tree.block_at(2), 1, "the `)` is inside the block");
        assert_eq!(tree.parens_around(1).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn an_unclosed_group_runs_to_the_end_and_a_stray_closer_is_ignored() {
        let (tree, x) = at("} ) { ( x", "x");
        assert_eq!(tree.close_of(2), None);
        assert_eq!(tree.close_of(3), None);
        assert_eq!(tree.close_of(0), None, "a closer is not an opener");
        assert_eq!(tree.block_at(x), 1);
        assert_eq!(tree.parens_around(x).collect::<Vec<_>>(), [3]);
    }

    #[test]
    fn the_loop_flag_lands_on_the_next_brace() {
        // Even on a closure's brace in the loop header: the body after it
        // is not flagged.
        let src = "fn f() { for i in v.iter().map(|x| { x }) { body } }";
        let toks = tokenize(src);
        let tree = ScopeTree::build(&toks);
        assert_eq!(
            (toks[19].text, toks[20].text, toks[24].text),
            ("{", "x", "body")
        );
        assert!(tree.in_loop(tree.block_at(20), ROOT), "the closure");
        assert!(
            !tree.in_loop(tree.block_at(24), ROOT),
            "the loop's own body"
        );
        let (tree, x) = at("impl T for S { fn f() { x } }", "x");
        assert!(!tree.in_loop(tree.block_at(x), ROOT), "impl-for is no loop");
        let (tree, x) = at("fn f() { loop { { x } } }", "x");
        let here = tree.block_at(x);
        assert!(tree.in_loop(here, ROOT));
        assert!(!tree.in_loop(here, tree.blocks[here as usize].parent));
    }

    #[test]
    fn a_block_dominates_what_it_encloses_only() {
        let (tree, x) = at("{ { a } { x } }", "x");
        let here = tree.block_at(x);
        assert!(tree.dominates(here, here));
        assert!(tree.dominates(1, here), "the outer block");
        assert!(tree.dominates(ROOT, here));
        assert!(!tree.dominates(2, here), "a sibling");
        assert!(!tree.dominates(here, 1), "an inner block");
        assert!(!tree.dominates(here, ROOT));
    }
}
