//! A hand-rolled Rust token scanner.
//!
//! The build environment is offline, so there is no `syn`/`proc-macro2`;
//! a full parser is also more weight than the analyses need. The scanner
//! produces a flat token stream with 1-based line/column positions that
//! match what `#[track_caller]` records at run time (for ASCII source,
//! rustc's column is the 1-based character offset), which is what lets the
//! static site database line up with dynamic [`tsvd_core::SiteId`]s.
//!
//! Handled: line and nested block comments, plain / raw / byte string
//! literals, char literals vs. lifetimes, identifiers, numbers, and
//! single-character punctuation. Not handled (not needed): float tokens
//! (`1.5` lexes as two numbers and a dot) and multi-character operators
//! (`::` is two `:` tokens).

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (the char is in [`Token::text`]).
    Punct,
    /// String literal (text is the raw content, quotes stripped).
    Str,
    /// Char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Number literal (integer part only; no dots consumed).
    Num,
}

/// One lexed token with its 1-based source position. Its text is a slice
/// of the file it was lexed from — string and char contents, escapes
/// included, are contiguous in the source — so a token costs no allocation
/// and lives exactly as long as the source does.
#[derive(Debug, Clone, Copy)]
pub struct Token<'src> {
    /// Token class.
    pub kind: TokKind,
    /// Identifier text, punctuation char, or literal content.
    pub text: &'src str,
    /// 1-based line.
    pub line: u32,
    /// 1-based character column of the token's first character.
    pub col: u32,
}

impl Token<'_> {
    /// Returns `true` for an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// Returns `true` for this punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// A position in the source: byte offset (always on a char boundary) plus
/// the 1-based line and character column that offset sits at.
struct Cursor<'src> {
    src: &'src str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'src> Cursor<'src> {
    /// The character at the cursor.
    fn peek(&self) -> Option<char> {
        let b = *self.src.as_bytes().get(self.pos)?;
        if b.is_ascii() {
            Some(char::from(b))
        } else {
            self.src[self.pos..].chars().next()
        }
    }

    /// The byte `ahead` bytes past the cursor. Only ever compared with an
    /// ASCII byte, which in UTF-8 is never part of a longer character.
    fn byte(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + ahead).copied()
    }

    /// Steps over `c`, the character at the cursor.
    fn advance(&mut self, c: char) {
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
    }

    /// Steps over the run of characters `pred` accepts; returns the run.
    fn eat_while(&mut self, pred: impl Fn(char) -> bool) -> &'src str {
        let start = self.pos;
        while let Some(c) = self.peek().filter(|&c| pred(c)) {
            self.advance(c);
        }
        &self.src[start..self.pos]
    }

    /// The content of a quoted literal whose opening quote is already
    /// behind the cursor: up to the first unescaped `close` (consumed, not
    /// returned) or the end of input. A backslash keeps whatever follows.
    fn quoted(&mut self, close: char) -> &'src str {
        let start = self.pos;
        while let Some(c) = self.peek().filter(|&c| c != close) {
            self.advance(c);
            if c == '\\' {
                if let Some(escaped) = self.peek() {
                    self.advance(escaped);
                }
            }
        }
        let text = &self.src[start..self.pos];
        if self.peek().is_some() {
            self.advance(close);
        }
        text
    }

    /// Steps over a block comment, nested ones included; an unterminated
    /// one swallows the rest of the input.
    fn skip_block_comment(&mut self) {
        let mut depth = 0u32;
        while let Some(c) = self.peek() {
            let pair = (c, self.byte(1));
            self.advance(c);
            match pair {
                ('/', Some(b'*')) => {
                    self.advance('*');
                    depth += 1;
                }
                ('*', Some(b'/')) => {
                    self.advance('/');
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// The content of a raw / byte string literal whose prefix, hashes and
    /// opening quote are behind the cursor: up to a quote followed by
    /// `hashes` hashes (consumed, not returned) or the end of input.
    fn raw_quoted(&mut self, hashes: usize) -> &'src str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == '"' && (0..hashes).all(|k| self.byte(1 + k) == Some(b'#')) {
                let text = &self.src[start..self.pos];
                self.advance('"');
                for _ in 0..hashes {
                    self.advance('#');
                }
                return text;
            }
            self.advance(c);
        }
        &self.src[start..self.pos]
    }

    /// Does a raw identifier (`r#ident`) start here? Disjoint from raw
    /// strings: after the single `#` comes an ident start, never a quote (a
    /// raw string is `r#"` / `r##"` — quote or more hashes after the first).
    fn at_raw_ident(&self) -> bool {
        self.src[self.pos..]
            .strip_prefix("r#")
            .and_then(|rest| rest.chars().next())
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    }

    /// Does a raw/byte string literal start here? (`r"`, `r#`, `br"`, `b"`.)
    fn at_raw_string(&self) -> bool {
        let rest = &self.src[self.pos..];
        match rest.strip_prefix('b').unwrap_or(rest).strip_prefix('r') {
            Some(raw) => raw.trim_start_matches('#').starts_with('"'),
            None => rest.starts_with("b\""),
        }
    }

    /// Does a lifetime (`'a`), not a char literal (`'a'`), start at the
    /// quote here? A closing quote right after the ident run means char.
    fn at_lifetime(&self) -> bool {
        let rest = &self.src[self.pos + 1..];
        rest.starts_with(|c: char| c.is_alphabetic() || c == '_')
            && !rest.trim_start_matches(is_ident_continue).starts_with('\'')
    }
}

/// Lexes `src` into a token stream. Never fails: malformed input degrades
/// to punctuation tokens rather than aborting the analysis of a file.
pub fn tokenize(src: &str) -> Vec<Token<'_>> {
    // One allocation for the stream in the common case: Rust source runs to
    // a token per five bytes or so (5.2-5.6 on this repository and on the
    // benchmark's tree), and a denser file grows from there.
    let mut toks = Vec::with_capacity(src.len() / 5);
    let mut cur = Cursor {
        src,
        pos: 0,
        line: 1,
        col: 1,
    };
    while let Some(c) = cur.peek() {
        let (start, line, col) = (cur.pos, cur.line, cur.col);
        let (kind, text) = match c {
            c if c.is_whitespace() => {
                cur.advance(c);
                continue;
            }
            '/' if cur.byte(1) == Some(b'/') => {
                cur.eat_while(|c| c != '\n');
                continue;
            }
            '/' if cur.byte(1) == Some(b'*') => {
                cur.skip_block_comment();
                continue;
            }
            '"' => {
                cur.advance(c);
                (TokKind::Str, cur.quoted('"'))
            }
            'r' if cur.at_raw_ident() => {
                // Raw identifier: `r#type`, `r#async` — one ident token
                // whose text keeps the `r#` prefix (that is how the source
                // spells the name everywhere else too).
                cur.advance('r');
                cur.advance('#');
                cur.eat_while(is_ident_continue);
                (TokKind::Ident, &src[start..cur.pos])
            }
            'r' | 'b' if cur.at_raw_string() => {
                // r"..", r#"..."#, br".." etc.
                cur.eat_while(|c| c == 'r' || c == 'b');
                let hashes = cur.eat_while(|c| c == '#').len();
                cur.advance('"');
                (TokKind::Str, cur.raw_quoted(hashes))
            }
            '\'' if cur.at_lifetime() => {
                cur.advance(c);
                (TokKind::Lifetime, cur.eat_while(is_ident_continue))
            }
            '\'' => {
                cur.advance(c);
                (TokKind::Char, cur.quoted('\''))
            }
            c if c.is_alphabetic() || c == '_' => {
                (TokKind::Ident, cur.eat_while(is_ident_continue))
            }
            c if c.is_ascii_digit() => (TokKind::Num, cur.eat_while(is_ident_continue)),
            c => {
                cur.advance(c);
                (TokKind::Punct, &src[start..cur.pos])
            }
        };
        toks.push(Token {
            kind,
            text,
            line,
            col,
        });
    }
    toks
}

/// The previous, allocating lexer, kept as the oracle the borrowed one is
/// compared against token by token.
#[cfg(test)]
mod oracle {
    use super::TokKind;

    /// The owned token the lexer produced before tokens borrowed the source.
    #[derive(Debug, Clone)]
    pub struct Token {
        /// Token class.
        pub kind: TokKind,
        /// Identifier text, punctuation char, or literal content.
        pub text: String,
        /// 1-based line.
        pub line: u32,
        /// 1-based character column of the token's first character.
        pub col: u32,
    }

    /// The lexer as it was: a `Vec<char>` copy of the file, one `String` per
    /// token. Kept verbatim as the differential oracle for [`super::tokenize`].
    pub fn tokenize(src: &str) -> Vec<Token> {
        let chars: Vec<char> = src.chars().collect();
        let mut toks = Vec::new();
        let mut i = 0usize;
        let mut line = 1u32;
        let mut col = 1u32;

        macro_rules! bump {
            () => {{
                if chars[i] == '\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
                i += 1;
            }};
        }

        while i < chars.len() {
            let c = chars[i];
            let (tline, tcol) = (line, col);
            match c {
                c if c.is_whitespace() => bump!(),
                '/' if i + 1 < chars.len() && chars[i + 1] == '/' => {
                    while i < chars.len() && chars[i] != '\n' {
                        bump!();
                    }
                }
                '/' if i + 1 < chars.len() && chars[i + 1] == '*' => {
                    bump!();
                    bump!();
                    let mut depth = 1u32;
                    while i < chars.len() && depth > 0 {
                        if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                            depth += 1;
                            bump!();
                            bump!();
                        } else if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                            depth -= 1;
                            bump!();
                            bump!();
                        } else {
                            bump!();
                        }
                    }
                }
                '"' => {
                    bump!();
                    let mut text = String::new();
                    while i < chars.len() && chars[i] != '"' {
                        if chars[i] == '\\' && i + 1 < chars.len() {
                            text.push(chars[i]);
                            bump!();
                        }
                        text.push(chars[i]);
                        bump!();
                    }
                    if i < chars.len() {
                        bump!(); // closing quote
                    }
                    toks.push(Token {
                        kind: TokKind::Str,
                        text,
                        line: tline,
                        col: tcol,
                    });
                }
                'r' if is_raw_ident_start(&chars, i) => {
                    // Raw identifier: `r#type`, `r#async` — one ident token
                    // whose text keeps the `r#` prefix (that is how the source
                    // spells the name everywhere else too).
                    let mut text = String::new();
                    text.push(chars[i]);
                    bump!();
                    text.push(chars[i]);
                    bump!();
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        text.push(chars[i]);
                        bump!();
                    }
                    toks.push(Token {
                        kind: TokKind::Ident,
                        text,
                        line: tline,
                        col: tcol,
                    });
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    // r"..", r#"..."#, br".." etc.
                    while i < chars.len() && (chars[i] == 'r' || chars[i] == 'b') {
                        bump!();
                    }
                    let mut hashes = 0usize;
                    while i < chars.len() && chars[i] == '#' {
                        hashes += 1;
                        bump!();
                    }
                    if i < chars.len() && chars[i] == '"' {
                        bump!();
                        let mut text = String::new();
                        'raw: while i < chars.len() {
                            if chars[i] == '"' {
                                // Need `hashes` trailing #s to close.
                                let mut ok = true;
                                for k in 0..hashes {
                                    if chars.get(i + 1 + k) != Some(&'#') {
                                        ok = false;
                                        break;
                                    }
                                }
                                if ok {
                                    bump!();
                                    for _ in 0..hashes {
                                        bump!();
                                    }
                                    break 'raw;
                                }
                            }
                            text.push(chars[i]);
                            bump!();
                        }
                        toks.push(Token {
                            kind: TokKind::Str,
                            text,
                            line: tline,
                            col: tcol,
                        });
                    }
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let is_lifetime = i + 1 < chars.len()
                        && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_')
                        && {
                            // Scan past the ident run; a closing quote means char.
                            let mut j = i + 1;
                            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_')
                            {
                                j += 1;
                            }
                            chars.get(j) != Some(&'\'')
                        };
                    if is_lifetime {
                        bump!();
                        let mut text = String::new();
                        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                            text.push(chars[i]);
                            bump!();
                        }
                        toks.push(Token {
                            kind: TokKind::Lifetime,
                            text,
                            line: tline,
                            col: tcol,
                        });
                    } else {
                        bump!();
                        let mut text = String::new();
                        while i < chars.len() && chars[i] != '\'' {
                            if chars[i] == '\\' && i + 1 < chars.len() {
                                text.push(chars[i]);
                                bump!();
                            }
                            text.push(chars[i]);
                            bump!();
                        }
                        if i < chars.len() {
                            bump!();
                        }
                        toks.push(Token {
                            kind: TokKind::Char,
                            text,
                            line: tline,
                            col: tcol,
                        });
                    }
                }
                c if c.is_alphabetic() || c == '_' => {
                    let mut text = String::new();
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        text.push(chars[i]);
                        bump!();
                    }
                    toks.push(Token {
                        kind: TokKind::Ident,
                        text,
                        line: tline,
                        col: tcol,
                    });
                }
                c if c.is_ascii_digit() => {
                    let mut text = String::new();
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        text.push(chars[i]);
                        bump!();
                    }
                    toks.push(Token {
                        kind: TokKind::Num,
                        text,
                        line: tline,
                        col: tcol,
                    });
                }
                c => {
                    bump!();
                    toks.push(Token {
                        kind: TokKind::Punct,
                        text: c.to_string(),
                        line: tline,
                        col: tcol,
                    });
                }
            }
        }
        toks
    }

    /// Does a raw identifier (`r#ident`) start at `i`? Disjoint from raw
    /// strings: after the single `#` comes an ident start, never a quote (a
    /// raw string is `r#"` / `r##"` — quote or more hashes after the first).
    fn is_raw_ident_start(chars: &[char], i: usize) -> bool {
        chars[i] == 'r'
            && chars.get(i + 1) == Some(&'#')
            && chars
                .get(i + 2)
                .is_some_and(|c| c.is_alphabetic() || *c == '_')
    }

    /// Does a raw/byte string literal start at `i`? (`r"`, `r#`, `br"`, `b"`.)
    fn is_raw_string_start(chars: &[char], i: usize) -> bool {
        let mut j = i;
        if chars[j] == 'b' {
            j += 1;
        }
        if chars.get(j) == Some(&'r') {
            j += 1;
            while chars.get(j) == Some(&'#') {
                j += 1;
            }
            return chars.get(j) == Some(&'"');
        }
        // `b"..."` byte string (no r).
        chars[i] == 'b' && chars.get(i + 1) == Some(&'"')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.to_string())
            .collect()
    }

    /// The borrowed lexer and the owned oracle agree on `src`, token by
    /// token: kind, text, line, column.
    fn assert_same_as_oracle(what: &str, src: &str) {
        let got: Vec<(TokKind, &str, u32, u32)> = tokenize(src)
            .iter()
            .map(|t| (t.kind, t.text, t.line, t.col))
            .collect();
        let owned = oracle::tokenize(src);
        let want: Vec<(TokKind, &str, u32, u32)> = owned
            .iter()
            .map(|t| (t.kind, t.text.as_str(), t.line, t.col))
            .collect();
        if got != want {
            let at = got.iter().zip(&want).take_while(|(g, w)| g == w).count();
            panic!(
                "{what}: {} tokens against the oracle's {}, first difference at token {at}: \
                 {:?} against {:?}",
                got.len(),
                want.len(),
                got.get(at),
                want.get(at)
            );
        }
    }

    #[test]
    fn borrowed_tokens_equal_the_owned_lexer_on_every_source_file_of_the_repo() {
        let files = crate::testrand::repo_sources();
        assert!(files.len() > 100, "found only {} files", files.len());
        for path in files {
            let src = std::fs::read_to_string(&path).expect("source file is UTF-8");
            assert_same_as_oracle(&path.display().to_string(), &src);
        }
    }

    #[test]
    fn borrowed_tokens_equal_the_owned_lexer_on_the_edge_cases() {
        for src in [
            "",
            "x r#\"inner \"quoted\" text\"# y",
            "a r##\"one \"# two\"## b r###\"never closed \"## ",
            "b\"bytes \\\" still\" br#\"raw bytes\"# rb\"not raw\" brb\"nor this\" bb\"x\"",
            "let r#type = 1; r#async.set(1, 2); r#match r#\"text\"# r\"plain\" r# r#1",
            "fn f<'a, '_b>(x: &'a str) { let c = 'x'; let n = '\\n'; let q = '\\''; 'é' 'static }",
            "'a 'a' '' ' 'ab' '\\",
            "a /* one /* two /* three */ still */ still */ b /*/ c */ d",
            "a /* open /* never closed",
            "a // line d.add(1)\nb // no newline at the end",
            "before \"d.add(1) // not code \\\" quote\" after \"never closed \\",
            "\"multi\nline\" x \"trailing backslash\\",
            "1.5 0x1f 1_000u64 7é",
            "naïve = \"héllo wörld\"; // ünïcödé\nлямбда(λ) → 'ж' '∀x 日本語\u{a0}x\u{2028}y",
            "\t\r\n  \u{feff}x",
            "/",
            "a / b /",
            "r",
            "b",
            "br",
            "r#",
            "'",
            "\"",
            "\\",
        ] {
            assert_same_as_oracle(&format!("{src:?}"), src);
        }
    }

    #[test]
    fn borrowed_tokens_equal_the_owned_lexer_on_seeded_character_soup() {
        use crate::testrand::{soup, LEXER_SOUP};
        for src in soup(0x6c65_7865_7232_3300, LEXER_SOUP, 5000) {
            assert_same_as_oracle(&format!("{src:?}"), &src);
        }
    }

    #[test]
    fn a_tokens_text_is_a_slice_of_its_source() {
        let src = "fn f<'a>() { let s = \"a\\\"b\"; let r = r#\"raw\"#; let c = '\\n'; r#type é }";
        let range = src.as_bytes().as_ptr_range();
        let toks = tokenize(src);
        assert!(toks.len() > 20);
        for t in toks {
            let text = t.text.as_bytes().as_ptr_range();
            assert!(
                range.start <= text.start && text.end <= range.end,
                "{t:?} points outside the source"
            );
        }
    }

    #[test]
    fn positions_are_one_based_chars() {
        let toks = tokenize("let d = x.add(1);");
        let add = toks.iter().find(|t| t.is_ident("add")).expect("add");
        assert_eq!(add.line, 1);
        assert_eq!(add.col, 11, "column of the method ident");
    }

    #[test]
    fn multiline_positions() {
        let toks = tokenize("fn f() {\n    d.set(1, 2);\n}\n");
        let set = toks.iter().find(|t| t.is_ident("set")).expect("set");
        assert_eq!(set.line, 2);
        assert_eq!(set.col, 7);
    }

    #[test]
    fn comments_are_skipped_including_nested() {
        let src = "a // line d.add(1)\nb /* block /* nested */ still */ c";
        assert_eq!(idents(src), vec!["a", "b", "c"]);
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let src = r#"before "d.add(1) // not code \" quote" after"#;
        assert_eq!(idents(src), vec!["before", "after"]);
        let s = tokenize(src)
            .into_iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("string");
        assert!(s.text.contains("not code"));
    }

    #[test]
    fn raw_strings_are_single_tokens() {
        let src = "x r#\"inner \"quoted\" text\"# y";
        assert_eq!(idents(src), vec!["x", "y"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn raw_strings_nested_in_macro_invocations() {
        // The raw string lives inside a macro call, surrounded by macro
        // punctuation; its quotes and inner `d.add` must not leak tokens.
        let src = "write!(out, r#\"d.add(1) \"quoted\" end\"#).unwrap(); tail";
        assert_eq!(idents(src), vec!["write", "out", "unwrap", "tail"]);
        let s = tokenize(src)
            .into_iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("raw string literal");
        assert!(s.text.contains("\"quoted\""));
        // Multi-hash raw strings terminate on the matching hash count, not
        // the first `"#` inside.
        let src2 = "a r##\"one \"# two\"## b";
        assert_eq!(idents(src2), vec!["a", "b"]);
    }

    #[test]
    fn raw_identifiers_lex_as_single_idents() {
        // `r#type` must not split into `r` / `#` / `type`.
        assert_eq!(
            idents("let r#type = 1; r#async.set(1, 2);"),
            vec!["let", "r#type", "r#async", "set"]
        );
        let toks = tokenize("let r#type = 1;");
        let t = toks.iter().find(|t| t.is_ident("r#type")).expect("raw id");
        assert_eq!((t.line, t.col), (1, 5), "position of the `r`");
        assert!(!toks.iter().any(|t| t.is_punct('#')), "no stray hash token");
    }

    #[test]
    fn raw_identifiers_do_not_shadow_raw_strings() {
        // `r#"..."#` (quote after the hash) is still a raw string, and a
        // raw ident immediately followed by one keeps both tokens intact.
        let toks = tokenize("r#match r#\"text\"# r\"plain\"");
        assert_eq!(idents("r#match r#\"text\"# r\"plain\""), vec!["r#match"]);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].text, "text");
        assert_eq!(strs[1].text, "plain");
    }

    #[test]
    fn doubly_nested_block_comments() {
        let src = "a /* one /* two /* three */ still */ still */ b";
        assert_eq!(idents(src), vec!["a", "b"]);
        // An unterminated inner comment swallows the rest of the file
        // without panicking.
        let src2 = "a /* open /* never closed";
        assert_eq!(idents(src2), vec!["a"]);
    }

    #[test]
    fn op_name_string_content_is_captured() {
        let toks = tokenize(r#"self.inner.write(site, "Dictionary.add", |m| m)"#);
        let s = toks
            .into_iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("op name literal");
        assert_eq!(s.text, "Dictionary.add");
    }
}
