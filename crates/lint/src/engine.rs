//! Token-stream analysis infrastructure shared by all lint rules.
//!
//! [`SourceFile`] wraps a lexed file and answers the questions every rule
//! asks: *what is the k-th code token*, *is this offset inside a
//! `#[cfg(test)]` item*, *is this line covered by an escape-hatch
//! annotation*. Item boundaries (attribute → optional further attributes →
//! item head → matching closing brace or terminating `;`) are derived from
//! the token stream itself, not from line heuristics, so a `#[cfg(test)]`
//! attribute inside a string literal or a brace inside a comment can no
//! longer confuse region tracking.

use crate::lexer::{lex, Doc, Token, TokenKind};

/// A lexed source file plus the derived region and annotation indexes.
#[derive(Debug)]
pub(crate) struct SourceFile<'a> {
    /// The raw source text.
    pub src: &'a str,
    /// The full token stream (tiles `src` exactly).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-trivia ("code") tokens.
    pub code: Vec<usize>,
    /// Byte ranges of `#[cfg(test)]` items (attribute through closer).
    test_regions: Vec<(usize, usize)>,
    /// Escape-hatch annotations found in comments.
    allows: Vec<AllowMark>,
    /// Hot-path declarations found in comments.
    hots: Vec<HotMark>,
}

/// One `// lint: allow(<name>) — <why>` marker resolved to a target line.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct AllowMark {
    /// The `<name>` inside `allow(…)`.
    pub name: String,
    /// 1-based line the marker waives (the marker's own line for trailing
    /// comments, else the next code line below the comment block).
    pub target_line: usize,
    /// 1-based line the marker itself sits on (for diagnostics).
    pub marker_line: usize,
    /// True when the surrounding comment block carries a justification.
    pub justified: bool,
}

/// One `// lint: hot(<why>)` marker: declares the next function a hot
/// path whose loop-position effect closure R18 must prove allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct HotMark {
    /// The `<why>` inside `hot(…)` — why this path is latency-critical.
    pub why: String,
    /// 1-based line the marker targets (the marker's own line for trailing
    /// comments, else the next code line below the comment block).
    pub target_line: usize,
    /// 1-based line the marker itself sits on (for diagnostics).
    pub marker_line: usize,
}

impl<'a> SourceFile<'a> {
    /// Lexes `src` and builds the region/annotation indexes.
    pub fn parse(src: &'a str) -> Self {
        let tokens = lex(src);
        let code: Vec<usize> =
            (0..tokens.len()).filter(|&i| !tokens[i].is_trivia()).collect();
        let mut sf = SourceFile {
            src,
            tokens,
            code,
            test_regions: Vec::new(),
            allows: Vec::new(),
            hots: Vec::new(),
        };
        sf.test_regions = sf.find_test_regions();
        sf.allows = sf.find_allows();
        sf.hots = sf.find_hots();
        sf
    }

    /// The k-th code token, if any.
    pub(crate) fn ct(&self, k: usize) -> Option<&Token> {
        self.code.get(k).map(|&i| &self.tokens[i])
    }

    /// Text of the k-th code token ("" past the end).
    pub(crate) fn ctext(&self, k: usize) -> &str {
        self.ct(k).map_or("", |t| t.text(self.src))
    }

    /// True when the k-th code token is the identifier `name`.
    pub(crate) fn is_ident(&self, k: usize, name: &str) -> bool {
        self.ct(k).is_some_and(|t| t.kind == TokenKind::Ident) && self.ctext(k) == name
    }

    /// True when the k-th code token is the punctuation char `c`.
    pub(crate) fn is_punct(&self, k: usize, c: char) -> bool {
        self.ct(k).is_some_and(|t| t.kind == TokenKind::Punct)
            && self.ctext(k).starts_with(c)
    }

    /// True when code tokens `k..k+s.len()` spell the multi-char operator
    /// `s` with no gap between the characters (so `: :` is not `::`).
    pub(crate) fn is_punct_seq(&self, k: usize, s: &str) -> bool {
        let mut prev_end: Option<usize> = None;
        for (j, c) in s.chars().enumerate() {
            if !self.is_punct(k + j, c) {
                return false;
            }
            let t = match self.ct(k + j) {
                Some(t) => t,
                None => return false,
            };
            if prev_end.is_some_and(|e| e != t.start) {
                return false;
            }
            prev_end = Some(t.end);
        }
        true
    }

    /// Code index of the delimiter that closes the opener at code index
    /// `open` (`(`/`)`, `[`/`]`, `{`/`}`). `None` when unbalanced.
    pub(crate) fn matching_close(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.ctext(open) {
            "(" => ('(', ')'),
            "[" => ('[', ']'),
            "{" => ('{', '}'),
            _ => return None,
        };
        let mut depth = 0i64;
        let mut k = open;
        while self.ct(k).is_some() {
            if self.is_punct(k, o) {
                depth += 1;
            } else if self.is_punct(k, c) {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            k += 1;
        }
        None
    }

    /// True when byte `offset` lies inside a `#[cfg(test)]` item.
    pub(crate) fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| offset >= s && offset < e)
    }

    /// Finds every `#[cfg(test)]`-attributed item and returns its byte
    /// range, from the attribute's `#` through the item's closing brace
    /// (or terminating `;` for brace-less items).
    fn find_test_regions(&self) -> Vec<(usize, usize)> {
        let mut regions = Vec::new();
        let mut k = 0;
        while self.ct(k).is_some() {
            let Some((attr_close, is_test)) = self.attribute_at(k) else {
                k += 1;
                continue;
            };
            if !is_test {
                k = attr_close + 1;
                continue;
            }
            let start = self.ct(k).map_or(0, |t| t.start);
            // Skip any further attributes on the same item.
            let mut j = attr_close + 1;
            while let Some((close, _)) = self.attribute_at(j) {
                j = close + 1;
            }
            // Consume the item: everything up to the matching `}` of the
            // first `{`, or a `;` before any brace opens.
            let mut end = self.ct(attr_close).map_or(self.src.len(), |t| t.end);
            while let Some(t) = self.ct(j) {
                if self.is_punct(j, '{') {
                    if let Some(close) = self.matching_close(j) {
                        end = self.ct(close).map_or(self.src.len(), |t| t.end);
                        j = close;
                    } else {
                        end = self.src.len();
                    }
                    break;
                }
                if self.is_punct(j, ';') {
                    end = t.end;
                    break;
                }
                end = t.end;
                j += 1;
            }
            regions.push((start, end));
            k = j + 1;
        }
        regions
    }

    /// When code index `k` starts an attribute (`#` `[` … `]`), returns
    /// the code index of the closing `]` and whether the attribute body
    /// mentions both `cfg` and `test` (covers `#[cfg(test)]` and
    /// `#[cfg(all(test, …))]`).
    fn attribute_at(&self, k: usize) -> Option<(usize, bool)> {
        if !self.is_punct(k, '#') {
            return None;
        }
        // Inner attribute `#![…]` or outer `#[…]`.
        let open = if self.is_punct(k + 1, '!') { k + 2 } else { k + 1 };
        if !self.is_punct(open, '[') {
            return None;
        }
        let close = self.matching_close(open)?;
        let mut saw_cfg = false;
        let mut saw_test = false;
        for j in open + 1..close {
            if self.is_ident(j, "cfg") {
                saw_cfg = true;
            }
            if self.is_ident(j, "test") {
                saw_test = true;
            }
        }
        Some((close, saw_cfg && saw_test))
    }

    /// Collects `lint: allow(<name>)` markers from comment tokens and
    /// resolves each to the line it waives plus its justification status.
    fn find_allows(&self) -> Vec<AllowMark> {
        let mut out = Vec::new();
        for (i, tok) in self.tokens.iter().enumerate() {
            if !matches!(tok.kind, TokenKind::Comment { .. }) {
                continue;
            }
            let text = tok.text(self.src);
            let Some(pos) = text.find("lint: allow(") else {
                continue;
            };
            let after = &text[pos + "lint: allow(".len()..];
            let Some(close) = after.find(')') else {
                continue;
            };
            let name = after[..close].trim().to_string();
            // The whole contiguous comment block (comments separated only
            // by whitespace without a blank line) shares the justification.
            let (block_start, block_end) = self.comment_block(i);
            let mut block_text = String::new();
            for t in &self.tokens[block_start..=block_end] {
                if matches!(t.kind, TokenKind::Comment { .. }) {
                    block_text.push_str(t.text(self.src));
                    block_text.push(' ');
                }
            }
            let marker = format!("lint: allow({name})");
            let rest = block_text.replacen(&marker, "", 1);
            let justification_len =
                rest.chars().filter(|c| c.is_alphanumeric()).count();
            // Trailing comment (code earlier on the same line) waives its
            // own line; a standalone block waives the next code line.
            let trailing = self.tokens[..i]
                .iter()
                .rev()
                .take_while(|t| t.line == tok.line)
                .any(|t| !t.is_trivia());
            let target_line = if trailing {
                tok.line
            } else {
                self.tokens[block_end + 1..]
                    .iter()
                    .find(|t| !t.is_trivia())
                    .map_or(tok.line, |t| t.line)
            };
            out.push(AllowMark {
                name,
                target_line,
                marker_line: tok.line,
                justified: justification_len >= 8,
            });
        }
        out
    }

    /// Collects `lint: hot(<why>)` markers from comment tokens, resolving
    /// each to the line it targets with the same trailing-vs-standalone
    /// rule as [`Self::find_allows`]. Only plain (non-doc) comments count:
    /// documentation regularly *mentions* the marker syntax while
    /// describing it, and a doc comment is rendered API prose, not an
    /// annotation channel.
    fn find_hots(&self) -> Vec<HotMark> {
        let mut out = Vec::new();
        for (i, tok) in self.tokens.iter().enumerate() {
            if !matches!(tok.kind, TokenKind::Comment { doc: crate::lexer::Doc::None, .. }) {
                continue;
            }
            let text = tok.text(self.src);
            let Some(pos) = text.find("lint: hot(") else {
                continue;
            };
            let after = &text[pos + "lint: hot(".len()..];
            let Some(close) = after.find(')') else {
                continue;
            };
            let why = after[..close].trim().to_string();
            let trailing = self.tokens[..i]
                .iter()
                .rev()
                .take_while(|t| t.line == tok.line)
                .any(|t| !t.is_trivia());
            let target_line = if trailing {
                tok.line
            } else {
                let (_, block_end) = self.comment_block(i);
                self.tokens[block_end + 1..]
                    .iter()
                    .find(|t| !t.is_trivia())
                    .map_or(tok.line, |t| t.line)
            };
            out.push(HotMark { why, target_line, marker_line: tok.line });
        }
        out
    }

    /// The maximal run of comment tokens around token `i` separated only
    /// by whitespace that contains no blank line. Returns token indices
    /// `(first, last)` of the run.
    fn comment_block(&self, i: usize) -> (usize, usize) {
        let blank = |t: &Token| {
            t.kind == TokenKind::Whitespace
                && t.text(self.src).bytes().filter(|&b| b == b'\n').count() >= 2
        };
        let mut first = i;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &self.tokens[j];
            match t.kind {
                TokenKind::Comment { .. } => first = j,
                TokenKind::Whitespace if !blank(t) => {}
                _ => break,
            }
        }
        let mut last = i;
        let mut j = i;
        while j + 1 < self.tokens.len() {
            j += 1;
            let t = &self.tokens[j];
            match t.kind {
                TokenKind::Comment { .. } => last = j,
                TokenKind::Whitespace if !blank(t) => {}
                _ => break,
            }
        }
        (first, last)
    }

    /// Looks up an annotation waiving `name` on `line`. Returns
    /// `Some(mark)` when present (check `justified` before honouring it).
    pub(crate) fn allow_on(&self, line: usize, name: &str) -> Option<&AllowMark> {
        self.allows.iter().find(|a| a.target_line == line && a.name == name)
    }

    /// True when an *outer* doc comment or a `#[doc…]` attribute
    /// immediately precedes token index `i` (whitespace and other
    /// attributes may intervene) — the workspace model's doc state.
    pub(crate) fn has_doc_before(&self, i: usize) -> bool {
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &self.tokens[j];
            match t.kind {
                TokenKind::Whitespace => {}
                TokenKind::Comment { doc: Doc::Outer, .. } => return true,
                TokenKind::Comment { .. } => {}
                // An attribute ends with `]`: skip back over it, noting
                // `#[doc = "…"]` / `#[doc(hidden)]` as documentation.
                TokenKind::Punct if t.text(self.src) == "]" => {
                    let mut depth = 0i64;
                    let mut saw_doc = false;
                    loop {
                        let u = &self.tokens[j];
                        match u.text(self.src) {
                            "]" => depth += 1,
                            "[" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            "doc" if u.kind == TokenKind::Ident => saw_doc = true,
                            _ => {}
                        }
                        if j == 0 {
                            break;
                        }
                        j -= 1;
                    }
                    // Step back over the `#` (and optional `!`).
                    while j > 0 && matches!(self.tokens[j - 1].text(self.src), "#" | "!") {
                        j -= 1;
                    }
                    if saw_doc {
                        return true;
                    }
                }
                _ => return false,
            }
        }
        false
    }

    /// Token index (into `tokens`) of the k-th code token.
    pub(crate) fn raw_index(&self, k: usize) -> Option<usize> {
        self.code.get(k).copied()
    }

    /// All escape-hatch annotations found in the file (for consumers that
    /// need owned copies, e.g. the workspace model).
    pub(crate) fn allows(&self) -> &[AllowMark] {
        &self.allows
    }

    /// All hot-path declarations found in the file, in source order.
    pub(crate) fn hots(&self) -> &[HotMark] {
        &self.hots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_tokens_skip_trivia() {
        let sf = SourceFile::parse("let x = 1; // comment\nlet y;");
        assert_eq!(sf.ctext(0), "let");
        assert_eq!(sf.ctext(1), "x");
        assert_eq!(sf.ctext(5), "let");
        assert!(sf.is_ident(0, "let"));
        assert!(sf.is_punct(2, '='));
    }

    #[test]
    fn punct_seq_requires_adjacency() {
        let sf = SourceFile::parse("a::b c: :d");
        assert!(sf.is_punct_seq(1, "::"));
        let sf2 = SourceFile::parse("c: :d");
        assert!(!sf2.is_punct_seq(1, "::"), "`: :` is not `::`");
    }

    #[test]
    fn matching_close_balances_delimiters() {
        let sf = SourceFile::parse("f(a, (b), [c{d}])");
        // code: f ( a , ( b ) , [ c { d } ] )
        assert_eq!(sf.matching_close(1), Some(14));
        assert_eq!(sf.matching_close(4), Some(6));
        assert_eq!(sf.matching_close(8), Some(13));
    }

    #[test]
    fn test_regions_follow_braces_not_lines() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn g() {}\n";
        let sf = SourceFile::parse(src);
        let unwrap_at = src.find("unwrap").unwrap_or(0);
        let g_at = src.rfind("fn g").unwrap_or(0);
        assert!(sf.in_test_region(unwrap_at));
        assert!(!sf.in_test_region(g_at));
        assert!(!sf.in_test_region(0));
    }

    #[test]
    fn cfg_test_inside_string_is_ignored() {
        let src = "let s = \"#[cfg(test)]\";\nfn g() { h(); }\n";
        let sf = SourceFile::parse(src);
        let h_at = src.find("h()").unwrap_or(0);
        assert!(!sf.in_test_region(h_at));
    }

    #[test]
    fn cfg_all_test_counts_as_test_region() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn u() {} }\nfn g() {}\n";
        let sf = SourceFile::parse(src);
        let u_at = src.find("fn u").unwrap_or(0);
        let g_at = src.rfind("fn g").unwrap_or(0);
        assert!(sf.in_test_region(u_at));
        assert!(!sf.in_test_region(g_at));
    }

    #[test]
    fn allow_marks_resolve_trailing_and_block_targets() {
        let src = "\
let a = x.unwrap(); // lint: allow(panic) — proven non-empty above
// lint: allow(panic) — the parser guarantees
// this option is always populated here.
let b = y.unwrap();
";
        let sf = SourceFile::parse(src);
        let first = sf.allow_on(1, "panic");
        assert!(first.is_some_and(|a| a.justified));
        let second = sf.allow_on(4, "panic");
        assert!(second.is_some_and(|a| a.justified && a.marker_line == 2));
    }

    #[test]
    fn bare_allow_mark_is_unjustified() {
        let sf = SourceFile::parse("// lint: allow(panic)\nlet b = y.unwrap();\n");
        let mark = sf.allow_on(2, "panic");
        assert!(mark.is_some_and(|a| !a.justified));
    }

    #[test]
    fn blank_line_breaks_comment_blocks() {
        let src = "// lint: allow(panic)\n\n// a separate, unrelated comment far away\nlet b = y.unwrap();\n";
        let sf = SourceFile::parse(src);
        // The marker's block ends at the blank line, so its justification
        // cannot borrow text from the lower comment…
        let mark = sf.allows.iter().find(|a| a.name == "panic");
        assert!(mark.is_some_and(|a| !a.justified));
    }

    #[test]
    fn hot_marks_resolve_past_doc_comments_and_attributes() {
        let src = "\
// lint: hot(steady-state eval window loop)
/// Docs for the hot function.
#[inline]
pub fn warm() {}
fn other() {} // lint: hot(per-window scoring path)
";
        let sf = SourceFile::parse(src);
        let hots = sf.hots();
        assert_eq!(hots.len(), 2);
        assert_eq!(hots[0].target_line, 3, "block marker targets the next code line");
        assert_eq!(hots[0].why, "steady-state eval window loop");
        assert_eq!(hots[1].target_line, 5, "trailing marker targets its own line");
        assert_eq!(hots[1].marker_line, 5);
    }

    #[test]
    fn doc_detection_sees_docs_through_attributes() {
        let src = "/// docs\n#[derive(Debug)]\npub struct S;\n";
        let sf = SourceFile::parse(src);
        let k = (0..sf.code.len()).find(|&k| sf.is_ident(k, "pub"));
        let raw = k.and_then(|k| sf.raw_index(k));
        assert!(raw.is_some_and(|i| sf.has_doc_before(i)));
        let src2 = "#[derive(Debug)]\npub struct S;\n";
        let sf2 = SourceFile::parse(src2);
        let k2 = (0..sf2.code.len()).find(|&k| sf2.is_ident(k, "pub"));
        let raw2 = k2.and_then(|k| sf2.raw_index(k));
        assert!(raw2.is_some_and(|i| !sf2.has_doc_before(i)));
        let src3 = "#[doc = \"generated\"]\npub struct S;\n";
        let sf3 = SourceFile::parse(src3);
        let k3 = (0..sf3.code.len()).find(|&k| sf3.is_ident(k, "pub"));
        let raw3 = k3.and_then(|k| sf3.raw_index(k));
        assert!(raw3.is_some_and(|i| sf3.has_doc_before(i)));
    }
}
