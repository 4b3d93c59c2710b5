//! A std-only Rust lexer for static analysis.
//!
//! Produces a token stream that *tiles* the input exactly: every byte of
//! the source belongs to exactly one token, tokens appear in source order,
//! and concatenating their spans reproduces the input verbatim. That
//! invariant is what lets rules reason about "the code" while never being
//! fooled by `.unwrap()` spelled inside a string literal or a comment —
//! and it is locked in by seeded property tests.
//!
//! The lexer is deliberately forgiving: it never fails. Malformed input
//! (unterminated strings or comments, stray punctuation, invalid escapes)
//! degrades into best-effort tokens rather than errors, because lint rules
//! must keep working on code that `rustc` itself would reject mid-edit.
//!
//! Handled Rust subtleties:
//!
//! * nested block comments (`/* /* */ */`) with doc-comment flavours;
//! * string, raw-string (`r#"…"#`), byte-string, and raw-byte-string
//!   literals, including hash-counted terminators;
//! * the lifetime-vs-char-literal ambiguity (`'a` vs `'a'` vs `'\n'`);
//! * raw identifiers (`r#match`) vs raw strings (`r#"…"#`);
//! * numeric literals with fractions, exponents, radix prefixes, and type
//!   suffixes (`1_000`, `0xFF`, `2.5e-3`, `1f64`).

/// Doc-comment flavour of a comment token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub enum Doc {
    /// A plain comment (`//`, `/* */`).
    None,
    /// An outer doc comment (`///`, `/** */`) — documents the next item.
    Outer,
    /// An inner doc comment (`//!`, `/*! */`) — documents the enclosing item.
    Inner,
}

/// The lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Horizontal and vertical whitespace.
    Whitespace,
    /// A line or block comment. `block` distinguishes `/* */` from `//`.
    Comment {
        /// True for `/* */`-style comments.
        block: bool,
        /// Doc-comment flavour.
        doc: Doc,
    },
    /// An identifier or keyword (keywords are not distinguished here).
    Ident,
    /// A lifetime such as `'a` or `'static` (no closing quote).
    Lifetime,
    /// A character or byte literal (`'x'`, `b'\n'`).
    CharLit,
    /// A string literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    StrLit,
    /// A numeric literal, including fraction/exponent/suffix.
    NumLit,
    /// A single punctuation character. Multi-character operators appear as
    /// adjacent `Punct` tokens; adjacency is checked via byte offsets.
    Punct,
}

/// One token: a kind plus a byte span and the 1-based line it starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first byte (inclusive); always a char boundary.
    pub start: usize,
    /// Byte offset one past the last byte (exclusive); a char boundary.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: usize,
}

impl Token {
    /// The token's text within its source.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// True for whitespace and comments — tokens rules normally skip.
    pub fn is_trivia(&self) -> bool {
        matches!(self.kind, TokenKind::Whitespace | TokenKind::Comment { .. })
    }
}

/// Internal cursor over the source's `char_indices`, so token boundaries
/// always land on UTF-8 char boundaries.
struct Cursor<'a> {
    src: &'a str,
    /// `(byte offset, char)` pairs.
    chars: Vec<(usize, char)>,
    /// Index into `chars`.
    pos: usize,
    /// Current 1-based line.
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor { src, chars: src.char_indices().collect(), pos: 0, line: 1 }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    /// Byte offset of the current position (source length at EOF).
    fn offset(&self) -> usize {
        self.chars.get(self.pos).map_or(self.src.len(), |&(o, _)| o)
    }

    /// Consumes one char, tracking line numbers.
    fn bump(&mut self) {
        if let Some(&(_, c)) = self.chars.get(self.pos) {
            if c == '\n' {
                self.line += 1;
            }
            self.pos += 1;
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || !c.is_ascii()
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || !c.is_ascii()
}

/// Lexes `src` into a token stream that tiles the input exactly.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while !cur.at_end() {
        let start = cur.offset();
        let line = cur.line;
        let kind = next_kind(&mut cur);
        out.push(Token { kind, start, end: cur.offset(), line });
    }
    out
}

/// Consumes one token's worth of chars and returns its kind.
fn next_kind(cur: &mut Cursor<'_>) -> TokenKind {
    let Some(c) = cur.peek(0) else {
        return TokenKind::Whitespace;
    };
    if c.is_whitespace() {
        while cur.peek(0).is_some_and(char::is_whitespace) {
            cur.bump();
        }
        return TokenKind::Whitespace;
    }
    if c == '/' {
        match cur.peek(1) {
            Some('/') => return line_comment(cur),
            Some('*') => return block_comment(cur),
            _ => {
                cur.bump();
                return TokenKind::Punct;
            }
        }
    }
    if c == '"' {
        cur.bump();
        return string_body(cur, /* raw_hashes */ None);
    }
    // `r`/`b` may begin a raw string, byte string, byte char, or raw ident.
    if c == 'r' || c == 'b' {
        if let Some(kind) = raw_or_byte_prefix(cur, c) {
            return kind;
        }
    }
    if c == '\'' {
        return lifetime_or_char(cur);
    }
    if is_ident_start(c) {
        while cur.peek(0).is_some_and(is_ident_continue) {
            cur.bump();
        }
        return TokenKind::Ident;
    }
    if c.is_ascii_digit() {
        return number(cur);
    }
    cur.bump();
    TokenKind::Punct
}

fn line_comment(cur: &mut Cursor<'_>) -> TokenKind {
    // `///…` outer doc, `//!…` inner doc, `////…` plain (rustc's rule).
    let doc = match (cur.peek(2), cur.peek(3)) {
        (Some('!'), _) => Doc::Inner,
        (Some('/'), Some('/')) => Doc::None,
        (Some('/'), _) => Doc::Outer,
        _ => Doc::None,
    };
    while cur.peek(0).is_some_and(|c| c != '\n') {
        cur.bump();
    }
    TokenKind::Comment { block: false, doc }
}

fn block_comment(cur: &mut Cursor<'_>) -> TokenKind {
    // `/**…*/` outer doc, `/*!…*/` inner doc; `/**/` and `/***/` plain.
    let doc = match (cur.peek(2), cur.peek(3)) {
        (Some('!'), _) => Doc::Inner,
        (Some('*'), Some('*' | '/')) => Doc::None,
        (Some('*'), _) => Doc::Outer,
        _ => Doc::None,
    };
    cur.bump_n(2);
    let mut depth = 1usize;
    while !cur.at_end() && depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some('/'), Some('*')) => {
                depth += 1;
                cur.bump_n(2);
            }
            (Some('*'), Some('/')) => {
                depth -= 1;
                cur.bump_n(2);
            }
            _ => cur.bump(),
        }
    }
    TokenKind::Comment { block: true, doc }
}

/// Consumes a (possibly raw) string body. The opening quote is already
/// consumed. `raw_hashes = Some(n)` means a raw string terminated by
/// `"` + n `#`s with no escape processing; `None` means a normal string
/// with `\` escapes. Unterminated strings run to end of input.
fn string_body(cur: &mut Cursor<'_>, raw_hashes: Option<usize>) -> TokenKind {
    match raw_hashes {
        None => {
            while let Some(c) = cur.peek(0) {
                if c == '\\' {
                    cur.bump_n(2);
                } else if c == '"' {
                    cur.bump();
                    break;
                } else {
                    cur.bump();
                }
            }
        }
        Some(hashes) => {
            while let Some(c) = cur.peek(0) {
                if c == '"' && (1..=hashes).all(|k| cur.peek(k) == Some('#')) {
                    cur.bump_n(1 + hashes);
                    break;
                }
                cur.bump();
            }
        }
    }
    TokenKind::StrLit
}

/// Disambiguates tokens starting with `r` or `b`: raw strings (`r"`,
/// `r#"`), byte strings (`b"`, `br#"`), byte chars (`b'x'`), and raw
/// identifiers (`r#name`). Returns `None` when the token is a plain
/// identifier beginning with that letter.
fn raw_or_byte_prefix(cur: &mut Cursor<'_>, first: char) -> Option<TokenKind> {
    // Byte char: b'x'.
    if first == 'b' && cur.peek(1) == Some('\'') {
        cur.bump(); // consume `b`; the quote handler does the rest
        cur.bump(); // opening quote
        return Some(char_body(cur));
    }
    // Candidate prefixes, longest first: br#*", b", r#*", r#ident.
    let raw_start = if first == 'b' && cur.peek(1) == Some('r') { 2 } else { 1 };
    if first == 'b' && raw_start == 1 {
        // b"…": byte string with escapes.
        if cur.peek(1) == Some('"') {
            cur.bump_n(2);
            return Some(string_body(cur, None));
        }
        return None;
    }
    // `r…` or `br…`: count hashes after the prefix.
    let mut hashes = 0;
    while cur.peek(raw_start + hashes) == Some('#') {
        hashes += 1;
    }
    if cur.peek(raw_start + hashes) == Some('"') {
        cur.bump_n(raw_start + hashes + 1);
        return Some(string_body(cur, Some(hashes)));
    }
    // Raw identifier r#name.
    if first == 'r'
        && raw_start == 1
        && hashes == 1
        && cur.peek(2).is_some_and(is_ident_start)
    {
        cur.bump_n(2);
        while cur.peek(0).is_some_and(is_ident_continue) {
            cur.bump();
        }
        return Some(TokenKind::Ident);
    }
    None
}

/// Consumes a char-literal body after the opening quote; stops at the
/// closing quote, a newline (malformed literal), or end of input.
fn char_body(cur: &mut Cursor<'_>) -> TokenKind {
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            cur.bump_n(2);
        } else if c == '\'' {
            cur.bump();
            break;
        } else if c == '\n' {
            break;
        } else {
            cur.bump();
        }
    }
    TokenKind::CharLit
}

/// `'…`: a lifetime (`'a`), a char literal (`'x'`, `'\n'`), or a stray
/// quote. The grammar rule mirrors rustc: a quote followed by exactly one
/// non-quote char and another quote is a char literal; a quote followed by
/// a backslash is a char literal; otherwise an ident-start char begins a
/// lifetime.
fn lifetime_or_char(cur: &mut Cursor<'_>) -> TokenKind {
    let next = cur.peek(1);
    let is_char = match next {
        Some('\\') => true,
        Some(c) => c != '\'' && cur.peek(2) == Some('\''),
        None => false,
    };
    if is_char {
        cur.bump();
        return char_body(cur);
    }
    if next.is_some_and(is_ident_start) {
        cur.bump();
        while cur.peek(0).is_some_and(is_ident_continue) {
            cur.bump();
        }
        return TokenKind::Lifetime;
    }
    cur.bump();
    TokenKind::Punct
}

/// Consumes a numeric literal: optional radix prefix, digits, optional
/// fraction, optional exponent, optional type suffix. `1.max(2)` lexes the
/// `1` alone (a dot followed by an identifier is a method call), while
/// `1.5`, `1.`, and `2.5e-3` stay single tokens.
fn number(cur: &mut Cursor<'_>) -> TokenKind {
    let radix_prefixed = cur.peek(0) == Some('0')
        && matches!(cur.peek(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'));
    if radix_prefixed {
        cur.bump_n(2);
        while cur.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            cur.bump();
        }
        return TokenKind::NumLit;
    }
    while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
        cur.bump();
    }
    // Fraction: `.` followed by a digit, or a trailing `.` that is not a
    // range (`1..2`) or a method call (`1.max(2)`).
    if cur.peek(0) == Some('.') {
        match cur.peek(1) {
            Some(c) if c.is_ascii_digit() => {
                cur.bump();
                while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    cur.bump();
                }
            }
            Some(c) if c == '.' || is_ident_start(c) => {}
            _ => cur.bump(),
        }
    }
    // Exponent: e/E, optional sign, at least one digit.
    if matches!(cur.peek(0), Some('e' | 'E')) {
        let sign = matches!(cur.peek(1), Some('+' | '-'));
        let digit_at = if sign { 2 } else { 1 };
        if cur.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
            cur.bump_n(digit_at);
            while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                cur.bump();
            }
        }
    }
    // Type suffix (f64, u32, usize, …) glues onto the literal.
    while cur.peek(0).is_some_and(is_ident_continue) {
        cur.bump();
    }
    TokenKind::NumLit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text(src).to_string())).collect()
    }

    fn tiles(src: &str) {
        let toks = lex(src);
        let mut at = 0;
        for t in &toks {
            assert_eq!(t.start, at, "gap before {t:?} in {src:?}");
            assert!(t.end >= t.start);
            at = t.end;
        }
        assert_eq!(at, src.len(), "tokens must cover {src:?}");
        let joined: String = toks.iter().map(|t| t.text(src)).collect();
        assert_eq!(joined, src);
    }

    #[test]
    fn tiles_basic_sources() {
        for src in [
            "",
            "fn main() { let x = 1; }",
            "let s = \"a \\\" b\"; // trailing",
            "/* nested /* deep */ still */ code",
            "r#\"raw with \" inside\"# b\"bytes\" br##\"double\"##",
            "'a 'static 'x' '\\n' b'q'",
            "1_000 0xFF_u8 2.5e-3 1. 1..2 1.max(2) 3f64",
            "emoji: \"🦀\" and idents_🦀",
            "unterminated \"string never closes",
            "unterminated /* comment never closes",
        ] {
            tiles(src);
        }
    }

    #[test]
    fn strings_and_comments_are_single_tokens() {
        let ks = kinds("let s = \".unwrap()\"; // panic! here");
        let strs: Vec<_> =
            ks.iter().filter(|(k, _)| *k == TokenKind::StrLit).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].1, "\".unwrap()\"");
        let comments: Vec<_> = ks
            .iter()
            .filter(|(k, _)| matches!(k, TokenKind::Comment { .. }))
            .collect();
        assert_eq!(comments.len(), 1);
        assert!(comments[0].1.contains("panic!"));
    }

    #[test]
    fn raw_strings_and_raw_idents_disambiguate() {
        let ks = kinds("r#\"has .unwrap() inside\"#");
        assert_eq!(ks[0].0, TokenKind::StrLit);
        let ks = kinds("r#match");
        assert_eq!(ks[0], (TokenKind::Ident, "r#match".into()));
        let ks = kinds("br#\"bytes\"#");
        assert_eq!(ks[0].0, TokenKind::StrLit);
        let ks = kinds("rate");
        assert_eq!(ks[0], (TokenKind::Ident, "rate".into()));
        let ks = kinds("b\"escaped \\\" quote\"");
        assert_eq!(ks[0].0, TokenKind::StrLit);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ks = kinds("<'a>('x')('\\'')'static");
        let lifetimes: Vec<_> =
            ks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(lifetimes[0].1, "'a");
        assert_eq!(lifetimes[1].1, "'static");
        let chars: Vec<_> =
            ks.iter().filter(|(k, _)| *k == TokenKind::CharLit).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].1, "'x'");
        assert_eq!(chars[1].1, "'\\''");
    }

    #[test]
    fn numbers_with_fractions_exponents_suffixes() {
        let ks = kinds("1.5 2.5e-3 1_000u64 0xFF 1. 1..2 1.max(2)");
        let nums: Vec<_> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::NumLit)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, vec!["1.5", "2.5e-3", "1_000u64", "0xFF", "1.", "1", "2", "1", "2"]);
    }

    #[test]
    fn doc_comment_flavours() {
        let src = "/// outer\n//! inner\n// plain\n//// plain too\n/** outer */ /*! inner */ /* plain */ /**/";
        let docs: Vec<Doc> = lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Comment { doc, .. } => Some(doc),
                _ => None,
            })
            .collect();
        assert_eq!(
            docs,
            vec![
                Doc::Outer,
                Doc::Inner,
                Doc::None,
                Doc::None,
                Doc::Outer,
                Doc::Inner,
                Doc::None,
                Doc::None,
            ]
        );
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nline\"\n/* c\nc */\nb";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.text(src) == "b").copied();
        assert_eq!(b.map(|t| t.line), Some(6));
    }
}
