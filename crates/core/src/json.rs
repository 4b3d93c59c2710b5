//! Minimal JSON parsing and serialization.
//!
//! EasyTime's one-click evaluation is driven by configuration files the
//! user edits in the frontend (paper §II-B, Figure 4 label 6). This module
//! implements the JSON subset those files need — objects, arrays, strings,
//! numbers, booleans, null — from scratch, keeping the workspace on the
//! approved dependency set (see DESIGN.md).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (key order normalized).
    Object(BTreeMap<String, Json>),
}

/// JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = JsonParser { bytes: text.as_bytes(), text, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view (numbers with no fractional part).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{:.0}", n));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::String(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    /// Serializes the value to compact JSON text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest array/object nesting [`Json::parse`] accepts (serde_json's
/// default recursion limit). The parser recurses once per level, so without
/// a cap a few thousand `[` overflow the stack and abort the process; a
/// configuration file needs three levels.
const MAX_DEPTH: usize = 128;

struct JsonParser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around the current byte.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { position: self.pos, message: message.to_string() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object, refusing to open more than
    /// [`MAX_DEPTH`] levels; the error points at the refused bracket.
    fn nested(
        &mut self,
        rule: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let parsed = rule(self);
        self.depth -= 1;
        parsed
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.consume(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                '"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                '\\' => {
                    self.pos += 1;
                    let Some(esc) = self.text[self.pos..].chars().next() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += esc.len_utf8();
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.text[self.pos..self.pos + 4];
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are rare in config files;
                            // unpaired surrogates map to the replacement
                            // character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.err(&format!("bad escape '\\{other}'"))),
                    }
                }
                c => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| JsonError { position: start, message: format!("bad number '{text}'") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").expect("input parses as JSON"), Json::Null);
        assert_eq!(Json::parse("true").expect("input parses as JSON"), Json::Bool(true));
        assert_eq!(Json::parse(" false ").expect("input parses as JSON"), Json::Bool(false));
        assert_eq!(Json::parse("42").expect("input parses as JSON"), Json::Number(42.0));
        assert_eq!(Json::parse("-2.5e2").expect("input parses as JSON"), Json::Number(-250.0));
        assert_eq!(Json::parse("\"hi\"").expect("input parses as JSON"), Json::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{
            "methods": ["naive", "theta"],
            "strategy": {"type": "rolling", "horizon": 24},
            "drop_last": false,
            "ratio": 0.7
        }"#;
        let v = Json::parse(doc).expect("input parses as JSON");
        assert_eq!(
            v.get("methods").expect("key is present in the object").as_array().expect("value is a JSON array")[1].as_str(),
            Some("theta")
        );
        assert_eq!(
            v.get("strategy").expect("key is present in the object").get("horizon").expect("key is present in the object").as_usize(),
            Some(24)
        );
        assert_eq!(v.get("drop_last").expect("key is present in the object").as_bool(), Some(false));
        assert_eq!(v.get("ratio").expect("key is present in the object").as_f64(), Some(0.7));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::String("a\"b\\c\nd\te\u{1}ü".into());
        let text = original.to_string();
        assert_eq!(Json::parse(&text).expect("input parses as JSON"), original);
    }

    #[test]
    fn unicode_escape_parsing() {
        assert_eq!(
            Json::parse(r#""é中""#).expect("input parses as JSON"),
            Json::String("é中".into())
        );
        assert!(Json::parse(r#""\u12"#).is_err());
        assert!(Json::parse(r#""\x""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\" 1}", "{\"a\":}", "tru", "1 2", "{\"a\":1,}", "\"open",
            "[1, ]", "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn serialization_round_trips() {
        let doc = r#"{"a": [1, 2.5, null, true, "s"], "b": {"c": -3}}"#;
        let v = Json::parse(doc).expect("input parses as JSON");
        let text = v.to_string();
        assert_eq!(Json::parse(&text).expect("input parses as JSON"), v);
        // Compact form uses no spaces.
        assert!(!text.contains(": "));
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
        assert_eq!(Json::Number(f64::INFINITY).to_string(), "null");
    }

    /// Random JSON value for the round-trip property: leaves are null /
    /// bool / rounded number / printable string, containers recurse up to
    /// `depth` levels.
    fn arb_json(rng: &mut easytime_rng::StdRng, depth: usize) -> Json {
        let leaf_only = depth == 0;
        match rng.gen_range(0..if leaf_only { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Number((rng.gen_range_f64(-1e9, 1e9) * 1e3).round() / 1e3),
            3 => {
                let len = rng.gen_range(0..17);
                Json::String(
                    (0..len).map(|_| (b' ' + rng.gen_range(0..95) as u8) as char).collect(),
                )
            }
            4 => Json::Array(
                (0..rng.gen_range(0..4)).map(|_| arb_json(rng, depth - 1)).collect(),
            ),
            _ => Json::Object(
                (0..rng.gen_range(0..4))
                    .map(|_| {
                        let klen = rng.gen_range(1..7);
                        let key: String = (0..klen)
                            .map(|_| (b'a' + rng.gen_range(0..26) as u8) as char)
                            .collect();
                        (key, arb_json(rng, depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn serialization_round_trips_arbitrary_values() {
        for case in 0..64 {
            let mut rng = easytime_rng::StdRng::seed_from_u64(0x150A_F00D).derive(case);
            let v = arb_json(&mut rng, 3);
            let text = v.to_string();
            let back = Json::parse(&text).expect("input parses as JSON");
            assert_eq!(back, v, "round-trip failed for {text}");
        }
    }

    #[test]
    fn nesting_past_the_cap_is_a_typed_error_at_the_refused_bracket() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", r#"{"k":"#.repeat(n), "}".repeat(n));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        assert_eq!(Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err().position, MAX_DEPTH);
        assert_eq!(Json::parse(&objects(MAX_DEPTH + 1)).unwrap_err().position, 5 * MAX_DEPTH);
        // 100,000 levels, on the default test-thread stack. Each text
        // refuses bracket number MAX_DEPTH + 1.
        for (text, refused_at) in [
            ("[".repeat(100_000), MAX_DEPTH),
            (r#"{"k":"#.repeat(100_000), 5 * MAX_DEPTH),
            (r#"[{"k":"#.repeat(50_000), 6 * MAX_DEPTH / 2),
        ] {
            let err = Json::parse(&text).unwrap_err();
            assert_eq!(err.position, refused_at, "{err}");
            assert_eq!(err.message, format!("nested deeper than {MAX_DEPTH} levels"));
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").expect("input parses as JSON"), Json::Array(vec![]));
        assert_eq!(Json::parse("{}").expect("input parses as JSON"), Json::Object(BTreeMap::new()));
        assert_eq!(Json::parse("[]").expect("input parses as JSON").to_string(), "[]");
        assert_eq!(Json::parse("{}").expect("input parses as JSON").to_string(), "{}");
    }
}
