//! Minimal hand-rolled JSON building blocks.
//!
//! The workspace serializes its few wire artifacts (campaign reports,
//! event logs, span traces, telemetry snapshots) by hand rather than
//! pulling a serialization dependency; this module centralizes the
//! pieces every writer needs — string escaping, an object builder, and
//! (for the campaign daemon's event-replay path) a small recursive
//! parser — so each crate stops re-implementing them.
//!
//! Every compact JSON writer (span and event lines, telemetry
//! snapshots, perfbench records) goes through [`ObjectBuilder`], which
//! appends each field straight to one output buffer. A trace export
//! renders every span into the same buffer, so a 100k-span JSONL export
//! is one growing `String`, not a few allocations per field.
//!
//! The parser keeps numbers as their **raw source token** ([`Value::Num`])
//! instead of eagerly converting to `f64`: the workspace round-trips
//! `u64` counters (span ids, sequence numbers) that do not fit in an
//! `f64` mantissa, so the consumer chooses `as_u64`/`as_f64` per field.

use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped as by [`escape`]. Text that needs no
/// escaping is copied in one piece; otherwise the clean runs between the
/// escaped bytes are. Every byte that needs escaping is ASCII, so the run
/// boundaries are always char boundaries.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean..]);
}

/// Formats an `f64` as a JSON number. JSON has no `NaN`/`Infinity`
/// literals, so those serialize as `null`.
pub fn number(v: f64) -> String {
    let mut out = String::new();
    number_into(&mut out, v);
    out
}

fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// An incremental `{...}` builder producing one compact JSON object.
/// Each field is appended straight to the output buffer.
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    out: String,
    /// Whether a field, and so the opening `{`, has been written.
    open: bool,
}

impl ObjectBuilder {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty object that [`ObjectBuilder::build`] appends to `out` —
    /// how a JSONL export renders every line into one buffer.
    pub(crate) fn append_to(out: String) -> Self {
        ObjectBuilder { out, open: false }
    }

    /// Writes the opening `{` or the separating `,`, then `"key":`.
    fn key(&mut self, key: &str) {
        self.out.push(if self.open { ',' } else { '{' });
        self.open = true;
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\":");
    }

    /// Adds a pre-serialized JSON value under `key`.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push_str(value);
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Adds a float field (`null` for non-finite values).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        number_into(&mut self.out, value);
        self
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Closes the object.
    pub fn build(mut self) -> String {
        if !self.open {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

/// Joins pre-serialized JSON values into an array literal.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

// ---------------------------------------------------------------------
// Parsing.

/// A parsed JSON value. Numbers keep their raw source token (see the
/// module docs); objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source token (`"42"`, `"-1.5e-3"`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: `(key, value)` pairs in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as `&str` when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an exact `u64` when it is an unsigned integer
    /// token (no precision loss through `f64`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// This value as `f64` when it is a number (bit-exact for tokens
    /// produced by [`number`], which uses Rust's shortest round-trip
    /// formatting).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON parse failure: a static reason and the byte offset it was
/// detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was wrong.
    pub reason: &'static str,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document, rejecting trailing non-whitespace.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after document"));
    }
    Ok(v)
}

/// Hard recursion cap: the workspace's artifacts are a few levels deep,
/// so anything deeper is corruption, not data.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &'static str) -> ParseError {
        ParseError {
            reason,
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, reason: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after key")?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            // Exactly four hex digits (`from_str_radix`
                            // would also take a leading `+`).
                            let mut cp = 0u32;
                            for &h in &self.bytes[self.pos..self.pos + 4] {
                                let digit = (h as char)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                                cp = cp << 4 | digit;
                            }
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // workspace's writers; reject rather than
                            // silently mangling.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8: copy the whole sequence through.
                _ if b >= 0x80 => {
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid utf-8 start byte")),
                    };
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated utf-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid utf-8 sequence"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
                _ if b < 0x20 => return Err(self.err("raw control byte in string")),
                _ => out.push(b as char),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("number has no digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("number has empty fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("number has empty exponent"));
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number token is ascii")
            .to_string();
        Ok(Value::Num(tok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden bytes: every writer in the workspace (span traces, event
    // lines, telemetry snapshots, perfbench records) emits exactly what
    // these pin, so a rewrite of the writer must leave them untouched.

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape(""), "");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\""), r#"\""#);
        assert_eq!(escape("\\"), r"\\");
        assert_eq!(escape("\n\r\t"), r"\n\r\t");
        assert_eq!(escape("\u{1}\u{1f}"), r"\u0001\u001f");
        assert_eq!(escape("a\u{8}b\u{c}c"), r"a\u0008b\u000cc");
        // DEL and multi-byte UTF-8 pass through unescaped.
        assert_eq!(escape("\u{7f}"), "\u{7f}");
        assert_eq!(escape("héllo π ✓ 𝄞"), "héllo π ✓ 𝄞");
        assert_eq!(escape("é\"𝄞\n"), "é\\\"𝄞\\n");
    }

    #[test]
    fn object_builder_round_trip() {
        assert_eq!(ObjectBuilder::new().build(), "{}");
        assert_eq!(ObjectBuilder::default().build(), "{}");
        let s = ObjectBuilder::new()
            .str("name", "x\"y")
            .u64("zero", 0)
            .u64("max", u64::MAX)
            .f64("v", -1.5)
            .bool("ok", true)
            .bool("no", false)
            .raw("inner", "[1,null]")
            .str("k\"\\\n\u{1}", "")
            .build();
        assert_eq!(
            s,
            r#"{"name":"x\"y","zero":0,"max":18446744073709551615,"v":-1.5,"ok":true,"no":false,"inner":[1,null],"k\"\\\n\u0001":""}"#
        );
    }

    #[test]
    fn non_finite_floats_are_null() {
        for (v, want) in [
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
            (-0.0, "-0"),
            (0.0, "0"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e-7, "0.0000001"),
        ] {
            assert_eq!(number(v), want, "{v:?}");
            assert_eq!(
                ObjectBuilder::new().f64("v", v).build(),
                format!("{{\"v\":{want}}}")
            );
        }
        let big = format!("1{}", "0".repeat(300));
        assert_eq!(number(1e300), big);
        assert_eq!(
            ObjectBuilder::new().f64("v", 1e300).build(),
            format!("{{\"v\":{big}}}")
        );
        assert_eq!(array(&["1".into(), "null".into()]), "[1,null]");
    }

    #[test]
    fn parse_round_trips_builder_output() {
        let s = ObjectBuilder::new()
            .str("name", "x\"y\n\\z")
            .u64("big", u64::MAX)
            .f64("v", 0.1 + 0.2)
            .bool("ok", true)
            .raw("inner", "[1,-2.5e3,null]")
            .build();
        let v = parse(&s).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("x\"y\n\\z"));
        // u64::MAX does not fit an f64 mantissa; the raw-token design
        // must hand it back exactly.
        assert_eq!(v.get("big").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("v").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let arr = v.get("inner").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5e3));
        assert_eq!(arr[2], Value::Null);
    }

    #[test]
    fn parse_handles_nesting_escapes_and_unicode() {
        let v =
            parse(r#" { "a" : [ { "b" : "\u0041\t/" } , [ ] , { } ], "π" : "héllo" } "#).unwrap();
        let inner = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(inner[0].get("b").unwrap().as_str(), Some("A\t/"));
        assert_eq!(inner[1], Value::Arr(Vec::new()));
        assert_eq!(inner[2], Value::Obj(Vec::new()));
        assert_eq!(v.get("π").unwrap().as_str(), Some("héllo"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01e",
            "1.",
            "1e",
            "-",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\ud800\"",
            "{\"a\":1} extra",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
        // Raw control byte inside a string.
        assert!(parse("\"a\u{1}b\"").is_err());
        // Depth bomb hits the recursion cap instead of the stack.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep).unwrap_err().reason, "nesting too deep");
    }

    #[test]
    fn number_tokens_preserve_source_form() {
        let v = parse("[0, -0, 1e2, 1E+2, 3.14, -0.5e-1]").unwrap();
        let toks: Vec<&str> = v
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| match x {
                Value::Num(t) => t.as_str(),
                _ => panic!("expected number"),
            })
            .collect();
        assert_eq!(toks, ["0", "-0", "1e2", "1E+2", "3.14", "-0.5e-1"]);
    }
}
