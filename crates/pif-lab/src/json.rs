//! Minimal hand-rolled JSON: a value parser and emitter helpers.
//!
//! The workspace has no JSON dependency (see `vendor/README.md`), and the
//! sweep reports must be *parsed* — `piflab check` and `piflab diff`
//! compare metric values, not bytes — so this is a small recursive-descent
//! parser producing a [`Json`] tree, in the style of the
//! `pif-bench-engine/v1` validator but value-producing. Parsing a
//! document *is* validation: anything malformed is rejected with a byte
//! offset.

/// A parsed JSON value. Object keys keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first malformed
    /// construct, or of trailing garbage after the document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Ok(v)
        } else {
            Err(p.error("trailing garbage after document"))
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's fields, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => match self.peek() {
                    Some(e) => {
                        self.pos += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self.hex4()?;
                                // Combine UTF-16 surrogate pairs, which
                                // JSON uses for code points above U+FFFF.
                                let code = if (0xD800..0xDC00).contains(&hex) {
                                    if self.bytes.get(self.pos..self.pos + 2) != Some(&b"\\u"[..]) {
                                        return Err(self.error("unpaired high surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    hex
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("bad \\u code point"))?,
                                );
                            }
                            _ => return Err(self.error("unknown escape")),
                        }
                    }
                    None => return Err(self.error("unterminated escape")),
                },
                _ => {
                    // Re-sync to the char boundary for multi-byte UTF-8.
                    let tail = &self.bytes[self.pos - 1..];
                    let s = std::str::from_utf8(tail).map_err(|_| self.error("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty tail");
                    out.push(c);
                    self.pos += c.len_utf8() - 1;
                }
            }
        }
        Err(self.error("unterminated string"))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document (see
/// [`pif_obs::escape_json`]).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    pif_obs::escape_json(s, &mut out);
    out
}

/// Formats an `f64` as a JSON number token with shortest round-trip
/// precision; non-finite values (which JSON cannot represent) become
/// `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y", "d": null}, "e": true}"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(j.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(j.get("e").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\": }", "tru", "1 2", "\"abc"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn roundtrips_floats() {
        for v in [0.0, 1.0, 0.1, 1e-9, 123456.789, -2.5e10] {
            let s = fmt_f64(v);
            let j = Json::parse(&s).unwrap();
            assert_eq!(j.as_f64(), Some(v), "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let doc = "{\"k\": \"héllo ☃\"}";
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("k").unwrap().as_str(), Some("héllo ☃"));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // U+1F600 escaped per the JSON spec as a UTF-16 surrogate pair.
        let j = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(j.as_str(), Some("\u{1F600}"));
        // BMP escapes still decode directly.
        assert_eq!(
            Json::parse(r#""\u00e9\u2603""#).unwrap().as_str(),
            Some("\u{e9}\u{2603}")
        );
        // Unpaired or inverted surrogates are malformed.
        for bad in [r#""\ud83d""#, r#""\ud83dAAAA""#, r#""\udc00""#] {
            assert!(Json::parse(bad).is_err(), "{bad} should not parse");
        }
    }
}
