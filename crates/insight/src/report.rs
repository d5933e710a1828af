//! Deterministic JSON rendering for perf reports, plus the flatten /
//! compare machinery the regression gate's `--check` mode runs on.
//!
//! The determinism contract: rendering is byte-stable across runs and
//! platforms. Objects are emitted in the insertion order the builders
//! choose (always sorted — they iterate `BTreeMap`s), floats print with
//! a fixed `{:.6}` format, and nothing here consults wall-clock time,
//! environment, or randomness. Digests are summarized only through
//! order-independent statistics (count / min / max / quantiles) —
//! never `sum` or `mean`, whose f64 accumulation order is raced by
//! device threads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hf_telemetry::Digest;

/// A JSON value with deterministic rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (rendered without a fraction).
    Int(i64),
    /// A float (rendered as `{:.6}`; non-finite renders as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in the order given (builders sort them).
    Obj(Vec<(String, Json)>),
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl Json {
    /// Convenience constructor: an object from already-ordered pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value with two-space indentation and a trailing
    /// newline, byte-identical for equal values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:.6}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push('"');
                    escape(k, out);
                    out.push_str("\": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Builds a `name → Num` object from a string-keyed map, in key order.
pub fn num_map(m: &BTreeMap<String, f64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
}

/// Order-independent summary of a digest: count, spread, and tail
/// quantiles. Deliberately excludes `sum`/`mean` — see the module docs.
pub fn digest_stats(d: &Digest) -> Json {
    let q = |p: f64| if d.count > 0 { Json::Num(d.quantile(p)) } else { Json::Null };
    Json::obj(vec![
        ("count", Json::Int(d.count as i64)),
        ("min", if d.count > 0 { Json::Num(d.min) } else { Json::Null }),
        ("max", if d.count > 0 { Json::Num(d.max) } else { Json::Null }),
        ("p50", q(0.50)),
        ("p95", q(0.95)),
        ("p99", q(0.99)),
    ])
}

/// A scalar leaf of a flattened JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// A number (integers and floats alike).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

/// Parses a JSON document and flattens it to `path → leaf`, with paths
/// like `iterations[0].by_kind.exec`. Good enough for the regression
/// gate's own output format; not a general-purpose validator.
pub fn flatten_json(text: &str) -> Result<BTreeMap<String, Leaf>, String> {
    let mut p = Parser { b: text.as_bytes(), i: 0 };
    let mut out = BTreeMap::new();
    p.skip_ws();
    p.value(String::new(), &mut out)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(out)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, path: String, out: &mut BTreeMap<String, Leaf>) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    self.value(child, out)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(());
                }
                let mut idx = 0usize;
                loop {
                    self.value(format!("{path}[{idx}]"), out)?;
                    idx += 1;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                let s = self.string()?;
                out.insert(path, Leaf::Str(s));
                Ok(())
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.peek().is_some_and(|c| {
                    c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                let n: f64 = s.parse().map_err(|e| format!("bad number '{s}' at {start}: {e}"))?;
                out.insert(path, Leaf::Num(n));
                Ok(())
            }
            _ if self.literal("true") => {
                out.insert(path, Leaf::Bool(true));
                Ok(())
            }
            _ if self.literal("false") => {
                out.insert(path, Leaf::Bool(false));
                Ok(())
            }
            _ if self.literal("null") => {
                out.insert(path, Leaf::Null);
                Ok(())
            }
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|e| format!("invalid utf-8: {e}"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    s.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }
}

/// Compares two flattened documents. Numeric leaves must agree within
/// `rel_tol` relative tolerance (absolute floor `1e-9`); strings,
/// booleans, and nulls must match exactly; a key present on one side
/// only is a failure. Returns one human-readable line per difference —
/// empty means within tolerance.
pub fn compare_flat(
    baseline: &BTreeMap<String, Leaf>,
    current: &BTreeMap<String, Leaf>,
    rel_tol: f64,
) -> Vec<String> {
    let mut diffs = Vec::new();
    for (k, b) in baseline {
        match current.get(k) {
            None => diffs.push(format!("{k}: present in baseline, missing in current")),
            Some(c) => match (b, c) {
                (Leaf::Num(a), Leaf::Num(x)) => {
                    let tol = (rel_tol * a.abs().max(x.abs())).max(1e-9);
                    if (a - x).abs() > tol {
                        diffs.push(format!(
                            "{k}: baseline {a} vs current {x} (tolerance {tol:.3e})"
                        ));
                    }
                }
                _ if b == c => {}
                _ => diffs.push(format!("{k}: baseline {b:?} vs current {c:?}")),
            },
        }
    }
    for k in current.keys() {
        if !baseline.contains_key(k) {
            diffs.push(format!("{k}: missing in baseline, present in current"));
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            ("schema", Json::Str("test/v1".into())),
            ("count", Json::Int(3)),
            ("latency", Json::Num(1.23456789)),
            (
                "iterations",
                Json::Arr(vec![
                    Json::obj(vec![("dur", Json::Num(2.0)), ("ok", Json::Bool(true))]),
                    Json::obj(vec![("dur", Json::Num(3.0)), ("ok", Json::Bool(false))]),
                ]),
            ),
            ("empty", Json::Obj(Vec::new())),
            ("weird name \"x\"\n", Json::Null),
        ])
    }

    #[test]
    fn rendering_is_stable_and_fixed_precision() {
        let a = sample().render();
        let b = sample().render();
        assert_eq!(a, b);
        assert!(a.contains("1.234568"), "floats use {{:.6}}: {a}");
        assert!(a.contains("\"count\": 3"), "ints have no fraction");
        assert!(a.contains("\\\"x\\\"\\n"), "keys are escaped");
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn flatten_round_trips_rendered_output() {
        let flat = flatten_json(&sample().render()).expect("parses own output");
        assert_eq!(flat["schema"], Leaf::Str("test/v1".into()));
        assert_eq!(flat["count"], Leaf::Num(3.0));
        assert_eq!(flat["iterations[1].dur"], Leaf::Num(3.0));
        assert_eq!(flat["iterations[0].ok"], Leaf::Bool(true));
        assert_eq!(flat["weird name \"x\"\n"], Leaf::Null);
        assert!(!flat.contains_key("empty"), "empty objects add no leaves");
    }

    #[test]
    fn flatten_rejects_malformed_documents() {
        assert!(flatten_json("{\"a\": }").is_err());
        assert!(flatten_json("[1, 2").is_err());
        assert!(flatten_json("{} extra").is_err());
    }

    #[test]
    fn compare_honours_relative_tolerance() {
        let base = flatten_json(r#"{"a": 100.0, "b": "x", "c": 0.0}"#).unwrap();
        let close = flatten_json(r#"{"a": 104.0, "b": "x", "c": 0.0}"#).unwrap();
        let far = flatten_json(r#"{"a": 106.0, "b": "x", "c": 0.0}"#).unwrap();
        assert!(compare_flat(&base, &close, 0.05).is_empty());
        assert_eq!(compare_flat(&base, &far, 0.05).len(), 1);
    }

    #[test]
    fn compare_flags_shape_and_type_changes() {
        let base = flatten_json(r#"{"a": 1.0, "b": "x"}"#).unwrap();
        let missing = flatten_json(r#"{"a": 1.0}"#).unwrap();
        let extra = flatten_json(r#"{"a": 1.0, "b": "x", "c": 2}"#).unwrap();
        let retyped = flatten_json(r#"{"a": 1.0, "b": 7}"#).unwrap();
        assert_eq!(compare_flat(&base, &missing, 0.05).len(), 1);
        assert_eq!(compare_flat(&base, &extra, 0.05).len(), 1);
        assert_eq!(compare_flat(&base, &retyped, 0.05).len(), 1);
    }

    #[test]
    fn digest_stats_exclude_order_dependent_fields() {
        let mut d = Digest::default();
        for v in [1.0, 2.0, 4.0, 8.0] {
            d.record(v);
        }
        let rendered = digest_stats(&d).render();
        assert!(rendered.contains("\"count\": 4"));
        assert!(rendered.contains("\"p99\""));
        assert!(!rendered.contains("sum"), "sum is accumulation-order dependent");
        assert!(!rendered.contains("mean"));
        let empty = digest_stats(&Digest::default()).render();
        assert!(empty.contains("\"min\": null"));
    }
}
