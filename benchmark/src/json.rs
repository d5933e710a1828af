//! A typed JSON value with a compact writer: numbers stay numbers (never
//! `"6.625"` strings) and floats print with every digit they carry.

use std::fmt::Write as _;

/// A JSON value. Objects keep the order their builder chose.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(i64),
    /// A float, written in Rust's shortest round-trip form; non-finite
    /// values have no JSON spelling and are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
    /// Already-rendered JSON, spliced in verbatim (a child process's
    /// result line).
    Raw(String),
}

impl Json {
    /// An object from ordered pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of floats.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(text) => out.push_str(text),
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_written_as_numbers() {
        let v = Json::obj(vec![
            ("value", Json::Num(6.625)),
            ("count", Json::Int(12)),
            ("ok", Json::Bool(true)),
        ]);
        assert_eq!(v.render(), r#"{"value": 6.625, "count": 12, "ok": true}"#);
    }

    #[test]
    fn floats_keep_every_digit_and_a_fraction() {
        assert_eq!(Json::Num(1.2034567890123).render(), "1.2034567890123");
        assert_eq!(Json::Num(3.0).render(), "3.0");
        assert_eq!(Json::Num(1e-7).render(), "1e-7");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\n\u{1}").render(), r#""a\"b\\c\n\u0001""#);
    }

    #[test]
    fn nesting_and_raw_splice() {
        let v = Json::Arr(vec![Json::Raw(r#"{"x": 1}"#.into()), Json::Arr(vec![])]);
        assert_eq!(v.render(), r#"[{"x": 1}, []]"#);
    }
}
