//! Output helpers: aligned tables on stdout, CSV series on disk, and
//! `Json`, the writer of `BENCH_archive.json`.

use std::fs;
use std::io::Write;
use std::path::Path;

/// Prints an aligned text table: `headers` then `rows`.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Writes a CSV series into `<dir>/<name>.csv` and returns its path.
pub fn write_csv_series(
    dir: &str,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<String> {
    fs::create_dir_all(dir)?;
    let path = Path::new(dir).join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path.display().to_string())
}

/// Formats an `f64` compactly for tables/CSV.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON value: the typed tree a report is built as before it is
/// written. Object members keep their insertion order.
#[derive(Debug)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, written exactly.
    Int(i128),
    /// A float, written with six decimals; a non-finite float writes
    /// `null` rather than corrupt the document.
    Num(f64),
    /// A float written in its shortest exact form, for run inputs
    /// that must read back unchanged; non-finite writes `null`.
    Exact(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in key order.
    Obj(Vec<(&'static str, Json)>),
}

/// A [`Json::Obj`] from `"key" => value` members, in order; each
/// value goes through `Json::from`.
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::out::Json::Obj(vec![$(($key, $crate::out::Json::from($value))),*])
    };
}
pub(crate) use obj;

impl Json {
    /// An array of anything convertible to a value.
    pub(crate) fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Renders the value. Layout: objects at depth ≤ 1 and non-empty
    /// arrays of objects at depth ≤ 2 put one member per line,
    /// indented two spaces a level; everything else stays on one line.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(v) if v.is_finite() => out.push_str(&format!("{v:.6}")),
            Json::Exact(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::Num(_) | Json::Exact(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let tall = depth <= 2 && items.iter().all(|v| matches!(v, Json::Obj(_)));
                write_members(out, depth, tall, "[]", items.iter().map(|v| (None, v)));
            }
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(*k), v));
                write_members(out, depth, depth <= 1, "{}", members);
            }
        }
    }
}

/// Writes an array's items or an object's members between the two
/// `brackets`, one per line when `tall` and there is at least one.
fn write_members<'a>(
    out: &mut String,
    depth: usize,
    tall: bool,
    brackets: &str,
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let tall = tall && members.len() > 0;
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if tall {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if tall {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push_str(&brackets[1..]);
}

/// Writes `s` as a JSON string literal; free-form text such as OS
/// error messages may carry quotes and control characters.
fn write_str(out: &mut String, s: &str) {
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

// Scalar conversions, so `obj!` members and `Json::arr` items take
// plain values.
macro_rules! json_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}
json_from!(bool => Bool, f64 => Num, String => Str, &str => Str);
json_from!(u8 => Int, u16 => Int, u64 => Int, i64 => Int);

// `i128: From<usize>` does not exist; the cast is lossless on every
// supported target.
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i128)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_series_writes_file() {
        let dir = std::env::temp_dir().join("mawilab-bench-test");
        let dir = dir.to_str().unwrap();
        let path = write_csv_series(
            dir,
            "unit",
            &["x", "y"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2\n3,4\n");
    }

    #[test]
    fn json_str_escapes_hostile_error_text() {
        assert_eq!(
            Json::from("a \"quoted\" \\path\nline2\ttab\u{1}").render(),
            "\"a \\\"quoted\\\" \\\\path\\nline2\\ttab\\u0001\""
        );
        assert_eq!(Json::from("plain message").render(), "\"plain message\"");
    }

    #[test]
    fn non_finite_num_renders_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).render(), "null");
        }
        assert_eq!(Json::Num(0.25).render(), "0.250000");
    }

    #[test]
    fn exact_renders_the_shortest_round_trip_form() {
        assert_eq!(Json::Exact(1.0).render(), "1");
        assert_eq!(Json::Exact(0.25).render(), "0.25");
        assert_eq!(Json::Exact(1e-7).render(), "0.0000001");
        assert_eq!(Json::Exact(f64::NAN).render(), "null");
    }

    #[test]
    fn empty_arr_renders_brackets() {
        assert_eq!(Json::Arr(Vec::new()).render(), "[]");
        let doc = obj! { "rows" => Json::Arr(Vec::new()) };
        assert_eq!(doc.render(), "{\n  \"rows\": []\n}");
    }

    /// Objects at depth ≤ 1 and arrays of objects at depth ≤ 2 are
    /// tall; everything below, and arrays of scalars, stay inline.
    #[test]
    fn layout_rule_is_pinned() {
        let row = |n: u64| obj! { "n" => n, "tags" => Json::arr(["x"]) };
        let doc = obj! {
            "name" => "run",
            "ok" => true,
            "missing" => None::<u64>,
            "hist" => Json::arr([1u64, 2]),
            "rows" => Json::arr([row(1), row(2)]),
            "inner" => obj! {
                "pair" => obj! { "lo" => 0.5, "hi" => -1i64 },
                "rows" => Json::arr([row(3)]),
                "deep" => Json::arr([obj! { "rows" => Json::arr([row(4)]) }]),
            },
        };
        assert_eq!(
            doc.render(),
            r#"{
  "name": "run",
  "ok": true,
  "missing": null,
  "hist": [1, 2],
  "rows": [
    {"n": 1, "tags": ["x"]},
    {"n": 2, "tags": ["x"]}
  ],
  "inner": {
    "pair": {"lo": 0.500000, "hi": -1},
    "rows": [
      {"n": 3, "tags": ["x"]}
    ],
    "deep": [
      {"rows": [{"n": 4, "tags": ["x"]}]}
    ]
  }
}"#
        );
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.1234567), "0.1235");
        assert_eq!(fmt(2.54159), "2.54");
        assert_eq!(fmt(1234.5), "1234"); // ties-to-even f64 formatting
    }
}
