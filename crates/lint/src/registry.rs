//! `lint/oracles.toml`: the checked-in registry that pairs every
//! parallel or approximate kernel with its sequential oracle and the
//! equivalence test that pins them together.
//!
//! The build environment has no crates.io access, so this is a
//! hand-rolled parser for the small TOML subset the registry needs:
//! `[[oracle]]` array-of-tables, `#` comments, string values, and single-line string arrays. Parse
//! problems are reported as lint violations, not panics — a broken
//! registry must fail CI with a message, not a backtrace.

/// One kernel ↔ oracle ↔ test binding.
#[derive(Debug, Clone, Default)]
pub struct OracleEntry {
    /// Human name of the kernel (used in messages).
    pub kernel: String,
    /// Function symbol of the parallel/approximate kernel…
    pub kernel_fn: String,
    /// …defined in this file.
    pub kernel_file: String,
    /// Files whose `par_map`/`par_for_each_mut` call sites this entry
    /// covers (the kernel's implementation files).
    pub covers: Vec<String>,
    /// Function symbol of the sequential oracle…
    pub oracle_fn: String,
    /// …defined in this file.
    pub oracle_file: String,
    /// The equivalence test file pinning kernel ≡ oracle.
    pub test_file: String,
    /// Symbol the test file must mention (defaults to `oracle_fn`).
    pub test_symbol: Option<String>,
    /// Line of the entry's `[[oracle]]` header, for diagnostics.
    pub line: u32,
}

/// The parsed registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub entries: Vec<OracleEntry>,
}

/// Parses the registry; returns `Err(line, message)` on the first
/// syntax problem.
pub fn parse(src: &str) -> Result<Registry, (u32, String)> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Oracle,
    }
    let mut reg = Registry::default();
    let mut section = Section::None;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[oracle]]" {
            reg.entries.push(OracleEntry {
                line: lineno,
                ..OracleEntry::default()
            });
            section = Section::Oracle;
            continue;
        }
        if line.starts_with('[') {
            return Err((lineno, format!("unknown section `{line}`")));
        }
        let Some(eq) = line.find('=') else {
            return Err((lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim();
        match section {
            Section::None => {
                return Err((lineno, format!("`{key}` outside any section")));
            }
            Section::Oracle => {
                let entry = reg
                    .entries
                    .last_mut()
                    .expect("Oracle section implies an entry");
                match key {
                    "kernel" => entry.kernel = parse_string(value).map_err(|m| (lineno, m))?,
                    "kernel_fn" => {
                        entry.kernel_fn = parse_string(value).map_err(|m| (lineno, m))?
                    }
                    "kernel_file" => {
                        entry.kernel_file = parse_string(value).map_err(|m| (lineno, m))?
                    }
                    "covers" => entry.covers = parse_array(value).map_err(|m| (lineno, m))?,
                    "oracle_fn" => {
                        entry.oracle_fn = parse_string(value).map_err(|m| (lineno, m))?
                    }
                    "oracle_file" => {
                        entry.oracle_file = parse_string(value).map_err(|m| (lineno, m))?
                    }
                    "test_file" => {
                        entry.test_file = parse_string(value).map_err(|m| (lineno, m))?
                    }
                    "test_symbol" => {
                        entry.test_symbol = Some(parse_string(value).map_err(|m| (lineno, m))?)
                    }
                    other => {
                        return Err((lineno, format!("unknown oracle key `{other}`")));
                    }
                }
            }
        }
    }
    // Required fields.
    for e in &reg.entries {
        for (field, v) in [
            ("kernel", &e.kernel),
            ("kernel_fn", &e.kernel_fn),
            ("kernel_file", &e.kernel_file),
            ("oracle_fn", &e.oracle_fn),
            ("oracle_file", &e.oracle_file),
            ("test_file", &e.test_file),
        ] {
            if v.is_empty() {
                return Err((e.line, format!("entry is missing `{field}`")));
            }
        }
    }
    Ok(reg)
}

/// Drops a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(v: &str) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("expected a quoted string, got `{v}`"))
    }
}

fn parse_array(v: &str) -> Result<Vec<String>, String> {
    let v = v.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a single-line array, got `{v}`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# kernel registry
[[oracle]]
kernel = "sharded graph build"
kernel_fn = "cooccurrence"
kernel_file = "crates/similarity/src/shard.rs"
covers = ["crates/similarity/src/shard.rs", "crates/similarity/src/estimator.rs"]
oracle_fn = "build_graph_sequential"
oracle_file = "crates/similarity/src/estimator.rs"
test_file = "tests/shard_equivalence.rs"
"#;

    #[test]
    fn parses_entries() {
        let reg = parse(SAMPLE).unwrap();
        assert_eq!(reg.entries.len(), 1);
        let e = &reg.entries[0];
        assert_eq!(e.kernel_fn, "cooccurrence");
        assert_eq!(e.covers.len(), 2);
        assert_eq!(e.test_symbol, None);
    }

    #[test]
    fn missing_required_field_errors() {
        let err = parse("[[oracle]]\nkernel = \"x\"\n").unwrap_err();
        assert!(err.1.contains("missing"));
    }

    #[test]
    fn unknown_key_errors_with_line() {
        let err = parse("[[oracle]]\nbogus = \"x\"\n").unwrap_err();
        assert_eq!(err.0, 2);
    }
}
