//! The seven repo-specific invariant rules.
//!
//! Each rule scans code views (comments and string interiors already
//! blanked by the lexer) for token patterns and emits [`Violation`]s.
//! Pragmas are applied afterwards by the engine; rules themselves
//! never consult them.

use crate::workspace::{SourceFile, Workspace, REGISTRY_PATH};

/// Rule names, as spelled in pragmas and reports.
pub const THREAD_ENV: &str = "thread-env-isolation";
pub const NO_THREADS: &str = "no-ad-hoc-threads";
pub const WALL_CLOCK: &str = "no-wall-clock-in-kernels";
pub const PANIC_FREE: &str = "panic-free-data-plane";
pub const ORACLE_REGISTRY: &str = "oracle-registry";
pub const HASH_ITER: &str = "hashmap-iteration-order";
pub const STD_HASHER: &str = "data-plane-hasher";
/// Meta-rule for pragma problems; not itself waivable.
pub const PRAGMA_HYGIENE: &str = "pragma-hygiene";

/// Every waivable rule (a pragma must name one of these).
pub const RULES: [&str; 7] = [
    THREAD_ENV,
    NO_THREADS,
    WALL_CLOCK,
    PANIC_FREE,
    ORACLE_REGISTRY,
    HASH_ITER,
    STD_HASHER,
];

/// The crates whose non-test code must be panic-free (the data plane:
/// everything a labeling run executes).
const DATA_PLANE: [&str; 10] = [
    "model",
    "similarity",
    "label",
    "detectors",
    "core",
    "graph",
    "linalg",
    "mining",
    "stats",
    "sketch",
];

/// The crates where hash-container iteration order can leak into
/// alarm/graph/community/label output.
const ORDER_SENSITIVE: [&str; 7] = [
    "similarity",
    "graph",
    "label",
    "combiner",
    "detectors",
    "model",
    "mining",
];

/// One rule finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of `tok` in `code` at identifier boundaries: the
/// bytes just before and after the match must not extend an
/// identifier (so `par_map` does not match inside `par_map_capped`).
pub fn find_token(code: &str, tok: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let tb = tok.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(tok) {
        let start = from + pos;
        let end = start + tb.len();
        let pre_ok = start == 0 || !is_ident(bytes[start - 1]) || !is_ident(tb[0]);
        let post_ok = end >= bytes.len() || !is_ident(bytes[end - 1]) || !is_ident(bytes[end]);
        if pre_ok && post_ok {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

/// True when `name` is defined as a function (`fn name`) in `code`.
pub fn has_fn(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    for start in find_token(code, name) {
        // Walk back over whitespace to the preceding token.
        let mut i = start;
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i >= 2 && &bytes[i - 2..i] == b"fn" && (i == 2 || !is_ident(bytes[i - 3])) {
            return true;
        }
    }
    false
}

/// Runs every rule over the workspace.
pub fn run_all(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &ws.files {
        thread_env_isolation(f, &mut out);
        no_ad_hoc_threads(f, &mut out);
        no_wall_clock(f, &mut out);
        panic_free_data_plane(f, &mut out);
        hashmap_iteration_order(f, &mut out);
        data_plane_hasher(f, &mut out);
    }
    oracle_registry(ws, &mut out);
    out
}

/// **thread-env-isolation** — the `MAWILAB_THREADS` policy variable
/// is *read* only inside `crates/exec` (the single fan-out level) and
/// *set* only by bench bins and tests (sweeps). The rule keys on the
/// string literal itself, so it catches any call form (`env::var`,
/// `var_os`, a re-exported helper) that names the variable.
fn thread_env_isolation(f: &SourceFile, out: &mut Vec<Violation>) {
    if f.krate.as_deref() == Some("exec") || f.is_bench_bin() {
        return;
    }
    for lit in &f.lexed.strings {
        // lint:allow(thread-env-isolation): this literal is the rule's own search pattern, never read as an env var
        if lit.text != "MAWILAB_THREADS" {
            continue;
        }
        if f.is_test_code(lit.line) {
            continue;
        }
        out.push(Violation {
            file: f.path.clone(),
            line: lit.line,
            rule: THREAD_ENV,
            msg: "`MAWILAB_THREADS` may be read only in crates/exec and set only in \
                  bench bins or tests; route thread policy through mawilab-exec"
                .to_string(),
        });
    }
}

/// **no-ad-hoc-threads** — `std::thread` fan-out lives only in
/// `crates/exec`: one fan-out level, one thread-count policy. A
/// `thread::spawn` anywhere else silently escapes `MAWILAB_THREADS`
/// and the nested-inline guarantee.
fn no_ad_hoc_threads(f: &SourceFile, out: &mut Vec<Violation>) {
    if f.krate.as_deref() == Some("exec") {
        return;
    }
    for tok in ["thread::spawn", "thread::scope", "thread::Builder"] {
        for off in find_token(&f.lexed.code, tok) {
            let line = f.line_of(off);
            if f.is_test_code(line) {
                continue;
            }
            out.push(Violation {
                file: f.path.clone(),
                line,
                rule: NO_THREADS,
                msg: format!(
                    "`{tok}` outside crates/exec: all parallelism must go through \
                     mawilab_exec::par_map / par_for_each_mut (one fan-out level)"
                ),
            });
        }
    }
}

/// **no-wall-clock-in-kernels** — `Instant::now`/`SystemTime::now`
/// are confined to `crates/bench`; the library never times itself.
/// Wall-clock reads anywhere else are a determinism smell: a kernel
/// that branches on elapsed time produces thread- and
/// machine-dependent output.
fn no_wall_clock(f: &SourceFile, out: &mut Vec<Violation>) {
    if f.krate.as_deref() == Some("bench") {
        return;
    }
    for tok in ["Instant::now", "SystemTime::now"] {
        for off in find_token(&f.lexed.code, tok) {
            let line = f.line_of(off);
            if f.is_test_code(line) {
                continue;
            }
            out.push(Violation {
                file: f.path.clone(),
                line,
                rule: WALL_CLOCK,
                msg: format!("`{tok}` outside crates/bench"),
            });
        }
    }
}

/// **panic-free-data-plane** — `.unwrap()` / `.expect(` / `panic!`
/// in the non-test code of the data-plane crates requires a justified
/// pragma: one malformed archive day must degrade into a typed error,
/// not take down a labeling sweep.
fn panic_free_data_plane(f: &SourceFile, out: &mut Vec<Violation>) {
    let Some(krate) = f.krate.as_deref() else {
        return;
    };
    if !DATA_PLANE.contains(&krate) || f.testlike {
        return;
    }
    for tok in [".unwrap()", ".expect(", "panic!"] {
        for off in find_token(&f.lexed.code, tok) {
            let line = f.line_of(off);
            if f.is_test_code(line) {
                continue;
            }
            out.push(Violation {
                file: f.path.clone(),
                line,
                rule: PANIC_FREE,
                msg: format!(
                    "`{tok}` in data-plane code: return a typed error, or justify \
                     the invariant with `// lint:allow({PANIC_FREE}): <why it cannot fire>`"
                ),
            });
        }
    }
}

/// **data-plane-hasher** — the non-test code of the data-plane crates
/// names no std `HashMap`/`HashSet` (type, constructor or import):
/// its maps are `FastMap`/`FastSet`, so a map added later does not
/// fall back to SipHash unnoticed. A map that must keep SipHash
/// carries a pragma saying why.
fn data_plane_hasher(f: &SourceFile, out: &mut Vec<Violation>) {
    let Some(krate) = f.krate.as_deref() else {
        return;
    };
    if !DATA_PLANE.contains(&krate) || f.testlike {
        return;
    }
    for tok in ["HashMap", "HashSet"] {
        for off in find_token(&f.lexed.code, tok) {
            let line = f.line_of(off);
            if f.is_test_code(line) {
                continue;
            }
            out.push(Violation {
                file: f.path.clone(),
                line,
                rule: STD_HASHER,
                msg: format!(
                    "std `{tok}` in data-plane code: use `mawilab_model::FastMap`/`FastSet`, \
                     or justify with `// lint:allow({STD_HASHER}): <why it needs SipHash>`"
                ),
            });
        }
    }
}

/// **oracle-registry** — every parallel/approximate kernel is bound
/// to a sequential oracle and an equivalence test in
/// `lint/oracles.toml`, and every `par_map`/`par_for_each_mut` call
/// site in a kernel crate is covered by some entry. Deleting an
/// oracle fn or its equivalence test breaks the binding and fails the
/// lint.
fn oracle_registry(ws: &Workspace, out: &mut Vec<Violation>) {
    let reg = match &ws.registry {
        Ok(reg) => reg,
        Err((line, msg)) => {
            out.push(Violation {
                file: REGISTRY_PATH.to_string(),
                line: *line,
                rule: ORACLE_REGISTRY,
                msg: msg.clone(),
            });
            return;
        }
    };

    for e in &reg.entries {
        let mut require_fn = |file: &str, func: &str, what: &str| match ws.file(file) {
            None => out.push(Violation {
                file: REGISTRY_PATH.to_string(),
                line: e.line,
                rule: ORACLE_REGISTRY,
                msg: format!("kernel `{}`: {what} file `{file}` does not exist", e.kernel),
            }),
            Some(sf) if !has_fn(&sf.lexed.code, func) => out.push(Violation {
                file: REGISTRY_PATH.to_string(),
                line: e.line,
                rule: ORACLE_REGISTRY,
                msg: format!(
                    "kernel `{}`: {what} `fn {func}` not found in `{file}`",
                    e.kernel
                ),
            }),
            Some(_) => {}
        };
        require_fn(&e.kernel_file, &e.kernel_fn, "kernel");
        require_fn(&e.oracle_file, &e.oracle_fn, "oracle");

        let test_symbol = e.test_symbol.as_deref().unwrap_or(&e.oracle_fn);
        match ws.file(&e.test_file) {
            None => out.push(Violation {
                file: REGISTRY_PATH.to_string(),
                line: e.line,
                rule: ORACLE_REGISTRY,
                msg: format!(
                    "kernel `{}`: equivalence test file `{}` does not exist",
                    e.kernel, e.test_file
                ),
            }),
            // The pin symbol may live in code or in a string literal
            // (e.g. a test that drives `MAWILAB_THREADS` via set_var).
            Some(tf)
                if find_token(&tf.lexed.code, test_symbol).is_empty()
                    && !tf
                        .lexed
                        .strings
                        .iter()
                        .any(|s| s.text.contains(test_symbol)) =>
            {
                out.push(Violation {
                    file: REGISTRY_PATH.to_string(),
                    line: e.line,
                    rule: ORACLE_REGISTRY,
                    msg: format!(
                        "kernel `{}`: test `{}` no longer mentions `{test_symbol}` — \
                         the equivalence pin is gone",
                        e.kernel, e.test_file
                    ),
                })
            }
            Some(_) => {}
        }
    }

    // Uncovered parallel call sites in kernel crates.
    for f in &ws.files {
        let Some(krate) = f.krate.as_deref() else {
            continue;
        };
        if krate == "exec" || krate == "bench" || krate == "lint" || f.testlike {
            continue;
        }
        let covered = reg
            .entries
            .iter()
            .any(|e| e.covers.iter().any(|p| p == &f.path));
        for tok in [
            "par_map",
            "par_map_capped",
            "par_map_mut",
            "par_for_each_mut",
            "par_for_each_mut_capped",
        ] {
            for off in find_token(&f.lexed.code, tok) {
                let line = f.line_of(off);
                if f.is_test_code(line) || covered {
                    continue;
                }
                out.push(Violation {
                    file: f.path.clone(),
                    line,
                    rule: ORACLE_REGISTRY,
                    msg: format!(
                        "`{tok}` call site not covered by any entry in {REGISTRY_PATH}: \
                         register the kernel with its sequential oracle and equivalence test"
                    ),
                });
            }
        }
    }
}

/// A name bound to a hash container, with the scope it is
/// visible in (`None` = file scope, e.g. a struct field).
struct HashName {
    name: String,
    scope: Option<(u32, u32)>,
}

/// **hashmap-iteration-order** — in the crates whose output flows
/// into alarms, graphs, communities, and labels, iterating a
/// `HashMap` / `HashSet` / `FastMap` / `FastSet` must be followed by a
/// canonicalising sort in the same function (or feed an
/// order-insensitive fold like `.count()`), or carry a pragma. Hash
/// iteration order varies per process (std) and per map (the seeded
/// `FastState`); any leak of it into output breaks byte-identical
/// labeling.
fn hashmap_iteration_order(f: &SourceFile, out: &mut Vec<Violation>) {
    let Some(krate) = f.krate.as_deref() else {
        return;
    };
    if !ORDER_SENSITIVE.contains(&krate) || f.testlike {
        return;
    }
    let code = &f.lexed.code;
    let lines: Vec<&str> = code.lines().collect();

    // Pass 1: collect hash-typed names from `let` bindings, params,
    // and struct fields.
    let mut names: Vec<HashName> = Vec::new();
    for tok in ["HashMap", "HashSet", "FastMap", "FastSet"] {
        for off in find_token(code, tok) {
            let line_no = f.line_of(off);
            let line_start = f.line_starts[line_no as usize - 1];
            let prefix = &code[line_start..off];
            if let Some(name) = bound_name(prefix) {
                let scope = f
                    .regions
                    .enclosing_fn(line_no)
                    .map(|s| (s.start_line, s.end_line));
                names.push(HashName { name, scope });
            }
        }
    }

    // Pass 2: iteration sites.
    let iter_tokens = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".into_keys()",
        ".into_values()",
        ".drain(",
    ];
    let mut sites: Vec<(u32, String)> = Vec::new();
    for tok in iter_tokens {
        for off in find_token(code, tok) {
            let recv = receiver_before(code.as_bytes(), off);
            if recv.is_empty() {
                continue;
            }
            sites.push((f.line_of(off), recv));
        }
    }
    // `for x in &name` loops.
    for (idx, line) in lines.iter().enumerate() {
        if let Some(recv) = for_loop_receiver(line) {
            sites.push((idx as u32 + 1, recv));
        }
    }
    sites.sort();
    sites.dedup();

    for (line_no, recv) in sites {
        if f.is_test_code(line_no) {
            continue;
        }
        let is_hash = names.iter().any(|n| {
            n.name == recv
                && match n.scope {
                    None => true,
                    Some((s, e)) => s <= line_no && line_no <= e,
                }
        });
        if !is_hash {
            continue;
        }
        // Order-insensitive fold on the same line is fine.
        let line_txt = lines.get(line_no as usize - 1).copied().unwrap_or("");
        if [".count()", ".any(", ".all(", ".contains("]
            .iter()
            .any(|t| line_txt.contains(t))
        {
            continue;
        }
        // A canonicalising sort (or BTree collection) later in the
        // same function satisfies the rule.
        let span = f.regions.enclosing_fn(line_no);
        let sorted_after = span.is_some_and(|s| {
            (line_no..=s.end_line).any(|l| {
                let t = lines.get(l as usize - 1).copied().unwrap_or("");
                t.contains(".sort") || t.contains("BTreeMap") || t.contains("BTreeSet")
            })
        });
        if sorted_after {
            continue;
        }
        out.push(Violation {
            file: f.path.clone(),
            line: line_no,
            rule: HASH_ITER,
            msg: format!(
                "iteration over hash container `{recv}` with no canonicalising sort \
                 later in the same function; sort the result or justify with \
                 `// lint:allow({HASH_ITER}): <why order cannot leak>`"
            ),
        });
    }
}

/// Extracts the name bound on a declaration line, given the code-view
/// text from line start to the hash-type token: handles
/// `let [mut] name = …`, `let [mut] name: … =`, and `name: Type`
/// fields/params. Returns `None` for uses that bind nothing (return
/// types, generic args of other calls, `use` paths).
fn bound_name(prefix: &str) -> Option<String> {
    let t = prefix.trim_start();
    if t.starts_with("use ") || t.starts_with("pub use ") {
        return None;
    }
    // `let [mut] name …` (the token must come after `=` or `:`).
    if let Some(rest) = t.strip_prefix("let ") {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty()
            && (rest[name.len()..].contains('=') || rest[name.len()..].contains(':'))
        {
            return Some(name);
        }
        return None;
    }
    // `name: …HashMap<…` — field or parameter annotation. Find the
    // last single `:` (not `::`) and take the identifier before it.
    let bytes = prefix.as_bytes();
    let mut i = bytes.len();
    while i > 0 {
        i -= 1;
        if bytes[i] == b':' {
            if i > 0 && bytes[i - 1] == b':' {
                i -= 1; // skip `::`
                continue;
            }
            if i + 1 < bytes.len() && bytes[i + 1] == b':' {
                continue;
            }
            let mut e = i;
            while e > 0 && bytes[e - 1].is_ascii_whitespace() {
                e -= 1;
            }
            // `fn f(x: u32) -> HashMap<…>`: the token is a return
            // type, not a binding for `x`.
            if prefix[i..].contains("->") {
                return None;
            }
            let mut s = e;
            while s > 0 && is_ident(bytes[s - 1]) {
                s -= 1;
            }
            if s < e {
                return Some(prefix[s..e].to_string());
            }
            return None;
        }
    }
    None
}

/// Identifier immediately before a `.method` token offset.
fn receiver_before(bytes: &[u8], dot_off: usize) -> String {
    let mut s = dot_off;
    while s > 0 && is_ident(bytes[s - 1]) {
        s -= 1;
    }
    String::from_utf8_lossy(&bytes[s..dot_off]).into_owned()
}

/// For `for pat in [&|&mut ]name {`, returns `name` when the iterated
/// expression is a plain (possibly field) path.
fn for_loop_receiver(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t.strip_prefix("for ")?;
    let in_pos = rest.find(" in ")?;
    let expr = rest[in_pos + 4..].trim();
    let expr = expr.strip_suffix('{').unwrap_or(expr).trim_end();
    let expr = expr.strip_prefix('&').unwrap_or(expr);
    let expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
    if expr.is_empty()
        || expr.contains("..")
        || !expr
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
    {
        return None;
    }
    Some(expr.rsplit('.').next().unwrap_or(expr).to_string())
}
