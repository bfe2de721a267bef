//! Rule fixtures: every rule has at least one positive fixture (it
//! fires) and one negative (it stays quiet), plus the two properties
//! the whole scheme rests on — the real workspace is lint-clean, and
//! deleting any oracle fn or equivalence test named in
//! `lint/oracles.toml` makes the lint fail.

use mawilab_lint::workspace::SourceFile;
use mawilab_lint::{check, rules, Workspace};
use std::fs;
use std::path::{Path, PathBuf};

fn violations_of(files: Vec<(&str, &str)>, registry: &str) -> Vec<mawilab_lint::Violation> {
    check(&Workspace::from_memory(files, registry))
}

fn rules_fired(v: &[mawilab_lint::Violation]) -> Vec<&'static str> {
    v.iter().map(|x| x.rule).collect()
}

// ---------------------------------------------------------- thread-env

#[test]
fn thread_env_fires_outside_exec() {
    let v = violations_of(
        vec![(
            "crates/label/src/policy.rs",
            "pub fn n() -> usize {\n    std::env::var(\"MAWILAB_THREADS\").map_or(1, |s| s.parse().unwrap_or(1))\n}\n",
        )],
        "",
    );
    assert_eq!(rules_fired(&v), vec![rules::THREAD_ENV]);
    assert_eq!(v[0].line, 2);
}

#[test]
fn thread_env_quiet_in_exec_bench_bins_and_tests() {
    let read = "pub fn n() { std::env::var(\"MAWILAB_THREADS\").ok(); }\n";
    let set_in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::env::set_var(\"MAWILAB_THREADS\", \"2\"); }\n}\n";
    let v = violations_of(
        vec![
            ("crates/exec/src/lib.rs", read),
            ("crates/bench/src/bin/sweep.rs", read),
            ("crates/core/src/x.rs", set_in_test),
        ],
        "",
    );
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ------------------------------------------------------- no-ad-hoc-threads

#[test]
fn ad_hoc_threads_fire_outside_exec() {
    let v = violations_of(
        vec![(
            "crates/core/src/sneaky.rs",
            "pub fn go() {\n    std::thread::spawn(|| {});\n}\n",
        )],
        "",
    );
    assert_eq!(rules_fired(&v), vec![rules::NO_THREADS]);
}

#[test]
fn thread_scope_allowed_in_exec_only() {
    let body = "pub fn fan_out() {\n    std::thread::scope(|s| { let _ = s; });\n}\n";
    assert!(violations_of(vec![("crates/exec/src/lib.rs", body)], "").is_empty());
    let v = violations_of(vec![("crates/graph/src/x.rs", body)], "");
    assert_eq!(rules_fired(&v), vec![rules::NO_THREADS]);
}

// ---------------------------------------------------------- wall-clock

#[test]
fn wall_clock_fires_in_kernel_code() {
    let v = violations_of(
        vec![(
            "crates/detectors/src/timing.rs",
            "pub fn t() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
        )],
        "",
    );
    assert_eq!(rules_fired(&v), vec![rules::WALL_CLOCK]);
}

#[test]
fn wall_clock_quiet_in_bench_only() {
    let body = "pub fn t() {\n    let _ = std::time::Instant::now();\n}\n";
    let v = violations_of(vec![("crates/bench/src/lib.rs", body)], "");
    assert!(v.is_empty(), "unexpected: {v:?}");
    let v = violations_of(vec![("crates/core/src/pipeline.rs", body)], "");
    assert_eq!(rules_fired(&v), vec![rules::WALL_CLOCK]);
}

// ---------------------------------------------------------- panic-free

#[test]
fn panic_free_fires_on_unwrap_in_data_plane() {
    let v = violations_of(
        vec![(
            "crates/model/src/x.rs",
            "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        )],
        "",
    );
    assert_eq!(rules_fired(&v), vec![rules::PANIC_FREE]);
}

#[test]
fn panic_free_quiet_with_reasoned_pragma_tests_and_non_data_plane() {
    let v = violations_of(
        vec![
            (
                "crates/model/src/x.rs",
                "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(panic-free-data-plane): v seeded two lines up\n}\n",
            ),
            (
                "crates/model/src/y.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
            ),
            (
                "crates/eval/src/z.rs",
                "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
            ),
        ],
        "",
    );
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ------------------------------------------------------ oracle-registry

const KERNEL_FILE: &str =
    "pub fn fast(v: &[u32]) -> Vec<u32> {\n    mawilab_exec::par_map(v, |x| *x)\n}\npub fn slow(v: &[u32]) -> Vec<u32> {\n    v.to_vec()\n}\n";
const TEST_FILE: &str =
    "#[test]\nfn fast_matches_slow() {\n    assert_eq!(fast(&[1]), slow(&[1]));\n}\n";

fn registry_for(kernel_fn: &str, oracle_fn: &str, covers: &str) -> String {
    format!(
        "[[oracle]]\nkernel = \"demo\"\nkernel_fn = \"{kernel_fn}\"\n\
         kernel_file = \"crates/graph/src/k.rs\"\ncovers = [{covers}]\n\
         oracle_fn = \"{oracle_fn}\"\noracle_file = \"crates/graph/src/k.rs\"\n\
         test_file = \"tests/demo.rs\"\ntest_symbol = \"slow\"\n"
    )
}

#[test]
fn oracle_registry_quiet_when_binding_is_complete() {
    let v = violations_of(
        vec![
            ("crates/graph/src/k.rs", KERNEL_FILE),
            ("tests/demo.rs", TEST_FILE),
        ],
        &registry_for("fast", "slow", "\"crates/graph/src/k.rs\""),
    );
    assert!(v.is_empty(), "unexpected: {v:?}");
}

#[test]
fn oracle_registry_fires_on_missing_oracle_fn() {
    let v = violations_of(
        vec![
            ("crates/graph/src/k.rs", KERNEL_FILE),
            ("tests/demo.rs", TEST_FILE),
        ],
        &registry_for("fast", "slow_gone", "\"crates/graph/src/k.rs\""),
    );
    assert!(rules_fired(&v).contains(&rules::ORACLE_REGISTRY), "{v:?}");
}

#[test]
fn oracle_registry_fires_on_uncovered_par_site() {
    // Entry exists but does not cover the file holding the call site.
    let v = violations_of(
        vec![
            ("crates/graph/src/k.rs", KERNEL_FILE),
            ("tests/demo.rs", TEST_FILE),
        ],
        &registry_for("fast", "slow", ""),
    );
    assert_eq!(rules_fired(&v), vec![rules::ORACLE_REGISTRY]);
    assert_eq!(v[0].line, 2, "should point at the par_map call site");
}

#[test]
fn oracle_registry_fires_when_test_loses_the_pin_symbol() {
    let v = violations_of(
        vec![
            ("crates/graph/src/k.rs", KERNEL_FILE),
            ("tests/demo.rs", "#[test]\nfn unrelated() {}\n"),
        ],
        &registry_for("fast", "slow", "\"crates/graph/src/k.rs\""),
    );
    assert!(rules_fired(&v).contains(&rules::ORACLE_REGISTRY), "{v:?}");
}

// ------------------------------------------------- hashmap-iteration

#[test]
fn hash_iteration_without_sort_fires() {
    let v = violations_of(
        vec![(
            "crates/combiner/src/agg.rs",
            "use std::collections::HashMap;\npub fn keys(m: &HashMap<u32, u32>) -> Vec<u32> {\n    let mut out = Vec::new();\n    for k in m.keys() {\n        out.push(*k);\n    }\n    out\n}\n",
        )],
        "",
    );
    assert_eq!(rules_fired(&v), vec![rules::HASH_ITER]);
}

#[test]
fn hash_iteration_with_canonicalising_sort_is_quiet() {
    let v = violations_of(
        vec![(
            "crates/combiner/src/agg.rs",
            "use std::collections::HashMap;\npub fn keys(m: &HashMap<u32, u32>) -> Vec<u32> {\n    let mut out = Vec::new();\n    for k in m.keys() {\n        out.push(*k);\n    }\n    out.sort_unstable();\n    out\n}\n",
        )],
        "",
    );
    assert!(v.is_empty(), "unexpected: {v:?}");
}

#[test]
fn hash_iteration_in_non_order_sensitive_crate_is_quiet() {
    let v = violations_of(
        vec![(
            "crates/eval/src/agg.rs",
            "use std::collections::HashMap;\npub fn keys(m: &HashMap<u32, u32>) -> Vec<u32> {\n    m.keys().copied().collect()\n}\n",
        )],
        "",
    );
    assert!(v.is_empty(), "unexpected: {v:?}");
}

#[test]
fn fast_map_iteration_without_sort_fires_in_the_widened_crates() {
    let body = "use mawilab_model::FastMap;\npub fn keys(m: &FastMap<u32, u32>) -> Vec<u32> {\n    let mut out = Vec::new();\n    for k in m.keys() {\n        out.push(*k);\n    }\n    out\n}\n";
    for path in [
        "crates/detectors/src/agg.rs",
        "crates/model/src/agg.rs",
        "crates/mining/src/agg.rs",
    ] {
        let v = violations_of(vec![(path, body)], "");
        assert_eq!(rules_fired(&v), vec![rules::HASH_ITER], "{path}: {v:?}");
    }
}

#[test]
fn fast_set_iteration_with_canonicalising_sort_is_quiet() {
    let v = violations_of(
        vec![(
            "crates/detectors/src/agg.rs",
            "use mawilab_model::FastSet;\npub fn keys(s: FastSet<u32>) -> Vec<u32> {\n    let mut out: Vec<u32> = s.into_iter().collect();\n    out.sort_unstable();\n    out\n}\n",
        )],
        "",
    );
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------- data-plane-hasher

#[test]
fn std_hash_containers_fire_in_data_plane_code() {
    let v = violations_of(
        vec![(
            "crates/similarity/src/x.rs",
            "pub fn f() -> usize {\n    let s: std::collections::HashSet<u32> = std::collections::HashSet::new();\n    s.len()\n}\n",
        )],
        "",
    );
    assert_eq!(
        rules_fired(&v),
        vec![rules::STD_HASHER, rules::STD_HASHER],
        "{v:?}"
    );
    assert_eq!(v[0].line, 2);
    let v = violations_of(
        vec![(
            "crates/model/src/x.rs",
            "use std::collections::HashMap;\npub struct T {\n    m: HashMap<u32, u32>,\n}\n",
        )],
        "",
    );
    assert_eq!(
        v.iter().map(|x| (x.rule, x.line)).collect::<Vec<_>>(),
        vec![(rules::STD_HASHER, 1), (rules::STD_HASHER, 3)],
        "{v:?}"
    );
}

#[test]
fn std_hasher_quiet_for_fast_maps_pragmas_tests_and_other_crates() {
    let std_map =
        "pub fn f() -> usize {\n    std::collections::HashMap::<u32, u32>::new().len()\n}\n";
    let v = violations_of(
        vec![
            (
                "crates/model/src/fast.rs",
                "use crate::hash::FastMap;\npub fn f() -> usize {\n    FastMap::<u32, u32>::default().len()\n}\n",
            ),
            (
                "crates/label/src/keyed.rs",
                "pub fn f() -> usize {\n    // lint:allow(data-plane-hasher): keys come from the network and need SipHash\n    std::collections::HashMap::<u32, u32>::new().len()\n}\n",
            ),
            (
                "crates/mining/src/t.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = std::collections::HashSet::<u32>::new(); }\n}\n",
            ),
            ("crates/eval/src/x.rs", std_map),
            ("crates/bench/src/x.rs", std_map),
            ("tests/x.rs", std_map),
        ],
        "",
    );
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ------------------------------------------------------- pragma hygiene

#[test]
fn bare_pragma_is_itself_a_violation() {
    let v = violations_of(
        vec![(
            "crates/model/src/x.rs",
            "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(panic-free-data-plane)\n}\n",
        )],
        "",
    );
    // The bare pragma waives nothing AND is flagged itself.
    let fired = rules_fired(&v);
    assert!(fired.contains(&rules::PANIC_FREE), "{v:?}");
    assert!(fired.contains(&rules::PRAGMA_HYGIENE), "{v:?}");
}

#[test]
fn unknown_rule_and_unused_pragmas_are_flagged() {
    let v = violations_of(
        vec![(
            "crates/model/src/x.rs",
            "pub fn f() {} // lint:allow(no-such-rule): whatever\npub fn g() {} // lint:allow(panic-free-data-plane): waives nothing\n",
        )],
        "",
    );
    assert_eq!(
        rules_fired(&v),
        vec![rules::PRAGMA_HYGIENE, rules::PRAGMA_HYGIENE],
        "{v:?}"
    );
}

#[test]
fn own_line_pragma_waives_the_next_code_line() {
    let v = violations_of(
        vec![(
            "crates/model/src/x.rs",
            "pub fn f(v: Option<u32>) -> u32 {\n    // lint:allow(panic-free-data-plane): seeded by caller\n    v.unwrap()\n}\n",
        )],
        "",
    );
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ------------------------------------------------- the real workspace

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn real_workspace_is_lint_clean() {
    let ws = Workspace::from_disk(&repo_root()).expect("load workspace");
    assert!(
        ws.files.len() > 100,
        "suspiciously few files ({}) — wrong root?",
        ws.files.len()
    );
    let v = check(&ws);
    assert!(v.is_empty(), "workspace has lint violations:\n{v:#?}");
}

/// Deleting any oracle fn named in the registry must fail the lint.
#[test]
fn deleting_any_oracle_fn_fails_the_lint() {
    let root = repo_root();
    let ws = Workspace::from_disk(&root).expect("load workspace");
    let reg = ws.registry.as_ref().expect("registry parses");
    assert!(!reg.entries.is_empty(), "registry is empty");
    for e in &reg.entries {
        let mut ws2 = Workspace::from_disk(&root).expect("load workspace");
        let src = fs::read_to_string(root.join(&e.oracle_file)).expect("oracle file");
        let gutted = src.replace(&format!("fn {}", e.oracle_fn), "fn zz_deleted_oracle");
        assert_ne!(gutted, src, "oracle fn {} not found to delete", e.oracle_fn);
        let slot = ws2
            .files
            .iter_mut()
            .find(|f| f.path == e.oracle_file)
            .expect("oracle file in workspace");
        *slot = SourceFile::new(e.oracle_file.clone(), &gutted);
        let v = check(&ws2);
        assert!(
            v.iter().any(|x| x.rule == rules::ORACLE_REGISTRY),
            "deleting oracle `{}` of kernel `{}` did not fail the lint",
            e.oracle_fn,
            e.kernel
        );
    }
}

/// Deleting any equivalence test file named in the registry must fail
/// the lint.
#[test]
fn deleting_any_equivalence_test_fails_the_lint() {
    let root = repo_root();
    let ws = Workspace::from_disk(&root).expect("load workspace");
    let reg = ws.registry.as_ref().expect("registry parses");
    for e in &reg.entries {
        let mut ws2 = Workspace::from_disk(&root).expect("load workspace");
        ws2.files.retain(|f| f.path != e.test_file);
        let v = check(&ws2);
        assert!(
            v.iter().any(|x| x.rule == rules::ORACLE_REGISTRY),
            "deleting test `{}` of kernel `{}` did not fail the lint",
            e.test_file,
            e.kernel
        );
    }
}
