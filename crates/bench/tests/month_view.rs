//! The byte-identity baseline of the labeling path, pinned in the repo.
//!
//! A change to any stage of the labeler (detectors, extraction, graph,
//! combiner, labels) that is meant to keep labels unchanged must leave
//! the cold 61-day `deterministic_view` of `default_month_days()` at
//! scale 1 byte-identical. That view is 256,299 bytes with sha256
//! `d86b04a9…`; this test pins its length and FNV-1a 64 digest.
//!
//! Ignored by default (about 3 s in release, far longer in debug):
//!
//! ```sh
//! cargo test --release -p mawilab-bench --test month_view -- --ignored
//! ```
//!
//! If a change alters labels by design, print the new view's length
//! and digest from the failure message, update both constants, and
//! say so in the changelog.

use mawilab_bench::archive::{
    collect_archive, default_month_days, deterministic_view, ArchiveBenchArgs,
};

/// Byte length of the pinned view.
const VIEW_LEN: usize = 256_299;

/// FNV-1a 64 of the pinned view.
const VIEW_FNV: u64 = 0x42a2_7906_b7a9_7d1d;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
#[ignore = "61-day sweep; run with --release -- --ignored"]
fn cold_month_view_is_pinned() {
    let args = ArchiveBenchArgs {
        days: default_month_days(),
        ..ArchiveBenchArgs::default()
    };
    let view = deterministic_view(&collect_archive(&args));
    let digest = fnv1a(view.as_bytes());
    assert_eq!(
        (view.len(), digest),
        (VIEW_LEN, VIEW_FNV),
        "61-day deterministic_view moved: len {} fnv1a {digest:#018x}",
        view.len()
    );
}
