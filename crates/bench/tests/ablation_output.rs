//! Pins the `ablation` bin's output on one small archive day.
//!
//! `ablation` runs packet, uniflow and biflow granularity and three
//! similarity measures through the production drain, so a change to
//! any labeling stage that is meant to keep results unchanged must
//! leave its stdout and `ablation.csv` byte-identical. This test runs
//! the built binary on `--years 2004:2004 --days 1 --scale 0.25` and
//! compares the FNV-1a 64 of both outputs against pinned constants.
//! The `--out` path in stdout is replaced by a fixed token first, so
//! the digest does not depend on where the test writes.
//!
//! If a change alters the figures by design, print the new digests
//! from the failure message, update both constants, and say so in the
//! changelog.

use std::process::Command;

/// FNV-1a 64 of stdout, with the output directory replaced by `OUT`.
const STDOUT_FNV: u64 = 0xfb36_1712_00bd_9d34;

/// FNV-1a 64 of `ablation.csv`.
const CSV_FNV: u64 = 0xfe7d_31e3_ae2f_a545;

/// FNV-1a, 64-bit (offset basis `0xcbf2_9ce4_8422_2325`, prime
/// `0x100_0000_01b3`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn ablation_stdout_and_csv_are_pinned() {
    let dir = std::env::temp_dir().join(format!("mawilab-ablation-pin-{}", std::process::id()));
    let out_dir = dir.to_str().expect("temp dir is UTF-8");
    let run = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .args(["--years", "2004:2004", "--days", "1", "--scale", "0.25"])
        .args(["--out", out_dir])
        .output()
        .expect("ablation runs");
    assert!(
        run.status.success(),
        "ablation failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout)
        .expect("stdout is UTF-8")
        .replace(out_dir, "OUT");
    let csv = std::fs::read(dir.join("ablation.csv")).expect("ablation.csv written");
    let _ = std::fs::remove_dir_all(&dir);
    let digests = (fnv1a(stdout.as_bytes()), fnv1a(&csv));
    assert_eq!(
        digests,
        (STDOUT_FNV, CSV_FNV),
        "ablation output moved: stdout {:#018x}, csv {:#018x}\n{stdout}",
        digests.0,
        digests.1
    );
}
