//! Pins the output of every figure and table bin on one small archive
//! day.
//!
//! Each bin labels through the production drain, so a change to any
//! labeling stage that is meant to keep results unchanged must leave
//! every bin's stdout and CSVs byte-identical. This test runs each
//! built binary on `--years 2004:2004 --days 1 --scale 0.25` and
//! compares the FNV-1a 64 of its stdout, and of every file it writes
//! into `--out`, against pinned constants. The `--out` path in stdout
//! is replaced by a fixed token first, so the digest does not depend
//! on where the test writes. `runtime` prints wall-clock timings and
//! is not pinned.
//!
//! If a change alters a figure by design, print the new digests from
//! the failure message, update that bin's row, and say so in the
//! changelog.

use std::path::Path;
use std::process::Command;

/// One pinned bin: its name, its built executable, the FNV-1a 64 of
/// its stdout (output directory replaced by `OUT`) and the FNV-1a 64
/// of each file it writes, in file-name order.
struct Pin {
    bin: &'static str,
    exe: &'static str,
    stdout: u64,
    files: &'static [(&'static str, u64)],
}

const PINS: &[Pin] = &[
    Pin {
        bin: "ablation",
        exe: env!("CARGO_BIN_EXE_ablation"),
        stdout: 0xfb36_1712_00bd_9d34,
        files: &[("ablation.csv", 0xfe7d_31e3_ae2f_a545)],
    },
    Pin {
        bin: "fig3",
        exe: env!("CARGO_BIN_EXE_fig3"),
        stdout: 0x1ca9_d176_b2f8_6e74,
        files: &[
            ("fig3a.csv", 0x3b98_4b00_2bd9_1a2e),
            ("fig3b.csv", 0xed9b_8cfe_cd64_faeb),
            ("fig3c.csv", 0xc57b_eb6f_9faf_9c5c),
            ("fig3d.csv", 0xcbb2_6b7e_78a0_c67e),
        ],
    },
    Pin {
        bin: "fig4",
        exe: env!("CARGO_BIN_EXE_fig4"),
        stdout: 0x2c86_9761_938b_487a,
        files: &[("fig4.csv", 0xa975_1831_0f14_f462)],
    },
    Pin {
        bin: "fig5",
        exe: env!("CARGO_BIN_EXE_fig5"),
        stdout: 0xb08b_c635_fa93_d8c9,
        files: &[("fig5.csv", 0x991c_bc99_63ea_3a3e)],
    },
    Pin {
        bin: "fig6",
        exe: env!("CARGO_BIN_EXE_fig6"),
        stdout: 0x1e78_0cdf_67a8_841a,
        files: &[
            ("fig6a.csv", 0x8ffb_9de0_c61b_1bbd),
            ("fig6b.csv", 0x7843_5486_4e90_63b4),
            ("fig6c.csv", 0xe4b6_0dc8_1ccc_d3db),
        ],
    },
    Pin {
        bin: "fig7",
        exe: env!("CARGO_BIN_EXE_fig7"),
        stdout: 0x9a0c_03f8_4c24_2a75,
        files: &[
            ("fig7a.csv", 0xac8a_ecd2_8091_0073),
            ("fig7b.csv", 0x9171_7e1f_c01b_0c5e),
        ],
    },
    Pin {
        bin: "fig8",
        exe: env!("CARGO_BIN_EXE_fig8"),
        stdout: 0x65be_016a_7111_4111,
        files: &[
            ("fig8a.csv", 0xc4b0_88de_3460_4236),
            ("fig8b.csv", 0xf280_0566_1210_75cd),
            ("fig8c.csv", 0x8f96_b402_a02e_78e8),
        ],
    },
    Pin {
        bin: "fig9",
        exe: env!("CARGO_BIN_EXE_fig9"),
        stdout: 0x982b_282a_b8c3_f248,
        files: &[("fig9.csv", 0xc28a_5165_f043_f8ee)],
    },
    Pin {
        bin: "fig10",
        exe: env!("CARGO_BIN_EXE_fig10"),
        stdout: 0x5a5d_43f8_e38e_22af,
        files: &[("fig10.csv", 0x6a3e_4d41_3238_9158)],
    },
    Pin {
        bin: "headline",
        exe: env!("CARGO_BIN_EXE_headline"),
        stdout: 0x6b25_19ce_b0a4_e6b7,
        files: &[("headline.csv", 0x0896_7cad_8795_365e)],
    },
    Pin {
        bin: "sweep",
        exe: env!("CARGO_BIN_EXE_sweep"),
        stdout: 0xdcd3_a237_da5a_196f,
        files: &[("sweep.csv", 0xbeb9_9d01_7923_7196)],
    },
    Pin {
        bin: "table2",
        exe: env!("CARGO_BIN_EXE_table2"),
        stdout: 0xad3c_71ff_f4d9_7ca8,
        files: &[("table2.csv", 0xb103_c319_8aab_e5f8)],
    },
    Pin {
        bin: "table1",
        exe: env!("CARGO_BIN_EXE_table1"),
        stdout: 0x1091_0230_e6cd_00fa,
        files: &[],
    },
    Pin {
        bin: "condorcet",
        exe: env!("CARGO_BIN_EXE_condorcet"),
        stdout: 0x6bd7_dc3a_41aa_9b33,
        files: &[("condorcet.csv", 0x7081_c07e_34e8_d1dc)],
    },
];

/// FNV-1a, 64-bit (offset basis `0xcbf2_9ce4_8422_2325`, prime
/// `0x100_0000_01b3`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Runs one bin into a fresh directory under `root` and returns the
/// digest of its normalised stdout and of each file it wrote, sorted by
/// file name.
fn digests(pin: &Pin, root: &Path) -> (u64, Vec<(String, u64)>) {
    let dir = root.join(pin.bin);
    let out_dir = dir.to_str().expect("temp dir is UTF-8");
    let run = Command::new(pin.exe)
        .args(["--years", "2004:2004", "--days", "1", "--scale", "0.25"])
        .args(["--out", out_dir])
        .output()
        .unwrap_or_else(|e| panic!("{} runs: {e}", pin.bin));
    assert!(
        run.status.success(),
        "{} failed: {}",
        pin.bin,
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout)
        .expect("stdout is UTF-8")
        .replace(out_dir, "OUT");
    let mut files: Vec<(String, u64)> = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .map(|e| {
                    let path = e.expect("readable entry").path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, fnv1a(&std::fs::read(&path).expect("readable file")))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    (fnv1a(stdout.as_bytes()), files)
}

#[test]
fn figure_and_table_bins_stdout_and_csvs_are_pinned() {
    let root = std::env::temp_dir().join(format!("mawilab-bin-pins-{}", std::process::id()));
    let mut moved = Vec::new();
    for pin in PINS {
        let (stdout, files) = digests(pin, &root);
        let pinned: Vec<(String, u64)> =
            pin.files.iter().map(|&(f, h)| (f.to_string(), h)).collect();
        if stdout != pin.stdout || files != pinned {
            let files: Vec<String> = files
                .iter()
                .map(|(f, h)| format!("(\"{f}\", {h:#018x})"))
                .collect();
            moved.push(format!(
                "{}: stdout {stdout:#018x}, files [{}]",
                pin.bin,
                files.join(", ")
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    assert!(moved.is_empty(), "bin output moved:\n{}", moved.join("\n"));
}
