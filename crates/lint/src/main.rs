//! `mawilab-lint` — the workspace invariant linter.
//!
//! ```text
//! mawilab-lint [--deny-all] [--root <dir>]
//! ```
//!
//! Lints every tracked `.rs` file under the workspace root against
//! the seven determinism invariants (see the crate docs). With
//! `--deny-all`, any violation exits 2 (the CI mode); without it the
//! report prints but the exit code stays 0 (the local triage mode).
//! Exit 1 is reserved for operational failures (unreadable root).

#![forbid(unsafe_code)]

use mawilab_lint::{check, render, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::from(1);
                }
            },
            "--help" | "-h" => {
                println!("usage: mawilab-lint [--deny-all] [--root <dir>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(1);
            }
        }
    }

    let ws = match Workspace::from_disk(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "mawilab-lint: cannot load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(1);
        }
    };
    let violations = check(&ws);
    if violations.is_empty() {
        println!(
            "mawilab-lint: {} files clean across {} invariant rules",
            ws.files.len(),
            mawilab_lint::rules::RULES.len()
        );
        return ExitCode::SUCCESS;
    }
    print!("{}", render(&violations));
    println!("mawilab-lint: {} violation(s)", violations.len());
    if deny_all {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
