//! # mawilab-bench
//!
//! Experiment harness regenerating **every table and figure** of the
//! paper's evaluation (one `fig*`/`table*` binary per exhibit; see the
//! README quickstart). Each binary reruns its workload on the
//! simulated archive and prints gnuplot-ready series plus a
//! human-readable summary; `tests/paper_examples.rs` pins the
//! paper's worked examples.
//!
//! The shared pieces live here:
//! * [`cli`] — the tiny flag parser every binary uses
//!   (`--years`, `--days`, `--scale`, `--out`, `--panel`);
//! * [`harness`] — the one archive day runner: every bin labels its
//!   days through the production single-pass `OnlinePipeline`, with
//!   thread-pool parallelism across days;
//! * [`archive`] — the longitudinal label-stability benchmark behind
//!   the `archive` bin (`results/BENCH_archive.json`);
//! * [`out`] — aligned-table printing and CSV emission under
//!   `results/`.

#![forbid(unsafe_code)]

pub mod archive;
pub mod cli;
pub mod harness;
pub mod out;

pub use cli::Args;
pub use harness::{
    peak_rss_kb, run_days, run_days_wrapped, DayContext, DayFailure, NoWrap, SourceWrap,
};
