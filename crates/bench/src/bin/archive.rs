//! Archive-scale longitudinal benchmark: month-scale label stability
//! over the single-pass pipeline.
//!
//! Streams an archive day sample — the curated 2001–2009 default (all
//! three link eras, both worm epochs), or a consecutive month-scale
//! sweep — through `run_days_wrapped`, the day runner every bench bin
//! shares, and writes `results/BENCH_archive.json` with label churn,
//! per-strategy decision flip rates, anomalous-set Jaccard drift, the
//! monthly stability trajectory, era transitions, worm outbreak
//! response and the per-day throughput trajectory.
//!
//! The sweep runs **single-pass**: each day is generated in memory
//! and drained once through the online pipeline from a
//! `TraceChunker` sealed behind a rewind-refusing wrapper. Per-day
//! `wall_s` and `packets_per_s` time that drain alone, generation
//! excluded.
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin archive [-- --scale 1.0 --out results]
//! cargo run --release -p mawilab-bench --bin archive -- --months   # 61-day sweep
//! cargo run --release -p mawilab-bench --bin archive -- --days 30 --from 2006-06-15
//! cargo run --release -p mawilab-bench --bin archive -- --smoke           # tiny CI pass
//! cargo run --release -p mawilab-bench --bin archive -- --smoke --days 6  # month-smoke
//! ```

use mawilab_bench::archive::{
    default_month_days, default_sweep_start, month_sweep_days, run_archive_bench,
    smoke_archive_days, ArchiveBenchArgs,
};
use mawilab_model::TraceDate;

fn parse_date(s: &str) -> TraceDate {
    let parts: Vec<u16> = s.split('-').filter_map(|p| p.parse().ok()).collect();
    assert!(parts.len() == 3, "bad date `{s}`, expected YYYY-MM-DD");
    // Range-check before narrowing: `333 as u8` must not silently
    // wrap into a plausible month/day.
    assert!(
        (1..=12).contains(&parts[1]) && (1..=31).contains(&parts[2]),
        "bad date `{s}`: month/day out of range"
    );
    let date = TraceDate::new(parts[0], parts[1] as u8, parts[2] as u8);
    // Reject non-existent calendar dates (2006-02-31 would otherwise
    // silently normalise to 2006-03-03 in the day arithmetic, and the
    // sweep would start on a different day than requested).
    assert_eq!(
        TraceDate::from_days_since_epoch(date.days_since_epoch()),
        date,
        "bad date `{s}`: not a real calendar date"
    );
    date
}

fn main() {
    let mut args = ArchiveBenchArgs::default();
    let mut smoke = false;
    let mut scale_set = false;
    let mut sweep_days: Option<usize> = None;
    let mut months = false;
    let mut from: Option<TraceDate> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                args.scale = it.next().and_then(|v| v.parse().ok()).expect("bad --scale");
                scale_set = true;
            }
            "--chunk-us" => {
                args.chunk_us = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("bad --chunk-us")
            }
            "--out" => args.out_dir = it.next().expect("bad --out"),
            "--days" => {
                sweep_days = Some(it.next().and_then(|v| v.parse().ok()).expect("bad --days"))
            }
            "--months" => months = true,
            "--from" => from = Some(parse_date(&it.next().expect("bad --from"))),
            "--smoke" => smoke = true,
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    // Day sample precedence: an explicit consecutive sweep (--days N /
    // --months) wins; plain --smoke falls back to the three-onset-day
    // sample. Flag order is irrelevant. `--from` only parameterises a
    // `--days` sweep — refuse to silently run a different sample than
    // the caller asked for.
    if months {
        assert!(
            from.is_none(),
            "--months runs the fixed June–July 2006 sweep; use --days N --from D instead"
        );
        args.days = default_month_days();
    } else if let Some(n) = sweep_days {
        assert!(n >= 2, "--days needs at least 2 days");
        args.days = month_sweep_days(from.unwrap_or_else(default_sweep_start), n);
    } else {
        assert!(from.is_none(), "--from requires --days N");
        if smoke {
            args.days = smoke_archive_days();
        }
    }
    if smoke && !scale_set {
        // Seconds-scale CI pass at low volume unless the caller picked
        // a scale explicitly.
        args.scale = 0.25;
    }
    let json = run_archive_bench(&args);
    println!("{json}");
}
