//! `perfbench`: the MAWILab labeler's benchmark harness.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --reps K --work DIR --out DIR
//! ```
//!
//! Pins `MAWILAB_THREADS` to the workload's setting, generates the
//! inputs `--reps` times (setup), runs whole interleaved passes of ops
//! for at least `--seconds`, checks every op against its oracle, and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics (`--trace 0`) or the traced per-layer metrics
//! (`--trace 1`, see [`profile`]). `--work` receives scratch files
//! (pcap-day's pcap), `--out` the traced run's spans and profile.
//! `run.py` builds this binary and drives it.

mod calib;
mod host;
mod inputs;
mod ops;
mod profile;
mod spans;
mod stats;
mod traced;

use inputs::Workload;
use mawilab_core::OnlinePipeline;
use ops::Inputs;
use stats::{median, quantile};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    work: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {k}"))?;
        let v = it.next().ok_or(format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        let v = get(k)?;
        v.parse::<f64>()
            .map_err(|_| format!("--{k}: not a number: {v}"))
    };
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("seed")?.parse().map_err(|_| "--seed: not an integer")?,
        seconds: num("seconds")?.max(0.0),
        trace: num("trace")? != 0.0,
        reps: num("reps")?.max(1.0) as usize,
        work: PathBuf::from(get("work")?),
        out: PathBuf::from(get("out")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pinned before any fan-out runs; no other thread exists yet.
    host::set_threads(inputs::THREADS);
    let run = || -> Result<(), String> {
        for dir in [&args.work, &args.out] {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let (mut inputs, setup_walls) =
            ops::setup(args.workload, args.seed, args.reps, &args.work)?;
        let pipeline = OnlinePipeline::new(inputs::pipeline_config());
        if args.trace {
            profile::measure_traced(&args, &mut inputs, &pipeline)
        } else {
            measure(&args, &mut inputs, &pipeline, &setup_walls)
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The host record every result carries.
fn host_record(steal_delta_s: Option<f64>) -> String {
    format!(
        "\"nproc\": {}, \"mawilab_threads\": {}, \"steal_delta_s\": {}",
        host::nproc(),
        inputs::THREADS,
        steal_delta_s.map_or("null".into(), |s| s.to_string())
    )
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// `"name": {"value": v, "unit": "u"}` entries of `metrics`.
fn metric_entries(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect()
}

/// The result line: the last line of standard output.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metric_entries(metrics).join(", ")
    )
}

/// The end-to-end run (`--trace 0`).
fn measure(
    args: &Args,
    inputs: &mut Inputs,
    pipeline: &OnlinePipeline,
    setup_walls: &[(f64, f64)],
) -> Result<(), String> {
    // Held input only: freed setup memory goes back to the kernel, so
    // the peak counts live data and what the ops add to it.
    host::trim_heap();
    let rss_base = host::rss_mb();
    let peak_reset = host::reset_peak_rss();
    // One untimed warm-up op lets allocator and caches settle, except on
    // pcap-day, whose single op is a whole pass.
    if inputs.len() > 1 {
        ops::run_op(inputs, pipeline, 0, None);
    }
    let mut reference = calib::Reference::new();
    let steal0 = host::steal_s();
    // lint:allow(no-wall-clock-in-kernels): the benchmark's run clock, outside the measured program
    let start = Instant::now();
    // (input, raw wall, wall at the reference host speed, outcome)
    let mut samples: Vec<(usize, f64, f64, ops::Outcome)> = Vec::new();
    let mut refs: Vec<f64> = Vec::new();
    let mut before = reference.bracket(0.0);
    let mut passes = 0;
    // Whole passes only: every input is visited equally often, so the
    // sample mix is the same in every run. Each op is normalized by the
    // reference samples of the brackets on either side of it and those
    // taken inside it.
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for i in 0..inputs.len() {
            let (wall, inside, outcome) = ops::run_op(inputs, pipeline, i, Some(&mut reference));
            let after = reference.bracket(wall);
            let around: Vec<f64> = before
                .iter()
                .chain(&inside)
                .chain(&after)
                .copied()
                .collect();
            samples.push((i, wall, calib::normalize(wall, &around), outcome));
            refs.extend(before.iter().chain(&inside));
            before = after;
        }
        passes += 1;
    }
    refs.extend(&before);
    let timed_s = start.elapsed().as_secs_f64();
    let steal_delta = steal0.zip(host::steal_s()).map(|(a, b)| b - a);
    let peak = rss_base.zip(host::peak_rss_mb().filter(|_| peak_reset));

    let (expected, _) = ops::oracles(inputs);
    let failed = samples
        .iter()
        .filter(|(i, _, _, o)| *o != expected[*i])
        .count();

    // Throughput and the median op from per-input median walls: a
    // contended stretch inflates a few samples, which the per-op median
    // drops where a single total would absorb them. The median op is the
    // median of the per-input medians, not of all samples: inputs'
    // walls are spread, and with an even input count the median sample
    // falls on the gap between two inputs, where it takes the slowest
    // sample of one or the fastest of the other.
    let units: u64 = (0..inputs.len()).map(|i| inputs.units(i)).sum();
    let input_medians = |wall: fn(&(usize, f64, f64, ops::Outcome)) -> f64| {
        let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
        for s in &samples {
            per_input[s.0].push(wall(s));
        }
        per_input.iter().map(|w| median(w)).collect::<Vec<f64>>()
    };
    let medians = input_medians(|s| s.2);
    let raw_medians = input_medians(|s| s.1);
    let throughput = |m: &[f64]| units as f64 / m.iter().sum::<f64>();
    let walls: Vec<f64> = samples.iter().map(|s| s.2).collect();
    let raw_walls: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let setup_norm: Vec<f64> = setup_walls.iter().map(|w| w.1).collect();
    let setup_raw: Vec<f64> = setup_walls.iter().map(|w| w.0).collect();
    let metrics = [
        metric("throughput_per_s", throughput(&medians), "1/s"),
        metric("op_p50_s", median(&medians), "s"),
        metric("op_p90_s", quantile(&walls, 0.9), "s"),
        metric("peak_rss_mb", peak.map_or(0.0, |(_, peak)| peak), "MB"),
        metric("setup_s", median(&setup_norm), "s"),
        metric(
            "ok_share",
            (samples.len() - failed) as f64 / samples.len() as f64,
            "share",
        ),
    ];
    let beyond_p90 = walls.iter().filter(|&&w| w > quantile(&walls, 0.9)).count();
    println!(
        "detail {{\"workload\": \"{}\", \"seed\": {}, \"trace\": 0, {}, \"work_unit\": \"{}\", \
         \"ops\": {}, \"passes\": {passes}, \"inputs\": {}, \"op_p90_samples_beyond\": {beyond_p90}, \
         \"timed_s\": {timed_s}, \"held_input_rss_mb\": {}, \"ops_rss_above_held_mb\": {}, \"reference_sample_s\": {}, \
         \"raw_throughput_per_s\": {}, \"raw_op_p50_s\": {}, \"raw_op_p90_s\": {}, \
         \"raw_setup_s\": {}, \"setup_reps_s\": {setup_norm:?}}}",
        args.workload.name(),
        args.seed,
        host_record(steal_delta),
        args.workload.unit(),
        samples.len(),
        inputs.len(),
        rss_base.unwrap_or(0.0),
        peak.map_or(0.0, |(base, peak)| peak - base),
        median(&refs),
        throughput(&raw_medians),
        median(&raw_medians),
        quantile(&raw_walls, 0.9),
        median(&setup_raw),
    );
    println!(
        "{}",
        result_json(failed == 0, samples.len(), failed, &metrics)
    );
    Ok(())
}
