//! The traced run (`--trace 1`): per-layer metrics and self-checks.
//!
//! Each pass visits every input twice, untraced and traced in
//! alternating order, so the tracing overhead is the gap between two
//! interleaved samples rather than between two runs. Time metrics are per-op self seconds, as the
//! median over traced ops; counts are totals over one pass.
//!
//! Self-checks, each failing the run:
//! * every traced op returns what the untraced op on the same input
//!   returned (the trace measures the production program);
//! * per-layer counts repeat exactly between passes, in one more pass at
//!   `MAWILAB_THREADS=2` (which also measures the `exec` fan-out), and
//!   across runs of one build.

use crate::inputs::{FANOUT_THREADS, THREADS};
use crate::ops::{self, Inputs};
use crate::stats::median;
use crate::traced::{add_counts, Counts, Tracer, SPAN_METRICS};
use crate::{host, host_record, metric, metric_entries, result_json, Args, Metric};
use mawilab_core::OnlinePipeline;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

/// Per-layer metric names and units, in report order.
fn per_layer_names(stems: &[String]) -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for s in stems {
        v.push((format!("detectors.{s}.observe_s"), "s"));
        v.push((format!("detectors.{s}.finish_s"), "s"));
    }
    let times = SPAN_METRICS.iter().map(|&(_, m)| m).chain([
        "similarity.extract_traffic_s",
        "core.match_s",
        "trace.op_wall_s",
    ]);
    v.extend(times.map(|m| (m.to_string(), "s")));
    v.push(("trace.overhead_share".into(), "share"));
    v.push(("detectors.observe_parallelism".into(), "ratio"));
    v.push(("exec.two_thread_speedup".into(), "ratio"));
    v.push(("similarity.matched_unit_share".into(), "share"));
    v.push(("core.match_share".into(), "share"));
    let counts = ["model.packets", "model.items", "model.pcap_skipped"]
        .map(String::from)
        .into_iter()
        .chain(stems.iter().map(|s| format!("detectors.{s}.alarms")))
        .chain(
            [
                "similarity.horizon_retired_records",
                "similarity.horizon_fresh_records",
                "similarity.matched_units",
                "similarity.graph_edges",
                "graph.communities",
                "combiner.accepted",
                "label.tier_anomalous",
                "label.tier_uncertain",
                "label.tier_benign",
                "core.intersections",
                "core.hits",
            ]
            .map(String::from),
        );
    v.extend(counts.map(|m| (m, "count")));
    v
}

/// FNV-1a of this executable: counts one build records must repeat
/// exactly in every later run of that build.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let bytes = fs::read(exe).map_err(|e| format!("read executable: {e}"))?;
    Ok(crate::inputs::fnv1a(&bytes))
}

/// Per-op self seconds of each time metric, over every traced op so
/// far: labeling ops from the span tree, scoring ops from the
/// `benchmark_alarms` span split by its extraction probe.
fn per_op_times(tracer: &Tracer, scoring: bool) -> BTreeMap<String, Vec<f64>> {
    let names = tracer.rec.names();
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    if scoring {
        let mut by_op: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
        for s in &tracer.rec.spans {
            let d = s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
            let e = by_op.entry(s.op).or_default();
            if names[s.name as usize] == "similarity.extract_traffic" {
                e.0 = d;
            } else {
                e.1 = d;
            }
        }
        for &(probe, call) in by_op.values() {
            out.entry("similarity.extract_traffic_s".into())
                .or_default()
                .push(probe);
            out.entry("core.match_s".into())
                .or_default()
                .push(call - probe);
        }
        return out;
    }
    // Span name → metric: the fixed table plus each configuration's
    // `detectors.<cfg>.observe` / `.finish`.
    let fixed: HashMap<&str, &str> = SPAN_METRICS.iter().copied().collect();
    let metric_of: Vec<Option<String>> = names
        .iter()
        .map(|n| match fixed.get(n.as_str()) {
            Some(m) => Some(m.to_string()),
            None if n.starts_with("detectors.") => Some(format!("{n}_s")),
            None => None,
        })
        .collect();
    let all: Vec<&String> = metric_of.iter().flatten().collect();
    for by_name in tracer.rec.self_times().values() {
        let mut row: HashMap<&str, f64> = HashMap::new();
        for (&id, &s) in by_name {
            if let Some(m) = &metric_of[id as usize] {
                *row.entry(m).or_default() += s;
            }
        }
        for m in &all {
            out.entry(m.to_string())
                .or_default()
                .push(row.get(m.as_str()).copied().unwrap_or(0.0));
        }
    }
    out
}

/// The traced run.
pub fn measure_traced(
    args: &Args,
    inputs: &mut Inputs,
    pipeline: &OnlinePipeline,
) -> Result<(), String> {
    let mut tracer = Tracer::new(crate::inputs::pipeline_config());
    let scoring = matches!(inputs, Inputs::Scoring(_));
    let mut problems: Vec<String> = Vec::new();
    let steal0 = host::steal_s();
    // lint:allow(no-wall-clock-in-kernels): the benchmark's run clock, outside the measured program
    let start = Instant::now();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut outcomes: Vec<(usize, ops::Outcome)> = Vec::new();
    let mut first_pass: Vec<Counts> = Vec::new();
    let (mut passes, mut op) = (0, 0u32);
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for i in 0..inputs.len() {
            // Alternate which of the pair runs first, so neither side
            // always finds the input warm in cache.
            let first = ((passes + i) % 2 == 0).then(|| ops::run_op(inputs, pipeline, i, None));
            let (traced, counts, traced_wall) = ops::traced_op(&mut tracer, inputs, i, op);
            op += 1;
            let (wall, _, plain) = first.unwrap_or_else(|| ops::run_op(inputs, pipeline, i, None));
            untraced_walls.push(wall);
            traced_walls.push(traced_wall);
            if traced != plain {
                problems.push(format!(
                    "input {i}: traced op returned {traced:?}, untraced {plain:?}"
                ));
            }
            if passes == 0 {
                first_pass.push(counts);
            } else if counts != first_pass[i] {
                problems.push(format!("input {i}: counts differ between passes"));
            }
            outcomes.push((i, plain));
            outcomes.push((i, traced));
        }
        passes += 1;
    }
    let timed_s = start.elapsed().as_secs_f64();
    let steal_delta = steal0.zip(host::steal_s()).map(|(a, b)| b - a);
    let spans_main = tracer.rec.spans.len();
    let times = per_op_times(&tracer, scoring);

    // One more traced pass with the fan-out on: it measures what a
    // second thread buys, and every count must match the first pass.
    host::set_threads(FANOUT_THREADS);
    let mut fanout_walls = Vec::new();
    for (i, expected) in first_pass.iter().enumerate() {
        let (traced, counts, wall) = ops::traced_op(&mut tracer, inputs, i, op);
        op += 1;
        fanout_walls.push(wall);
        if counts != *expected {
            problems.push(format!(
                "input {i}: counts differ at MAWILAB_THREADS={FANOUT_THREADS}"
            ));
        }
        outcomes.push((i, traced));
    }
    host::set_threads(THREADS);
    let observe_all = tracer.rec.name("detectors.observe_all");
    let (busy, cover) = tracer.rec.child_busy_and_cover_s(spans_main, observe_all);

    let (expected, mut counts) = ops::oracles(inputs);
    let failed = outcomes.iter().filter(|(i, o)| *o != expected[*i]).count();
    for c in &first_pass {
        add_counts(&mut counts, c);
    }
    let rendered: String = counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let counts_file = args
        .out
        .join(format!("counts-{stem}-{:016x}.txt", build_id()?));
    match fs::read_to_string(&counts_file) {
        Ok(prev) if prev != rendered => {
            problems.push("counts differ from an earlier run of this build".into())
        }
        Ok(_) => {}
        Err(_) => fs::write(&counts_file, &rendered).map_err(|e| format!("write counts: {e}"))?,
    }

    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let op_wall = median(&traced_walls);
    let mut values: HashMap<String, f64> =
        times.iter().map(|(k, v)| (k.clone(), median(v))).collect();
    values.insert("trace.op_wall_s".into(), op_wall);
    values.insert(
        "trace.overhead_share".into(),
        op_wall / median(&untraced_walls) - 1.0,
    );
    values.insert("detectors.observe_parallelism".into(), busy / cover);
    values.insert(
        "exec.two_thread_speedup".into(),
        op_wall / median(&fanout_walls),
    );
    values.insert(
        "similarity.matched_unit_share".into(),
        count("similarity.matched_units") / count("model.items"),
    );
    values.insert(
        "core.match_share".into(),
        count("core.hits") / count("core.intersections"),
    );
    let metrics: Vec<Metric> = per_layer_names(&tracer.stems)
        .into_iter()
        .map(|(name, unit)| {
            let v = if unit == "count" {
                count(&name)
            } else {
                values.get(&name).copied().unwrap_or(0.0)
            };
            metric(name, v, unit)
        })
        .collect();

    // Spans and the profile are written once the run is over.
    let names = tracer.rec.names();
    let mut tsv = String::from("op\tname\tparent\tstart_ns\tend_ns\n");
    for s in &tracer.rec.spans[..spans_main] {
        let parent = if s.parent == crate::spans::ROOT {
            -1
        } else {
            s.parent as i64
        };
        let _ = writeln!(
            tsv,
            "{}\t{}\t{parent}\t{}\t{}",
            s.op, names[s.name as usize], s.start_ns, s.end_ns
        );
    }
    fs::write(args.out.join(format!("spans-{stem}.tsv")), tsv)
        .map_err(|e| format!("write spans: {e}"))?;
    let detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": 1, {}, \"traced_ops\": {}, \"untraced_ops\": {}, \
         \"passes\": {passes}, \"timed_s\": {timed_s}, \"spans\": {spans_main}, \"untraced_op_p50_s\": {}, \
         \"self_check_problems\": {problems:?}}}",
        args.workload.name(),
        args.seed,
        host_record(steal_delta),
        traced_walls.len(),
        untraced_walls.len(),
        median(&untraced_walls),
    );
    let profile = format!(
        "{{\n  \"run\": {detail},\n  \"metrics\": {{\n    {}\n  }}\n}}\n",
        metric_entries(&metrics).join(",\n    ")
    );
    fs::write(args.out.join(format!("profile-{stem}.json")), profile)
        .map_err(|e| format!("write profile: {e}"))?;
    println!("detail {detail}");
    if !problems.is_empty() {
        return Err(format!("trace self-check failed: {}", problems.join("; ")));
    }
    let attempted = outcomes.len();
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(())
}
