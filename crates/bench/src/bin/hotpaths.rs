//! Hot-path trajectory benchmark: every optimized kernel measured
//! against its retained seed implementation.
//!
//! Writes `results/BENCH_hotpaths.json` with five sections:
//!
//! * `similarity_graph` — the criterion bench workload, built with
//!   the retained sequential reference (`build_graph_sequential`,
//!   byte-for-byte the seed algorithm) and with the sharded engine at
//!   a sweep of `MAWILAB_THREADS` settings;
//! * `louvain` — the criterion bench graphs under the CSR engine at a
//!   thread sweep, alongside the seed-commit criterion medians;
//! * `extract` — traffic extraction through the inverted `AlarmIndex`
//!   vs the seed per-alarm scan (`extract_traffic_sequential`);
//! * `mining` — FP-growth vs modified Apriori on large transaction
//!   sets;
//! * `pipeline` — the end-to-end criterion trace, alongside the seed
//!   median.
//!
//! Seed numbers marked `seed_criterion_us` were measured by running
//! the criterion benches at the pre-refactor commit (recorded in the
//! JSON) on the same container; the `*_reference_us` numbers are the
//! retained seed algorithms measured live in the same process.
//!
//! `--scaling` runs the worker-scaling study instead: the parallel
//! stages (sharded graph build, CSR Louvain, the inverted extraction
//! index, the single-pass online pipeline end to end) at worker
//! counts 1→N, reporting per-stage speedup and parallel efficiency
//! (`t1 / (k · tk)`) into `results/BENCH_scaling.json`.
//!
//! `--smoke` shrinks every workload to CI size: same sections, same
//! JSON shape, seconds instead of minutes.
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin hotpaths [-- --out results] [--smoke]
//! cargo run --release -p mawilab-bench --bin hotpaths -- --scaling [--max-workers 8]
//! ```

use mawilab_core::{MawilabPipeline, OnlinePipeline, PipelineConfig};
use mawilab_detectors::{Alarm, AlarmScope, DetectorKind, TraceView, Tuning};
use mawilab_graph::{louvain, Graph};
use mawilab_mining::{apriori, fp_growth, Transaction};
use mawilab_model::{
    FlowKey, FlowTable, Granularity, Packet, Protocol, TcpFlags, TimeWindow, Trace, TraceChunker,
    TraceDate, TraceMeta, TrafficRule, DEFAULT_CHUNK_US,
};
use mawilab_similarity::{extract_traffic, extract_traffic_sequential, SimilarityEstimator};
use mawilab_synth::{SynthConfig, TraceGenerator};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Commit the `seed_*` medians below were measured at (criterion
/// benches, same container).
const SEED_COMMIT: &str = "8d22ca9 (PR 2)";

/// Criterion medians at the seed commit, microseconds.
const SEED_SIMILARITY_GRAPH_US: [(usize, f64); 2] = [(200, 1_630.0), (1000, 9_700.0)];
const SEED_LOUVAIN_US: [(usize, f64); 2] = [(500, 71.2), (2000, 372.9)];
const SEED_PIPELINE_US: f64 = 129_260.0;

/// Same workload as the `similarity_graph` criterion bench: groups of
/// ~6 alarms sharing most of their items.
fn alarm_sets(n: usize) -> Vec<Vec<u32>> {
    let mut state = 11u64;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as u32
    };
    (0..n)
        .map(|i| {
            let group = (i / 6) as u32;
            let base = group * 400;
            let mut set: Vec<u32> = (0..80).map(|_| base + rnd() % 300).collect();
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect()
}

/// Same graph shape as the `louvain` criterion bench: clique-ish
/// communities of ~8 over 60% of the nodes, the rest isolated.
fn similarity_like(n: usize) -> Graph {
    let mut g = Graph::new(n);
    let clustered = n * 6 / 10;
    let mut state = 7u64;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize
    };
    let comm_size = 8;
    for start in (0..clustered).step_by(comm_size) {
        let end = (start + comm_size).min(clustered);
        for i in start..end {
            for j in (i + 1)..end {
                if rnd() % 10 < 7 {
                    g.add_edge(i, j, ((rnd() % 90) + 10) as f64 / 100.0);
                }
            }
        }
    }
    g
}

/// Pool-driven trace + mixed-scope alarms for the extraction kernels:
/// packets drawn from a pool of `n_flows` flows (archive traffic runs
/// ~5 packets per item) over small endpoint pools, so the alarms
/// genuinely claim a sizeable share of the traffic; scope kinds cover
/// every `AlarmIndex` bucket (host hashes, selective rules, flow
/// sets). `n_flows == n_packets` is the index's worst case — every
/// packet pays a full per-flow candidate resolution.
fn extraction_workload(n_packets: usize, n_flows: usize, n_alarms: usize) -> (Trace, Vec<Alarm>) {
    let meta = TraceMeta::standard(TraceDate::new(2004, 6, 2));
    let w = meta.window();
    let span = w.end_us - w.start_us;
    let mut state = 3u64;
    let mut rnd = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) % m
    };
    let flow_pool: Vec<(Ipv4Addr, Ipv4Addr, u16, u16, Protocol)> = (0..n_flows)
        .map(|_| {
            (
                Ipv4Addr::new(10, 1, rnd(4) as u8, rnd(16) as u8),
                Ipv4Addr::new(10, 2, rnd(2) as u8, rnd(16) as u8),
                1024 + rnd(512) as u16,
                [80, 445, 53, 8080, 123, 22, 25, 443][rnd(8) as usize],
                if rnd(10) < 8 {
                    Protocol::Tcp
                } else {
                    Protocol::Udp
                },
            )
        })
        .collect();
    let packets: Vec<Packet> = (0..n_packets)
        .map(|i| {
            // Mild skew: a few heavy flows, a long tail.
            let f = flow_pool[(rnd(n_flows as u64).min(rnd(n_flows as u64))) as usize];
            Packet {
                ts_us: w.start_us + i as u64 * (span / n_packets as u64),
                src: f.0,
                dst: f.1,
                sport: f.2,
                dport: f.3,
                len: 40 + rnd(1400) as u16,
                proto: f.4,
                flags: if f.4 == Protocol::Tcp {
                    TcpFlags::syn()
                } else {
                    TcpFlags::empty()
                },
            }
        })
        .collect();
    let alarms: Vec<Alarm> = (0..n_alarms)
        .map(|_| {
            let start = w.start_us + rnd(span * 3 / 4);
            let window = TimeWindow::new(start, (start + span / 8 + rnd(span / 8)).min(w.end_us));
            let scope = match rnd(20) {
                0..=7 => AlarmScope::SrcHost(Ipv4Addr::new(10, 1, rnd(4) as u8, rnd(16) as u8)),
                8..=12 => AlarmScope::DstHost(Ipv4Addr::new(10, 2, rnd(2) as u8, rnd(16) as u8)),
                13..=16 => AlarmScope::Rule(TrafficRule {
                    dport: Some([80, 445, 53, 8080][rnd(4) as usize]),
                    ..Default::default()
                }),
                17 | 18 => AlarmScope::Rule(TrafficRule {
                    src: Some(Ipv4Addr::new(10, 1, rnd(4) as u8, rnd(16) as u8)),
                    sport: Some(1024 + rnd(512) as u16),
                    ..Default::default()
                }),
                _ => AlarmScope::FlowSet(
                    (0..3)
                        .map(|_| FlowKey::of(&packets[rnd(n_packets as u64) as usize]))
                        .collect(),
                ),
            };
            Alarm {
                detector: DetectorKind::Pca,
                tuning: Tuning::Optimal,
                window,
                scope,
                score: 1.0,
            }
        })
        .collect();
    (Trace::new(meta, packets), alarms)
}

/// Community-like transaction mix for the mining kernels: every field
/// drawn from a ~12-value pool, so at low support thresholds dozens of
/// items stay frequent and Apriori's candidate × transaction rescans
/// dominate — the regime the FP-growth cutover exists for.
fn mining_workload(n: usize) -> Vec<Transaction> {
    let mut state = 29u64;
    let mut rnd = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) % m
    };
    (0..n)
        .map(|_| {
            Transaction::new(
                Ipv4Addr::new(10, 1, 0, rnd(12) as u8),
                1024 + rnd(12) as u16,
                Ipv4Addr::new(10, 2, 0, rnd(12) as u8),
                [80, 445, 53, 8080, 123, 22, 25, 443, 8443, 3306, 6667, 179][rnd(12) as usize],
            )
        })
        .collect()
}

/// Median wall-clock of `iters` runs of `f`, in microseconds.
fn median_us<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    // One warm-up.
    f();
    let mut samples: Vec<Duration> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    std::env::set_var("MAWILAB_THREADS", threads.to_string());
    let r = f();
    std::env::remove_var("MAWILAB_THREADS");
    r
}

/// One stage of the `--scaling` study: a name and a closure timed at
/// each worker count.
struct ScalingStage<'a> {
    name: &'static str,
    iters: usize,
    run: Box<dyn FnMut() + 'a>,
}

/// Worker-scaling study: every parallel stage at 1→`max_workers`
/// workers, with per-stage speedup (`t1/tk`) and parallel efficiency
/// (`t1 / (k · tk)`). Efficiency is the honest number — a stage whose
/// speedup plateaus shows efficiency collapsing as k grows.
fn run_scaling(out_dir: &str, max_workers: usize) {
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers: Vec<usize> = (0..)
        .map(|i| 1usize << i)
        .take_while(|&k| k <= max_workers)
        .collect();
    let est = SimilarityEstimator::default();
    let sets = alarm_sets(1000);
    let g = similarity_like(2000);
    let (ex_trace, ex_alarms) = extraction_workload(20_000, 4_000, 150);
    let ex_flows = FlowTable::build(&ex_trace.packets);
    let ex_view = TraceView::new(&ex_trace, &ex_flows);
    let lt = TraceGenerator::new(SynthConfig::default().with_seed(77)).generate();
    let online = OnlinePipeline::new(PipelineConfig::default());

    let stages: Vec<ScalingStage> = vec![
        ScalingStage {
            name: "similarity_graph",
            iters: 30,
            run: Box::new(|| drop(black_box(est.build_graph(black_box(&sets))))),
        },
        ScalingStage {
            name: "louvain",
            iters: 30,
            run: Box::new(|| drop(black_box(louvain(black_box(&g), 1.0)))),
        },
        ScalingStage {
            name: "extraction_index",
            iters: 20,
            run: Box::new(|| {
                drop(black_box(extract_traffic(
                    black_box(&ex_view),
                    black_box(&ex_alarms),
                    Granularity::Uniflow,
                )))
            }),
        },
        ScalingStage {
            name: "online_pipeline",
            iters: 3,
            run: Box::new(|| {
                let mut source = TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US);
                drop(black_box(online.run(&mut source).expect("online run")));
            }),
        },
    ];

    let mut rows: Vec<String> = Vec::new();
    for mut stage in stages {
        let mut t1_us = 0.0f64;
        let cells: Vec<String> = workers
            .iter()
            .map(|&k| {
                let us = with_threads(k, || median_us(stage.iters, &mut stage.run));
                if k == 1 {
                    t1_us = us;
                }
                let speedup = t1_us / us.max(1e-9);
                let efficiency = speedup / k as f64;
                eprintln!(
                    "{}/{k}: {us:.0}us speedup {speedup:.2} efficiency {efficiency:.2}",
                    stage.name
                );
                format!(
                    "      {{\"workers\": {k}, \"median_us\": {us:.1}, \
                     \"speedup\": {speedup:.3}, \"efficiency\": {efficiency:.3}}}"
                )
            })
            .collect();
        rows.push(format!(
            "    {{\"stage\": \"{}\", \"points\": [\n{}\n    ]}}",
            stage.name,
            cells.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"generated_by\": \"cargo run --release -p mawilab-bench --bin hotpaths -- --scaling\",\n  \
         \"hardware_threads\": {hardware},\n  \
         \"note\": \"workers sweep via MAWILAB_THREADS; efficiency = t1/(k*tk); counts above \
         hardware_threads only add fan-out overhead\",\n  \
         \"stages\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    std::fs::create_dir_all(out_dir).expect("creating out dir");
    let path = format!("{out_dir}/BENCH_scaling.json");
    std::fs::write(&path, &json).expect("writing BENCH_scaling.json");
    println!("{json}");
    eprintln!("wrote {path}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = argv
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "results".into());
    if argv.iter().any(|a| a == "--scaling") {
        let max_workers = argv
            .windows(2)
            .find(|w| w[0] == "--max-workers")
            .and_then(|w| w[1].parse().ok())
            .unwrap_or(8);
        run_scaling(&out_dir, max_workers);
        return;
    }
    let smoke = argv.iter().any(|a| a == "--smoke");
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads_sweep = [1usize, 2, 4, 8];
    let est = SimilarityEstimator::default();

    // Sharded graph build vs the sequential reference.
    let mut sim_rows: Vec<String> = Vec::new();
    for (n, seed_us) in SEED_SIMILARITY_GRAPH_US {
        if smoke && n > 200 {
            continue;
        }
        let sets = alarm_sets(n);
        let iters = if smoke {
            5
        } else if n >= 1000 {
            30
        } else {
            100
        };
        let sequential = median_us(iters, || {
            drop(black_box(est.build_graph_sequential(black_box(&sets))))
        });
        let sharded: Vec<String> = threads_sweep
            .iter()
            .map(|&t| {
                let us = with_threads(t, || {
                    median_us(iters, || drop(black_box(est.build_graph(black_box(&sets)))))
                });
                format!("\"{t}\": {us:.1}")
            })
            .collect();
        eprintln!(
            "similarity_graph/{n}: seq {sequential:.0}us, sharded {}",
            sharded.join(" ")
        );
        sim_rows.push(format!(
            "    {{\"n\": {n}, \"seed_criterion_us\": {seed_us}, \"sequential_reference_us\": {sequential:.1}, \
             \"sharded_us_by_threads\": {{{}}}}}",
            sharded.join(", ")
        ));
    }

    // CSR Louvain.
    let mut louvain_rows: Vec<String> = Vec::new();
    for (n, seed_us) in SEED_LOUVAIN_US {
        if smoke && n > 500 {
            continue;
        }
        let g = similarity_like(n);
        let iters = if smoke {
            5
        } else if n >= 2000 {
            30
        } else {
            100
        };
        let csr: Vec<String> = [1usize, 4]
            .iter()
            .map(|&t| {
                let us = with_threads(t, || {
                    median_us(iters, || drop(black_box(louvain(black_box(&g), 1.0))))
                });
                format!("\"{t}\": {us:.1}")
            })
            .collect();
        eprintln!("louvain/{n}: csr {}", csr.join(" "));
        louvain_rows.push(format!(
            "    {{\"n\": {n}, \"seed_criterion_us\": {seed_us}, \"csr_us_by_threads\": {{{}}}}}",
            csr.join(", ")
        ));
    }

    // Traffic extraction: inverted AlarmIndex vs the seed per-alarm
    // scan, on pool-driven traces with mixed-scope alarm sets. The
    // last case is the index's worst regime — one packet per flow, so
    // candidate resolution amortizes over nothing.
    let extract_cases: &[(usize, usize, usize)] = if smoke {
        &[(2_000, 400, 40)]
    } else {
        &[
            (20_000, 4_000, 150),
            (60_000, 12_000, 300),
            (60_000, 60_000, 300),
        ]
    };
    let mut extract_rows: Vec<String> = Vec::new();
    for &(n_packets, n_flows, n_alarms) in extract_cases {
        let (trace, alarms) = extraction_workload(n_packets, n_flows, n_alarms);
        let flows = FlowTable::build(&trace.packets);
        let view = TraceView::new(&trace, &flows);
        let iters = if smoke { 3 } else { 5 };
        let sequential = median_us(iters, || {
            drop(black_box(extract_traffic_sequential(
                black_box(&view),
                black_box(&alarms),
                Granularity::Uniflow,
            )))
        });
        let indexed: Vec<String> = threads_sweep
            .iter()
            .map(|&t| {
                let us = with_threads(t, || {
                    median_us(iters, || {
                        drop(black_box(extract_traffic(
                            black_box(&view),
                            black_box(&alarms),
                            Granularity::Uniflow,
                        )))
                    })
                });
                format!("\"{t}\": {us:.1}")
            })
            .collect();
        let distinct_flows = flows.uniflow_count();
        eprintln!(
            "extract/{n_packets}p/{distinct_flows}f/{n_alarms}a: seq {sequential:.0}us, indexed {}",
            indexed.join(" ")
        );
        extract_rows.push(format!(
            "    {{\"packets\": {n_packets}, \"flows\": {distinct_flows}, \"alarms\": {n_alarms}, \
             \"sequential_reference_us\": {sequential:.1}, \"indexed_us_by_threads\": {{{}}}}}",
            indexed.join(", ")
        ));
    }

    // Mining: FP-growth vs modified Apriori on large transaction
    // sets, at the paper's threshold and at a low one where Apriori's
    // candidate space explodes.
    let mining_cases: &[(usize, f64)] = if smoke {
        &[(500, 0.05)]
    } else {
        &[(2_000, 0.2), (10_000, 0.2), (10_000, 0.05)]
    };
    let mut mining_rows: Vec<String> = Vec::new();
    for &(n, support) in mining_cases {
        let txs = mining_workload(n);
        let iters = if smoke { 3 } else { 5 };
        let apriori_us = median_us(iters, || drop(black_box(apriori(black_box(&txs), support))));
        let fp_us = median_us(iters, || {
            drop(black_box(fp_growth(black_box(&txs), support)))
        });
        eprintln!("mining/{n}@{support}: apriori {apriori_us:.0}us, fp_growth {fp_us:.0}us");
        mining_rows.push(format!(
            "    {{\"transactions\": {n}, \"support\": {support}, \
             \"apriori_reference_us\": {apriori_us:.1}, \"fp_growth_us\": {fp_us:.1}}}"
        ));
    }

    // End-to-end pipeline (criterion trace, seed 77).
    let lt = TraceGenerator::new(SynthConfig::default().with_seed(77)).generate();
    let pipeline = MawilabPipeline::new(PipelineConfig::default());
    let pipe_rows: Vec<String> = [1usize, 4]
        .iter()
        .map(|&t| {
            let us = with_threads(t, || {
                median_us(if smoke { 2 } else { 5 }, || {
                    drop(black_box(pipeline.run(black_box(&lt.trace))))
                })
            });
            format!("\"{t}\": {us:.1}")
        })
        .collect();
    eprintln!("pipeline: {}", pipe_rows.join(" "));

    // The caveat is derived from the runtime-detected core count, not
    // hand-written for any particular host.
    let note = if hardware == 1 {
        format!(
            "medians in microseconds; *_reference engines are the retained seed algorithms \
             measured live in-process; this host reports {hardware} hardware thread, so every \
             speedup shown is algorithmic and thread counts above 1 only add fan-out overhead — \
             re-run on a multicore host to measure parallel scaling"
        )
    } else {
        format!(
            "medians in microseconds; *_reference engines are the retained seed algorithms \
             measured live in-process; this host reports {hardware} hardware threads — \
             per-thread columns up to that count reflect real parallel scaling, higher counts \
             only add fan-out overhead"
        )
    };

    let json = format!(
        "{{\n  \"generated_by\": \"cargo run --release -p mawilab-bench --bin hotpaths\",\n  \
         \"seed_commit\": \"{SEED_COMMIT}\",\n  \"hardware_threads\": {hardware},\n  \
         \"smoke\": {smoke},\n  \"note\": \"{note}\",\n  \"similarity_graph\": [\n{}\n  ],\n  \"louvain\": [\n{}\n  ],\n  \
         \"extract\": [\n{}\n  ],\n  \"mining\": [\n{}\n  ],\n  \
         \"pipeline\": {{\"seed_criterion_us\": {SEED_PIPELINE_US}, \"end_to_end_us_by_threads\": {{{}}}}}\n}}\n",
        sim_rows.join(",\n"),
        louvain_rows.join(",\n"),
        extract_rows.join(",\n"),
        mining_rows.join(",\n"),
        pipe_rows.join(", "),
    );
    std::fs::create_dir_all(&out_dir).expect("creating out dir");
    let path = format!("{out_dir}/BENCH_hotpaths.json");
    std::fs::write(&path, &json).expect("writing BENCH_hotpaths.json");
    println!("{json}");
    eprintln!("wrote {path}");
}
