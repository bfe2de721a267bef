//! Batch-vs-online ingest benchmark: wall clock, peak RSS and
//! per-chunk throughput on a seeded synth day, plus a multi-day
//! single-pass sweep through the archive harness.
//!
//! The parent process generates one 900-second archive day, writes it
//! to a pcap file, and then measures the two real ingest paths
//! against that file: `read_pcap` + `MawilabPipeline` (materialise
//! everything) and `StreamingPcapReader` + `OnlinePipeline` (constant
//! packet memory, **one** drain — the single-pass sliding-horizon
//! labeler). Peak RSS is a process-lifetime high-water mark, so each
//! mode runs in its own child process (`--mode batch|online --pcap
//! FILE`) and the parent collects the reports into
//! `BENCH_streaming.json`.
//!
//! Schema note: the online block adds the chunk accounting of the one
//! drain and the label window count.
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin streaming [-- --scale 1.0 --out results]
//! ```

use mawilab_bench::harness::{peak_rss_kb, run_days_streaming};
use mawilab_core::{MawilabPipeline, OnlinePipeline, PipelineConfig};
use mawilab_model::{pcap, StreamingPcapReader, TraceDate, TraceMeta, DEFAULT_CHUNK_US};
use mawilab_synth::{archive::first_days_of_month, ArchiveConfig, ArchiveSimulator};
use std::io::BufReader;
use std::time::Instant;

const DAY: (u16, u8, u8) = (2004, 6, 2);

struct Flags {
    mode: Option<String>,
    pcap: Option<String>,
    scale: f64,
    out_dir: String,
}

fn parse_flags() -> Flags {
    let mut f = Flags {
        mode: None,
        pcap: None,
        scale: 1.0,
        out_dir: "results".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--mode" => f.mode = it.next(),
            "--pcap" => f.pcap = it.next(),
            "--scale" => f.scale = it.next().and_then(|v| v.parse().ok()).expect("bad --scale"),
            "--out" => f.out_dir = it.next().expect("bad --out"),
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    f
}

fn day_meta() -> TraceMeta {
    let mut meta = TraceMeta::standard(TraceDate::new(DAY.0, DAY.1, DAY.2));
    meta.duration_s = 900;
    meta
}

/// Child-process entry: ingest the pcap file in one mode, print a
/// `key=value` report line.
fn run_mode(mode: &str, pcap_path: &str) {
    let meta = day_meta();
    match mode {
        "batch" => {
            let file = std::fs::File::open(pcap_path).expect("opening pcap");
            let t0 = Instant::now();
            let (trace, skipped) =
                pcap::read_pcap(BufReader::new(file), meta).expect("reading pcap");
            assert_eq!(skipped, 0);
            let pipeline = MawilabPipeline::new(PipelineConfig::default());
            let report = pipeline.run(&trace);
            let wall = t0.elapsed();
            println!(
                "mode=batch packets={} wall_s={:.3} peak_rss_kb={} alarms={} communities={}",
                trace.len(),
                wall.as_secs_f64(),
                peak_rss_kb().unwrap_or(0),
                report.alarm_count(),
                report.community_count(),
            );
        }
        "online" => {
            let file = std::fs::File::open(pcap_path).expect("opening pcap");
            let t0 = Instant::now();
            let mut source = StreamingPcapReader::new(BufReader::new(file), meta, DEFAULT_CHUNK_US)
                .expect("opening pcap stream");
            let pipeline = OnlinePipeline::new(PipelineConfig::default());
            let online = pipeline.run(&mut source).expect("online run failed");
            let wall = t0.elapsed();
            let stats = &online.stats;
            println!(
                "mode=online packets={} wall_s={:.3} peak_rss_kb={} alarms={} communities={} \
                 chunks={} peak_chunk_packets={} chunk_throughput_pps={:.0} windows={}",
                stats.packets,
                wall.as_secs_f64(),
                peak_rss_kb().unwrap_or(0),
                online.report.alarm_count(),
                online.report.community_count(),
                stats.chunks,
                stats.peak_chunk_packets,
                stats.packets as f64 / wall.as_secs_f64().max(1e-9),
                online.windows.len(),
            );
        }
        other => panic!("unknown --mode {other}"),
    }
}

fn field(line: &str, key: &str) -> String {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")).map(str::to_string))
        .unwrap_or_else(|| panic!("missing field {key} in `{line}`"))
}

fn spawn_child(mode: &str, pcap_path: &str) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args(["--mode", mode, "--pcap", pcap_path])
        .output()
        .expect("spawning child benchmark failed");
    assert!(
        out.status.success(),
        "child {mode} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("child output not UTF-8")
        .lines()
        .find(|l| l.starts_with("mode="))
        .expect("child printed no report line")
        .to_string()
}

fn main() {
    let flags = parse_flags();
    if let Some(mode) = &flags.mode {
        let pcap_path = flags.pcap.as_deref().expect("--mode requires --pcap");
        run_mode(mode, pcap_path);
        return;
    }

    // Generate the archive day once and serialise it, so both
    // children measure pure ingest against the same file.
    eprintln!("generating a 900-second day at scale {} …", flags.scale);
    let sim = ArchiveSimulator::new(ArchiveConfig {
        scale: flags.scale,
        duration_s: 900,
        ..Default::default()
    });
    let lt = sim.generate(TraceDate::new(DAY.0, DAY.1, DAY.2));
    let pcap_path = std::env::temp_dir().join("mawilab_bench_streaming.pcap");
    let pcap_path = pcap_path.to_str().expect("temp path").to_string();
    {
        let file = std::fs::File::create(&pcap_path).expect("creating pcap");
        pcap::write_pcap(std::io::BufWriter::new(file), &lt.trace).expect("writing pcap");
    }
    eprintln!("wrote {} packets to {pcap_path}", lt.trace.len());
    drop(lt);

    eprintln!("batch child …");
    let batch = spawn_child("batch", &pcap_path);
    eprintln!("online (single-pass) child …");
    let online = spawn_child("online", &pcap_path);
    let _ = std::fs::remove_file(&pcap_path);
    eprintln!("{batch}\n{online}");

    // Multi-day single-pass sweep through the archive harness.
    eprintln!("multi-day single-pass sweep …");
    let days = first_days_of_month(2004, 6, 4);
    let sweep: Vec<String> = run_days_streaming(
        &days,
        flags.scale.min(0.5),
        DEFAULT_CHUNK_US,
        PipelineConfig::default(),
        |ctx| {
            format!(
                "    {{\"date\": \"{}\", \"packets\": {}, \"chunks\": {}, \
                 \"peak_chunk_packets\": {}, \"wall_s\": {:.3}, \"anomalous\": {}}}",
                ctx.date,
                ctx.stats.packets,
                ctx.stats.chunks,
                ctx.stats.peak_chunk_packets,
                ctx.wall.as_secs_f64(),
                ctx.report
                    .labeled
                    .count(mawilab_label::MawilabLabel::Anomalous),
            )
        },
    )
    .into_iter()
    .map(|day| day.expect("synthetic single-pass day failed"))
    .collect();

    let online_block = format!(
        "{{\"packets\": {}, \"wall_s\": {}, \"peak_rss_kb\": {}, \"alarms\": {}, \
         \"communities\": {}, \"chunks\": {}, \"peak_chunk_packets\": {}, \
         \"chunk_throughput_pps\": {}}}",
        field(&online, "packets"),
        field(&online, "wall_s"),
        field(&online, "peak_rss_kb"),
        field(&online, "alarms"),
        field(&online, "communities"),
        field(&online, "chunks"),
        field(&online, "peak_chunk_packets"),
        field(&online, "chunk_throughput_pps"),
    );
    let json = format!(
        "{{\n  \"generated_by\": \"cargo run --release -p mawilab-bench --bin streaming\",\n  \
         \"day\": \"{:04}-{:02}-{:02}\",\n  \"scale\": {},\n  \"chunk_us\": {},\n  \
         \"batch\": {{\"packets\": {}, \"wall_s\": {}, \"peak_rss_kb\": {}, \"alarms\": {}, \"communities\": {}}},\n  \
         \"online\": {{\"base\": {}, \"labeled_windows\": {}}},\n  \
         \"multi_day_streaming\": [\n{}\n  ]\n}}\n",
        DAY.0, DAY.1, DAY.2,
        flags.scale,
        DEFAULT_CHUNK_US,
        field(&batch, "packets"),
        field(&batch, "wall_s"),
        field(&batch, "peak_rss_kb"),
        field(&batch, "alarms"),
        field(&batch, "communities"),
        online_block,
        field(&online, "windows"),
        sweep.join(",\n"),
    );
    std::fs::create_dir_all(&flags.out_dir).expect("creating out dir");
    let path = format!("{}/BENCH_streaming.json", flags.out_dir);
    std::fs::write(&path, &json).expect("writing BENCH_streaming.json");
    println!("{json}");
    eprintln!("wrote {path}");

    // Sanity: the single-pass path must agree with the batch oracle.
    assert_eq!(
        field(&batch, "alarms"),
        field(&online, "alarms"),
        "online alarm count diverged"
    );
    assert_eq!(
        field(&batch, "communities"),
        field(&online, "communities"),
        "online community count diverged"
    );
}
