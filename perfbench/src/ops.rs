//! A workload's inputs as the measuring process holds them, one op on
//! them (untraced or traced), and the oracle every op is checked
//! against.

use crate::calib::{self, Reference, Sampled};
use crate::host;
use crate::inputs::{self, timed, ScoringDay, Workload, CONFIGS};
use crate::traced::{Counts, Tracer};
use mawilab_core::{benchmark_alarms, OnlinePipeline, OnlineReport};
use mawilab_model::{
    PacketSource, StreamingPcapReader, TraceChunker, TraceDate, TraceMeta, DEFAULT_CHUNK_US,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Metadata of the pcap-day file, which the format does not carry.
fn pcap_meta() -> TraceMeta {
    TraceMeta {
        duration_s: 900,
        ..TraceMeta::standard(TraceDate::new(2006, 6, 2))
    }
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// A workload's inputs.
pub enum Inputs {
    /// The archive-sweep days.
    Sweep(Vec<TraceChunker>),
    /// The pcap-day file, its packet count and its oracle digest.
    Pcap {
        path: PathBuf,
        packets: u64,
        digest: u64,
    },
    /// The labeled detector-scoring days.
    Scoring(Vec<ScoringDay>),
}

/// Reference samples on each side of a setup repetition; their median
/// is the repetition's host-speed reference.
const SETUP_REF_SAMPLES: usize = 9;

/// Generates the workload's inputs `reps` times, keeping the last, and
/// returns them with each generation's wall (seconds), raw and at the
/// reference host speed ([`calib::normalize`]). pcap-day writes
/// its day to `<work>/day.pcap` within each timed repetition; its
/// oracle digest is computed after the last one, untimed, and the
/// trace is dropped, so ops stream the file and nothing else is held.
pub fn setup(
    workload: Workload,
    seed: u64,
    reps: usize,
    work: &Path,
) -> Result<(Inputs, Vec<(f64, f64)>), String> {
    let mut walls = Vec::new();
    let mut kept = None;
    let mut reference = Reference::new();
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let before = reference.samples(SETUP_REF_SAMPLES);
        let (made, wall) = timed(|| -> Result<_, String> {
            Ok(match workload {
                Workload::ArchiveSweep => (Inputs::Sweep(inputs::archive_sweep(seed)), None),
                Workload::DetectorScoring => {
                    (Inputs::Scoring(inputs::detector_scoring(seed)), None)
                }
                Workload::PcapDay => {
                    let trace = inputs::pcap_day(seed);
                    let path = work.join("day.pcap");
                    let f = File::create(&path).map_err(|e| io_err("create pcap", e))?;
                    let mut w = BufWriter::new(f);
                    mawilab_model::pcap::write_pcap(&mut w, &trace)
                        .map_err(|e| io_err("write pcap", e))?;
                    w.flush().map_err(|e| io_err("flush pcap", e))?;
                    let inputs = Inputs::Pcap {
                        path,
                        packets: trace.len() as u64,
                        digest: 0,
                    };
                    (inputs, Some(trace))
                }
            })
        });
        kept = Some(made?);
        let mut around = before;
        around.extend(reference.samples(SETUP_REF_SAMPLES));
        walls.push((wall, calib::normalize(wall, &around)));
    }
    let (mut inputs, trace) = kept.expect("at least one setup repetition");
    if let (Inputs::Pcap { digest, .. }, Some(trace)) = (&mut inputs, trace) {
        if trace.meta != pcap_meta() {
            return Err("generated pcap-day metadata differs from the reader's".into());
        }
        *digest = with_all_threads(|| inputs::batch_digest(&trace));
    }
    Ok((inputs, walls))
}

/// Runs untimed oracle work on every processor, then restores the ops'
/// thread count. Output is thread-count invariant.
fn with_all_threads<R>(f: impl FnOnce() -> R) -> R {
    host::set_threads(host::nproc());
    let r = f();
    host::set_threads(inputs::THREADS);
    r
}

impl Inputs {
    /// Ops in one pass over the input set.
    pub fn len(&self) -> usize {
        match self {
            Inputs::Sweep(days) => days.len(),
            Inputs::Pcap { .. } => 1,
            Inputs::Scoring(days) => days.len() * CONFIGS,
        }
    }

    /// Work units of op `i`: packets labeled or candidate alarms scored.
    pub fn units(&self, i: usize) -> u64 {
        match self {
            Inputs::Sweep(days) => days[i].trace().len() as u64,
            Inputs::Pcap { packets, .. } => *packets,
            Inputs::Scoring(days) => days[i / CONFIGS].candidates[i % CONFIGS].len() as u64,
        }
    }
}

/// What an op returned, compared with its oracle after timing.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Digest of the labels, or `None` when the source failed or the
    /// pcap reader skipped, truncated or lost packets.
    Labels(Option<u64>),
    /// `(detected, missed, matched_alarms, unmatched_alarms)`.
    Score((usize, usize, usize, usize)),
}

fn online_digest(report: &OnlineReport) -> u64 {
    let r = &report.report;
    inputs::label_digest(
        r.communities.alarms.len(),
        &r.communities.partition.community,
        &r.decisions,
        &r.labeled.communities,
    )
}

fn open_pcap(path: &Path) -> Result<StreamingPcapReader<BufReader<File>>, String> {
    let f = File::open(path).map_err(|e| io_err("open pcap", e))?;
    StreamingPcapReader::new(
        BufReader::with_capacity(1 << 16, f),
        pcap_meta(),
        DEFAULT_CHUNK_US,
    )
    .map_err(|e| io_err("pcap header", e))
}

/// Whether a finished pcap read delivered the whole generated day.
fn pcap_intact<R: Read + Seek>(r: &StreamingPcapReader<R>, packets: u64) -> bool {
    r.skipped() == 0 && !r.truncated_tail() && r.packets_read() == packets
}

/// Runs untraced op `i` — the production call alone inside the timer
/// (for pcap-day, opening the file too) — and returns its wall
/// (seconds), the walls of the reference samples taken inside it and
/// its outcome. A labeling op given a `reference` samples it between
/// chunks ([`Sampled`]); the sampling time is taken out of the wall.
pub fn run_op(
    inputs: &mut Inputs,
    pipeline: &OnlinePipeline,
    i: usize,
    reference: Option<&mut Reference>,
) -> (f64, Vec<f64>, Outcome) {
    match inputs {
        Inputs::Sweep(days) => {
            let day = &mut days[i];
            day.rewind().expect("an in-memory chunker always rewinds");
            let mut source = Sampled::new(day, reference);
            let (report, wall) = timed(|| pipeline.run(&mut source));
            let digest = report.ok().map(|r| online_digest(&r));
            (wall - source.spent_s, source.walls, Outcome::Labels(digest))
        }
        Inputs::Pcap { path, packets, .. } => {
            let (run, wall) = timed(|| {
                open_pcap(path).map(|mut reader| {
                    let mut source = Sampled::new(&mut reader, reference);
                    let report = pipeline.run(&mut source);
                    let (walls, spent) = (source.walls, source.spent_s);
                    (report, reader, walls, spent)
                })
            });
            match run {
                Ok((report, reader, walls, spent)) => {
                    let digest = report
                        .ok()
                        .filter(|_| pcap_intact(&reader, *packets))
                        .map(|r| online_digest(&r));
                    (wall - spent, walls, Outcome::Labels(digest))
                }
                Err(_) => (wall, Vec::new(), Outcome::Labels(None)),
            }
        }
        Inputs::Scoring(days) => {
            let day = &days[i / CONFIGS];
            let view = day.view();
            let alarms = &day.candidates[i % CONFIGS];
            let (r, wall) =
                timed(|| benchmark_alarms(&view, &day.report, alarms, inputs::MIN_OVERLAP));
            let score = (r.detected, r.missed, r.matched_alarms, r.unmatched_alarms);
            (wall, Vec::new(), Outcome::Score(score))
        }
    }
}

/// Runs traced op `i` (op id `op`) and returns its outcome, per-layer
/// counts and wall (seconds).
pub fn traced_op(
    tracer: &mut Tracer,
    inputs: &mut Inputs,
    i: usize,
    op: u32,
) -> (Outcome, Counts, f64) {
    let op_name = tracer.op_name();
    match inputs {
        Inputs::Sweep(days) => {
            let day = &mut days[i];
            day.rewind().expect("an in-memory chunker always rewinds");
            let root = tracer.rec.begin_op(op, op_name);
            let r = tracer.label(root, day);
            let (digest, counts) = r.map_or((None, Counts::new()), |l| (Some(l.digest), l.counts));
            (Outcome::Labels(digest), counts, tracer.rec.dur_s(root))
        }
        Inputs::Pcap { path, packets, .. } => {
            let root = tracer.rec.begin_op(op, op_name);
            let Ok(mut reader) = open_pcap(path) else {
                tracer.rec.end(root);
                return (Outcome::Labels(None), Counts::new(), tracer.rec.dur_s(root));
            };
            let r = tracer.label(root, &mut reader);
            let wall = tracer.rec.dur_s(root);
            match r {
                Ok(l) => {
                    let mut counts = l.counts;
                    counts.insert("model.pcap_skipped".into(), reader.skipped() as u64);
                    let digest = pcap_intact(&reader, *packets).then_some(l.digest);
                    (Outcome::Labels(digest), counts, wall)
                }
                Err(_) => (Outcome::Labels(None), Counts::new(), wall),
            }
        }
        Inputs::Scoring(days) => {
            let day = &days[i / CONFIGS];
            let cfg = i % CONFIGS;
            let (r, _, wall) = tracer.score(op, day, cfg);
            let mut counts = Counts::new();
            counts.insert("model.packets".into(), day.trace.len() as u64);
            counts.insert("model.items".into(), day.flows.uniflow_count() as u64);
            counts.insert(
                format!("detectors.{}.alarms", tracer.stems[cfg]),
                day.candidates[cfg].len() as u64,
            );
            let score = (r.detected, r.missed, r.matched_alarms, r.unmatched_alarms);
            (Outcome::Score(score), counts, wall)
        }
    }
}

/// The oracle of every op of one pass, plus the intersection counts of
/// the scoring recomputation. Untimed; runs on every processor.
pub fn oracles(inputs: &Inputs) -> (Vec<Outcome>, Counts) {
    with_all_threads(|| {
        let mut counts = Counts::new();
        let outcomes = match inputs {
            Inputs::Sweep(days) => days
                .iter()
                .map(|d| Outcome::Labels(Some(inputs::batch_digest(d.trace()))))
                .collect(),
            Inputs::Pcap { digest, .. } => vec![Outcome::Labels(Some(*digest))],
            Inputs::Scoring(days) => {
                let mut v = Vec::new();
                for day in days {
                    let community = inputs::community_sets(day);
                    for alarms in &day.candidates {
                        let o = inputs::score_oracle(day, &community, alarms);
                        *counts.entry("core.intersections".into()).or_default() += o.intersections;
                        *counts.entry("core.hits".into()).or_default() += o.hits;
                        v.push(Outcome::Score(o.result));
                    }
                }
                v
            }
        };
        (outcomes, counts)
    })
}
