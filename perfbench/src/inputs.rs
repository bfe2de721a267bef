//! The three workloads' inputs, generated from the workload seed, and
//! the oracles their ops are checked against.
//!
//! Inputs come from the synthetic archive (`mawilab-synth`); the
//! program under test only ever sees the generated traces. Oracles are
//! computed by an independent path: labeling ops are compared with the
//! batch `MawilabPipeline` on the same trace, scoring ops with a
//! brute-force `HashSet` recomputation of `benchmark_alarms`.

use mawilab_combiner::Decision;
use mawilab_core::{MawilabPipeline, PipelineConfig, PipelineReport};
use mawilab_detectors::{Alarm, AlarmScope, TraceView};
use mawilab_label::{ConfidenceThresholds, LabeledCommunity, MawilabLabel};
use mawilab_model::{FlowKey, FlowTable, Trace, TraceChunker, TraceDate, DEFAULT_CHUNK_US};
use mawilab_synth::{ArchiveConfig, ArchiveSimulator, SynthConfig, TraceGenerator};
use std::collections::HashSet;
use std::time::Instant;

/// `MAWILAB_THREADS` of every workload's ops. On the 2-vCPU shared host
/// the benchmark was built on, steal episodes cut two-thread pcap-day
/// throughput by up to 45 % and one-thread throughput by 10–18 %.
pub const THREADS: usize = 1;

/// `MAWILAB_THREADS` of the traced run's extra pass, which measures the
/// `exec` fan-out and checks that no count depends on the thread count.
pub const FANOUT_THREADS: usize = 2;

/// Simpson-overlap floor of every scoring op.
pub const MIN_OVERLAP: f64 = 0.1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 60 s archive days spread over 61, one day labeled per op.
    ArchiveSweep,
    /// One 900 s day at scale 4, streamed from a pcap file per op.
    PcapDay,
    /// One `benchmark_alarms` call per op, against labeled 300 s days.
    DetectorScoring,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "archive-sweep" => Some(Workload::ArchiveSweep),
            "pcap-day" => Some(Workload::PcapDay),
            "detector-scoring" => Some(Workload::DetectorScoring),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArchiveSweep => "archive-sweep",
            Workload::PcapDay => "pcap-day",
            Workload::DetectorScoring => "detector-scoring",
        }
    }

    /// What one op's work unit counts.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::ArchiveSweep | Workload::PcapDay => "input packets labeled",
            Workload::DetectorScoring => "candidate alarms scored",
        }
    }
}

/// The pipeline configuration of every labeling op and oracle: the
/// paper's defaults plus the default confidence thresholds, so labels
/// carry a real abstention tier.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        confidence_thresholds: Some(ConfidenceThresholds::default()),
        ..PipelineConfig::default()
    }
}

/// Seed of every workload's day plans.
const PLAN_SEED: u64 = 0x4D41_5749;

/// One generated archive day. The day's plan — background rate, host
/// populations, the anomalies injected and their rates — is the one the
/// archive simulator draws for `date` under [`PLAN_SEED`]; the workload
/// `seed` draws the packets that realize it. Runs on different seeds
/// thus do the same amount of work on different packets.
fn archive_day(seed: u64, scale: f64, duration_s: u32, date: TraceDate) -> Trace {
    let sim = |base_seed| {
        ArchiveSimulator::new(ArchiveConfig {
            base_seed,
            scale,
            duration_s,
        })
    };
    let config = SynthConfig {
        seed: sim(seed).config_for(date).seed,
        ..sim(PLAN_SEED).config_for(date)
    };
    TraceGenerator::new(config).generate().trace
}

/// archive-sweep: every fourth day of the 61 days 2006-06-16..08-15,
/// 16 days crossing the 18 → 100 Mbps era boundary on 07-01. A
/// 100 Mbps day carries about twice a CAR day's packets, so op walls
/// are bimodal; with 4 CAR days and 12 100 Mbps days (the 15 : 46 mix
/// of the whole span) the median op lies inside the upper mode instead
/// of on the gap between the two (which an even split such as
/// June–July puts it on, making it jump between runs). Sixteen days
/// keep a pass near 3.5 s, so a run holds five or more passes and each
/// day's median wall rests on five or more samples.
pub fn sweep_days() -> Vec<TraceDate> {
    TraceDate::new(2006, 6, 16)
        .consecutive(61)
        .into_iter()
        .step_by(4)
        .collect()
}

/// Generates the archive-sweep days, each wrapped in a rewindable
/// chunker so an op never copies a trace.
pub fn archive_sweep(seed: u64) -> Vec<TraceChunker> {
    sweep_days()
        .into_iter()
        .map(|d| TraceChunker::new(archive_day(seed, 1.0, 60, d), DEFAULT_CHUNK_US))
        .collect()
}

/// The pcap-day trace: 2006-06-02, 900 s, scale 4.
pub fn pcap_day(seed: u64) -> Trace {
    archive_day(seed, 4.0, 900, TraceDate::new(2006, 6, 2))
}

/// One labeled day of the scoring database, with candidate detectors
/// drawn from the 12 standard configurations' alarms.
pub struct ScoringDay {
    /// The day's packets.
    pub trace: Trace,
    /// Flow table the traffic ids index into.
    pub flows: FlowTable,
    /// The day's MAWILab labels.
    pub report: PipelineReport,
    /// Candidate alarms, one set per configuration index `0..12`.
    pub candidates: Vec<Vec<Alarm>>,
}

impl ScoringDay {
    /// The read-only view `benchmark_alarms` scans.
    pub fn view(&self) -> TraceView<'_> {
        TraceView::new(&self.trace, &self.flows)
    }
}

/// Number of candidate configurations scored per day.
pub const CONFIGS: usize = 12;

/// detector-scoring: four 300 s days around the era boundary.
pub fn scoring_days() -> Vec<TraceDate> {
    TraceDate::new(2006, 6, 29).consecutive(4)
}

/// SplitMix64: the candidate sampler's and the host-speed reference's
/// generator.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Indices of a seeded sample of ⌈3n/4⌉ of `0..n`, in ascending order
/// (a partial Fisher–Yates shuffle). The sample size is fixed, so a
/// seed changes which alarms a candidate keeps but not how many.
fn sample_three_quarters(n: usize, state: &mut u64) -> Vec<usize> {
    let keep = (3 * n).div_ceil(4);
    let mut idx: Vec<usize> = (0..n).collect();
    for k in 0..keep {
        let j = k + (splitmix64(state) % (n - k) as u64) as usize;
        idx.swap(k, j);
    }
    idx.truncate(keep);
    idx.sort_unstable();
    idx
}

/// Generates and labels the detector-scoring days. The labels play the
/// published MAWILab database, which every researcher scores against,
/// so they are the same for every seed: the days are realized with the
/// plan seed. The workload `seed` draws the candidate detectors: each
/// configuration's candidate keeps a seeded three quarters of that
/// configuration's alarms. (Labels drawn from the workload seed made
/// one seed's scoring pass cost 2.5× another's; keeping each alarm with
/// probability 3/4 moved the median op by 10 % between seeds.)
pub fn detector_scoring(seed: u64) -> Vec<ScoringDay> {
    let pipeline = MawilabPipeline::new(pipeline_config());
    let mut state = seed;
    scoring_days()
        .into_iter()
        .map(|d| {
            let trace = archive_day(PLAN_SEED, 1.0, 300, d);
            let flows = FlowTable::build(&trace.packets);
            let report = pipeline.run(&trace);
            let mut by_config = vec![Vec::new(); CONFIGS];
            for a in &report.communities.alarms {
                by_config[a.config_index()].push(a);
            }
            let candidates = by_config
                .iter()
                .map(|alarms| {
                    sample_three_quarters(alarms.len(), &mut state)
                        .into_iter()
                        .map(|k| alarms[k].clone())
                        .collect()
                })
                .collect();
            ScoringDay {
                trace,
                flows,
                report,
                candidates,
            }
        })
        .collect()
}

/// Times `f` once, seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    // lint:allow(no-wall-clock-in-kernels): the benchmark's op timer, outside the measured program
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// FNV-1a over a byte string: the digest of one labeling result, and
/// of the harness executable.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of one labeled day: alarm count, community partition,
/// decisions and every labeled community (label, tier, confidence
/// score, heuristic, rule summary, window), rendered with `Debug`,
/// whose float formatting round-trips, so equal digests mean
/// bit-identical scores.
pub fn label_digest(
    alarms: usize,
    partition: &[usize],
    decisions: &[Decision],
    labeled: &[LabeledCommunity],
) -> u64 {
    fnv1a(format!("{alarms}|{partition:?}|{decisions:?}|{labeled:?}").as_bytes())
}

/// [`label_digest`] of a batch report — the labeling oracle.
pub fn report_digest(r: &PipelineReport) -> u64 {
    label_digest(
        r.communities.alarms.len(),
        &r.communities.partition.community,
        &r.decisions,
        &r.labeled.communities,
    )
}

/// Oracle digest of one trace: batch `MawilabPipeline::run`.
pub fn batch_digest(trace: &Trace) -> u64 {
    report_digest(&MawilabPipeline::new(pipeline_config()).run(trace))
}

/// A brute-force recomputation of one `benchmark_alarms` call, plus the
/// community × alarm intersections the production loop attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoringOracle {
    /// `(detected, missed, matched_alarms, unmatched_alarms)`.
    pub result: (usize, usize, usize, usize),
    /// Intersections `benchmark_alarms` computes (its `any` loops
    /// stop at the first hit, in the same order as here).
    pub intersections: u64,
    /// Of those, the ones that counted as a match.
    pub hits: u64,
}

/// The labeled communities' traffic of one day as hash sets, in
/// labeled order — the oracle's side of every intersection.
pub fn community_sets(day: &ScoringDay) -> Vec<HashSet<u32>> {
    let c = &day.report.communities;
    day.report
        .labeled
        .communities
        .iter()
        .map(|lc| {
            c.members(lc.community)
                .iter()
                .flat_map(|&m| c.traffic[m].iter().copied())
                .collect()
        })
        .collect()
}

/// Recomputes `benchmark_alarms(view, report, alarms, MIN_OVERLAP)`
/// with per-packet scope tests and `HashSet` intersections, sharing no
/// code with the production extraction or matching. `community` is
/// [`community_sets`] of the day.
pub fn score_oracle(
    day: &ScoringDay,
    community: &[HashSet<u32>],
    alarms: &[Alarm],
) -> ScoringOracle {
    let trace = &day.trace;
    let candidate: Vec<HashSet<u32>> = alarms
        .iter()
        .map(|a| {
            let keys: HashSet<FlowKey> = match &a.scope {
                AlarmScope::FlowSet(keys) => keys.iter().copied().collect(),
                _ => HashSet::new(),
            };
            trace
                .packet_range(&a.window)
                .filter(|&i| {
                    let p = &trace.packets[i];
                    match &a.scope {
                        AlarmScope::FlowSet(_) => keys.contains(&FlowKey::of(p)),
                        scope => scope.matches(p),
                    }
                })
                .map(|i| day.flows.uniflow_of(i))
                .collect()
        })
        .collect();
    let (mut intersections, mut hits) = (0u64, 0u64);
    let mut matches = |a: &HashSet<u32>, b: &HashSet<u32>| {
        intersections += 1;
        let inter = a.intersection(b).count();
        let small = a.len().max(1).min(b.len().max(1));
        let hit = inter > 0 && inter as f64 / small as f64 >= MIN_OVERLAP;
        hits += hit as u64;
        hit
    };
    let (mut detected, mut missed) = (0, 0);
    for (lc, traffic) in day.report.labeled.communities.iter().zip(community) {
        let hit = candidate.iter().any(|set| matches(set, traffic));
        if lc.label == MawilabLabel::Anomalous {
            if hit {
                detected += 1;
            } else {
                missed += 1;
            }
        }
    }
    let (mut matched, mut unmatched) = (0, 0);
    for set in &candidate {
        if community.iter().any(|traffic| matches(set, traffic)) {
            matched += 1;
        } else {
            unmatched += 1;
        }
    }
    ScoringOracle {
        result: (detected, missed, matched, unmatched),
        intersections,
        hits,
    }
}
