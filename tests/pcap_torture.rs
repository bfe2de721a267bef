//! Pcap torture corpus: one small capture, damaged every way an archive
//! file can be — cut at every byte, each global-header byte flipped,
//! nanosecond and wrong magic, records longer than the snaplen,
//! zero-length records and timestamps that run backwards.
//!
//! Both readers must answer with a typed error or with the packets they
//! could read and a count of what they skipped; neither may panic. A
//! handful of the damaged files also drain through the single-pass
//! pipeline, which must label them as the batch oracle labels the
//! packets `read_pcap` recovers.

use mawilab::core::{MawilabPipeline, OnlinePipeline, PipelineConfig};
use mawilab::model::pcap::{read_pcap, write_pcap, PcapError};
use mawilab::model::{Packet, PacketSource, StreamingPcapReader, TraceMeta, DEFAULT_CHUNK_US};
use mawilab::synth::{AnomalySpec, SynthConfig, TraceGenerator};
use std::io::Cursor;

const GLOBAL_HDR: usize = 24;
const RECORD_HDR: usize = 16;

/// Records in the head of the capture that is cut at every byte.
const HEAD_RECORDS: usize = 48;

/// A 30 s day at 150 packets/s with a 10 s SYN flood, so the detectors
/// alarm, written by `write_pcap`.
struct Capture {
    meta: TraceMeta,
    packets: Vec<Packet>,
    bytes: Vec<u8>,
}

impl Capture {
    fn new() -> Self {
        let trace = TraceGenerator::new(
            SynthConfig::default()
                .with_seed(4242)
                .with_duration(30)
                .with_background_pps(150.0)
                .with_anomalies(vec![AnomalySpec::SynFlood {
                    victim: 60,
                    dport: 80,
                    rate_pps: 300.0,
                    duration_s: 10.0,
                    spoofed: true,
                }]),
        )
        .generate()
        .trace;
        let mut bytes = Vec::new();
        write_pcap(&mut bytes, &trace).unwrap();
        Capture {
            meta: trace.meta,
            packets: trace.packets,
            bytes,
        }
    }

    /// What the streaming reader yields: its packets in file order, its
    /// skip count, and whether it flagged a truncated tail. A damaged
    /// record is a skip, never a chunk error.
    fn stream(&self, bytes: &[u8]) -> Result<(Vec<Packet>, usize, bool), PcapError> {
        let mut reader =
            StreamingPcapReader::new(Cursor::new(bytes), self.meta.clone(), DEFAULT_CHUNK_US)?;
        let mut packets = Vec::new();
        while let Some(chunk) = reader.next_chunk().expect("damage is a skip, not an error") {
            packets.extend_from_slice(&chunk.packets);
        }
        Ok((packets, reader.skipped(), reader.truncated_tail()))
    }

    /// Both readers' packets, in time order, and skip counts, which
    /// must agree.
    fn read_both(&self, bytes: &[u8]) -> Result<(Vec<Packet>, usize), PcapError> {
        match (
            read_pcap(Cursor::new(bytes), self.meta.clone()),
            self.stream(bytes),
        ) {
            (Ok((trace, skipped)), Ok((mut packets, streamed_skipped, _))) => {
                packets.sort_by_key(|p| p.ts_us);
                assert_eq!(packets, trace.packets, "readers disagree on packets");
                assert_eq!(skipped, streamed_skipped, "readers disagree on skips");
                Ok((trace.packets, skipped))
            }
            (Err(e), Err(streamed)) => {
                assert_eq!(e.to_string(), streamed.to_string(), "readers disagree");
                Err(e)
            }
            (b, s) => panic!("one reader failed: batch {b:?}, streaming {s:?}"),
        }
    }
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// The offset of every record, then the file length.
fn record_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = vec![GLOBAL_HDR];
    while let Some(&at) = starts.last().filter(|&&at| at < bytes.len()) {
        starts.push(at + RECORD_HDR + le_u32(bytes, at + 8) as usize);
    }
    starts
}

/// `bytes` with a zero-length record inserted before record `idx`
/// (`idx` = the record count appends it), stamped like its neighbour.
fn with_empty_record(bytes: &[u8], idx: usize) -> Vec<u8> {
    let starts = record_starts(bytes);
    let at = starts[idx];
    let ts = le_u32(bytes, starts[idx.min(starts.len() - 2)]);
    let mut out = bytes[..at].to_vec();
    out.extend([ts, 0, 0, 0].iter().flat_map(|v| v.to_le_bytes()));
    out.extend(&bytes[at..]);
    out
}

/// `bytes` with record `idx` restamped `secs` earlier.
fn with_earlier_record(bytes: &[u8], idx: usize, secs: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = record_starts(bytes)[idx];
    out[at..at + 4].copy_from_slice(&(le_u32(bytes, at) - secs).to_le_bytes());
    out
}

#[test]
fn a_cut_at_every_byte_keeps_a_prefix_and_counts_the_cut_record() {
    let capture = Capture::new();
    let starts = record_starts(&capture.bytes);
    assert_eq!(starts.len(), capture.packets.len() + 1);
    assert_eq!(starts.last(), Some(&capture.bytes.len()));
    for cut in 0..=starts[HEAD_RECORDS] {
        let damaged = &capture.bytes[..cut];
        if cut < GLOBAL_HDR {
            let read = capture.read_both(damaged);
            assert!(matches!(read, Err(PcapError::Io(_))), "cut {cut}");
            continue;
        }
        let complete = starts[1..].iter().take_while(|&&end| end <= cut).count();
        let mid_record = !starts.contains(&cut);
        let (packets, skipped) = capture.read_both(damaged).unwrap();
        assert_eq!(packets, capture.packets[..complete], "cut {cut}");
        assert_eq!(skipped, mid_record as usize, "cut {cut}");
        assert_eq!(capture.stream(damaged).unwrap().2, mid_record, "cut {cut}");
    }
}

#[test]
fn each_flipped_global_header_byte_is_a_typed_error_or_ignored() {
    let capture = Capture::new();
    for at in 0..GLOBAL_HDR {
        let mut damaged = capture.bytes.clone();
        damaged[at] ^= 0xff;
        match (at, capture.read_both(&damaged)) {
            (0..=3, Err(PcapError::BadMagic(m))) => assert_eq!(m, le_u32(&damaged, 0)),
            (20..=23, Err(PcapError::UnsupportedLinkType(t))) => {
                assert_eq!(t, le_u32(&damaged, 20))
            }
            // Version, time zone, sigfigs and snaplen are not read.
            (4..=19, Ok((packets, 0))) => assert_eq!(packets, capture.packets),
            (at, other) => panic!("byte {at} flipped: {other:?}"),
        }
    }
}

#[test]
fn nanosecond_and_wrong_magic_are_typed_errors() {
    let capture = Capture::new();
    // Nanosecond pcap in both byte orders, pcapng, and zeros.
    for magic in [0xa1b2_3c4du32, 0x4d3c_b2a1, 0x0a0d_0d0a, 0] {
        let mut damaged = capture.bytes.clone();
        damaged[..4].copy_from_slice(&magic.to_le_bytes());
        match capture.read_both(&damaged) {
            Err(PcapError::BadMagic(m)) => assert_eq!(m, magic),
            other => panic!("magic {magic:#010x}: {other:?}"),
        }
    }
}

#[test]
fn records_longer_than_the_snaplen_are_read_by_their_own_length() {
    // The reader frames records by `incl_len` and never reads the
    // snaplen, so a snaplen below every record length loses nothing.
    let capture = Capture::new();
    let mut damaged = capture.bytes.clone();
    damaged[16..20].copy_from_slice(&40u32.to_le_bytes());
    let starts = record_starts(&damaged);
    assert!(starts.windows(2).all(|w| w[1] - w[0] - RECORD_HDR > 40));
    assert_eq!(
        capture.read_both(&damaged).unwrap(),
        (capture.packets.clone(), 0)
    );
}

#[test]
fn zero_length_records_are_counted_skips() {
    let capture = Capture::new();
    let n = capture.packets.len();
    // One at the end, one in the middle, one first.
    let damaged = [n, n / 2, 0]
        .iter()
        .fold(capture.bytes.clone(), |b, &idx| with_empty_record(&b, idx));
    assert_eq!(
        capture.read_both(&damaged).unwrap(),
        (capture.packets.clone(), 3)
    );
    assert!(!capture.stream(&damaged).unwrap().2, "not a cut tail");
}

#[test]
fn non_monotone_timestamps_keep_every_packet() {
    let capture = Capture::new();
    let idx = capture.packets.len() / 2;
    let damaged = with_earlier_record(&capture.bytes, idx, 10);
    let mut expected = capture.packets.clone();
    expected[idx].ts_us -= 10_000_000;
    // The streaming reader keeps file order: the late packet is folded
    // into the chunk being filled when it arrives.
    let streamed = capture.stream(&damaged).unwrap();
    assert_eq!(streamed, (expected.clone(), 0, false));
    // `read_pcap` sorts the trace by time.
    expected.sort_by_key(|p| p.ts_us);
    assert_eq!(capture.read_both(&damaged).unwrap(), (expected, 0));
}

#[test]
fn damaged_captures_drain_through_the_online_pipeline() {
    let capture = Capture::new();
    let bytes = &capture.bytes;
    let starts = record_starts(bytes);
    let n = capture.packets.len();
    let variants = [
        (
            "mid-frame cut",
            bytes[..starts[n / 2] + RECORD_HDR + 7].to_vec(),
        ),
        ("mid-header cut", bytes[..starts[3 * n / 4] + 5].to_vec()),
        ("zero-length record", with_empty_record(bytes, n / 3)),
        ("earlier timestamp", with_earlier_record(bytes, n / 2, 10)),
    ];
    for (name, damaged) in variants {
        let mut reader = StreamingPcapReader::new(
            Cursor::new(&damaged),
            capture.meta.clone(),
            DEFAULT_CHUNK_US,
        )
        .unwrap();
        let online = OnlinePipeline::new(PipelineConfig::default())
            .run(&mut reader)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .report;
        assert!(online.community_count() > 0, "{name}: nothing labeled");
        assert_eq!(online.decisions.len(), online.community_count(), "{name}");
        let labeled = online.labeled.communities.len();
        assert_eq!(labeled, online.community_count(), "{name}");
        // The drain labels what the batch oracle labels on the packets
        // `read_pcap` recovers (in time order).
        let (trace, _) = read_pcap(Cursor::new(&damaged), capture.meta.clone()).unwrap();
        let batch = MawilabPipeline::new(PipelineConfig::default()).run(&trace);
        assert_eq!(
            online.communities.alarms, batch.communities.alarms,
            "{name}"
        );
        assert_eq!(online.decisions, batch.decisions, "{name}");
    }
}
