//! Robustness of the pcap readers: corrupt length fields, truncated
//! tails, and chunk boundaries that do not align with record
//! timestamps.

use mawilab::model::pcap::{read_pcap, write_pcap, MAX_RECORD_BYTES};
use mawilab::model::{
    Packet, PacketSource, StreamingPcapReader, TcpFlags, Trace, TraceDate, TraceMeta,
    DEFAULT_CHUNK_US,
};
use std::io::Cursor;
use std::net::Ipv4Addr;

fn ip(d: u8) -> Ipv4Addr {
    Ipv4Addr::new(198, 51, 100, d)
}

/// A trace whose packets straddle several 5-second chunk bins, with
/// one packet landing mid-bin on a non-boundary timestamp.
fn sample_trace() -> Trace {
    let meta = TraceMeta::standard(TraceDate::new(2004, 5, 3));
    let base = meta.window().start_us;
    let offsets_us = [
        0u64, 1, 2_500_000, 5_000_000, 7_499_999, 12_345_678, 24_999_999, 25_000_000,
    ];
    let packets: Vec<Packet> = offsets_us
        .iter()
        .enumerate()
        .map(|(i, &o)| {
            Packet::tcp(
                base + o,
                ip(1),
                1000 + i as u16,
                ip(2),
                80,
                TcpFlags::syn(),
                60,
            )
        })
        .collect();
    Trace::new(meta, packets)
}

fn pcap_bytes(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_pcap(&mut buf, trace).unwrap();
    buf
}

/// Patches record `idx`'s `incl_len` field to `value` (little-endian
/// file as written by `write_pcap`; all sample records share one
/// frame size).
fn patch_incl_len(buf: &mut [u8], idx: usize, value: u32) {
    let frame_len = u32::from_le_bytes([buf[24 + 8], buf[24 + 9], buf[24 + 10], buf[24 + 11]]);
    let rec_off = 24 + idx * (16 + frame_len as usize);
    buf[rec_off + 8..rec_off + 12].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn streaming_reader_round_trips_and_chunks_by_time() {
    let trace = sample_trace();
    let buf = pcap_bytes(&trace);
    let mut reader =
        StreamingPcapReader::new(Cursor::new(&buf), trace.meta.clone(), DEFAULT_CHUNK_US).unwrap();
    let mut packets = Vec::new();
    let mut chunk_sizes = Vec::new();
    while let Some(chunk) = reader.next_chunk().unwrap() {
        for p in &chunk.packets {
            assert!(
                chunk.window.contains(p.ts_us),
                "packet outside its chunk window"
            );
        }
        chunk_sizes.push(chunk.packets.len());
        packets.extend_from_slice(&chunk.packets);
    }
    assert_eq!(packets, trace.packets);
    // Offsets 0,1,2.5s → bin 0; 5s,7.499s → bin 1; 12.3s → bin 2;
    // 24.999s → bin 4; 25s → bin 5.
    assert_eq!(chunk_sizes, vec![3, 2, 1, 1, 1]);
    assert_eq!(reader.packets_read(), trace.packets.len() as u64);
    assert_eq!(reader.skipped(), 0);
}

#[test]
fn chunk_boundary_mid_bin_preserves_every_packet() {
    // A bin width that does NOT divide any detector bin or packet
    // spacing: records fall mid-bin and right at bin edges.
    let trace = sample_trace();
    let buf = pcap_bytes(&trace);
    for bin_us in [700_000u64, 3_333_333, 7_500_000] {
        let mut reader =
            StreamingPcapReader::new(Cursor::new(&buf), trace.meta.clone(), bin_us).unwrap();
        let mut packets = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            packets.extend_from_slice(&chunk.packets);
        }
        assert_eq!(
            packets, trace.packets,
            "bin {bin_us} lost or reordered packets"
        );
    }
}

#[test]
fn oversized_incl_len_is_skipped_not_allocated() {
    let trace = sample_trace();
    let mut buf = pcap_bytes(&trace);
    // Claim a ~3.9 GiB record: honouring it would try a multi-GB
    // allocation; the reader must skip the (clamped) record instead.
    patch_incl_len(&mut buf, 2, 0xEFFF_FFFF);
    // The bogus length swallows the rest of the file during the
    // discard, so everything after record 2 is lost — but the reader
    // neither allocates nor errors.
    let (parsed, skipped) = read_pcap(Cursor::new(&buf), trace.meta.clone()).unwrap();
    assert_eq!(skipped, 1);
    assert_eq!(parsed.packets, trace.packets[..2].to_vec());

    let mut reader =
        StreamingPcapReader::new(Cursor::new(&buf), trace.meta.clone(), DEFAULT_CHUNK_US).unwrap();
    let mut packets = Vec::new();
    while let Some(chunk) = reader.next_chunk().unwrap() {
        packets.extend_from_slice(&chunk.packets);
    }
    assert_eq!(packets, trace.packets[..2].to_vec());
    assert_eq!(reader.skipped(), 1);
}

#[test]
fn oversized_record_in_the_middle_resyncs_when_length_is_honest() {
    // An incl_len just over the clamp whose bytes really are present:
    // the reader skips exactly that record and keeps the rest.
    let trace = sample_trace();
    let frame: Vec<u8> = pcap_bytes(&trace);
    let frame_len =
        u32::from_le_bytes([frame[24 + 8], frame[24 + 9], frame[24 + 10], frame[24 + 11]]);
    // Build a file: record0 (good), oversized record, record1 (good).
    let mut buf = frame[..24].to_vec();
    let rec0 = &frame[24..24 + 16 + frame_len as usize];
    buf.extend_from_slice(rec0);
    let big = MAX_RECORD_BYTES + 17;
    let mut rec_hdr = [0u8; 16];
    rec_hdr[8..12].copy_from_slice(&(big as u32).to_le_bytes());
    rec_hdr[12..16].copy_from_slice(&(big as u32).to_le_bytes());
    buf.extend_from_slice(&rec_hdr);
    buf.extend_from_slice(&vec![0u8; big]);
    let rec1_off = 24 + 16 + frame_len as usize;
    buf.extend_from_slice(&frame[rec1_off..rec1_off + 16 + frame_len as usize]);

    let (parsed, skipped) = read_pcap(Cursor::new(&buf), trace.meta.clone()).unwrap();
    assert_eq!(skipped, 1, "oversized record not counted");
    assert_eq!(
        parsed.packets,
        trace.packets[..2].to_vec(),
        "resync after skip failed"
    );
}

#[test]
fn truncated_final_record_degrades_to_counted_skip() {
    let trace = sample_trace();
    let mut buf = pcap_bytes(&trace);
    buf.truncate(buf.len() - 7); // cut mid-frame of the last record
    let mut reader =
        StreamingPcapReader::new(Cursor::new(&buf), trace.meta.clone(), DEFAULT_CHUNK_US).unwrap();
    let mut packets = Vec::new();
    while let Some(chunk) = reader.next_chunk().unwrap() {
        packets.extend_from_slice(&chunk.packets);
    }
    // Everything before the damaged tail was delivered; the tail is a
    // counted, flagged skip — not an error that kills the sweep.
    assert_eq!(packets, trace.packets[..trace.packets.len() - 1].to_vec());
    assert_eq!(reader.skipped(), 1, "truncated tail must be counted");
    assert!(reader.truncated_tail(), "truncation must be flagged");
}

#[test]
fn truncated_record_header_degrades_to_counted_skip() {
    let trace = sample_trace();
    let frame_len = {
        let b = pcap_bytes(&trace);
        u32::from_le_bytes([b[32], b[33], b[34], b[35]])
    };
    let mut buf = pcap_bytes(&trace);
    // Cut inside the *header* of the last record: the partial record
    // is an observable truncation, not a silent clean EOF.
    let last_rec = buf.len() - (16 + frame_len as usize);
    buf.truncate(last_rec + 9);
    let mut reader =
        StreamingPcapReader::new(Cursor::new(&buf), trace.meta.clone(), DEFAULT_CHUNK_US).unwrap();
    let mut packets = Vec::new();
    while let Some(chunk) = reader.next_chunk().unwrap() {
        packets.extend_from_slice(&chunk.packets);
    }
    assert_eq!(packets, trace.packets[..trace.packets.len() - 1].to_vec());
    assert_eq!(reader.skipped(), 1, "partial header must be counted");
    assert!(reader.truncated_tail(), "truncation must be flagged");
}

#[test]
fn truncation_flag_resets_on_rewind() {
    let trace = sample_trace();
    let mut buf = pcap_bytes(&trace);
    buf.truncate(buf.len() - 7);
    let mut reader =
        StreamingPcapReader::new(Cursor::new(&buf), trace.meta.clone(), DEFAULT_CHUNK_US).unwrap();
    while reader.next_chunk().unwrap().is_some() {}
    assert!(reader.truncated_tail());
    reader.rewind().unwrap();
    assert!(!reader.truncated_tail());
    assert_eq!(reader.skipped(), 0);
}

#[test]
fn rewind_replays_the_identical_chunk_stream() {
    let trace = sample_trace();
    let buf = pcap_bytes(&trace);
    let mut reader =
        StreamingPcapReader::new(Cursor::new(&buf), trace.meta.clone(), DEFAULT_CHUNK_US).unwrap();
    let mut first = Vec::new();
    while let Some(chunk) = reader.next_chunk().unwrap() {
        first.push((chunk.window, chunk.packets.clone()));
    }
    reader.rewind().unwrap();
    let mut second = Vec::new();
    while let Some(chunk) = reader.next_chunk().unwrap() {
        second.push((chunk.window, chunk.packets.clone()));
    }
    assert_eq!(first.len(), second.len());
    for ((w1, p1), (w2, p2)) in first.iter().zip(&second) {
        assert_eq!(w1, w2);
        assert_eq!(p1, p2);
    }
}

#[test]
fn streaming_pipeline_runs_straight_off_a_pcap_stream() {
    use mawilab::core::{MawilabPipeline, OnlinePipeline, PipelineConfig};
    use mawilab::synth::{SynthConfig, TraceGenerator};
    let lt = TraceGenerator::new(SynthConfig::default().with_seed(31)).generate();
    let buf = pcap_bytes(&lt.trace);
    // Round-trip the trace through pcap so both pipelines see the
    // serialised packets.
    let (round, skipped) = read_pcap(Cursor::new(&buf), lt.trace.meta.clone()).unwrap();
    assert_eq!(skipped, 0);
    let batch = MawilabPipeline::new(PipelineConfig::default()).run(&round);

    let mut reader =
        StreamingPcapReader::new(Cursor::new(&buf), lt.trace.meta.clone(), DEFAULT_CHUNK_US)
            .unwrap();
    let streamed = OnlinePipeline::new(PipelineConfig::default())
        .run(&mut reader)
        .unwrap()
        .report;
    assert_eq!(streamed.communities.alarms, batch.communities.alarms);
    assert_eq!(streamed.decisions, batch.decisions);
}
