//! Failure-injection tests: degenerate inputs must degrade
//! gracefully, never panic.

use mawilab::core::{MawilabPipeline, PipelineConfig, StrategyKind};
use mawilab::model::pcap::{read_pcap, PcapError};
use mawilab::model::{Granularity, Packet, TcpFlags, Trace, TraceDate, TraceMeta};
use mawilab::similarity::SimilarityMeasure;
use std::net::Ipv4Addr;

fn meta() -> TraceMeta {
    TraceMeta::standard(TraceDate::new(2004, 6, 2))
}

#[test]
fn empty_trace_labels_nothing() {
    let trace = Trace::new(meta(), vec![]);
    for strategy in StrategyKind::ALL {
        let report = MawilabPipeline::new(PipelineConfig {
            strategy,
            ..Default::default()
        })
        .run(&trace);
        assert_eq!(report.community_count(), 0);
        assert!(report.labeled.communities.is_empty());
    }
}

#[test]
fn single_packet_trace_is_handled() {
    let base = meta().window().start_us;
    let trace = Trace::new(
        meta(),
        vec![Packet::tcp(
            base,
            Ipv4Addr::new(1, 2, 3, 4),
            1234,
            Ipv4Addr::new(5, 6, 7, 8),
            80,
            TcpFlags::syn(),
            40,
        )],
    );
    let report = MawilabPipeline::new(PipelineConfig::default()).run(&trace);
    assert!(report.community_count() <= 1);
}

#[test]
fn identical_packet_storm_is_handled() {
    // One flow repeated thousands of times: every detector sees a
    // degenerate distribution; nothing may panic or divide by zero.
    let base = meta().window().start_us;
    let packets: Vec<Packet> = (0..5000)
        .map(|i| {
            Packet::tcp(
                base + i * 1000,
                Ipv4Addr::new(9, 9, 9, 9),
                4444,
                Ipv4Addr::new(8, 8, 8, 8),
                53,
                TcpFlags::syn(),
                48,
            )
        })
        .collect();
    let trace = Trace::new(meta(), packets);
    for granularity in [
        Granularity::Packet,
        Granularity::Uniflow,
        Granularity::Biflow,
    ] {
        let report = MawilabPipeline::new(PipelineConfig {
            granularity,
            ..Default::default()
        })
        .run(&trace);
        // Whatever is reported must be internally consistent.
        assert_eq!(report.decisions.len(), report.community_count());
    }
}

#[test]
fn all_measures_and_granularities_run() {
    let base = meta().window().start_us;
    let mut packets = Vec::new();
    for i in 0..2000u64 {
        packets.push(Packet::udp(
            base + i * 5000,
            Ipv4Addr::new(10, (i % 50) as u8, 1, 1),
            1025 + (i % 100) as u16,
            Ipv4Addr::new(20, 1, 1, (i % 30) as u8),
            53,
            120,
        ));
    }
    let trace = Trace::new(meta(), packets);
    for measure in [
        SimilarityMeasure::Simpson,
        SimilarityMeasure::Jaccard,
        SimilarityMeasure::Constant,
    ] {
        let report = MawilabPipeline::new(PipelineConfig {
            measure,
            ..Default::default()
        })
        .run(&trace);
        assert_eq!(report.decisions.len(), report.community_count());
    }
}

#[test]
fn corrupt_pcap_inputs_error_cleanly() {
    // Garbage header.
    let garbage = vec![0xAAu8; 100];
    match read_pcap(std::io::Cursor::new(&garbage), meta()) {
        Err(PcapError::BadMagic(_)) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // Too short for a header.
    let short = vec![0u8; 10];
    assert!(matches!(
        read_pcap(std::io::Cursor::new(&short), meta()),
        Err(PcapError::Io(_))
    ));
}

#[test]
fn out_of_window_packets_do_not_break_binning() {
    // Packets stamped far outside the nominal 14:00 capture window
    // (clock skew in real captures). Detectors clamp or skip them.
    let w = meta().window();
    let packets = vec![
        Packet::udp(
            0,
            Ipv4Addr::new(1, 1, 1, 1),
            1,
            Ipv4Addr::new(2, 2, 2, 2),
            2,
            100,
        ),
        Packet::udp(
            w.start_us,
            Ipv4Addr::new(1, 1, 1, 1),
            1,
            Ipv4Addr::new(2, 2, 2, 2),
            2,
            100,
        ),
        Packet::udp(
            w.end_us + 1_000_000,
            Ipv4Addr::new(1, 1, 1, 1),
            1,
            Ipv4Addr::new(2, 2, 2, 2),
            2,
            100,
        ),
    ];
    let trace = Trace::new(meta(), packets);
    let report = MawilabPipeline::new(PipelineConfig::default()).run(&trace);
    assert_eq!(report.decisions.len(), report.community_count());
}
