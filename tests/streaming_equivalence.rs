//! Streaming ingest through `OnlinePipeline`: the number of packets
//! alive at any moment stays bounded by one chunk (asserted through a
//! counting source, not just claimed), and a custom detector set
//! streams to the same alarms and decisions as the batch
//! `MawilabPipeline::run`. Online ≡ batch for the standard detector
//! set is `tests/online_equivalence.rs`.

use mawilab::core::{MawilabPipeline, OnlinePipeline, PipelineConfig};
use mawilab::model::{
    PacketChunk, PacketSource, SourceError, TraceChunker, TraceMeta, DEFAULT_CHUNK_US,
};
use mawilab::synth::{AnomalySpec, SynthConfig, TraceGenerator};

fn synth(seed: u64) -> mawilab::synth::LabeledTrace {
    TraceGenerator::new(SynthConfig::default().with_seed(seed).with_anomalies(vec![
        AnomalySpec::SynFlood {
            victim: 40,
            dport: 80,
            rate_pps: 250.0,
            duration_s: 12.0,
            spoofed: true,
        },
        AnomalySpec::SasserWorm {
            infected: 3,
            scans: 900,
            rate_pps: 60.0,
        },
    ]))
    .generate()
}

/// A source that counts how many packets it has handed out in the
/// currently-lent chunk, and tracks the peak. Because `next_chunk`
/// lends from a single internal buffer, the packets of chunk N are
/// gone before chunk N+1 exists — `peak_live` IS the largest chunk,
/// and the assertion below pins it far under the trace size.
struct CountingSource {
    inner: TraceChunker,
    peak_live: usize,
    total: u64,
}

impl CountingSource {
    fn new(inner: TraceChunker) -> Self {
        CountingSource {
            inner,
            peak_live: 0,
            total: 0,
        }
    }
}

impl PacketSource for CountingSource {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn bin_us(&self) -> u64 {
        self.inner.bin_us()
    }

    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        match self.inner.next_chunk()? {
            Some(chunk) => {
                self.peak_live = self.peak_live.max(chunk.packets.len());
                self.total += chunk.packets.len() as u64;
                Ok(Some(chunk))
            }
            None => Ok(None),
        }
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.inner.rewind()
    }
}

#[test]
fn peak_live_packet_memory_is_bounded_by_one_chunk() {
    let lt = synth(11);
    let total = lt.trace.len();
    assert!(
        total > 10_000,
        "trace too small to make the bound meaningful: {total}"
    );
    let mut source = CountingSource::new(TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US));
    let stats = OnlinePipeline::new(PipelineConfig::default())
        .run(&mut source)
        .unwrap()
        .stats;

    // The one drain pulled everything…
    assert_eq!(source.total, total as u64);
    assert_eq!(stats.packets, total as u64);
    // …but the pipeline never saw more than one chunk's packets at a
    // time, and the report's own accounting agrees with the source's.
    assert_eq!(stats.peak_chunk_packets, source.peak_live);
    assert!(
        source.peak_live * 4 < total,
        "peak live packets {} is not clearly below trace size {}",
        source.peak_live,
        total
    );
    // The 60 s trace cut into 5 s bins: a genuinely multi-chunk
    // stream, not one big chunk.
    assert!(stats.chunks >= 10, "only {} chunks", stats.chunks);
}

#[test]
fn custom_detector_set_streams_too() {
    use mawilab::detectors::{Detector, KlDetector, Tuning};
    let lt = synth(5);
    let detectors: Vec<Box<dyn Detector>> = vec![Box::new(KlDetector::new(Tuning::Sensitive))];
    let config = PipelineConfig::default();
    let batch = MawilabPipeline::new(config.clone())
        .with_detectors(vec![Box::new(KlDetector::new(Tuning::Sensitive))])
        .run(&lt.trace);
    let mut source = TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US);
    let streamed = OnlinePipeline::new(config)
        .with_detectors(detectors)
        .run(&mut source)
        .unwrap()
        .report;
    assert_eq!(streamed.communities.alarms, batch.communities.alarms);
    assert_eq!(streamed.decisions, batch.decisions);
}
