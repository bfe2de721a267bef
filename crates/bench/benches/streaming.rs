//! Criterion bench: single-pass online vs batch ingest of one default
//! trace, plus the chunked pcap reader's parse throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mawilab_core::{MawilabPipeline, OnlinePipeline, PipelineConfig};
use mawilab_model::{pcap, PacketSource, StreamingPcapReader, TraceChunker, DEFAULT_CHUNK_US};
use mawilab_synth::{SynthConfig, TraceGenerator};
use std::hint::black_box;
use std::io::Cursor;

fn bench_streaming_pipeline(c: &mut Criterion) {
    let lt = TraceGenerator::new(SynthConfig::default().with_seed(77)).generate();
    let n = lt.trace.len() as u64;
    let mut g = c.benchmark_group("streaming_pipeline");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(n));

    let batch = MawilabPipeline::new(PipelineConfig::default());
    g.bench_function("batch", |b| {
        b.iter(|| black_box(batch.run(black_box(&lt.trace))))
    });

    let online = OnlinePipeline::new(PipelineConfig::default());
    for bin_us in [DEFAULT_CHUNK_US, 30_000_000] {
        g.bench_with_input(
            BenchmarkId::new("online", format!("{}s_chunks", bin_us / 1_000_000)),
            &bin_us,
            |b, &bin_us| {
                b.iter(|| {
                    let mut source = TraceChunker::new(lt.trace.clone(), bin_us);
                    black_box(online.run(&mut source).unwrap())
                })
            },
        );
    }
    g.finish();
}

fn bench_pcap_reader(c: &mut Criterion) {
    let lt = TraceGenerator::new(SynthConfig::default().with_seed(78)).generate();
    let mut buf = Vec::new();
    pcap::write_pcap(&mut buf, &lt.trace).unwrap();
    let mut g = c.benchmark_group("streaming_pcap_reader");
    g.throughput(criterion::Throughput::Bytes(buf.len() as u64));
    g.bench_function("chunked_parse", |b| {
        b.iter(|| {
            let mut reader = StreamingPcapReader::new(
                Cursor::new(&buf),
                lt.trace.meta.clone(),
                DEFAULT_CHUNK_US,
            )
            .unwrap();
            let mut packets = 0u64;
            while let Some(chunk) = reader.next_chunk().unwrap() {
                packets += chunk.packets.len() as u64;
            }
            black_box(packets)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_streaming_pipeline, bench_pcap_reader);
criterion_main!(benches);
