//! Criterion bench: similarity-graph construction (traffic extraction
//! is measured implicitly through the pipeline bench; here the focus
//! is the inverted-index pair scoring).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mawilab_similarity::SimilarityEstimator;
use std::hint::black_box;

/// Alarm traffic sets with realistic overlap structure: groups of ~6
/// alarms share most of their items.
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

fn bench_graph(c: &mut Criterion) {
    let est = SimilarityEstimator::default();
    let mut g = c.benchmark_group("similarity_graph");
    for n in [50usize, 200, 1000] {
        let sets = alarm_sets(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &sets, |b, sets| {
            b.iter(|| black_box(est.build_graph(black_box(sets))))
        });
    }
    g.finish();
}

/// Sharded engine vs the retained sequential reference on the same
/// workload — the in-tree before/after of the hot-path refactor.
fn bench_engines(c: &mut Criterion) {
    let est = SimilarityEstimator::default();
    let mut g = c.benchmark_group("similarity_graph_engines");
    for n in [200usize, 1000] {
        let sets = alarm_sets(n);
        g.bench_with_input(BenchmarkId::new("sequential", n), &sets, |b, sets| {
            b.iter(|| black_box(est.build_graph_sequential(black_box(sets))))
        });
        g.bench_with_input(BenchmarkId::new("sharded", n), &sets, |b, sets| {
            b.iter(|| black_box(est.build_graph(black_box(sets))))
        });
    }
    g.finish();
}

/// Guard for the candidate-pair set representation (the
/// `HashMap<(u32,u32),()>` → `HashSet` change): a dense-overlap
/// workload where almost every alarm pair co-occurs, so pair-set
/// insertion dominates graph construction.
fn bench_candidate_pairs(c: &mut Criterion) {
    let est = SimilarityEstimator::default();
    let mut g = c.benchmark_group("similarity_graph_pairs");
    for n in [100usize, 400] {
        // Every alarm shares items 0..40 with every other: ~n²/2 pairs.
        let sets: Vec<Vec<u32>> = (0..n)
            .map(|i| (0..40).chain([1000 + i as u32]).collect())
            .collect();
        g.bench_with_input(BenchmarkId::new("dense", n), &sets, |b, sets| {
            b.iter(|| black_box(est.build_graph(black_box(sets))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_graph, bench_engines, bench_candidate_pairs);
criterion_main!(benches);
