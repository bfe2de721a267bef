//! Criterion bench: Louvain community mining on similarity-graph-like
//! inputs (many isolated nodes + clustered cores).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mawilab_graph::{louvain, Graph};
use std::hint::black_box;

/// Builds a graph shaped like a real similarity graph: dense
/// communities of ~8 nodes over 60% of the nodes, the rest isolated.
fn similarity_like(n: usize) -> Graph {
    let mut edges = Vec::new();
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
                    edges.push((i as u32, j as u32, ((rnd() % 90) + 10) as f64 / 100.0));
                }
            }
        }
    }
    Graph::from_edges(n, &edges)
}

fn bench_louvain(c: &mut Criterion) {
    let mut g = c.benchmark_group("louvain");
    for n in [100usize, 500, 2000] {
        let graph = similarity_like(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, graph| {
            b.iter(|| black_box(louvain(black_box(graph), 1.0)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_louvain);
criterion_main!(benches);
