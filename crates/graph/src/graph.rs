//! Weighted undirected graph in compressed sparse row (CSR) form.
//!
//! The Louvain inner loop is a tight scan over neighbor lists, so the
//! graph stores every node's neighbors in one flat `(neighbor, weight)`
//! array indexed by row offsets, caches weighted degrees, and is built
//! in one pass from an edge list — the similarity estimator and the
//! Louvain aggregation step both hand it their edges in bulk.

/// Weighted undirected graph over nodes `0..n`, in CSR form.
///
/// Parallel edges are merged by summing weights; self-loops are
/// allowed and stored apart from the neighbor lists. Edge weights
/// must be positive (similarity measures are in `(0, 1]`).
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `adjacency`.
    offsets: Vec<usize>,
    /// Every node's neighbors with edge weights, ascending by neighbor.
    adjacency: Vec<(u32, f64)>,
    self_loops: Vec<f64>,
    /// Cached weighted degrees (self-loops counted twice).
    degrees: Vec<f64>,
    /// Total edge weight `m` (each edge once, self-loops once).
    total_weight: f64,
    edge_count: usize,
}

impl Graph {
    /// Builds the graph on nodes `0..n` from undirected edges
    /// `(u, v, w)` in any order. Parallel edges (either orientation)
    /// are merged by summing their weights in input order; `u == v`
    /// adds to `u`'s self-loop. Neighbor lists come out ascending.
    ///
    /// Panics when an endpoint is `≥ n` or a weight is not positive
    /// and finite.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut counts = vec![0usize; n];
        let mut self_loops = vec![0.0f64; n];
        for &(u, v, w) in edges {
            assert!((u as usize) < n && (v as usize) < n, "node out of range");
            assert!(w > 0.0 && w.is_finite(), "edge weight must be positive");
            if u == v {
                self_loops[u as usize] += w;
            } else {
                counts[u as usize] += 1;
                counts[v as usize] += 1;
            }
        }
        let mut cursor = Vec::with_capacity(n);
        let mut acc = 0;
        for &c in &counts {
            cursor.push(acc);
            acc += c;
        }
        // Both directions of every edge, grouped by node in input order.
        let mut entries = vec![(0u32, 0.0f64); acc];
        for &(u, v, w) in edges {
            if u != v {
                entries[cursor[u as usize]] = (v, w);
                cursor[u as usize] += 1;
                entries[cursor[v as usize]] = (u, w);
                cursor[v as usize] += 1;
            }
        }
        // Per node: a stable sort by neighbor keeps parallel edges in
        // input order, and the fold sums them in that order.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut adjacency: Vec<(u32, f64)> = Vec::with_capacity(acc);
        let mut start = 0;
        for &c in &counts {
            let row = &mut entries[start..start + c];
            row.sort_by_key(|&(u, _)| u);
            let row_start = adjacency.len();
            for &(u, w) in row.iter() {
                match adjacency[row_start..].last_mut() {
                    Some(last) if last.0 == u => last.1 += w,
                    _ => adjacency.push((u, w)),
                }
            }
            offsets.push(adjacency.len());
            start += c;
        }
        let degrees: Vec<f64> = (0..n)
            .map(|v| {
                adjacency[offsets[v]..offsets[v + 1]]
                    .iter()
                    .map(|&(_, w)| w)
                    .sum::<f64>()
                    + 2.0 * self_loops[v]
            })
            .collect();
        let total_weight =
            adjacency.iter().map(|&(_, w)| w).sum::<f64>() / 2.0 + self_loops.iter().sum::<f64>();
        let edge_count = adjacency.len() / 2 + self_loops.iter().filter(|&&w| w > 0.0).count();
        Graph {
            offsets,
            adjacency,
            self_loops,
            degrees,
            total_weight,
            edge_count,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct edges (self-loops included).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbours of `u` (excluding any self-loop) with edge weights,
    /// ascending by neighbor.
    pub fn neighbors(&self, u: usize) -> &[(u32, f64)] {
        &self.adjacency[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Self-loop weight of `u` (0 when absent).
    pub fn self_loop(&self, u: usize) -> f64 {
        self.self_loops[u]
    }

    /// Weighted degree: Σ incident edge weights, self-loops counted
    /// twice (the standard modularity convention).
    pub fn degree(&self, u: usize) -> f64 {
        self.degrees[u]
    }

    /// All weighted degrees, indexed by node.
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// Total edge weight `m` (each edge once, self-loops once).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_symmetric() {
        let g = Graph::from_edges(3, &[(0, 1, 0.5)]);
        assert_eq!(g.neighbors(0), &[(1, 0.5)]);
        assert_eq!(g.neighbors(1), &[(0, 0.5)]);
        assert!(g.neighbors(2).is_empty());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn parallel_edges_merge() {
        let g = Graph::from_edges(2, &[(0, 1, 0.3), (1, 0, 0.2)]);
        assert_eq!(g.edge_count(), 1);
        assert!((g.neighbors(0)[0].1 - 0.5).abs() < 1e-12);
        assert!((g.neighbors(1)[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_edges_sum_in_input_order() {
        // Past 2^53 the spacing of f64 is 2: (2^53 + 1) + 1 rounds
        // back to 2^53 twice, while 1 + 1 + 2^53 is exact, so the
        // merged weight shows the summation order.
        let big = 2f64.powi(53);
        let g = Graph::from_edges(2, &[(0, 1, big), (1, 0, 1.0), (0, 1, 1.0)]);
        assert_eq!(g.neighbors(0), &[(1, big)]);
        assert_eq!(g.neighbors(1), &[(0, big)]);
        let reordered = Graph::from_edges(2, &[(0, 1, 1.0), (1, 0, 1.0), (0, 1, big)]);
        assert_eq!(reordered.neighbors(0), &[(1, big + 2.0)]);
        let loops = Graph::from_edges(1, &[(0, 0, big), (0, 0, 1.0), (0, 0, 1.0)]);
        assert_eq!(loops.self_loop(0), big);
    }

    #[test]
    fn neighbors_come_out_ascending_from_any_edge_order() {
        let g = Graph::from_edges(4, &[(3, 0, 0.3), (0, 2, 0.2), (1, 0, 0.1)]);
        assert_eq!(g.neighbors(0), &[(1, 0.1), (2, 0.2), (3, 0.3)]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn self_loop_counts_twice_in_degree() {
        let g = Graph::from_edges(2, &[(0, 0, 1.5), (0, 1, 1.0)]);
        assert_eq!(g.degree(0), 4.0);
        assert_eq!(g.degree(1), 1.0);
        assert_eq!(g.self_loop(0), 1.5);
        assert!(g.neighbors(0).iter().all(|&(u, _)| u != 0));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn total_weight_counts_each_edge_once() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 2, 0.5)]);
        assert!((g.total_weight() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn sum_degrees_is_twice_total_weight() {
        let g = Graph::from_edges(4, &[(0, 1, 0.7), (1, 2, 0.9), (3, 3, 0.4)]);
        let deg_sum: f64 = (0..4).map(|u| g.degree(u)).sum();
        assert!((deg_sum - 2.0 * g.total_weight()).abs() < 1e-12);
        assert_eq!(g.degrees().len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, &[(0, 5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_self_loop_panics() {
        Graph::from_edges(2, &[(2, 2, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_weight_panics() {
        Graph::from_edges(2, &[(0, 1, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn negative_weight_panics() {
        Graph::from_edges(2, &[(0, 1, -0.5)]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nan_weight_panics() {
        Graph::from_edges(2, &[(0, 1, f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn infinite_weight_panics() {
        Graph::from_edges(2, &[(1, 1, f64::INFINITY)]);
    }

    #[test]
    fn empty_graph_is_consistent() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_weight(), 0.0);
        let isolated = Graph::from_edges(3, &[]);
        assert_eq!(isolated.node_count(), 3);
        assert!((0..3).all(|v| isolated.neighbors(v).is_empty() && isolated.degree(v) == 0.0));
    }
}
