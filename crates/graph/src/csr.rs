//! Compressed sparse row (CSR) form of a weighted undirected graph.
//!
//! The Louvain inner loop is a tight scan over neighbor lists; the
//! pointer-chasing `Vec<Vec<(u32, f64)>>` adjacency of [`Graph`] costs
//! one heap hop per node. [`CsrGraph`] flattens the adjacency into
//! three parallel arrays (offsets / targets / weights) so sweeps walk
//! contiguous memory, caches weighted degrees, and gives the
//! aggregation step a constructor that bulk-builds a level graph from
//! a sorted edge list instead of one `add_edge` linear scan per edge.

use crate::graph::Graph;

/// A weighted undirected graph in CSR form. Neighbor lists exclude
/// self-loops, which are stored separately (matching [`Graph`]).
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` / `weights`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    self_loops: Vec<f64>,
    /// Cached weighted degrees (self-loops counted twice).
    degrees: Vec<f64>,
    /// Total edge weight `m` (each edge once, self-loops once).
    total_weight: f64,
}

impl CsrGraph {
    /// Flattens an adjacency-list graph, preserving neighbor order.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut total = 0;
        for v in 0..n {
            total += g.neighbors(v).len();
            offsets.push(total);
        }
        let mut targets = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for v in 0..n {
            for &(u, w) in g.neighbors(v) {
                targets.push(u);
                weights.push(w);
            }
        }
        let self_loops: Vec<f64> = (0..n).map(|v| g.self_loop(v)).collect();
        let degrees: Vec<f64> = (0..n).map(|v| g.degree(v)).collect();
        CsrGraph {
            offsets,
            targets,
            weights,
            self_loops,
            degrees,
            total_weight: g.total_weight(),
        }
    }

    /// Builds a CSR graph from deduplicated undirected edges
    /// (`a < b`, sorted ascending) and per-node self-loop weights —
    /// the aggregation step's bulk constructor. Neighbor lists come
    /// out sorted.
    pub fn from_sorted_edges(n: usize, edges: &[(u32, u32, f64)], self_loops: Vec<f64>) -> Self {
        assert_eq!(self_loops.len(), n, "one self-loop slot per node");
        let mut counts = vec![0usize; n];
        for &(a, b, _) in edges {
            debug_assert!(a < b && (b as usize) < n, "edges must be a < b < n");
            counts[a as usize] += 1;
            counts[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0;
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; acc];
        let mut weights = vec![0.0f64; acc];
        // Iterating edges in (a, b) order appends partners in
        // ascending order on both endpoints: for node x, all partners
        // a < x arrive (sorted by a) before all partners b > x.
        for &(a, b, w) in edges {
            let (a, b) = (a as usize, b as usize);
            targets[cursor[a]] = b as u32;
            weights[cursor[a]] = w;
            cursor[a] += 1;
            targets[cursor[b]] = a as u32;
            weights[cursor[b]] = w;
            cursor[b] += 1;
        }
        let degrees: Vec<f64> = (0..n)
            .map(|v| weights[offsets[v]..offsets[v + 1]].iter().sum::<f64>() + 2.0 * self_loops[v])
            .collect();
        let total_weight =
            edges.iter().map(|&(_, _, w)| w).sum::<f64>() + self_loops.iter().sum::<f64>();
        CsrGraph {
            offsets,
            targets,
            weights,
            self_loops,
            degrees,
            total_weight,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of `v` with edge weights.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let range = self.offsets[v]..self.offsets[v + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// Self-loop weight of `v` (0 when absent).
    pub fn self_loop(&self, v: usize) -> f64 {
        self.self_loops[v]
    }

    /// Weighted degree of `v` (self-loops counted twice).
    pub fn degree(&self, v: usize) -> f64 {
        self.degrees[v]
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

    fn sample() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 0.5);
        g.add_edge(1, 2, 1.5);
        g.add_edge(2, 2, 0.25);
        g
    }

    #[test]
    fn from_graph_preserves_structure() {
        let g = sample();
        let c = CsrGraph::from_graph(&g);
        assert_eq!(c.node_count(), 4);
        for v in 0..4 {
            let flat: Vec<(u32, f64)> = c.neighbors(v).collect();
            assert_eq!(flat.as_slice(), g.neighbors(v), "node {v}");
            assert_eq!(c.degree(v), g.degree(v), "degree {v}");
            assert_eq!(c.self_loop(v), g.self_loop(v), "loop {v}");
        }
        assert!((c.total_weight() - g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn from_sorted_edges_matches_from_graph() {
        let g = sample();
        let c =
            CsrGraph::from_sorted_edges(4, &[(0, 1, 0.5), (1, 2, 1.5)], vec![0.0, 0.0, 0.25, 0.0]);
        let r = CsrGraph::from_graph(&g);
        for v in 0..4 {
            let a: Vec<(u32, f64)> = c.neighbors(v).collect();
            let mut b: Vec<(u32, f64)> = r.neighbors(v).collect();
            b.sort_by_key(|&(u, _)| u);
            assert_eq!(a, b, "node {v}");
            assert_eq!(c.degree(v), r.degree(v));
        }
        assert!((c.total_weight() - r.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let c = CsrGraph::from_graph(&Graph::new(0));
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.total_weight(), 0.0);
    }
}
