//! The Louvain community-detection method (Blondel et al. 2008).
//!
//! The paper (§2.1.3) selects Louvain because it identifies
//! communities *locally* — groups of just a few alarms are found even
//! in graphs dominated by disconnected false-positive nodes — and
//! because it is fast and accurate on sparse graphs.
//!
//! The implementation is the classic two-phase loop: (1) greedy local
//! moving, scanning nodes in deterministic order and relocating each
//! to the neighbouring community with maximal modularity gain;
//! (2) aggregation of communities into super-nodes; repeat until no
//! move improves modularity. Determinism matters here — the whole
//! MAWILab pipeline must label a trace identically on every run.
//!
//! Every level is a CSR [`Graph`]: the sweep walks flat arrays, and
//! aggregation builds the next level with the same edge-list
//! constructor the similarity estimator uses. Every level uses the
//! one sequential greedy sweep, so the partition does not depend on
//! graph size or on `MAWILAB_THREADS`.

use crate::graph::Graph;

/// A partition of graph nodes into communities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `community[v]` = community id of node `v`. Ids are dense
    /// (`0..community_count`), ordered by first appearance.
    pub community: Vec<usize>,
    pub(crate) count: usize,
}

impl Partition {
    /// Builds a partition from arbitrary (possibly sparse) labels,
    /// renumbering them to dense ids in order of first appearance.
    /// Labels must be `< labels.len()`.
    pub fn from_labels(mut labels: Vec<usize>) -> Self {
        // Renumber to dense ids in order of first appearance.
        let mut remap: Vec<Option<usize>> = vec![None; labels.len().max(1)];
        let mut next = 0;
        for l in &mut labels {
            let slot = remap.get_mut(*l).expect("label out of range"); // lint:allow(panic-free-data-plane): partition labels are vertex indices < len by construction
            match slot {
                Some(id) => *l = *id,
                None => {
                    *slot = Some(next);
                    *l = next;
                    next += 1;
                }
            }
        }
        Partition {
            community: labels,
            count: next,
        }
    }

    /// Number of communities.
    pub fn community_count(&self) -> usize {
        self.count
    }

    /// Community id of node `v`.
    pub fn of(&self, v: usize) -> usize {
        self.community[v]
    }

    /// Members of every community, indexed by community id.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.count];
        for (v, &c) in self.community.iter().enumerate() {
            out[c].push(v);
        }
        out
    }

    /// Sizes of communities, indexed by community id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0; self.count];
        for &c in &self.community {
            out[c] += 1;
        }
        out
    }
}

/// Modularity `Q` of a partition:
/// `Q = Σ_c [ Σ_in(c)/(2m) − (Σ_tot(c)/(2m))² ]`.
///
/// Returns 0 for graphs without edges (the convention that keeps the
/// similarity estimator well defined on all-singleton days).
pub fn modularity(g: &Graph, p: &Partition) -> f64 {
    assert_eq!(p.community.len(), g.node_count(), "partition size mismatch");
    let two_m = 2.0 * g.total_weight();
    if two_m == 0.0 {
        return 0.0;
    }
    let nc = p.community_count();
    let mut sigma_in = vec![0.0; nc]; // 2× intra-community weight
    let mut sigma_tot = vec![0.0; nc];
    for v in 0..g.node_count() {
        let cv = p.of(v);
        sigma_tot[cv] += g.degree(v);
        sigma_in[cv] += 2.0 * g.self_loop(v);
        for &(u, w) in g.neighbors(v) {
            if p.of(u as usize) == cv {
                sigma_in[cv] += w; // each intra edge visited twice
            }
        }
    }
    (0..nc)
        .map(|c| sigma_in[c] / two_m - (sigma_tot[c] / two_m).powi(2))
        .sum()
}

/// Runs Louvain to convergence and returns the final partition on the
/// original nodes.
///
/// `resolution` scales the null-model term of the gain (1.0 =
/// classical modularity; the paper uses the classical setting).
pub fn louvain(g: &Graph, resolution: f64) -> Partition {
    assert!(resolution > 0.0, "resolution must be positive");
    let n = g.node_count();
    if n == 0 {
        return Partition {
            community: vec![],
            count: 0,
        };
    }
    // node → community on the *original* graph, refined level by level.
    let mut assignment: Vec<usize> = (0..n).collect();
    let mut aggregated: Option<Graph> = None;

    loop {
        let level = aggregated.as_ref().unwrap_or(g);
        let (labels, improved) = one_level(level, resolution);
        if !improved {
            break;
        }
        let level_part = Partition::from_labels(labels);
        // Propagate: original node → its community at this level.
        for a in assignment.iter_mut() {
            *a = level_part.of(*a);
        }
        if level_part.community_count() == level.node_count() {
            break; // aggregation would be a no-op
        }
        aggregated = Some(aggregate(level, &level_part));
    }
    Partition::from_labels(assignment)
}

/// One round of greedy local moving from singleton labels: scan nodes
/// in order, each against the fully up-to-date state, until a full
/// pass moves nothing. Returns the label vector and whether any node
/// moved.
fn one_level(g: &Graph, resolution: f64) -> (Vec<usize>, bool) {
    let n = g.node_count();
    let mut labels: Vec<usize> = (0..n).collect();
    let two_m = 2.0 * g.total_weight();
    if two_m == 0.0 {
        return (labels, false);
    }
    let degrees = g.degrees();
    let mut sigma_tot: Vec<f64> = degrees.to_vec();
    let mut improved_any = false;

    // Scratch: community id → accumulated edge weight from the node
    // being scanned (reset lazily via a generation stamp).
    let mut scratch = GainScratch::new(n);

    loop {
        let mut moved = false;
        for v in 0..n {
            let cv = labels[v];
            let w_own = scratch.accumulate(g, &labels, v, cv);
            // Remove v from its community.
            sigma_tot[cv] -= degrees[v];
            let base_gain = w_own - resolution * sigma_tot[cv] * degrees[v] / two_m;
            let best_c = scratch.best(cv, base_gain, |c, w_to| {
                w_to - resolution * sigma_tot[c] * degrees[v] / two_m
            });
            sigma_tot[best_c] += degrees[v];
            if best_c != cv {
                labels[v] = best_c;
                moved = true;
                improved_any = true;
            }
        }
        if !moved {
            break;
        }
    }
    (labels, improved_any)
}

/// Reusable neighbor-community accumulation scratch: community id →
/// summed edge weight from the scanned node, reset lazily via a
/// generation stamp so each scan is O(degree).
struct GainScratch {
    weight_to: Vec<f64>,
    stamp: Vec<u32>,
    generation: u32,
    candidates: Vec<usize>,
}

impl GainScratch {
    fn new(n: usize) -> Self {
        GainScratch {
            weight_to: vec![0.0; n],
            stamp: vec![0; n],
            generation: 0,
            candidates: Vec::new(),
        }
    }

    /// Accumulates `v`'s edge weight per neighbouring community and
    /// returns the weight into `v`'s own community. Candidates are
    /// left sorted ascending for [`best`](Self::best).
    fn accumulate(&mut self, g: &Graph, labels: &[usize], v: usize, cv: usize) -> f64 {
        self.generation += 1;
        self.candidates.clear();
        for &(u, w) in g.neighbors(v) {
            let cu = labels[u as usize];
            if self.stamp[cu] != self.generation {
                self.stamp[cu] = self.generation;
                self.weight_to[cu] = 0.0;
                self.candidates.push(cu);
            }
            self.weight_to[cu] += w;
        }
        let w_own = if self.stamp[cv] == self.generation {
            self.weight_to[cv]
        } else {
            0.0
        };
        self.candidates.sort_unstable();
        w_own
    }

    /// The best community for the accumulated node: maximises
    /// `gain(c, weight_to[c])` over the sorted candidates, starting
    /// from the stay-put `base_gain`. Ties keep the lowest id so
    /// results are independent of scan order.
    fn best(&self, cv: usize, base_gain: f64, gain: impl Fn(usize, f64) -> f64) -> usize {
        let mut best_c = cv;
        let mut best_gain = base_gain;
        for &c in &self.candidates {
            if c == cv {
                continue;
            }
            let gain_c = gain(c, self.weight_to[c]);
            if gain_c > best_gain + 1e-12 {
                best_gain = gain_c;
                best_c = c;
            }
        }
        best_c
    }
}

/// Builds the aggregated graph: one node per community, inter-community
/// weights summed, intra-community weight folded into self-loops.
fn aggregate(g: &Graph, p: &Partition) -> Graph {
    let nc = p.community_count();
    // Self-loops: intra-community edge weight + old self-loops.
    let mut intra = vec![0.0f64; nc];
    let mut inter: Vec<(u32, u32, f64)> = Vec::new();
    for v in 0..g.node_count() {
        let cv = p.of(v);
        intra[cv] += g.self_loop(v);
        for &(u, w) in g.neighbors(v) {
            if (u as usize) <= v {
                continue; // each undirected edge once
            }
            let cu = p.of(u as usize);
            if cu == cv {
                intra[cv] += w;
            } else {
                let (a, b) = (cv.min(cu) as u32, cv.max(cu) as u32);
                inter.push((a, b, w));
            }
        }
    }
    inter.sort_unstable_by_key(|&(a, b, _)| (a, b));
    // Fold parallel edges (multiple original edges between the same
    // community pair) by summing weights in place, in the order the
    // sort left them; the constructor then sees each pair once.
    let mut folded: Vec<(u32, u32, f64)> = Vec::with_capacity(inter.len() + nc);
    for (a, b, w) in inter {
        match folded.last_mut() {
            Some(last) if last.0 == a && last.1 == b => last.2 += w,
            _ => folded.push((a, b, w)),
        }
    }
    for (c, &w) in intra.iter().enumerate() {
        if w > 0.0 {
            folded.push((c as u32, c as u32, w));
        }
    }
    Graph::from_edges(nc, &folded)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two dense triangles joined by one weak edge.
    fn two_triangles() -> Graph {
        let mut edges: Vec<(u32, u32, f64)> = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
            .iter()
            .map(|&(a, b)| (a, b, 1.0))
            .collect();
        edges.push((2, 3, 0.1));
        Graph::from_edges(6, &edges)
    }

    #[test]
    fn separates_two_triangles() {
        let g = two_triangles();
        let p = louvain(&g, 1.0);
        assert_eq!(p.community_count(), 2);
        assert_eq!(p.of(0), p.of(1));
        assert_eq!(p.of(1), p.of(2));
        assert_eq!(p.of(3), p.of(4));
        assert_ne!(p.of(0), p.of(3));
    }

    #[test]
    fn modularity_of_good_partition_beats_trivial() {
        let g = two_triangles();
        let good = louvain(&g, 1.0);
        let trivial = Partition::from_labels(vec![0; 6]);
        let singletons = Partition::from_labels((0..6).collect());
        assert!(modularity(&g, &good) > modularity(&g, &trivial));
        assert!(modularity(&g, &good) > modularity(&g, &singletons));
    }

    #[test]
    fn isolated_nodes_stay_singleton() {
        // Nodes 2, 3, 4 isolated (false-positive alarms in the paper).
        let g = Graph::from_edges(5, &[(0, 1, 1.0)]);
        let p = louvain(&g, 1.0);
        assert_eq!(p.of(0), p.of(1));
        let c2 = p.of(2);
        let c3 = p.of(3);
        let c4 = p.of(4);
        assert_ne!(c2, c3);
        assert_ne!(c3, c4);
        assert_eq!(p.community_count(), 4);
    }

    #[test]
    fn edgeless_graph_is_all_singletons_with_zero_modularity() {
        let g = Graph::from_edges(4, &[]);
        let p = louvain(&g, 1.0);
        assert_eq!(p.community_count(), 4);
        assert_eq!(modularity(&g, &p), 0.0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_edges(0, &[]);
        let p = louvain(&g, 1.0);
        assert_eq!(p.community_count(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = two_triangles();
        let p1 = louvain(&g, 1.0);
        let p2 = louvain(&g, 1.0);
        assert_eq!(p1, p2);
    }

    /// Four 4-cliques in a ring, the standard Louvain sanity graph.
    fn ring_of_cliques() -> Graph {
        let (k, cliques) = (4, 4);
        let mut edges = Vec::new();
        for c in 0..cliques {
            for i in 0..k {
                for j in (i + 1)..k {
                    edges.push((c * k + i, c * k + j, 1.0));
                }
            }
        }
        for c in 0..cliques {
            let next = (c + 1) % cliques;
            edges.push((c * k, next * k + 1, 0.2));
        }
        Graph::from_edges((k * cliques) as usize, &edges)
    }

    #[test]
    fn ring_of_cliques_finds_each_clique() {
        let (k, cliques) = (4, 4);
        let g = ring_of_cliques();
        let p = louvain(&g, 1.0);
        assert_eq!(p.community_count(), cliques);
        for c in 0..cliques {
            for i in 1..k {
                assert_eq!(p.of(c * k), p.of(c * k + i), "clique {c} split");
            }
        }
    }

    #[test]
    fn weights_drive_membership() {
        // Node 2 connects to both sides; heavier edge wins.
        let g = Graph::from_edges(5, &[(0, 1, 1.0), (3, 4, 1.0), (1, 2, 0.9), (2, 3, 0.1)]);
        let p = louvain(&g, 1.0);
        assert_eq!(p.of(2), p.of(1));
        assert_ne!(p.of(2), p.of(3));
    }

    #[test]
    fn modularity_matches_hand_computation() {
        // Single edge graph, both nodes together: Q = 1/2... compute:
        // m = 1, degrees = 1,1. Q = Σ_in/(2m) − (Σ_tot/(2m))²
        //   = 2/2 − (2/2)² = 1 − 1 = 0 for the merged partition;
        // singletons: each c has Σ_in=0, Σ_tot=1 → Q = −2·(1/2)² = −0.5.
        let g = Graph::from_edges(2, &[(0, 1, 1.0)]);
        let merged = Partition::from_labels(vec![0, 0]);
        let single = Partition::from_labels(vec![0, 1]);
        assert!((modularity(&g, &merged) - 0.0).abs() < 1e-12);
        assert!((modularity(&g, &single) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn louvain_never_decreases_vs_singletons() {
        // Pseudo-random sparse graph; Louvain must beat or match the
        // all-singleton baseline.
        let n = 60;
        let mut edges = Vec::new();
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..120 {
            let a = next() % n;
            let b = next() % n;
            if a != b {
                edges.push((a as u32, b as u32, ((next() % 9) + 1) as f64 / 10.0));
            }
        }
        let g = Graph::from_edges(n, &edges);
        let p = louvain(&g, 1.0);
        let singles = Partition::from_labels((0..n).collect());
        assert!(modularity(&g, &p) >= modularity(&g, &singles) - 1e-12);
    }

    #[test]
    fn partition_members_and_sizes_agree() {
        let g = two_triangles();
        let p = louvain(&g, 1.0);
        let members = p.members();
        let sizes = p.sizes();
        assert_eq!(members.len(), sizes.len());
        for (c, m) in members.iter().enumerate() {
            assert_eq!(m.len(), sizes[c]);
            for &v in m {
                assert_eq!(p.of(v), c);
            }
        }
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_panics() {
        louvain(&Graph::from_edges(1, &[]), 0.0);
    }

    /// Cliques of 8 over 60% of the nodes, the rest isolated — the
    /// shape of a real similarity graph.
    fn large_similarity_like(n: usize) -> Graph {
        Graph::from_edges(n, &planted_clique_edges(n))
    }

    /// The edges of [`large_similarity_like`].
    fn planted_clique_edges(n: usize) -> Vec<(u32, u32, f64)> {
        let mut edges = Vec::new();
        let clustered = n * 6 / 10;
        let mut state = 7u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for start in (0..clustered).step_by(8) {
            let end = (start + 8).min(clustered);
            for i in start..end {
                for j in (i + 1)..end {
                    if rnd() % 10 < 7 {
                        edges.push((i as u32, j as u32, ((rnd() % 90) + 10) as f64 / 100.0));
                    }
                }
            }
        }
        edges
    }

    #[test]
    fn large_graph_finds_the_planted_cliques() {
        let g = large_similarity_like(400);
        let p = louvain(&g, 1.0);
        // Clique members cluster together; isolated nodes stay
        // singleton.
        for start in (0..240).step_by(8) {
            let c = p.of(start);
            for i in start..(start + 8).min(240) {
                assert_eq!(p.of(i), c, "clique at {start} split");
            }
        }
        for v in 240..400 {
            assert_eq!(p.sizes()[p.of(v)], 1, "isolated node {v} absorbed");
        }
        let singles = Partition::from_labels((0..400).collect());
        assert!(modularity(&g, &p) > modularity(&g, &singles));
    }

    #[test]
    fn large_graph_is_deterministic() {
        let g = large_similarity_like(512);
        let p1 = louvain(&g, 1.0);
        let p2 = louvain(&g, 1.0);
        assert_eq!(p1, p2);
    }

    /// Largest modularity gain any single node of `g` can make by
    /// moving into a neighbouring community of `labels`, computed
    /// from the graph's own degrees and weights (not the sweep's
    /// bookkeeping): moving `v` of degree `k` from `A` to `B` changes
    /// `Q` by `(w(v,B) − w(v,A∖v))/m − k·(Σtot(B) − Σtot(A∖v))/(2m²)`.
    fn best_single_move_gain(g: &Graph, labels: &[usize]) -> f64 {
        let m = g.total_weight();
        let mut sigma_tot = vec![0.0; g.node_count()];
        for (v, &c) in labels.iter().enumerate() {
            sigma_tot[c] += g.degree(v);
        }
        let mut best = f64::NEG_INFINITY;
        for v in 0..g.node_count() {
            let (cv, k) = (labels[v], g.degree(v));
            let weight_into = |c: usize| -> f64 {
                g.neighbors(v)
                    .iter()
                    .filter(|&&(u, _)| u as usize != v && labels[u as usize] == c)
                    .map(|&(_, w)| w)
                    .sum()
            };
            let w_own = weight_into(cv);
            let sigma_own = sigma_tot[cv] - k;
            for &(u, _) in g.neighbors(v) {
                let c = labels[u as usize];
                if c == cv {
                    continue;
                }
                let gain =
                    (weight_into(c) - w_own) / m - k * (sigma_tot[c] - sigma_own) / (2.0 * m * m);
                best = best.max(gain);
            }
        }
        best
    }

    #[test]
    fn first_level_is_a_local_optimum() {
        // The planted cliques plus weak random cross edges, so
        // communities compete for boundary nodes.
        let planted_with_cross_edges = {
            let n = 400;
            let mut edges = planted_clique_edges(n);
            let mut state = 11u64;
            let mut rnd = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize
            };
            for _ in 0..600 {
                let (a, b) = (rnd() % n, rnd() % n);
                if a != b {
                    edges.push((a as u32, b as u32, ((rnd() % 30) + 1) as f64 / 100.0));
                }
            }
            Graph::from_edges(n, &edges)
        };
        for (name, g) in [
            ("two_triangles", two_triangles()),
            ("ring_of_cliques", ring_of_cliques()),
            ("planted_with_cross_edges", planted_with_cross_edges),
        ] {
            let singletons: Vec<usize> = (0..g.node_count()).collect();
            assert!(best_single_move_gain(&g, &singletons) > 0.0, "{name}");
            let (labels, improved) = one_level(&g, 1.0);
            assert!(improved, "{name}: the sweep moved nothing");
            let gain = best_single_move_gain(&g, &labels);
            assert!(gain <= 1e-12, "{name}: a single move still gains {gain}");
        }
    }
}
