//! Similarity graph construction and community mining.

use crate::extractor::{extract_traffic, intersection_size};
use mawilab_detectors::{Alarm, DetectorKind, TraceView};
use mawilab_graph::{louvain, Graph, Partition};
use mawilab_model::{FastMap, FastSet, Granularity};

/// Edge-weight measure between two alarms' traffic sets (paper
/// §2.1.2). Simpson outperformed the others in the paper's
/// experiments and is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimilarityMeasure {
    /// `|A∩B| / min(|A|,|B|)` — 1.0 when one alarm is contained in the
    /// other.
    #[default]
    Simpson,
    /// `|A∩B| / |A∪B|`.
    Jaccard,
    /// 1.0 whenever the sets intersect at all.
    Constant,
}

impl SimilarityMeasure {
    /// Computes the measure given `|A∩B|`, `|A|`, `|B|`.
    pub fn value(&self, inter: usize, a: usize, b: usize) -> f64 {
        if inter == 0 {
            return 0.0;
        }
        match self {
            SimilarityMeasure::Simpson => inter as f64 / a.min(b) as f64,
            SimilarityMeasure::Jaccard => inter as f64 / (a + b - inter) as f64,
            SimilarityMeasure::Constant => 1.0,
        }
    }
}

impl std::fmt::Display for SimilarityMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimilarityMeasure::Simpson => write!(f, "simpson"),
            SimilarityMeasure::Jaccard => write!(f, "jaccard"),
            SimilarityMeasure::Constant => write!(f, "constant"),
        }
    }
}

/// The similarity estimator: configuration of steps 2–3 of the paper's
/// method.
#[derive(Debug, Clone)]
pub struct SimilarityEstimator {
    /// Traffic granularity used for extraction (paper settles on
    /// uniflow, §5).
    pub granularity: Granularity,
    /// Edge-weight measure (paper: Simpson).
    pub measure: SimilarityMeasure,
    /// Louvain resolution (1.0 = classical modularity).
    pub resolution: f64,
}

impl Default for SimilarityEstimator {
    fn default() -> Self {
        SimilarityEstimator {
            granularity: Granularity::Uniflow,
            measure: SimilarityMeasure::Simpson,
            resolution: 1.0,
        }
    }
}

impl SimilarityEstimator {
    /// Runs extraction, graph construction and community mining over
    /// a set of alarms.
    pub fn estimate(&self, view: &TraceView<'_>, alarms: Vec<Alarm>) -> AlarmCommunities {
        let traffic = extract_traffic(view, &alarms, self.granularity);
        self.estimate_from_traffic(alarms, traffic)
    }

    /// Graph construction and community mining over already-extracted
    /// per-alarm traffic sets — the entry point of the single-pass
    /// pipeline, whose evidence is banked chunk by chunk. `estimate`
    /// delegates here, so batch and single-pass share the exact same
    /// graph/partition code.
    pub fn estimate_from_traffic(
        &self,
        alarms: Vec<Alarm>,
        traffic: Vec<Vec<u32>>,
    ) -> AlarmCommunities {
        assert_eq!(
            alarms.len(),
            traffic.len(),
            "one traffic set per alarm required"
        );
        let graph = self.build_graph(&traffic);
        let partition = louvain(&graph, self.resolution);
        AlarmCommunities::new(alarms, traffic, graph, partition, self.granularity)
    }

    /// Builds the similarity graph from per-alarm traffic sets with
    /// the sharded counting engine: per time bin of the traffic-id
    /// space, co-occurring pairs are discovered *with their exact
    /// intersection sizes* (see `shard::cooccurrence` — the
    /// emission multiplicity of a pair over all item buckets is
    /// `|A∩B|`), so the weight is one arithmetic step per pair and
    /// the per-pair sorted-merge scoring pass of earlier revisions is
    /// gone. The weighted edges, unique and in `(a, b)` order, go
    /// straight into the CSR graph; output is byte-identical to
    /// [`build_graph_sequential`](Self::build_graph_sequential) at
    /// any `MAWILAB_THREADS` setting.
    pub fn build_graph(&self, traffic: &[Vec<u32>]) -> Graph {
        let edges: Vec<(u32, u32, f64)> = crate::shard::cooccurrence(traffic)
            .into_iter()
            .filter_map(|(a, b, inter)| {
                let (sa, sb) = (&traffic[a as usize], &traffic[b as usize]);
                self.edge(a, b, inter as usize, sa.len(), sb.len())
            })
            .collect();
        Graph::from_edges(traffic.len(), &edges)
    }

    /// The weighted edge `a—b`, or `None` when its weight is zero:
    /// every intersecting pair is linked (paper §2.1).
    fn edge(&self, a: u32, b: u32, inter: usize, la: usize, lb: usize) -> Option<(u32, u32, f64)> {
        let w = self.measure.value(inter, la, lb);
        (w > 0.0).then_some((a, b, w))
    }

    /// The retained single-threaded reference implementation: one
    /// global inverted index, hash-set pair dedup, sequential
    /// scoring. Kept as the equivalence oracle for the sharded engine
    /// (`tests/shard_equivalence.rs` property-tests
    /// [`build_graph`](Self::build_graph) against it).
    pub fn build_graph_sequential(&self, traffic: &[Vec<u32>]) -> Graph {
        // item → alarms containing it.
        let mut index: FastMap<u32, Vec<u32>> = FastMap::default();
        for (ai, set) in traffic.iter().enumerate() {
            for &item in set {
                index.entry(item).or_default().push(ai as u32);
            }
        }
        // Candidate pairs = pairs sharing ≥1 item.
        let mut pairs: FastSet<(u32, u32)> = FastSet::default();
        for alarms in index.values() {
            for i in 0..alarms.len() {
                for j in (i + 1)..alarms.len() {
                    pairs.insert((alarms[i], alarms[j]));
                }
            }
        }
        let mut pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        pairs.sort_unstable();
        let edges: Vec<(u32, u32, f64)> = pairs
            .into_iter()
            .filter_map(|(a, b)| {
                let (sa, sb) = (&traffic[a as usize], &traffic[b as usize]);
                self.edge(a, b, intersection_size(sa, sb), sa.len(), sb.len())
            })
            .collect();
        Graph::from_edges(traffic.len(), &edges)
    }
}

/// Output of the similarity estimator: alarms, their traffic sets, and
/// the community partition.
///
/// The public fields are for *read* access: accessors are backed by a
/// member-list cache computed once at construction, so mutating
/// `partition` / `alarms` / `traffic` in place desynchronizes them.
/// To re-partition, build a fresh value via [`AlarmCommunities::new`].
#[derive(Debug, Clone)]
pub struct AlarmCommunities {
    /// The analyzed alarms (node ids = indices).
    pub alarms: Vec<Alarm>,
    /// Per-alarm traffic id sets (aligned with `alarms`).
    pub traffic: Vec<Vec<u32>>,
    /// The similarity graph.
    pub graph: Graph,
    /// Louvain partition of the graph.
    pub partition: Partition,
    /// Granularity the traffic sets are expressed in.
    pub granularity: Granularity,
    /// Per-community member lists, computed once at construction —
    /// `detectors_in` / `community_window` and the vote
    /// table all iterate members repeatedly, and the former O(n)
    /// scan per call dominated labeling on alarm-heavy days.
    members: Vec<Vec<usize>>,
}

impl AlarmCommunities {
    /// Bundles estimator output, precomputing the per-community
    /// member lists every downstream accessor shares.
    pub fn new(
        alarms: Vec<Alarm>,
        traffic: Vec<Vec<u32>>,
        graph: Graph,
        partition: Partition,
        granularity: Granularity,
    ) -> Self {
        assert_eq!(
            alarms.len(),
            traffic.len(),
            "one traffic set per alarm required"
        );
        assert_eq!(
            alarms.len(),
            partition.community.len(),
            "partition over different alarms"
        );
        let members = partition.members();
        AlarmCommunities {
            alarms,
            traffic,
            graph,
            partition,
            granularity,
            members,
        }
    }

    /// Number of communities.
    pub fn community_count(&self) -> usize {
        self.partition.community_count()
    }

    /// Alarm indices of community `c` (ascending).
    pub fn members(&self, c: usize) -> &[usize] {
        &self.members[c]
    }

    /// Sizes of all communities, indexed by community id.
    pub fn sizes(&self) -> Vec<usize> {
        self.partition.sizes()
    }

    /// Number of single (size-1) communities — the estimator's
    /// false-relation signal (paper Fig. 3(a)).
    pub fn single_count(&self) -> usize {
        self.sizes().iter().filter(|&&s| s == 1).count()
    }

    /// Union of the traffic ids of a community's alarms.
    pub fn community_traffic(&self, c: usize) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &m in self.members(c) {
            out.extend_from_slice(&self.traffic[m]);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Distinct detector families with an alarm in community `c`.
    pub fn detectors_in(&self, c: usize) -> Vec<DetectorKind> {
        let mut kinds: Vec<DetectorKind> = self
            .members(c)
            .iter()
            .map(|&m| self.alarms[m].detector)
            .collect();
        kinds.sort();
        kinds.dedup();
        kinds
    }

    /// Earliest-start / latest-end window over a community's alarms.
    pub fn community_window(&self, c: usize) -> Option<mawilab_model::TimeWindow> {
        let mut it = self.members(c).iter().map(|&m| self.alarms[m].window);
        let first = it.next()?;
        Some(it.fold(first, |acc, w| acc.union(&w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_detectors::{AlarmScope, DetectorKind, Tuning};
    use mawilab_model::TimeWindow;
    use std::net::Ipv4Addr;

    fn mk_alarm(d: DetectorKind, t: Tuning) -> Alarm {
        Alarm {
            detector: d,
            tuning: t,
            window: TimeWindow::new(0, 1),
            scope: AlarmScope::SrcHost(Ipv4Addr::new(1, 1, 1, 1)),
            score: 1.0,
        }
    }

    /// Builds communities directly from synthetic traffic sets.
    fn estimate_sets(sets: Vec<Vec<u32>>, alarms: Vec<Alarm>) -> AlarmCommunities {
        let est = SimilarityEstimator::default();
        let graph = est.build_graph(&sets);
        let partition = louvain(&graph, 1.0);
        AlarmCommunities::new(alarms, sets, graph, partition, Granularity::Uniflow)
    }

    #[test]
    fn measure_values() {
        let m = SimilarityMeasure::Simpson;
        assert_eq!(m.value(2, 2, 10), 1.0); // containment
        assert_eq!(m.value(1, 2, 4), 0.5);
        assert_eq!(m.value(0, 2, 4), 0.0);
        let j = SimilarityMeasure::Jaccard;
        assert_eq!(j.value(2, 4, 4), 2.0 / 6.0);
        let c = SimilarityMeasure::Constant;
        assert_eq!(c.value(1, 100, 100), 1.0);
        assert_eq!(c.value(0, 100, 100), 0.0);
    }

    #[test]
    fn simpson_bounds_and_symmetry() {
        for (i, a, b) in [(1usize, 3usize, 7usize), (3, 3, 9), (2, 5, 5), (4, 4, 4)] {
            for m in [
                SimilarityMeasure::Simpson,
                SimilarityMeasure::Jaccard,
                SimilarityMeasure::Constant,
            ] {
                let v1 = m.value(i, a, b);
                let v2 = m.value(i, b, a);
                assert_eq!(v1, v2, "asymmetric {m}");
                assert!((0.0..=1.0).contains(&v1));
            }
        }
    }

    #[test]
    fn identical_alarms_cluster() {
        let sets = vec![vec![1, 2, 3], vec![1, 2, 3], vec![10, 11]];
        let alarms = vec![
            mk_alarm(DetectorKind::Pca, Tuning::Optimal),
            mk_alarm(DetectorKind::Kl, Tuning::Optimal),
            mk_alarm(DetectorKind::Gamma, Tuning::Optimal),
        ];
        let c = estimate_sets(sets, alarms);
        assert_eq!(c.community_count(), 2);
        assert_eq!(c.partition.of(0), c.partition.of(1));
        assert_ne!(c.partition.of(0), c.partition.of(2));
        assert_eq!(c.single_count(), 1);
    }

    #[test]
    fn contained_alarm_joins_the_container() {
        // Paper's host-vs-flow example: A1 (host) contains B1, B2
        // (flows); Simpson gives weight 1 to both edges.
        let sets = vec![vec![1, 2, 3, 4, 5, 6], vec![1, 2], vec![5, 6]];
        let alarms = vec![
            mk_alarm(DetectorKind::Pca, Tuning::Optimal),
            mk_alarm(DetectorKind::Hough, Tuning::Optimal),
            mk_alarm(DetectorKind::Hough, Tuning::Sensitive),
        ];
        let c = estimate_sets(sets, alarms);
        assert_eq!(c.community_count(), 1);
        assert_eq!(
            c.detectors_in(0),
            vec![DetectorKind::Pca, DetectorKind::Hough]
        );
    }

    #[test]
    fn empty_sets_are_isolated() {
        let sets = vec![vec![], vec![1], vec![1]];
        let alarms = vec![
            mk_alarm(DetectorKind::Pca, Tuning::Optimal),
            mk_alarm(DetectorKind::Kl, Tuning::Optimal),
            mk_alarm(DetectorKind::Kl, Tuning::Sensitive),
        ];
        let c = estimate_sets(sets, alarms);
        assert_eq!(c.community_count(), 2);
        assert_eq!(c.single_count(), 1);
    }

    #[test]
    fn community_traffic_is_union() {
        let sets = vec![vec![1, 2], vec![2, 3]];
        let alarms = vec![
            mk_alarm(DetectorKind::Pca, Tuning::Optimal),
            mk_alarm(DetectorKind::Kl, Tuning::Optimal),
        ];
        let c = estimate_sets(sets, alarms);
        assert_eq!(c.community_count(), 1);
        assert_eq!(c.community_traffic(0), vec![1, 2, 3]);
    }

    #[test]
    fn any_overlap_is_an_edge_and_none_is_not() {
        // Overlap of exactly one item: Simpson = 1/100, still linked.
        let sets = vec![
            (0..100).collect::<Vec<u32>>(),
            (99..200).collect(),
            vec![500],
        ];
        let g = SimilarityEstimator::default().build_graph(&sets);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[(1, 0.01)]);
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    fn no_alarms_no_communities() {
        let c = estimate_sets(vec![], vec![]);
        assert_eq!(c.community_count(), 0);
        assert_eq!(c.single_count(), 0);
    }

    #[test]
    fn community_window_unions_member_windows() {
        let mut a1 = mk_alarm(DetectorKind::Pca, Tuning::Optimal);
        a1.window = TimeWindow::new(10, 20);
        let mut a2 = mk_alarm(DetectorKind::Kl, Tuning::Optimal);
        a2.window = TimeWindow::new(15, 40);
        let c = estimate_sets(vec![vec![1], vec![1]], vec![a1, a2]);
        assert_eq!(c.community_window(0), Some(TimeWindow::new(10, 40)));
    }

    #[test]
    fn graph_build_deterministic() {
        let sets: Vec<Vec<u32>> = (0..20).map(|i| ((i * 3)..(i * 3 + 10)).collect()).collect();
        let est = SimilarityEstimator::default();
        let g1 = est.build_graph(&sets);
        let g2 = est.build_graph(&sets);
        assert_eq!(g1.edge_count(), g2.edge_count());
        for v in 0..g1.node_count() {
            assert_eq!(g1.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    fn sharded_build_matches_sequential_reference() {
        let sets: Vec<Vec<u32>> = (0..60)
            .map(|i| {
                let base = (i % 7) * 50;
                (base..base + 30 + i % 11).collect()
            })
            .collect();
        for measure in [
            SimilarityMeasure::Simpson,
            SimilarityMeasure::Jaccard,
            SimilarityMeasure::Constant,
        ] {
            let est = SimilarityEstimator {
                measure,
                ..Default::default()
            };
            let sharded = est.build_graph(&sets);
            let reference = est.build_graph_sequential(&sets);
            assert_eq!(sharded.edge_count(), reference.edge_count(), "{measure}");
            for v in 0..reference.node_count() {
                assert_eq!(
                    sharded.neighbors(v),
                    reference.neighbors(v),
                    "{measure} node {v}"
                );
            }
        }
    }
}
