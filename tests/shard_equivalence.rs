//! Equivalence proof for the sharded parallel similarity engine: the
//! time-binned `build_graph` must produce the exact graph of the
//! retained sequential reference — same edges, same weights, same
//! adjacency order — on arbitrary traffic sets, at any thread count.

use mawilab::graph::Graph;
use mawilab::similarity::{SimilarityEstimator, SimilarityMeasure};
use proptest::prelude::*;

/// Asserts two graphs are byte-identical: node/edge counts, adjacency
/// lists in order, self-loops.
fn assert_same_graph(a: &Graph, b: &Graph) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.node_count(), b.node_count());
    prop_assert_eq!(a.edge_count(), b.edge_count());
    for v in 0..a.node_count() {
        prop_assert_eq!(a.neighbors(v), b.neighbors(v));
        prop_assert_eq!(a.self_loop(v), b.self_loop(v));
    }
    Ok(())
}

/// Traffic sets shaped like real extractions: clustered ids (groups
/// of alarms share an id neighbourhood, so bins see real overlap)
/// with set sizes from empty to dozens of items.
fn arb_traffic() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec((0u32..8, prop::collection::vec(0u32..120, 0..40)), 0..30).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(group, offsets)| {
                    let mut set: Vec<u32> = offsets.into_iter().map(|o| group * 80 + o).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect()
        },
    )
}

/// Sparse variant: ids scattered over the whole u32 space, exercising
/// the hash-indexed fallback path of the sharded engine.
fn arb_sparse_traffic() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(any::<u32>(), 0..12), 0..16).prop_map(|raw| {
        raw.into_iter()
            .map(|mut set| {
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense, clustered traffic: sharded == sequential for every
    /// measure.
    #[test]
    fn sharded_build_matches_reference(traffic in arb_traffic()) {
        for measure in [
            SimilarityMeasure::Simpson,
            SimilarityMeasure::Jaccard,
            SimilarityMeasure::Constant,
        ] {
            let est = SimilarityEstimator { measure, ..Default::default() };
            assert_same_graph(
                &est.build_graph(&traffic),
                &est.build_graph_sequential(&traffic),
            )?;
        }
    }

    /// Sparse id spaces (hash-indexed bins): sharded == sequential.
    #[test]
    fn sharded_build_matches_reference_on_sparse_ids(traffic in arb_sparse_traffic()) {
        let est = SimilarityEstimator::default();
        assert_same_graph(
            &est.build_graph(&traffic),
            &est.build_graph_sequential(&traffic),
        )?;
    }

    /// The Louvain partition over a sharded graph equals the
    /// partition over the reference graph (the whole step-2 output is
    /// engine-independent, not just the edges).
    #[test]
    fn communities_are_engine_independent(traffic in arb_traffic()) {
        let est = SimilarityEstimator::default();
        let sharded = mawilab::graph::louvain(&est.build_graph(&traffic), 1.0);
        let reference = mawilab::graph::louvain(&est.build_graph_sequential(&traffic), 1.0);
        prop_assert_eq!(sharded, reference);
    }
}
