//! Worked examples lifted directly from the paper's text, reproduced
//! through the real data structures.

use mawilab::combiner::{Average, CombinationStrategy, Maximum, Minimum, VoteTable};
use mawilab::detectors::{Alarm, AlarmScope, DetectorKind, Tuning};
use mawilab::graph::Partition;
use mawilab::model::{Granularity, TimeWindow};
use mawilab::similarity::{AlarmCommunities, SimilarityEstimator, SimilarityMeasure};
use std::net::Ipv4Addr;

fn alarm(detector: DetectorKind, tuning: Tuning) -> Alarm {
    Alarm {
        detector,
        tuning,
        window: TimeWindow::new(0, 1_000_000),
        scope: AlarmScope::SrcHost(Ipv4Addr::new(192, 0, 2, 1)),
        score: 1.0,
    }
}

/// Paper Fig. 2: a community with alarms A0, A1, B0, B1, B2 out of
/// three detectors × three configurations gives ϕ_A = 0.66,
/// ϕ_B = 1.0, ϕ_C = 0.0.
#[test]
fn figure2_confidence_scores() {
    // Map A=PCA, B=Gamma, C=Hough. All five alarms share traffic so
    // they form one community.
    let alarms = vec![
        alarm(DetectorKind::Pca, Tuning::Conservative),   // A0
        alarm(DetectorKind::Pca, Tuning::Optimal),        // A1
        alarm(DetectorKind::Gamma, Tuning::Conservative), // B0
        alarm(DetectorKind::Gamma, Tuning::Optimal),      // B1
        alarm(DetectorKind::Gamma, Tuning::Sensitive),    // B2
    ];
    let traffic: Vec<Vec<u32>> = vec![vec![1, 2, 3]; 5];
    let est = SimilarityEstimator::default();
    let graph = est.build_graph(&traffic);
    let communities = AlarmCommunities::new(
        alarms,
        traffic,
        graph,
        Partition::from_labels(vec![0; 5]),
        Granularity::Uniflow,
    );
    let votes = VoteTable::from_communities(&communities);
    assert_eq!(votes.len(), 1);
    assert!((votes.confidence(0, DetectorKind::Pca) - 2.0 / 3.0).abs() < 1e-12);
    assert_eq!(votes.confidence(0, DetectorKind::Gamma), 1.0);
    assert_eq!(votes.confidence(0, DetectorKind::Hough), 0.0);
}

/// §2.2.3 worked outcomes for Fig. 2's community under the three
/// simple strategies (computed with the paper's three detectors by
/// saturating the fourth, unused family for the average case).
#[test]
fn figure2_strategy_decisions() {
    let mut row = [false; 12];
    row[0] = true; // A0
    row[1] = true; // A1
    row[3] = true; // B0
    row[4] = true; // B1
    row[5] = true; // B2
    let table = VoteTable::from_rows(vec![row]);
    // min = 0 → rejected; max = 1 → accepted (paper text).
    assert!(!Minimum.classify(&table)[0].accepted);
    assert!(Maximum.classify(&table)[0].accepted);
    // The paper's average (three detectors) = 5/9 > 0.5 → accepted.
    // Verify the arithmetic through the confidence scores directly.
    let phi = [
        table.confidence(0, DetectorKind::Pca),
        table.confidence(0, DetectorKind::Gamma),
        table.confidence(0, DetectorKind::Hough),
    ];
    let avg3 = phi.iter().sum::<f64>() / 3.0;
    assert!((avg3 - 5.0 / 9.0).abs() < 1e-12);
    assert!(avg3 > 0.5);
    // With all four families (KL silent) the average drops below 0.5.
    assert!(!Average.classify(&table)[0].accepted);
}

/// §2.1.2: the Simpson index is 1 when one alarm's traffic is
/// included in the other's, 0 when they do not intersect.
#[test]
fn simpson_index_definition() {
    let m = SimilarityMeasure::Simpson;
    // Inclusion.
    assert_eq!(m.value(3, 3, 100), 1.0);
    // Disjoint.
    assert_eq!(m.value(0, 10, 10), 0.0);
    // |E1∩E2| / min(|E1|,|E2|).
    assert!((m.value(2, 4, 8) - 0.5).abs() < 1e-12);
}

/// Fig. 1: three alarms over one flow — packet granularity relates
/// only the two alarms sharing packets; flow granularity relates all
/// three.
#[test]
fn figure1_granularity_effect() {
    // Alarm1 covers packets {0,1}, Alarm2 {3,4}, Alarm3 {4,5} — all on
    // the same flow (items map to the flow id 7 at flow granularity).
    let est = SimilarityEstimator::default();
    // Packet granularity: sets of packet ids.
    let packet_sets = vec![vec![0u32, 1], vec![3, 4], vec![4, 5]];
    let g = est.build_graph(&packet_sets);
    assert_eq!(g.edge_count(), 1); // only Alarm2–Alarm3
                                   // Flow granularity: all alarms resolve to the same flow.
    let flow_sets = vec![vec![7u32], vec![7], vec![7]];
    let g2 = est.build_graph(&flow_sets);
    assert_eq!(g2.edge_count(), 3); // complete triangle
}

/// §2.2.3 / Table 2: SCANN iterates correspondence analysis to
/// convergence — re-fitting on the reduced-space assignments until
/// they stabilise — and on clearly separated communities its verdicts
/// agree with the strong consensus that Table 2 reports for the
/// optimally-tuned detectors. `classify_single_round` is the one-CA
/// pass the iteration starts from and is pinned as its equivalence
/// oracle at `max_rounds = 1` (see `lint/oracles.toml`,
/// `scann-convergence`).
#[test]
fn table2_scann_converges_and_keeps_the_consensus() {
    use mawilab::combiner::{Scann, SCANN_MAX_ROUNDS};
    // Strong anomalies: broad multi-detector agreement. Noise: a
    // single sensitive configuration fires.
    let mut rows = Vec::new();
    for i in 0..6usize {
        let mut row = [false; 12];
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = (i + j) % 3 != 2; // 8 of 12 configurations agree
        }
        rows.push(row);
    }
    for i in 0..6usize {
        let mut row = [false; 12];
        row[i % 12] = true;
        rows.push(row);
    }
    let table = VoteTable::from_rows(rows);

    let iterated = Scann::default().classify_detailed(&table);
    // Capping at one round reproduces the single-round oracle exactly.
    let capped = Scann { max_rounds: 1 };
    let single = capped.classify_single_round(&table);
    assert_eq!(capped.classify_detailed(&table), single);
    // Convergence reached a fixed point within the default cap: a
    // doubled cap changes nothing.
    let relaxed = Scann {
        max_rounds: 2 * SCANN_MAX_ROUNDS,
    };
    assert_eq!(iterated, relaxed.classify_detailed(&table));
    // Table-2 expectation: the converged verdicts keep the clean
    // separation — every strong community accepted, every noise
    // community rejected, with a usable relative distance.
    for (c, d) in iterated.iter().enumerate() {
        assert_eq!(d.accepted, c < 6, "community {c}");
        assert!(d.relative_distance.is_some());
    }
}

/// §4.1.1: rule degree example — rules <IPA,*,IPB,*> and
/// <IPA,80,IPC,12345> give degree (2+4)/2 = 3.
#[test]
fn rule_degree_worked_example() {
    use mawilab::model::TrafficRule;
    let a = Ipv4Addr::new(198, 51, 100, 1);
    let b = Ipv4Addr::new(198, 51, 100, 2);
    let c = Ipv4Addr::new(198, 51, 100, 3);
    let r1 = TrafficRule {
        src: Some(a),
        dst: Some(b),
        ..Default::default()
    };
    let r2 = TrafficRule {
        src: Some(a),
        sport: Some(80),
        dst: Some(c),
        dport: Some(12345),
        proto: None,
    };
    let degree = (r1.degree() + r2.degree()) as f64 / 2.0;
    assert_eq!(degree, 3.0);
}

/// §4.1.1: rule support example — rules covering 50% and 25% of
/// disjoint traffic give support 75%.
#[test]
fn rule_support_worked_example() {
    use mawilab::mining::{mine_rules, Transaction};
    let a = Ipv4Addr::new(198, 51, 100, 1);
    // 4 transactions of pattern 1, 2 of pattern 2, 2 unmatched: the
    // two mined rules cover 50% + 25% = 75%.
    let mut txs = Vec::new();
    for i in 0..4u8 {
        txs.push(Transaction::new(
            a,
            80,
            Ipv4Addr::new(10, 0, 0, i),
            1000 + i as u16,
        ));
    }
    for _ in 0..2 {
        txs.push(Transaction::new(
            Ipv4Addr::new(198, 51, 100, 9),
            443,
            Ipv4Addr::new(10, 9, 9, 9),
            2222,
        ));
    }
    txs.push(Transaction::new(
        Ipv4Addr::new(1, 1, 1, 1),
        1,
        Ipv4Addr::new(2, 2, 2, 2),
        2,
    ));
    txs.push(Transaction::new(
        Ipv4Addr::new(3, 3, 3, 3),
        3,
        Ipv4Addr::new(4, 4, 4, 4),
        4,
    ));
    let mined = mine_rules(&txs, 0.25);
    assert!(
        (mined.rule_support - 0.75).abs() < 1e-12,
        "support = {}",
        mined.rule_support
    );
}
