//! The modified Apriori algorithm (paper §4.1.1).
//!
//! Level-wise breadth-first search for frequent itemsets: level-1
//! counts single items, level-k candidates are joins of level-(k−1)
//! itemsets sharing a (k−2)-prefix, pruned by the Apriori property
//! (every subset of a frequent itemset is frequent). The support
//! threshold is expressed as a **fraction of transactions** — the
//! paper's modification — and the returned *rules* are the maximal
//! frequent itemsets.
//!
//! Transactions here always hold exactly four items (one per tuple
//! field), so the search depth is bounded by 4 and same-field item
//! pairs can be pruned immediately (a transaction never carries two
//! values of one field).

use crate::transaction::{itemset_to_rule, Item, Transaction};
use mawilab_model::{FastMap, FastSet, TrafficRule};

/// A frequent itemset with its absolute support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// Items, sorted.
    pub items: Vec<Item>,
    /// Number of transactions containing all items.
    pub count: usize,
}

impl FrequentItemset {
    /// Support as a fraction of `n` transactions.
    pub fn support(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.count as f64 / n as f64
        }
    }
}

/// Finds **all** frequent itemsets with support ≥ `min_support`
/// (a fraction in `(0, 1]`). Deterministic output order: by level,
/// then lexicographically by items.
pub fn apriori(transactions: &[Transaction], min_support: f64) -> Vec<FrequentItemset> {
    assert!(
        min_support > 0.0 && min_support <= 1.0,
        "support must be a fraction in (0,1]"
    );
    let n = transactions.len();
    if n == 0 {
        return Vec::new();
    }
    // ceil(min_support * n), at least 1.
    let min_count = ((min_support * n as f64).ceil() as usize).max(1);

    // Level 1.
    let mut counts: FastMap<Item, usize> = FastMap::default();
    for t in transactions {
        for &item in t.items() {
            *counts.entry(item).or_insert(0) += 1;
        }
    }
    let mut level: Vec<FrequentItemset> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_count)
        .map(|(item, count)| FrequentItemset {
            items: vec![item],
            count,
        })
        .collect();
    level.sort_by(|a, b| a.items.cmp(&b.items));

    let mut all = level.clone();
    // Levels 2..=4.
    while !level.is_empty() && level[0].items.len() < 4 {
        let prev: Vec<&Vec<Item>> = level.iter().map(|f| &f.items).collect();
        let prev_set: FastSet<&[Item]> = prev.iter().map(|v| v.as_slice()).collect();
        let mut candidates: Vec<Vec<Item>> = Vec::new();
        for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                let a = &level[i].items;
                let b = &level[j].items;
                // Join on common (k-2)-prefix.
                if a[..a.len() - 1] != b[..b.len() - 1] {
                    continue;
                }
                let (last_a, last_b) = (a[a.len() - 1], b[b.len() - 1]);
                if last_a.field == last_b.field {
                    continue; // same-field values never co-occur
                }
                let mut cand = a.clone();
                cand.push(last_b);
                cand.sort();
                // Apriori prune: all (k-1)-subsets frequent.
                let all_subsets_frequent = (0..cand.len()).all(|skip| {
                    let sub: Vec<Item> = cand
                        .iter()
                        .enumerate()
                        .filter(|&(idx, _)| idx != skip)
                        .map(|(_, &it)| it)
                        .collect();
                    prev_set.contains(sub.as_slice())
                });
                if all_subsets_frequent {
                    candidates.push(cand);
                }
            }
        }
        candidates.sort();
        candidates.dedup();
        if candidates.is_empty() {
            break;
        }
        // Count candidates in one scan.
        let mut cand_counts = vec![0usize; candidates.len()];
        for t in transactions {
            for (ci, cand) in candidates.iter().enumerate() {
                if t.contains_all(cand) {
                    cand_counts[ci] += 1;
                }
            }
        }
        level = candidates
            .into_iter()
            .zip(cand_counts)
            .filter(|&(_, c)| c >= min_count)
            .map(|(items, count)| FrequentItemset { items, count })
            .collect();
        all.extend(level.iter().cloned());
    }
    all
}

/// The paper's community summary: maximal frequent itemsets rendered
/// as wildcard 4-tuples, plus the two efficiency metrics.
#[derive(Debug, Clone)]
pub struct MinedRules {
    /// Maximal frequent itemsets as `(rule, support count)`, ordered
    /// by descending support.
    pub rules: Vec<(TrafficRule, usize)>,
    /// Number of transactions mined.
    pub transaction_count: usize,
    /// Mean number of concrete items per rule (paper's *rule degree*,
    /// range 0–4; 0 when no rule was found).
    pub rule_degree: f64,
    /// Fraction of transactions matching at least one rule (paper's
    /// *rule support*, range 0–1).
    pub rule_support: f64,
}

/// Mines frequent itemsets and reduces the result to maximal itemsets
/// and metrics. `min_support` is the paper's `s` (fraction; the paper
/// uses 0.2).
pub fn mine_rules(transactions: &[Transaction], min_support: f64) -> MinedRules {
    let frequent = apriori(transactions, min_support);
    // Maximal = not a strict subset of another frequent itemset.
    let mut maximal: Vec<&FrequentItemset> = Vec::new();
    for f in &frequent {
        let is_subset = frequent
            .iter()
            .any(|g| g.items.len() > f.items.len() && f.items.iter().all(|i| g.items.contains(i)));
        if !is_subset {
            maximal.push(f);
        }
    }
    let mut rules: Vec<(TrafficRule, usize, Vec<Item>)> = maximal
        .iter()
        .map(|f| (itemset_to_rule(&f.items), f.count, f.items.clone()))
        .collect();
    rules.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));

    let rule_degree = if rules.is_empty() {
        0.0
    } else {
        rules.iter().map(|(r, _, _)| r.degree() as f64).sum::<f64>() / rules.len() as f64
    };
    let covered = if rules.is_empty() {
        0
    } else {
        transactions
            .iter()
            .filter(|t| rules.iter().any(|(_, _, items)| t.contains_all(items)))
            .count()
    };
    let rule_support = if transactions.is_empty() {
        0.0
    } else {
        covered as f64 / transactions.len() as f64
    };

    MinedRules {
        rules: rules.into_iter().map(|(r, c, _)| (r, c)).collect(),
        transaction_count: transactions.len(),
        rule_degree,
        rule_support,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, d)
    }

    /// 10 transactions: 6 from the same HTTP server flow pattern,
    /// 4 unrelated scans.
    fn http_heavy() -> Vec<Transaction> {
        let mut t = Vec::new();
        for i in 0..6u8 {
            // Same server, same dst port, varying clients/ports.
            t.push(Transaction::new(ip(1), 80, ip(100 + i), 1000 + i as u16));
        }
        for i in 0..4u8 {
            t.push(Transaction::new(
                ip(200 + i),
                4000 + i as u16,
                ip(50 + i),
                22,
            ));
        }
        t
    }

    #[test]
    fn finds_the_dominant_pattern() {
        let rules = mine_rules(&http_heavy(), 0.5);
        // <ip1, 80, *, *> describes 6/10 = 60% ≥ 50%.
        assert!(rules
            .rules
            .iter()
            .any(|(r, c)| r.src == Some(ip(1)) && r.sport == Some(80) && *c == 6));
    }

    #[test]
    fn support_threshold_is_respected() {
        let txs = http_heavy();
        for s in [0.1, 0.2, 0.5, 0.9] {
            let min_count = ((s * txs.len() as f64).ceil() as usize).max(1);
            for f in apriori(&txs, s) {
                assert!(f.count >= min_count, "itemset below threshold at s={s}");
                // Verify the count is truthful.
                let real = txs.iter().filter(|t| t.contains_all(&f.items)).count();
                assert_eq!(real, f.count);
            }
        }
    }

    #[test]
    fn all_subsets_of_frequent_are_frequent() {
        let txs = http_heavy();
        let frequent = apriori(&txs, 0.3);
        let as_set: std::collections::HashSet<Vec<Item>> =
            frequent.iter().map(|f| f.items.clone()).collect();
        for f in &frequent {
            if f.items.len() < 2 {
                continue;
            }
            for skip in 0..f.items.len() {
                let sub: Vec<Item> = f
                    .items
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &x)| x)
                    .collect();
                assert!(as_set.contains(&sub), "missing subset of {:?}", f.items);
            }
        }
    }

    #[test]
    fn identical_transactions_mine_full_tuple() {
        let txs: Vec<Transaction> = (0..5)
            .map(|_| Transaction::new(ip(1), 1234, ip(2), 80))
            .collect();
        let rules = mine_rules(&txs, 0.2);
        assert_eq!(rules.rules.len(), 1);
        assert_eq!(rules.rule_degree, 4.0);
        assert_eq!(rules.rule_support, 1.0);
        assert_eq!(rules.rules[0].1, 5);
    }

    #[test]
    fn paper_rule_degree_example() {
        // Paper §4.1.1: rules <IPA,*,IPB,*> and <IPA,80,IPC,12345>
        // give degree (2+4)/2 = 3. Construct data producing exactly
        // those two maximal rules.
        let mut txs = Vec::new();
        // 10 transactions: IPA → IPB with varying ports (degree-2 rule).
        for i in 0..10u16 {
            txs.push(Transaction::new(ip(1), 100 + i, ip(2), 200 + i));
        }
        // 10 identical transactions IPA:80 → IPC:12345 (degree-4 rule).
        for _ in 0..10 {
            txs.push(Transaction::new(ip(1), 80, ip(3), 12345));
        }
        let rules = mine_rules(&txs, 0.4);
        assert_eq!(rules.rules.len(), 2, "rules: {:?}", rules.rules);
        assert!((rules.rule_degree - 3.0).abs() < 1e-12);
        assert_eq!(rules.rule_support, 1.0);
    }

    #[test]
    fn rule_support_counts_union_coverage() {
        // 4 covered by rule A, 4 by rule B, 2 by neither.
        let mut txs = Vec::new();
        for i in 0..4u8 {
            txs.push(Transaction::new(ip(1), 80, ip(10 + i), 1000 + i as u16));
        }
        for i in 0..4u8 {
            txs.push(Transaction::new(ip(2), 443, ip(20 + i), 2000 + i as u16));
        }
        txs.push(Transaction::new(ip(30), 1, ip(31), 2));
        txs.push(Transaction::new(ip(32), 3, ip(33), 4));
        let rules = mine_rules(&txs, 0.4);
        assert!(
            (rules.rule_support - 0.8).abs() < 1e-12,
            "{}",
            rules.rule_support
        );
    }

    #[test]
    fn maximal_rules_do_not_shadow_each_other() {
        // Whether every packet matching `b` also matches `a`.
        fn generalizes(a: &TrafficRule, b: &TrafficRule) -> bool {
            fn cover<T: PartialEq>(a: &Option<T>, b: &Option<T>) -> bool {
                a.is_none() || a == b
            }
            cover(&a.src, &b.src)
                && cover(&a.sport, &b.sport)
                && cover(&a.dst, &b.dst)
                && cover(&a.dport, &b.dport)
                && cover(&a.proto, &b.proto)
        }
        let rules = mine_rules(&http_heavy(), 0.2);
        for (i, (a, _)) in rules.rules.iter().enumerate() {
            for (j, (b, _)) in rules.rules.iter().enumerate() {
                if i != j {
                    assert!(
                        !(generalizes(a, b) && a != b),
                        "rule {a} strictly generalizes {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_transactions_mine_nothing() {
        let rules = mine_rules(&[], 0.2);
        assert!(rules.rules.is_empty());
        assert_eq!(rules.rule_degree, 0.0);
        assert_eq!(rules.rule_support, 0.0);
    }

    #[test]
    fn support_one_requires_universal_items() {
        let txs = http_heavy();
        let frequent = apriori(&txs, 1.0);
        // No single feature appears in all 10 transactions.
        assert!(frequent.is_empty());
    }

    #[test]
    fn deterministic_ordering() {
        let a = mine_rules(&http_heavy(), 0.2);
        let b = mine_rules(&http_heavy(), 0.2);
        assert_eq!(a.rules, b.rules);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_support_panics() {
        apriori(&[], 0.0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn above_one_support_panics() {
        apriori(&[], 1.5);
    }
}
