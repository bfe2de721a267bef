//! # mawilab-mining
//!
//! Association-rule mining over traffic feature tuples — the paper's
//! modified Apriori (§4.1.1).
//!
//! The paper summarises the traffic of each alarm community by mining
//! frequent feature combinations from its packets or flows. Each
//! packet/flow becomes a *transaction* of four items — source IP,
//! source port, destination IP, destination port — and Apriori
//! (Agrawal & Srikant 1994) finds all itemsets whose support exceeds a
//! threshold. Two modifications match the paper exactly:
//!
//! 1. the support threshold `s` is a **percentage** of the transaction
//!    count rather than an absolute count (the paper runs `s = 20%`),
//! 2. the reported *rules* are the **maximal** frequent itemsets,
//!    rendered as `<srcIP, sport, dstIP, dport>` patterns with
//!    wildcards for absent fields.
//!
//! Two community-quality metrics are derived from the rules
//! (paper §4.1.1):
//! * **rule degree** — mean number of concrete items per rule
//!   (range 0–4; 4 = highly specific traffic),
//! * **rule support** — fraction of the community's traffic covered by
//!   at least one rule.
//!
//! One engine mines the itemsets: the modified Apriori. Every
//! transaction holds four items, so its level-wise search is at most
//! four levels deep on communities of every size.

#![forbid(unsafe_code)]

pub mod apriori;
pub mod transaction;

pub use apriori::{apriori, mine_rules, FrequentItemset, MinedRules};
pub use transaction::{itemset_to_rule, Field, Item, Transaction};
