//! Community evidence accumulated during single-pass ingest.
//!
//! Batch labeling walks the materialised trace to gather each
//! community's packets (for the Table-1 heuristics) and traffic-unit
//! transactions (for the Apriori summaries). Streaming ingest cannot
//! walk back over packets, so [`CommunityEvidence`] accumulates the
//! same information chunk by chunk during the drain:
//!
//! * at flow granularities, one additive [`TrafficProfile`] per flow
//!   — a community's profile is the merge over its flows' profiles,
//!   identical to profiling its packet list because flows partition
//!   packets and each community counts a flow at most once;
//! * at packet granularity, a profile and a [`Transaction`] per
//!   *matched* packet only (a packet-granularity traffic unit is in a
//!   community exactly when the packet itself matched an alarm, so no
//!   pre-match history can be lost).
//!
//! The alarms don't exist yet while the packets stream past, so
//! matched flags can't be known during the drain.
//! [`CommunityEvidence::observe_units`] banks evidence for every unit
//! and [`CommunityEvidence::retain_matched`] filters packet-granularity
//! state once extraction finalizes — landing on the same bytes as
//! accumulating matched packets only.
//!
//! Memory is O(distinct flows) / O(matched packets), never O(trace)
//! (deferred packet-granularity evidence peaks at O(packets in the
//! lag's reach) before `retain_matched`).

use crate::heuristics::TrafficProfile;
use mawilab_mining::Transaction;
use mawilab_model::{Granularity, ItemIndex, Packet};
use std::collections::HashMap;

/// Per-traffic-unit evidence for heuristic and summary labeling.
#[derive(Debug, Clone)]
pub struct CommunityEvidence {
    granularity: Granularity,
    /// Dense per-flow profiles (uniflow/biflow granularities).
    flow_profiles: Vec<TrafficProfile>,
    /// Per-matched-packet profiles (packet granularity).
    packet_profiles: HashMap<u32, TrafficProfile>,
    /// Per-matched-packet transactions (packet granularity).
    packet_transactions: HashMap<u32, Transaction>,
}

impl CommunityEvidence {
    /// An empty collector for one granularity.
    pub fn new(granularity: Granularity) -> Self {
        CommunityEvidence {
            granularity,
            flow_profiles: Vec::new(),
            packet_profiles: HashMap::new(),
            packet_transactions: HashMap::new(),
        }
    }

    /// Folds one chunk in. `ids[i]` is the traffic-unit id of
    /// `packets[i]`. Flow granularities accumulate one profile per
    /// flow. Packet granularity **defers**: it banks evidence for
    /// *every* packet, to be filtered down by
    /// [`retain_matched`](Self::retain_matched) once extraction
    /// finalizes. Packet-granularity ids are unique per packet, so
    /// bank-then-filter lands on byte-identical state to
    /// matched-only accumulation.
    pub fn observe_units(&mut self, packets: &[Packet], ids: &[u32]) {
        assert_eq!(packets.len(), ids.len(), "one id per packet required");
        match self.granularity {
            Granularity::Uniflow | Granularity::Biflow => {
                for (p, &id) in packets.iter().zip(ids) {
                    let idx = id as usize;
                    if idx >= self.flow_profiles.len() {
                        self.flow_profiles.resize(idx + 1, TrafficProfile::new());
                    }
                    self.flow_profiles[idx].add(p);
                }
            }
            Granularity::Packet => {
                for (p, &id) in packets.iter().zip(ids) {
                    self.packet_profiles.entry(id).or_default().add(p);
                    self.packet_transactions
                        .insert(id, Transaction::of_packet(p));
                }
            }
        }
    }

    /// Retires deferred packet-granularity evidence down to the units
    /// that matched ≥ 1 alarm. A no-op at flow granularities, whose
    /// evidence never depended on matching.
    pub fn retain_matched(&mut self, matched: &std::collections::HashSet<u32>) {
        if self.granularity == Granularity::Packet {
            self.packet_profiles.retain(|id, _| matched.contains(id));
            self.packet_transactions
                .retain(|id, _| matched.contains(id));
        }
    }

    /// Merged profile of a community's (sorted, deduplicated) traffic
    /// ids — identical to profiling the community's packet list.
    pub fn profile_of(&self, ids: &[u32]) -> TrafficProfile {
        let mut out = TrafficProfile::new();
        match self.granularity {
            Granularity::Uniflow | Granularity::Biflow => {
                for &id in ids {
                    if let Some(p) = self.flow_profiles.get(id as usize) {
                        out.merge(p);
                    }
                }
            }
            Granularity::Packet => {
                for &id in ids {
                    if let Some(p) = self.packet_profiles.get(&id) {
                        out.merge(p);
                    }
                }
            }
        }
        out
    }

    /// The Apriori transactions of a community's traffic ids, in id
    /// order — identical to `summary::community_transactions` over a
    /// batch view.
    pub fn transactions_of(&self, ids: &[u32], index: &ItemIndex) -> Vec<Transaction> {
        match self.granularity {
            Granularity::Packet => ids
                .iter()
                .filter_map(|id| self.packet_transactions.get(id).cloned())
                .collect(),
            Granularity::Uniflow => ids
                .iter()
                .map(|&id| {
                    let k = index.uniflow_key(id);
                    Transaction::new(k.src, k.sport, k.dst, k.dport)
                })
                .collect(),
            Granularity::Biflow => ids
                .iter()
                .map(|&id| {
                    let k = index.biflow_key(id);
                    Transaction::new(k.a, k.aport, k.b, k.bport)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::classify_packets;
    use mawilab_model::TcpFlags;
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(172, 20, 0, d)
    }

    fn packets() -> Vec<Packet> {
        let mut v = Vec::new();
        for i in 0..40u64 {
            v.push(Packet::tcp(
                i,
                ip((i % 4) as u8),
                2000 + (i % 2) as u16,
                ip(200),
                445,
                TcpFlags::syn(),
                48,
            ));
        }
        v
    }

    #[test]
    fn merged_flow_profiles_classify_like_packet_list() {
        let pkts = packets();
        let mut index = ItemIndex::new(Granularity::Uniflow);
        let mut ids = Vec::new();
        index.ids_of(&pkts, &mut ids);
        let mut ev = CommunityEvidence::new(Granularity::Uniflow);
        // Feed in two chunks to exercise cross-chunk accumulation.
        ev.observe_units(&pkts[..17], &ids[..17]);
        ev.observe_units(&pkts[17..], &ids[17..]);
        let mut community: Vec<u32> = ids.clone();
        community.sort_unstable();
        community.dedup();
        let streamed = ev.profile_of(&community).classify();
        assert_eq!(streamed, classify_packets(&pkts));
    }

    #[test]
    fn deferred_packet_evidence_filters_down_to_the_matched_packets() {
        let pkts = packets();
        let mut index = ItemIndex::new(Granularity::Packet);
        let mut ids = Vec::new();
        index.ids_of(&pkts, &mut ids);
        let matched: Vec<usize> = (0..pkts.len()).filter(|i| i % 3 != 1).collect();
        let community: Vec<u32> = matched.iter().map(|&i| ids[i]).collect();

        let mut deferred = CommunityEvidence::new(Granularity::Packet);
        // Two chunks, alarms unknown; filter at "finalize".
        deferred.observe_units(&pkts[..23], &ids[..23]);
        deferred.observe_units(&pkts[23..], &ids[23..]);
        deferred.retain_matched(&community.iter().copied().collect());

        let matched_pkts: Vec<Packet> = matched.iter().map(|&i| pkts[i]).collect();
        assert_eq!(
            deferred.profile_of(&community).packet_count(),
            community.len()
        );
        assert_eq!(
            deferred.profile_of(&community).classify(),
            classify_packets(&matched_pkts)
        );
        let expected: Vec<Transaction> = matched_pkts.iter().map(Transaction::of_packet).collect();
        assert_eq!(deferred.transactions_of(&community, &index), expected);
        let unmatched: Vec<u32> = (0..pkts.len())
            .filter(|i| i % 3 == 1)
            .map(|i| ids[i])
            .collect();
        assert!(deferred.transactions_of(&unmatched, &index).is_empty());
    }

    #[test]
    fn uniflow_transactions_use_flow_keys() {
        let pkts = packets();
        let mut index = ItemIndex::new(Granularity::Uniflow);
        let mut ids = Vec::new();
        index.ids_of(&pkts, &mut ids);
        let mut ev = CommunityEvidence::new(Granularity::Uniflow);
        ev.observe_units(&pkts, &ids);
        let mut community: Vec<u32> = ids.clone();
        community.sort_unstable();
        community.dedup();
        let txs = ev.transactions_of(&community, &index);
        assert_eq!(txs.len(), community.len());
        for (tx, &id) in txs.iter().zip(&community) {
            let k = index.uniflow_key(id);
            assert_eq!(*tx, Transaction::new(k.src, k.sport, k.dst, k.dport));
        }
    }
}
