//! Community evidence accumulated during single-pass ingest.
//!
//! Batch labeling walks the materialised trace to gather each
//! community's packets (for the Table-1 heuristics) and traffic-unit
//! transactions (for the Apriori summaries). Streaming ingest cannot
//! walk back over packets, so [`CommunityEvidence`] accumulates the
//! same information chunk by chunk during the drain:
//!
//! * at flow granularities, three counters per flow (packets, SYN,
//!   SYN/RST/FIN: 12 bytes). The flow's key, held by `ItemIndex`,
//!   fixes its protocol and ports, so a community's profile is
//!   rebuilt from its flows' counters and keys
//!   ([`TrafficProfile::add_flow`]) — identical to profiling its
//!   packet list because flows partition packets and each community
//!   counts a flow at most once;
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
//! Memory is 12 bytes per distinct flow at flow granularities. At
//! packet granularity it is O(packets): every packet's evidence is
//! banked until `retain_matched` runs at end of stream, which leaves
//! O(matched packets).

use crate::heuristics::TrafficProfile;
use mawilab_mining::Transaction;
use mawilab_model::{FastMap, FastSet, Granularity, ItemIndex, Packet};
use std::mem::size_of;

/// `[packets, SYN packets, SYN/RST/FIN packets]` of one flow.
type FlowCounts = [u32; 3];

/// Per-traffic-unit evidence for heuristic and summary labeling.
#[derive(Debug, Clone)]
pub struct CommunityEvidence {
    granularity: Granularity,
    /// Dense per-flow counters (uniflow/biflow granularities).
    flow_counts: Vec<FlowCounts>,
    /// Per-matched-packet profiles (packet granularity).
    packet_profiles: FastMap<u32, TrafficProfile>,
    /// Per-matched-packet transactions (packet granularity).
    packet_transactions: FastMap<u32, Transaction>,
}

impl CommunityEvidence {
    /// An empty collector for one granularity.
    pub fn new(granularity: Granularity) -> Self {
        CommunityEvidence {
            granularity,
            flow_counts: Vec::new(),
            packet_profiles: FastMap::default(),
            packet_transactions: FastMap::default(),
        }
    }

    /// Folds one chunk in. `ids[i]` is the traffic-unit id of
    /// `packets[i]`. Flow granularities count each flow's packets,
    /// SYNs and SYN/RST/FINs. Packet granularity **defers**: it banks
    /// evidence for *every* packet, to be filtered down by
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
                    if idx >= self.flow_counts.len() {
                        self.flow_counts.resize(idx + 1, [0; 3]);
                    }
                    let f = p.flags;
                    let counts = &mut self.flow_counts[idx];
                    counts[0] += 1;
                    counts[1] += u32::from(f.is_syn());
                    counts[2] += u32::from(f.is_syn() || f.is_rst() || f.is_fin());
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
    pub fn retain_matched(&mut self, matched: &FastSet<u32>) {
        if self.granularity == Granularity::Packet {
            self.packet_profiles.retain(|id, _| matched.contains(id));
            self.packet_transactions
                .retain(|id, _| matched.contains(id));
        }
    }

    /// Merged profile of a community's (sorted, deduplicated) traffic
    /// ids — identical to profiling the community's packet list. At
    /// flow granularities each flow's protocol and ports come from its
    /// key in `index`, the index that assigned the ids.
    pub fn profile_of(&self, ids: &[u32], index: &ItemIndex) -> TrafficProfile {
        let mut out = TrafficProfile::new();
        match self.granularity {
            Granularity::Uniflow => {
                for &id in ids {
                    if let Some(&counts) = self.flow_counts.get(id as usize) {
                        let k = index.uniflow_key(id);
                        out.add_flow(k.proto, (k.sport, k.dport), counts);
                    }
                }
            }
            Granularity::Biflow => {
                for &id in ids {
                    if let Some(&counts) = self.flow_counts.get(id as usize) {
                        let k = index.biflow_key(id);
                        out.add_flow(k.proto, (k.aport, k.bport), counts);
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

    /// Bytes the evidence holds: each table's capacity times its
    /// element size (hash tables' control bytes not counted).
    /// Deterministic for a given stream.
    pub fn heap_bytes(&self) -> usize {
        self.flow_counts.capacity() * size_of::<FlowCounts>()
            + self.packet_profiles.capacity() * size_of::<(u32, TrafficProfile)>()
            + self.packet_transactions.capacity() * size_of::<(u32, Transaction)>()
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
        let streamed = ev.profile_of(&community, &index);
        assert_eq!(streamed, TrafficProfile::collect(&pkts));
        assert_eq!(streamed.classify(), classify_packets(&pkts));
    }

    #[test]
    fn flow_evidence_holds_twelve_bytes_per_unit() {
        let pkts: Vec<Packet> = (0..1000u16)
            .map(|i| Packet::tcp(i as u64, ip(1), 1024 + i, ip(2), 80, TcpFlags::syn(), 48))
            .collect();
        for g in [Granularity::Uniflow, Granularity::Biflow] {
            let mut index = ItemIndex::new(g);
            let mut ids = Vec::new();
            index.ids_of(&pkts, &mut ids);
            let mut ev = CommunityEvidence::new(g);
            ev.observe_units(&pkts, &ids);
            assert_eq!(ev.flow_counts.len(), 1000, "{g}");
            assert_eq!(ev.heap_bytes(), 12 * ev.flow_counts.capacity(), "{g}");
        }
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
            deferred.profile_of(&community, &index).packet_count(),
            community.len()
        );
        assert_eq!(
            deferred.profile_of(&community, &index).classify(),
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
