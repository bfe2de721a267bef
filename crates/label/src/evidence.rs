//! Community evidence accumulated during single-pass ingest.
//!
//! Batch labeling walks the materialised trace to gather each
//! community's packets (for the Table-1 heuristics) and traffic-unit
//! transactions (for the Apriori summaries). Streaming ingest cannot
//! walk back over packets, so [`CommunityEvidence`] accumulates the
//! same information chunk by chunk during the drain, on one path at
//! every granularity: three counters per traffic unit (packets, SYN,
//! SYN/RST/FIN: 12 bytes). A packet-granularity unit is a uniflow of
//! one packet, so its key sits in `ItemIndex`'s uniflow key table.
//! The unit's key fixes its protocol, ports and endpoints, so a
//! community's profile is rebuilt from its units' counters and keys
//! ([`TrafficProfile::add_flow`]) — identical to profiling its packet
//! list because units partition packets and each community counts a
//! unit at most once — and its transactions come from the keys alone.
//!
//! Nothing depends on which units match an alarm, so the evidence
//! needs no filtering at end of stream. Memory is 12 bytes per
//! traffic unit: per distinct flow at flow granularities, per packet
//! at packet granularity.

use crate::heuristics::TrafficProfile;
use mawilab_mining::Transaction;
use mawilab_model::{FastSet, Granularity, ItemIndex, Packet};
use std::mem::size_of;

/// `[packets, SYN packets, SYN/RST/FIN packets]` of one flow (a
/// packet-granularity unit is a flow of one packet).
type FlowCounts = [u32; 3];

/// Per-traffic-unit evidence for heuristic and summary labeling.
#[derive(Debug, Clone)]
pub struct CommunityEvidence {
    granularity: Granularity,
    /// Dense per-flow counters, indexed by unit id.
    flow_counts: Vec<FlowCounts>,
}

impl CommunityEvidence {
    /// An empty collector for one granularity.
    pub fn new(granularity: Granularity) -> Self {
        CommunityEvidence {
            granularity,
            flow_counts: Vec::new(),
        }
    }

    /// Folds one chunk in. `ids[i]` is the traffic-unit id of
    /// `packets[i]`; each unit counts its packets, SYNs and
    /// SYN/RST/FINs.
    pub fn observe_units(&mut self, packets: &[Packet], ids: &[u32]) {
        assert_eq!(packets.len(), ids.len(), "one id per packet required");
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

    /// A no-op: no evidence depends on matching. Kept with its
    /// signature only for perfbench's traced drain, which times it as
    /// its `label.evidence_retain` stage.
    pub fn retain_matched(&mut self, _matched: &FastSet<u32>) {}

    /// Merged profile of a community's (sorted, deduplicated) traffic
    /// ids — identical to profiling the community's packet list. Each
    /// unit's protocol and ports come from its key in `index`, the
    /// index that assigned the ids.
    pub fn profile_of(&self, ids: &[u32], index: &ItemIndex) -> TrafficProfile {
        let mut out = TrafficProfile::new();
        match self.granularity {
            Granularity::Packet | Granularity::Uniflow => {
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
        }
        out
    }

    /// Bytes the evidence holds: the counter table's capacity times
    /// its element size. Deterministic for a given stream.
    pub fn heap_bytes(&self) -> usize {
        self.flow_counts.capacity() * size_of::<FlowCounts>()
    }

    /// The Apriori transactions of a community's traffic ids, in id
    /// order — identical to `summary::community_transactions` over a
    /// batch view.
    pub fn transactions_of(&self, ids: &[u32], index: &ItemIndex) -> Vec<Transaction> {
        match self.granularity {
            Granularity::Packet | Granularity::Uniflow => ids
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
        for g in [
            Granularity::Packet,
            Granularity::Uniflow,
            Granularity::Biflow,
        ] {
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
    fn packet_evidence_profiles_and_transactions_match_the_member_packets() {
        let pkts = packets();
        let mut index = ItemIndex::new(Granularity::Packet);
        let mut ids = Vec::new();
        index.ids_of(&pkts, &mut ids);
        let members: Vec<usize> = (0..pkts.len()).filter(|i| i % 3 != 1).collect();
        let community: Vec<u32> = members.iter().map(|&i| ids[i]).collect();

        let mut ev = CommunityEvidence::new(Granularity::Packet);
        // Two chunks, alarms unknown: no filtering at finalize.
        ev.observe_units(&pkts[..23], &ids[..23]);
        ev.observe_units(&pkts[23..], &ids[23..]);

        let member_pkts: Vec<Packet> = members.iter().map(|&i| pkts[i]).collect();
        let profile = ev.profile_of(&community, &index);
        assert_eq!(profile.packet_count(), community.len());
        assert_eq!(profile, TrafficProfile::collect(&member_pkts));
        assert_eq!(profile.classify(), classify_packets(&member_pkts));
        let expected: Vec<Transaction> = member_pkts.iter().map(Transaction::of_packet).collect();
        assert_eq!(ev.transactions_of(&community, &index), expected);
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
