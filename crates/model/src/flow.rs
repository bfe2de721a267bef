//! Flow keys and the packet→flow index.
//!
//! The similarity estimator compares alarms at three *traffic
//! granularities* (paper §2.1.1): raw packets, unidirectional flows and
//! bidirectional flows. [`FlowTable`] precomputes, once per trace, the
//! dense flow id of every packet at both flow granularities so that
//! alarm-traffic extraction is a single array lookup per packet.

use crate::hash::FastMap;
use crate::packet::{Packet, Protocol};
use std::fmt;
use std::net::Ipv4Addr;

/// Dense identifier of a flow within one [`FlowTable`].
pub type FlowId = u32;

/// Traffic granularity at which alarm traffic is expressed
/// (paper §2.1.1 and Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// Individual packets.
    Packet,
    /// Unidirectional 5-tuple flows — the paper's final choice (§5).
    #[default]
    Uniflow,
    /// Bidirectional flows (both directions folded together).
    Biflow,
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Granularity::Packet => write!(f, "packet"),
            Granularity::Uniflow => write!(f, "uniflow"),
            Granularity::Biflow => write!(f, "biflow"),
        }
    }
}

/// Unidirectional flow key: the classic 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source port (ICMP type for ICMP).
    pub sport: u16,
    /// Destination port (ICMP code for ICMP).
    pub dport: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl FlowKey {
    /// Extracts the unidirectional key of a packet.
    pub fn of(p: &Packet) -> Self {
        FlowKey {
            src: p.src,
            dst: p.dst,
            sport: p.sport,
            dport: p.dport,
            proto: p.proto,
        }
    }

    /// The same flow viewed from the opposite direction.
    pub fn reversed(&self) -> Self {
        FlowKey {
            src: self.dst,
            dst: self.src,
            sport: self.dport,
            dport: self.sport,
            proto: self.proto,
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} > {}:{}",
            self.proto, self.src, self.sport, self.dst, self.dport
        )
    }
}

/// Bidirectional flow key: a [`FlowKey`] canonicalised so that both
/// directions of a conversation map to the same key.
///
/// Canonical form: the (address, port) endpoint pair that compares
/// smaller becomes the `a` side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BiflowKey {
    /// Lower endpoint address.
    pub a: Ipv4Addr,
    /// Lower endpoint port.
    pub aport: u16,
    /// Upper endpoint address.
    pub b: Ipv4Addr,
    /// Upper endpoint port.
    pub bport: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl BiflowKey {
    /// Canonicalises a packet's endpoints into a bidirectional key.
    pub fn of(p: &Packet) -> Self {
        Self::from_flow(&FlowKey::of(p))
    }

    /// Canonicalises a unidirectional key.
    pub fn from_flow(k: &FlowKey) -> Self {
        if (k.src, k.sport) <= (k.dst, k.dport) {
            BiflowKey {
                a: k.src,
                aport: k.sport,
                b: k.dst,
                bport: k.dport,
                proto: k.proto,
            }
        } else {
            BiflowKey {
                a: k.dst,
                aport: k.dport,
                b: k.src,
                bport: k.sport,
                proto: k.proto,
            }
        }
    }
}

impl fmt::Display for BiflowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} <> {}:{}",
            self.proto, self.a, self.aport, self.b, self.bport
        )
    }
}

/// Packet→flow index for one trace, at both flow granularities.
///
/// Built in a single pass over the packets. Uniflow and biflow ids are
/// assigned densely in order of first appearance, so they double as
/// indices into the key vectors.
#[derive(Debug, Clone)]
pub struct FlowTable {
    uni_of_packet: Vec<FlowId>,
    bi_of_packet: Vec<FlowId>,
    uni_keys: Vec<FlowKey>,
    bi_keys: Vec<BiflowKey>,
    uni_index: FastMap<FlowKey, FlowId>,
}

impl FlowTable {
    /// Builds the flow index for a packet sequence.
    pub fn build(packets: &[Packet]) -> Self {
        let mut t = FlowTable {
            uni_of_packet: Vec::with_capacity(packets.len()),
            bi_of_packet: Vec::with_capacity(packets.len()),
            uni_keys: Vec::new(),
            bi_keys: Vec::new(),
            uni_index: FastMap::default(),
        };
        let mut bi_index: FastMap<BiflowKey, FlowId> = FastMap::default();
        for p in packets {
            let uk = FlowKey::of(p);
            let uid = *t.uni_index.entry(uk).or_insert_with(|| {
                t.uni_keys.push(uk);
                (t.uni_keys.len() - 1) as FlowId
            });
            t.uni_of_packet.push(uid);

            let bk = BiflowKey::from_flow(&uk);
            let bid = *bi_index.entry(bk).or_insert_with(|| {
                t.bi_keys.push(bk);
                (t.bi_keys.len() - 1) as FlowId
            });
            t.bi_of_packet.push(bid);
        }
        t
    }

    /// Number of packets indexed.
    pub fn packet_count(&self) -> usize {
        self.uni_of_packet.len()
    }

    /// Number of distinct unidirectional flows.
    pub fn uniflow_count(&self) -> usize {
        self.uni_keys.len()
    }

    /// Number of distinct bidirectional flows.
    pub fn biflow_count(&self) -> usize {
        self.bi_keys.len()
    }

    /// Uniflow id of packet `i`.
    pub fn uniflow_of(&self, packet_idx: usize) -> FlowId {
        self.uni_of_packet[packet_idx]
    }

    /// Biflow id of packet `i`.
    pub fn biflow_of(&self, packet_idx: usize) -> FlowId {
        self.bi_of_packet[packet_idx]
    }

    /// Key of uniflow `id`.
    pub fn uniflow_key(&self, id: FlowId) -> &FlowKey {
        &self.uni_keys[id as usize]
    }

    /// Key of biflow `id`.
    pub fn biflow_key(&self, id: FlowId) -> &BiflowKey {
        &self.bi_keys[id as usize]
    }

    /// Looks up the id of a unidirectional key, if seen in the trace.
    pub fn find_uniflow(&self, key: &FlowKey) -> Option<FlowId> {
        self.uni_index.get(key).copied()
    }
}

/// Incremental traffic-unit id assigner for streaming ingest.
///
/// Assigns each packet the id of its traffic unit at one granularity,
/// reproducing **exactly** the dense first-appearance ids a
/// [`FlowTable`] built over the whole trace would assign — without
/// the table's per-packet vectors. Feeding the same packet sequence
/// chunk by chunk therefore yields ids interchangeable with the batch
/// pipeline's, which is what makes streaming and batch traffic sets
/// byte-identical. Memory is O(distinct flows) at flow granularities
/// and O(1) at packet granularity (ids are just the running index).
#[derive(Debug, Clone)]
pub struct ItemIndex {
    granularity: Granularity,
    next_packet: u32,
    uni_index: FastMap<FlowKey, FlowId>,
    uni_keys: Vec<FlowKey>,
    bi_index: FastMap<BiflowKey, FlowId>,
    bi_keys: Vec<BiflowKey>,
}

impl ItemIndex {
    /// Creates an empty index for one granularity.
    pub fn new(granularity: Granularity) -> Self {
        ItemIndex {
            granularity,
            next_packet: 0,
            uni_index: FastMap::default(),
            uni_keys: Vec::new(),
            bi_index: FastMap::default(),
            bi_keys: Vec::new(),
        }
    }

    /// The granularity ids are assigned at.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Id of the next packet's traffic unit, assigning a fresh id on
    /// first appearance. Must be called once per packet, in stream
    /// order.
    pub fn id_of(&mut self, p: &Packet) -> u32 {
        match self.granularity {
            Granularity::Packet => {
                let id = self.next_packet;
                self.next_packet += 1;
                id
            }
            Granularity::Uniflow => {
                let key = FlowKey::of(p);
                let next = self.uni_keys.len() as FlowId;
                *self.uni_index.entry(key).or_insert_with(|| {
                    self.uni_keys.push(key);
                    next
                })
            }
            Granularity::Biflow => {
                let key = BiflowKey::of(p);
                let next = self.bi_keys.len() as FlowId;
                *self.bi_index.entry(key).or_insert_with(|| {
                    self.bi_keys.push(key);
                    next
                })
            }
        }
    }

    /// Assigns ids for a whole chunk into `out` (cleared first).
    pub fn ids_of(&mut self, packets: &[Packet], out: &mut Vec<u32>) {
        out.clear();
        out.extend(packets.iter().map(|p| self.id_of(p)));
    }

    /// Key of uniflow `id` (panics unless built at uniflow
    /// granularity with `id` already assigned).
    pub fn uniflow_key(&self, id: FlowId) -> &FlowKey {
        &self.uni_keys[id as usize]
    }

    /// Key of biflow `id`.
    pub fn biflow_key(&self, id: FlowId) -> &BiflowKey {
        &self.bi_keys[id as usize]
    }

    /// Bytes the index holds: its key maps and key tables, each at
    /// capacity times element size (hash tables' control bytes not
    /// counted). Deterministic for a given stream.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.uni_index.capacity() * size_of::<(FlowKey, FlowId)>()
            + self.uni_keys.capacity() * size_of::<FlowKey>()
            + self.bi_index.capacity() * size_of::<(BiflowKey, FlowId)>()
            + self.bi_keys.capacity() * size_of::<BiflowKey>()
    }

    /// Number of traffic units assigned so far.
    pub fn item_count(&self) -> usize {
        match self.granularity {
            Granularity::Packet => self.next_packet as usize,
            Granularity::Uniflow => self.uni_keys.len(),
            Granularity::Biflow => self.bi_keys.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpFlags;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, d)
    }

    fn pkts() -> Vec<Packet> {
        vec![
            Packet::tcp(0, ip(1), 1000, ip(2), 80, TcpFlags::syn(), 40),
            Packet::tcp(10, ip(2), 80, ip(1), 1000, TcpFlags::syn_ack(), 40),
            Packet::tcp(20, ip(1), 1000, ip(2), 80, TcpFlags::ack(), 40),
            Packet::udp(30, ip(3), 53, ip(1), 999, 100),
        ]
    }

    #[test]
    fn uniflow_splits_directions_biflow_folds_them() {
        let t = FlowTable::build(&pkts());
        assert_eq!(t.uniflow_count(), 3);
        assert_eq!(t.biflow_count(), 2);
        // fwd and rev TCP packets share the biflow but not the uniflow.
        assert_eq!(t.biflow_of(0), t.biflow_of(1));
        assert_ne!(t.uniflow_of(0), t.uniflow_of(1));
        assert_eq!(t.uniflow_of(0), t.uniflow_of(2));
    }

    #[test]
    fn biflow_key_is_direction_invariant() {
        let k = FlowKey {
            src: ip(9),
            dst: ip(1),
            sport: 4444,
            dport: 80,
            proto: Protocol::Tcp,
        };
        assert_eq!(
            BiflowKey::from_flow(&k),
            BiflowKey::from_flow(&k.reversed())
        );
    }

    #[test]
    fn reversed_twice_is_identity() {
        let k = FlowKey {
            src: ip(9),
            dst: ip(1),
            sport: 4444,
            dport: 80,
            proto: Protocol::Tcp,
        };
        assert_eq!(k.reversed().reversed(), k);
    }

    #[test]
    fn lookup_by_key_round_trips() {
        let t = FlowTable::build(&pkts());
        for (i, p) in pkts().iter().enumerate() {
            let uk = FlowKey::of(p);
            assert_eq!(t.find_uniflow(&uk), Some(t.uniflow_of(i)));
        }
        let missing = FlowKey {
            src: ip(250),
            dst: ip(251),
            sport: 1,
            dport: 2,
            proto: Protocol::Tcp,
        };
        assert_eq!(t.find_uniflow(&missing), None);
    }

    #[test]
    fn empty_trace_builds_empty_table() {
        let t = FlowTable::build(&[]);
        assert_eq!(t.packet_count(), 0);
        assert_eq!(t.uniflow_count(), 0);
        assert_eq!(t.biflow_count(), 0);
    }

    #[test]
    fn flow_ids_are_dense_and_first_seen_ordered() {
        let t = FlowTable::build(&pkts());
        assert_eq!(t.uniflow_of(0), 0);
        assert_eq!(t.uniflow_of(1), 1);
        assert_eq!(t.uniflow_of(3), 2);
    }

    #[test]
    fn item_index_matches_flow_table_ids() {
        let packets = pkts();
        let table = FlowTable::build(&packets);
        for g in [
            Granularity::Packet,
            Granularity::Uniflow,
            Granularity::Biflow,
        ] {
            let mut index = ItemIndex::new(g);
            for (i, p) in packets.iter().enumerate() {
                let expected = match g {
                    Granularity::Packet => i as u32,
                    Granularity::Uniflow => table.uniflow_of(i),
                    Granularity::Biflow => table.biflow_of(i),
                };
                assert_eq!(index.id_of(p), expected, "{g} id of packet {i}");
            }
        }
        // Chunked feeding assigns the same ids as one pass.
        let mut whole = ItemIndex::new(Granularity::Uniflow);
        let mut ids_whole = Vec::new();
        whole.ids_of(&packets, &mut ids_whole);
        let mut chunked = ItemIndex::new(Granularity::Uniflow);
        let mut ids_chunked = Vec::new();
        for half in packets.chunks(2) {
            let mut ids = Vec::new();
            chunked.ids_of(half, &mut ids);
            ids_chunked.extend(ids);
        }
        assert_eq!(ids_whole, ids_chunked);
        assert_eq!(whole.item_count(), table.uniflow_count());
        for id in 0..table.uniflow_count() {
            assert_eq!(whole.uniflow_key(id as u32), table.uniflow_key(id as u32));
        }
    }

    #[test]
    fn icmp_flows_keyed_by_type_code() {
        let a = Packet::icmp(0, ip(1), ip(2), 8, 0, 64);
        let b = Packet::icmp(1, ip(1), ip(2), 0, 0, 64); // echo reply: different type
        let t = FlowTable::build(&[a, b]);
        assert_eq!(t.uniflow_count(), 2);
    }
}
