//! The paper's Table 1: heuristic traffic categorisation.
//!
//! "These are originated from the anomalies previously reported \[7,14\]
//! and the manual inspection of MAWI" — they look only at ports, TCP
//! flags and ICMP share, so they are independent of all four
//! detectors' mechanisms and can referee between them.
//!
//! Order matters and follows the table: attack heuristics first, then
//! the special services, then `Unknown`.

use mawilab_model::{Packet, Protocol};
use std::fmt;

/// Coarse category of a heuristic label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HeuristicCategory {
    /// Known-attack traffic shapes.
    Attack,
    /// Well-known services behaving normally (but flagged by some
    /// alarm).
    Special,
    /// Everything else.
    Unknown,
}

impl fmt::Display for HeuristicCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeuristicCategory::Attack => write!(f, "Attack"),
            HeuristicCategory::Special => write!(f, "Special"),
            HeuristicCategory::Unknown => write!(f, "Unknown"),
        }
    }
}

/// The detailed label rows of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeuristicLabel {
    /// Ports 1023/tcp, 5554/tcp or 9898/tcp.
    Sasser,
    /// Port 135/tcp.
    Rpc,
    /// Port 445/tcp.
    Smb,
    /// High ICMP traffic.
    Ping,
    /// >7 packets with SYN/RST/FIN ≥ 50%, or service ports with
    /// > SYN ≥ 30%.
    OtherAttack,
    /// Ports 137/udp or 139/tcp.
    NetBios,
    /// Ports 80/tcp, 8080/tcp with < 30% SYN.
    Http,
    /// Ports 20, 21, 22/tcp or 53/tcp&udp with < 30% SYN.
    MultiServices,
    /// No other heuristic matched.
    Unknown,
}

impl HeuristicLabel {
    /// The category of this label (Table 1, first column).
    pub fn category(self) -> HeuristicCategory {
        match self {
            HeuristicLabel::Sasser
            | HeuristicLabel::Rpc
            | HeuristicLabel::Smb
            | HeuristicLabel::Ping
            | HeuristicLabel::OtherAttack
            | HeuristicLabel::NetBios => HeuristicCategory::Attack,
            HeuristicLabel::Http | HeuristicLabel::MultiServices => HeuristicCategory::Special,
            HeuristicLabel::Unknown => HeuristicCategory::Unknown,
        }
    }

    /// All labels in Table-1 order.
    pub const ALL: [HeuristicLabel; 9] = [
        HeuristicLabel::Sasser,
        HeuristicLabel::Rpc,
        HeuristicLabel::Smb,
        HeuristicLabel::Ping,
        HeuristicLabel::OtherAttack,
        HeuristicLabel::NetBios,
        HeuristicLabel::Http,
        HeuristicLabel::MultiServices,
        HeuristicLabel::Unknown,
    ];
}

impl fmt::Display for HeuristicLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeuristicLabel::Sasser => write!(f, "Sasser"),
            HeuristicLabel::Rpc => write!(f, "RPC"),
            HeuristicLabel::Smb => write!(f, "SMB"),
            HeuristicLabel::Ping => write!(f, "Ping"),
            HeuristicLabel::OtherAttack => write!(f, "Other attacks"),
            HeuristicLabel::NetBios => write!(f, "NetBIOS"),
            HeuristicLabel::Http => write!(f, "Http"),
            HeuristicLabel::MultiServices => write!(f, "dns,ftp,ssh"),
            HeuristicLabel::Unknown => write!(f, "Unknown"),
        }
    }
}

/// Additive traffic profile: the per-packet counters the Table-1
/// rules consume (port shares, TCP flag ratios, ICMP share).
///
/// [`add`](TrafficProfile::add) folds one packet in and
/// [`add_flow`](TrafficProfile::add_flow) a whole flow, so a
/// community's profile can be assembled from per-unit evidence
/// accumulated chunk by chunk during streaming ingest, and the result
/// is bit-identical to profiling the community's packet list in one
/// batch pass.
/// Counters are `u32` and port slots are keyed positionally by the
/// static `TCP_PORTS`/`UDP_PORTS` tables (76 bytes). The streaming
/// pipeline holds no profiles during the drain: a unit's key fixes
/// its protocol and ports (a packet-granularity unit is a flow of one
/// packet), so it holds three counters per unit and rebuilds the
/// profile at label time through [`add_flow`](TrafficProfile::add_flow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficProfile {
    total: u32,
    icmp: u32,
    tcp: u32,
    syn: u32,
    ctrl: u32, // SYN|RST|FIN
    port_tcp: [u32; 12],
    port_udp: [u32; 2],
}

impl Default for TrafficProfile {
    fn default() -> Self {
        TrafficProfile::new()
    }
}

const TCP_PORTS: [u16; 12] = [1023, 5554, 9898, 135, 445, 139, 80, 8080, 20, 21, 22, 53];
const UDP_PORTS: [u16; 2] = [137, 53];

impl TrafficProfile {
    /// An empty profile.
    pub fn new() -> Self {
        TrafficProfile {
            total: 0,
            icmp: 0,
            tcp: 0,
            syn: 0,
            ctrl: 0,
            port_tcp: [0; 12],
            port_udp: [0; 2],
        }
    }

    /// Folds one packet into the profile.
    pub fn add(&mut self, pkt: &Packet) {
        self.total += 1;
        match pkt.proto {
            Protocol::Icmp => self.icmp += 1,
            Protocol::Tcp => {
                self.tcp += 1;
                if pkt.flags.is_syn() {
                    self.syn += 1;
                }
                if pkt.flags.is_syn() || pkt.flags.is_rst() || pkt.flags.is_fin() {
                    self.ctrl += 1;
                }
                for (slot, &port) in self.port_tcp.iter_mut().zip(TCP_PORTS.iter()) {
                    if pkt.sport == port || pkt.dport == port {
                        *slot += 1;
                    }
                }
            }
            Protocol::Udp => {
                for (slot, &port) in self.port_udp.iter_mut().zip(UDP_PORTS.iter()) {
                    if pkt.sport == port || pkt.dport == port {
                        *slot += 1;
                    }
                }
            }
            Protocol::Other(_) => {}
        }
    }

    /// Folds in a whole flow whose packets all carry protocol `proto`
    /// and the port pair `ports` (either orientation: the port test is
    /// symmetric, so a biflow's `(aport, bport)` works too). `counts`
    /// is `[packets, SYN packets, SYN/RST/FIN packets]`; the flag
    /// counts only count for TCP, as in [`add`](TrafficProfile::add).
    /// Equal to [`add`](TrafficProfile::add)ing each of the flow's
    /// packets.
    pub fn add_flow(&mut self, proto: Protocol, ports: (u16, u16), counts: [u32; 3]) {
        let [total, syn, ctrl] = counts;
        self.total += total;
        let touches = |port: u16| ports.0 == port || ports.1 == port;
        match proto {
            Protocol::Icmp => self.icmp += total,
            Protocol::Tcp => {
                self.tcp += total;
                self.syn += syn;
                self.ctrl += ctrl;
                for (slot, &port) in self.port_tcp.iter_mut().zip(TCP_PORTS.iter()) {
                    if touches(port) {
                        *slot += total;
                    }
                }
            }
            Protocol::Udp => {
                for (slot, &port) in self.port_udp.iter_mut().zip(UDP_PORTS.iter()) {
                    if touches(port) {
                        *slot += total;
                    }
                }
            }
            Protocol::Other(_) => {}
        }
    }

    /// Number of packets folded in.
    pub fn packet_count(&self) -> usize {
        self.total as usize
    }

    /// Profiles a packet iterator in one pass.
    pub fn collect<'a, I: IntoIterator<Item = &'a Packet>>(packets: I) -> Self {
        let mut p = TrafficProfile::new();
        for pkt in packets {
            p.add(pkt);
        }
        p
    }

    fn tcp_share(&self, port: u16) -> f64 {
        let hits = TCP_PORTS
            .iter()
            .position(|&q| q == port)
            .map_or(0, |i| self.port_tcp[i]);
        if self.total == 0 {
            0.0
        } else {
            hits as f64 / self.total as f64
        }
    }

    fn udp_share(&self, port: u16) -> f64 {
        let hits = UDP_PORTS
            .iter()
            .position(|&q| q == port)
            .map_or(0, |i| self.port_udp[i]);
        if self.total == 0 {
            0.0
        } else {
            hits as f64 / self.total as f64
        }
    }

    fn syn_ratio(&self) -> f64 {
        if self.tcp == 0 {
            0.0
        } else {
            self.syn as f64 / self.tcp as f64
        }
    }

    fn ctrl_ratio(&self) -> f64 {
        if self.tcp == 0 {
            0.0
        } else {
            self.ctrl as f64 / self.tcp as f64
        }
    }

    fn icmp_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.icmp as f64 / self.total as f64
        }
    }
}

/// A port "carries" the community's traffic when at least this share
/// of packets touches it. Table 1 says "traffic on port X" without a
/// threshold; 25% keeps mixed communities honest.
const PORT_SHARE: f64 = 0.25;
/// "High ICMP traffic": at least half the packets and a minimum count.
const ICMP_SHARE: f64 = 0.5;
const ICMP_MIN: u32 = 10;

/// Classifies a set of packets with the Table-1 heuristics.
pub fn classify_packets<'a, I>(packets: I) -> HeuristicLabel
where
    I: IntoIterator<Item = &'a Packet>,
{
    TrafficProfile::collect(packets).classify()
}

impl TrafficProfile {
    /// Applies the Table-1 heuristics to the accumulated counters.
    pub fn classify(&self) -> HeuristicLabel {
        let p = self;
        if p.total == 0 {
            return HeuristicLabel::Unknown;
        }
        let syn = p.syn_ratio();

        // Attack rows, in table order.
        if p.tcp_share(1023) >= PORT_SHARE
            || p.tcp_share(5554) >= PORT_SHARE
            || p.tcp_share(9898) >= PORT_SHARE
        {
            return HeuristicLabel::Sasser;
        }
        if p.tcp_share(135) >= PORT_SHARE {
            return HeuristicLabel::Rpc;
        }
        if p.tcp_share(445) >= PORT_SHARE {
            return HeuristicLabel::Smb;
        }
        if p.icmp_ratio() >= ICMP_SHARE && p.icmp >= ICMP_MIN {
            return HeuristicLabel::Ping;
        }
        let service_share = p
            .tcp_share(80)
            .max(p.tcp_share(8080))
            .max(p.tcp_share(20))
            .max(p.tcp_share(21))
            .max(p.tcp_share(22))
            .max(p.tcp_share(53).max(p.udp_share(53)));
        if (p.total > 7 && p.ctrl_ratio() >= 0.5) || (service_share >= PORT_SHARE && syn >= 0.3) {
            return HeuristicLabel::OtherAttack;
        }
        if p.udp_share(137) >= PORT_SHARE || p.tcp_share(139) >= PORT_SHARE {
            return HeuristicLabel::NetBios;
        }

        // Special rows.
        if (p.tcp_share(80) >= PORT_SHARE || p.tcp_share(8080) >= PORT_SHARE) && syn < 0.3 {
            return HeuristicLabel::Http;
        }
        let multi = p
            .tcp_share(20)
            .max(p.tcp_share(21))
            .max(p.tcp_share(22))
            .max(p.tcp_share(53))
            .max(p.udp_share(53));
        if multi >= PORT_SHARE && syn < 0.3 {
            return HeuristicLabel::MultiServices;
        }
        HeuristicLabel::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_model::TcpFlags;
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(172, 16, 0, d)
    }

    fn syn_to(port: u16, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                Packet::tcp(
                    i as u64,
                    ip((i % 200) as u8),
                    1025 + i as u16,
                    ip(250),
                    port,
                    TcpFlags::syn(),
                    48,
                )
            })
            .collect()
    }

    fn http_session(n: usize) -> Vec<Packet> {
        let mut v = vec![
            Packet::tcp(0, ip(1), 2000, ip(2), 80, TcpFlags::syn(), 48),
            Packet::tcp(1, ip(2), 80, ip(1), 2000, TcpFlags::syn_ack(), 48),
        ];
        for i in 0..n {
            v.push(Packet::tcp(
                2 + i as u64,
                ip(2),
                80,
                ip(1),
                2000,
                TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
                512,
            ));
        }
        v
    }

    #[test]
    fn sasser_ports() {
        for port in [1023, 5554, 9898] {
            let pkts = syn_to(port, 20);
            assert_eq!(
                classify_packets(&pkts),
                HeuristicLabel::Sasser,
                "port {port}"
            );
        }
    }

    #[test]
    fn rpc_and_smb() {
        assert_eq!(classify_packets(&syn_to(135, 20)), HeuristicLabel::Rpc);
        assert_eq!(classify_packets(&syn_to(445, 20)), HeuristicLabel::Smb);
    }

    #[test]
    fn ping_flood_is_ping() {
        let pkts: Vec<Packet> = (0..50)
            .map(|i| Packet::icmp(i, ip(1), ip(2), 8, 0, 1064))
            .collect();
        assert_eq!(classify_packets(&pkts), HeuristicLabel::Ping);
    }

    #[test]
    fn few_icmp_is_not_ping() {
        let pkts: Vec<Packet> = (0..5)
            .map(|i| Packet::icmp(i, ip(1), ip(2), 8, 0, 64))
            .collect();
        assert_ne!(classify_packets(&pkts), HeuristicLabel::Ping);
    }

    #[test]
    fn syn_scan_on_random_port_is_other_attack() {
        let pkts = syn_to(6667, 30);
        assert_eq!(classify_packets(&pkts), HeuristicLabel::OtherAttack);
    }

    #[test]
    fn http_with_high_syn_is_attack_not_special() {
        let pkts = syn_to(80, 30);
        assert_eq!(classify_packets(&pkts), HeuristicLabel::OtherAttack);
    }

    #[test]
    fn seven_packet_rule_boundary() {
        // "more than 7 packets" — 7 SYNs to a random port are NOT
        // OtherAttack via the flag rule.
        let pkts = syn_to(31337, 7);
        assert_eq!(classify_packets(&pkts), HeuristicLabel::Unknown);
        let pkts8 = syn_to(31337, 8);
        assert_eq!(classify_packets(&pkts8), HeuristicLabel::OtherAttack);
    }

    #[test]
    fn netbios_ports() {
        let udp: Vec<Packet> = (0..20)
            .map(|i| Packet::udp(i, ip(1), 137, ip((i % 200) as u8), 137, 78))
            .collect();
        assert_eq!(classify_packets(&udp), HeuristicLabel::NetBios);
        // 139/tcp with low flag ratios (needs data packets to avoid
        // the OtherAttack rule).
        let mut tcp = Vec::new();
        for i in 0..30u64 {
            tcp.push(Packet::tcp(
                i,
                ip(1),
                3000,
                ip(2),
                139,
                TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
                256,
            ));
        }
        assert_eq!(classify_packets(&tcp), HeuristicLabel::NetBios);
    }

    #[test]
    fn normal_http_is_special() {
        let pkts = http_session(30);
        assert_eq!(classify_packets(&pkts), HeuristicLabel::Http);
        assert_eq!(
            classify_packets(&pkts).category(),
            HeuristicCategory::Special
        );
    }

    #[test]
    fn dns_is_multi_services() {
        let pkts: Vec<Packet> = (0..20)
            .map(|i| Packet::udp(i, ip(1), 1025, ip(2), 53, 80))
            .collect();
        assert_eq!(classify_packets(&pkts), HeuristicLabel::MultiServices);
    }

    #[test]
    fn ephemeral_ports_are_unknown() {
        let pkts: Vec<Packet> = (0..40)
            .map(|i| {
                Packet::tcp(
                    i,
                    ip(1),
                    40000,
                    ip(2),
                    50000,
                    TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
                    1500,
                )
            })
            .collect();
        assert_eq!(classify_packets(&pkts), HeuristicLabel::Unknown);
        assert_eq!(
            classify_packets(&pkts).category(),
            HeuristicCategory::Unknown
        );
    }

    #[test]
    fn empty_traffic_is_unknown() {
        assert_eq!(
            classify_packets(std::iter::empty()),
            HeuristicLabel::Unknown
        );
    }

    #[test]
    fn attack_rows_precede_special_rows() {
        // Sasser wins even when port 80 is also present.
        let mut pkts = syn_to(5554, 30);
        pkts.extend(http_session(10));
        assert_eq!(classify_packets(&pkts), HeuristicLabel::Sasser);
    }

    #[test]
    fn categories_cover_all_labels() {
        for l in HeuristicLabel::ALL {
            let _ = l.category(); // must be total
            assert!(!l.to_string().is_empty());
        }
        assert_eq!(
            HeuristicLabel::ALL
                .iter()
                .filter(|l| l.category() == HeuristicCategory::Attack)
                .count(),
            6
        );
    }
}
