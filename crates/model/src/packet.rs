//! Packet records: the smallest unit of traffic the pipeline reasons
//! about.
//!
//! MAWI traces are payload-stripped, so a packet is fully described by
//! its timestamp, IPv4 endpoints, transport protocol, ports (or ICMP
//! type/code), TCP flags and wire length — exactly the fields the
//! paper's detectors and Table-1 heuristics consume.

use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol of a packet.
///
/// Only the protocols the MAWILab heuristics distinguish get their own
/// variant; everything else is carried verbatim as [`Protocol::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// TCP (IP protocol 6).
    Tcp,
    /// UDP (IP protocol 17).
    Udp,
    /// ICMP (IP protocol 1).
    Icmp,
    /// Any other IP protocol, identified by its protocol number.
    Other(u8),
}

impl Protocol {
    /// IP protocol number for this protocol.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }

    /// Builds a [`Protocol`] from an IP protocol number.
    pub fn from_number(n: u8) -> Self {
        match n {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }

    /// True for protocols that carry 16-bit port numbers.
    pub fn has_ports(self) -> bool {
        matches!(self, Protocol::Tcp | Protocol::Udp)
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Icmp => write!(f, "icmp"),
            Protocol::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// TCP control-flag bitfield (RFC 793 low byte of the flags word).
///
/// The Table-1 heuristics test SYN/RST/FIN ratios, so flags are kept
/// per-packet rather than per-flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag bit.
    pub const FIN: u8 = 0x01;
    /// SYN flag bit.
    pub const SYN: u8 = 0x02;
    /// RST flag bit.
    pub const RST: u8 = 0x04;
    /// PSH flag bit.
    pub const PSH: u8 = 0x08;
    /// ACK flag bit.
    pub const ACK: u8 = 0x10;
    /// URG flag bit.
    pub const URG: u8 = 0x20;

    /// No flags set (e.g. for non-TCP packets).
    pub const fn empty() -> Self {
        TcpFlags(0)
    }

    /// A bare SYN (connection attempt).
    pub const fn syn() -> Self {
        TcpFlags(Self::SYN)
    }

    /// SYN+ACK (connection acceptance).
    pub const fn syn_ack() -> Self {
        TcpFlags(Self::SYN | Self::ACK)
    }

    /// A bare ACK (established-connection data/ack segment).
    pub const fn ack() -> Self {
        TcpFlags(Self::ACK)
    }

    /// RST (reset), as emitted by closed ports under scanning.
    pub const fn rst() -> Self {
        TcpFlags(Self::RST | Self::ACK)
    }

    /// FIN+ACK (graceful teardown).
    pub const fn fin_ack() -> Self {
        TcpFlags(Self::FIN | Self::ACK)
    }

    /// Whether `flag` (one of the associated constants) is set.
    pub fn has(self, flag: u8) -> bool {
        self.0 & flag != 0
    }

    /// True if SYN is set (with or without ACK).
    pub fn is_syn(self) -> bool {
        self.has(Self::SYN)
    }

    /// True if RST is set.
    pub fn is_rst(self) -> bool {
        self.has(Self::RST)
    }

    /// True if FIN is set.
    pub fn is_fin(self) -> bool {
        self.has(Self::FIN)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (Self::SYN, 'S'),
            (Self::ACK, 'A'),
            (Self::FIN, 'F'),
            (Self::RST, 'R'),
            (Self::PSH, 'P'),
            (Self::URG, 'U'),
        ];
        let mut any = false;
        for (bit, c) in names {
            if self.has(bit) {
                write!(f, "{c}")?;
                any = true;
            }
        }
        if !any {
            write!(f, ".")?;
        }
        Ok(())
    }
}

/// One captured packet.
///
/// Timestamps are **microseconds since the Unix epoch** so that traces
/// from different archive days compare directly. For ICMP packets the
/// `sport`/`dport` fields carry the ICMP type and code respectively
/// (a common trick in flow records, also used by the MAWI tooling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Capture timestamp, µs since the Unix epoch.
    pub ts_us: u64,
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// Source port (TCP/UDP) or ICMP type.
    pub sport: u16,
    /// Destination port (TCP/UDP) or ICMP code.
    pub dport: u16,
    /// Wire length in bytes (IP header + payload as captured).
    pub len: u16,
    /// Transport protocol.
    pub proto: Protocol,
    /// TCP flags; `TcpFlags::empty()` for non-TCP packets.
    pub flags: TcpFlags,
}

impl Packet {
    /// Creates a TCP packet.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        ts_us: u64,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        flags: TcpFlags,
        len: u16,
    ) -> Self {
        Packet {
            ts_us,
            src,
            dst,
            sport,
            dport,
            len,
            proto: Protocol::Tcp,
            flags,
        }
    }

    /// Creates a UDP packet.
    pub fn udp(ts_us: u64, src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16, len: u16) -> Self {
        Packet {
            ts_us,
            src,
            dst,
            sport,
            dport,
            len,
            proto: Protocol::Udp,
            flags: TcpFlags::empty(),
        }
    }

    /// Creates an ICMP packet with the given type and code.
    pub fn icmp(ts_us: u64, src: Ipv4Addr, dst: Ipv4Addr, ty: u8, code: u8, len: u16) -> Self {
        Packet {
            ts_us,
            src,
            dst,
            sport: ty as u16,
            dport: code as u16,
            len,
            proto: Protocol::Icmp,
            flags: TcpFlags::empty(),
        }
    }

    /// Source port if the protocol carries ports, else `None`.
    pub fn src_port(&self) -> Option<u16> {
        self.proto.has_ports().then_some(self.sport)
    }

    /// Destination port if the protocol carries ports, else `None`.
    pub fn dst_port(&self) -> Option<u16> {
        self.proto.has_ports().then_some(self.dport)
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6} {} {}:{} > {}:{} [{}] len={}",
            self.ts_us as f64 / 1e6,
            self.proto,
            self.src,
            self.sport,
            self.dst,
            self.dport,
            self.flags,
            self.len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn protocol_number_round_trip() {
        for n in 0..=255u8 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
    }

    #[test]
    fn protocol_variants_map_to_iana_numbers() {
        assert_eq!(Protocol::Tcp.number(), 6);
        assert_eq!(Protocol::Udp.number(), 17);
        assert_eq!(Protocol::Icmp.number(), 1);
        assert_eq!(Protocol::from_number(47), Protocol::Other(47));
    }

    #[test]
    fn only_tcp_udp_have_ports() {
        assert!(Protocol::Tcp.has_ports());
        assert!(Protocol::Udp.has_ports());
        assert!(!Protocol::Icmp.has_ports());
        assert!(!Protocol::Other(47).has_ports());
    }

    #[test]
    fn tcp_flag_constructors() {
        assert!(TcpFlags::syn().is_syn());
        assert!(!TcpFlags::syn().has(TcpFlags::ACK));
        assert!(TcpFlags::syn_ack().is_syn());
        assert!(TcpFlags::syn_ack().has(TcpFlags::ACK));
        assert!(TcpFlags::rst().is_rst());
        assert!(TcpFlags::fin_ack().is_fin());
        assert!(!TcpFlags::empty().is_syn());
    }

    #[test]
    fn flags_display_is_compact() {
        assert_eq!(TcpFlags::syn_ack().to_string(), "SA");
        assert_eq!(TcpFlags::empty().to_string(), ".");
        assert_eq!(TcpFlags::rst().to_string(), "AR");
    }

    #[test]
    fn icmp_type_code_ride_in_the_port_fields_but_ports_are_hidden() {
        let p = Packet::icmp(0, ip(10, 0, 0, 1), ip(10, 0, 0, 2), 8, 0, 64);
        assert_eq!((p.sport, p.dport), (8, 0));
        assert_eq!(p.src_port(), None);
        assert_eq!(p.dst_port(), None);
    }

    #[test]
    fn tcp_ports_visible_icmp_fields_hidden() {
        let p = Packet::tcp(
            5,
            ip(1, 2, 3, 4),
            1234,
            ip(5, 6, 7, 8),
            80,
            TcpFlags::syn(),
            40,
        );
        assert_eq!(p.src_port(), Some(1234));
        assert_eq!(p.dst_port(), Some(80));
    }

    #[test]
    fn packet_is_small() {
        // The archive simulator holds tens of millions of these; keep
        // the record within two cache-line quarters.
        assert!(std::mem::size_of::<Packet>() <= 32);
    }

    #[test]
    fn display_formats_endpoints() {
        let p = Packet::udp(
            1_000_000,
            ip(192, 0, 2, 1),
            53,
            ip(198, 51, 100, 7),
            3456,
            120,
        );
        let s = p.to_string();
        assert!(s.contains("192.0.2.1:53"), "{s}");
        assert!(s.contains("udp"), "{s}");
    }
}
