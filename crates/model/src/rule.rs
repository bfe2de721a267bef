//! Traffic feature rules: 4-tuples with wildcards.
//!
//! The paper expresses both KL-detector alarms and the association
//! rules summarising a community as `<srcIP, sport, dstIP, dport>`
//! patterns "where elements can be omitted" (§3.2, §4.1.1). A
//! [`TrafficRule`] is that pattern plus an optional protocol
//! constraint; `None` fields are wildcards.

use crate::packet::{Packet, Protocol};
use std::fmt;
use std::net::Ipv4Addr;

/// A `<srcIP, sport, dstIP, dport>` pattern with wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TrafficRule {
    /// Source address constraint.
    pub src: Option<Ipv4Addr>,
    /// Source port constraint.
    pub sport: Option<u16>,
    /// Destination address constraint.
    pub dst: Option<Ipv4Addr>,
    /// Destination port constraint.
    pub dport: Option<u16>,
    /// Protocol constraint (not counted in the rule degree; the paper's
    /// rules are 4-tuples).
    pub proto: Option<Protocol>,
}

impl TrafficRule {
    /// The all-wildcard rule, matching every packet.
    pub fn any() -> Self {
        TrafficRule::default()
    }

    /// Rule pinning only the destination port (optionally protocol).
    pub fn dst_port(port: u16, proto: Option<Protocol>) -> Self {
        TrafficRule {
            dport: Some(port),
            proto,
            ..Default::default()
        }
    }

    /// Number of non-wildcard items among the four tuple fields —
    /// the paper's *rule degree* contribution (ranges 0..=4).
    pub fn degree(&self) -> u32 {
        self.src.is_some() as u32
            + self.sport.is_some() as u32
            + self.dst.is_some() as u32
            + self.dport.is_some() as u32
    }

    /// Whether a packet satisfies every non-wildcard constraint.
    pub fn matches(&self, p: &Packet) -> bool {
        self.src.is_none_or(|v| v == p.src)
            && self.dst.is_none_or(|v| v == p.dst)
            && self.sport.is_none_or(|v| v == p.sport)
            && self.dport.is_none_or(|v| v == p.dport)
            && self.proto.is_none_or(|v| v == p.proto)
    }

    /// [`matches`](Self::matches) evaluated on a flow key instead of a
    /// packet. A rule constrains exactly the five key fields, so for
    /// every packet `p`: `matches(p) == matches_key(&FlowKey::of(p))`
    /// — which is what lets deferred extraction match compact
    /// `(FlowKey, ts)` evidence against alarms long after the packets
    /// are gone.
    pub fn matches_key(&self, k: &crate::flow::FlowKey) -> bool {
        self.src.is_none_or(|v| v == k.src)
            && self.dst.is_none_or(|v| v == k.dst)
            && self.sport.is_none_or(|v| v == k.sport)
            && self.dport.is_none_or(|v| v == k.dport)
            && self.proto.is_none_or(|v| v == k.proto)
    }
}

impl fmt::Display for TrafficRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn item<T: fmt::Display>(v: &Option<T>) -> String {
            v.as_ref()
                .map_or_else(|| "*".to_string(), |x| x.to_string())
        }
        write!(
            f,
            "<{}, {}, {}, {}>",
            item(&self.src),
            item(&self.sport),
            item(&self.dst),
            item(&self.dport)
        )?;
        if let Some(p) = self.proto {
            write!(f, "/{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpFlags;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, d)
    }

    fn pkt() -> Packet {
        Packet::tcp(0, ip(1), 4321, ip(2), 80, TcpFlags::syn(), 40)
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(TrafficRule::any().matches(&pkt()));
        assert_eq!(TrafficRule::any().degree(), 0);
    }

    #[test]
    fn full_rule_matches_exactly() {
        let r = TrafficRule {
            src: Some(ip(1)),
            sport: Some(4321),
            dst: Some(ip(2)),
            dport: Some(80),
            proto: Some(Protocol::Tcp),
        };
        assert!(r.matches(&pkt()));
        assert_eq!(r.degree(), 4);
        let mut other = pkt();
        other.dport = 443;
        assert!(!r.matches(&other));
    }

    #[test]
    fn proto_constraint_checked_but_not_counted() {
        let r = TrafficRule::dst_port(80, Some(Protocol::Udp));
        assert_eq!(r.degree(), 1);
        assert!(!r.matches(&pkt())); // pkt is TCP
        let r2 = TrafficRule::dst_port(80, Some(Protocol::Tcp));
        assert!(r2.matches(&pkt()));
    }

    #[test]
    fn display_uses_star_for_wildcards() {
        let r = TrafficRule {
            src: Some(ip(1)),
            dport: Some(80),
            ..Default::default()
        };
        assert_eq!(r.to_string(), "<10.0.0.1, *, *, 80>");
    }
}
