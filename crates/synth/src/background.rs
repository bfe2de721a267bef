//! Background (non-anomalous) traffic synthesis.
//!
//! Models the structural properties of backbone traffic that the
//! detectors' baselines are fitted on: Zipf-popular hosts, an
//! application mix anchored on well-known ports, log-normal flow
//! sizes with a Pareto-tailed peer-to-peer component, and Poisson
//! flow arrivals. Absolute realism is not the goal — *diversity and
//! heavy tails* are, because they are what the four detectors' normal
//! models must absorb.
//!
//! Generation is **bin-native**: a [`BackgroundModel`] holds the
//! day-level parameters (app mix, distributions, the common-mode rate
//! modulation), and [`BackgroundModel::generate_bin`] synthesises the
//! flows *arriving* inside one generation bin from a caller-supplied
//! RNG. Poisson arrivals are memoryless, so restarting the arrival
//! clock at each bin boundary leaves the process statistically
//! unchanged while removing every sequential RNG dependence between
//! bins — the property the sharded generator (`crate::sharded`) is
//! built on. Flows *started* in a bin may emit packets past its end
//! (they are only clipped at the day window), so bin outputs are
//! merged time-sorted by the caller.

use crate::config::SynthConfig;
use mawilab_model::{Packet, TcpFlags, TimeWindow};
use mawilab_stats::{Exponential, LogNormal, Pareto, Zipf};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::Ipv4Addr;

/// The host population of one trace: internal (WIDE-side) and external
/// (trans-Pacific side) addresses, with Zipf popularity and designated
/// server roles.
#[derive(Debug, Clone)]
pub struct HostModel {
    internal: Vec<Ipv4Addr>,
    external: Vec<Ipv4Addr>,
    int_zipf: Zipf,
    ext_zipf: Zipf,
}

impl HostModel {
    /// Builds the population for a config. Internal hosts live in
    /// 203.178.0.0/16 (the WIDE prefix); external hosts are drawn
    /// pseudo-randomly from the public space.
    pub fn new(cfg: &SynthConfig, rng: &mut StdRng) -> Self {
        let internal: Vec<Ipv4Addr> = (0..cfg.internal_hosts)
            .map(|i| Ipv4Addr::new(203, 178, (i / 250) as u8, (i % 250 + 1) as u8))
            .collect();
        let mut external = Vec::with_capacity(cfg.external_hosts);
        while external.len() < cfg.external_hosts {
            let a = rng.random_range(1..=223u8);
            if a == 10 || a == 127 || a == 192 || a == 172 || a == 203 {
                continue; // avoid private/loopback/our prefix
            }
            external.push(Ipv4Addr::new(
                a,
                rng.random_range(0..=255),
                rng.random_range(0..=255),
                rng.random_range(1..=254),
            ));
        }
        HostModel {
            int_zipf: Zipf::new(internal.len(), 1.0),
            ext_zipf: Zipf::new(external.len(), 1.0),
            internal,
            external,
        }
    }

    /// A Zipf-popular internal host.
    pub fn internal(&self, rng: &mut StdRng) -> Ipv4Addr {
        self.internal[self.int_zipf.sample(rng) - 1]
    }

    /// A Zipf-popular external host.
    pub fn external(&self, rng: &mut StdRng) -> Ipv4Addr {
        self.external[self.ext_zipf.sample(rng) - 1]
    }

    /// The `i`-th internal host (stable across runs; used to pin
    /// anomaly victims).
    pub fn internal_at(&self, i: usize) -> Ipv4Addr {
        self.internal[i % self.internal.len()]
    }

    /// The `i`-th external host.
    pub fn external_at(&self, i: usize) -> Ipv4Addr {
        self.external[i % self.external.len()]
    }

    /// Number of internal hosts.
    pub fn internal_count(&self) -> usize {
        self.internal.len()
    }

    /// A uniformly random (spoofed-looking) public address outside the
    /// modelled population.
    pub fn spoofed(rng: &mut StdRng) -> Ipv4Addr {
        loop {
            let a = rng.random_range(1..=223u8);
            if a == 10 || a == 127 || a == 192 || a == 172 || a == 203 {
                continue;
            }
            return Ipv4Addr::new(
                a,
                rng.random_range(0..=255),
                rng.random_range(0..=255),
                rng.random_range(1..=254),
            );
        }
    }
}

/// An application profile of the background mix.
#[derive(Debug, Clone)]
struct App {
    weight: f64,
    proto_tcp: bool,
    server_port: u16,
    mean_data_pkts: f64,
}

fn app_mix(p2p_share: f64) -> Vec<App> {
    let rest = 1.0 - p2p_share;
    vec![
        App {
            weight: rest * 0.42,
            proto_tcp: true,
            server_port: 80,
            mean_data_pkts: 10.0,
        },
        App {
            weight: rest * 0.05,
            proto_tcp: true,
            server_port: 8080,
            mean_data_pkts: 8.0,
        },
        App {
            weight: rest * 0.22,
            proto_tcp: false,
            server_port: 53,
            mean_data_pkts: 1.0,
        },
        App {
            weight: rest * 0.08,
            proto_tcp: true,
            server_port: 25,
            mean_data_pkts: 12.0,
        },
        App {
            weight: rest * 0.06,
            proto_tcp: true,
            server_port: 22,
            mean_data_pkts: 14.0,
        },
        App {
            weight: rest * 0.05,
            proto_tcp: true,
            server_port: 21,
            mean_data_pkts: 6.0,
        },
        App {
            weight: rest * 0.05,
            proto_tcp: false,
            server_port: 123,
            mean_data_pkts: 1.0,
        },
        App {
            weight: rest * 0.04,
            proto_tcp: true,
            server_port: 443,
            mean_data_pkts: 9.0,
        },
        App {
            weight: rest * 0.03,
            proto_tcp: false,
            server_port: 0,
            mean_data_pkts: 1.0,
        }, // icmp echo
        // Peer-to-peer: random high ports both sides, Pareto sizes.
        App {
            weight: p2p_share,
            proto_tcp: true,
            server_port: 0,
            mean_data_pkts: 20.0,
        },
    ]
}

/// Day-level background parameters, shared by every generation bin.
///
/// Everything here is a pure function of the config plus the two
/// modulation phases (drawn once from the day stream), so bins can be
/// generated in any order from independent RNG streams.
#[derive(Debug, Clone)]
pub struct BackgroundModel {
    apps: Vec<App>,
    total_weight: f64,
    inter: Exponential,
    data_size: LogNormal,
    p2p_pkts: Pareto,
    day_window: TimeWindow,
    phases: (f64, f64),
}

/// Peak of the common-mode modulation factor (the thinning bound).
const MOD_MAX: f64 = 1.48;

impl BackgroundModel {
    /// Builds the day model. `phases` are the two common-mode
    /// modulation phases, drawn from the day-level RNG stream.
    pub fn new(cfg: &SynthConfig, day_window: TimeWindow, phases: (f64, f64)) -> Self {
        let apps = app_mix(cfg.p2p_share.clamp(0.0, 0.9));
        let total_weight: f64 = apps.iter().map(|a| a.weight).sum();
        // Overhead ≈ 5 control packets per TCP flow.
        let mean_flow_pkts: f64 = apps
            .iter()
            .map(|a| a.weight / total_weight * (a.mean_data_pkts + 4.0))
            .sum();
        let target_packets = cfg.background_pps * cfg.duration_s as f64;
        let flow_rate = target_packets / mean_flow_pkts / cfg.duration_s as f64; // flows/s
        BackgroundModel {
            apps,
            total_weight,
            inter: Exponential::new(flow_rate.max(1e-6)),
            data_size: LogNormal::new(6.2, 0.8), // ~500-byte median payloads
            p2p_pkts: Pareto::new(4.0, 1.3),
            day_window,
            phases,
        }
    }

    /// Common-mode rate modulation: real backbone traffic breathes —
    /// all hosts' rates co-vary through load and routing dynamics.
    /// This common factor is what PCA-style detectors model as the
    /// "normal subspace"; without it every sketch bin would be an
    /// independent Poisson stream and no low-dimensional normal
    /// behaviour would exist to learn.
    fn modulation(&self, ts: f64) -> f64 {
        let dur = (self.day_window.len_us() as f64).max(1.0);
        let x = (ts - self.day_window.start_us as f64) / dur;
        1.0 + 0.30 * (2.0 * std::f64::consts::PI * (2.3 * x + self.phases.0)).sin()
            + 0.18 * (2.0 * std::f64::consts::PI * (7.1 * x + self.phases.1)).sin()
    }

    /// Generates the background flows *arriving* inside `bin` into
    /// `out` (tag 0 = background), from `rng` alone. Flow packets may
    /// extend past the bin (clipped only at the day window end); the
    /// caller merges bin outputs time-sorted.
    pub fn generate_bin(
        &self,
        hosts: &HostModel,
        bin: TimeWindow,
        rng: &mut StdRng,
        out: &mut Vec<(Packet, u32)>,
    ) {
        let day_end = self.day_window.end_us;
        let mut t = bin.start_us as f64;
        let end = bin.end_us.min(day_end) as f64;
        while t < end {
            // Thinned Poisson process: candidate arrivals at the peak
            // rate, kept with probability m(t)/m_max. Exponential
            // inter-arrivals are memoryless, so restarting the clock
            // at the bin start leaves the day-level process unchanged.
            t += self.inter.sample(rng) / MOD_MAX * 1e6;
            if t >= end {
                break;
            }
            if rng.random::<f64>() > self.modulation(t) / MOD_MAX {
                continue;
            }
            // Pick an app by weight.
            let mut pick = rng.random::<f64>() * self.total_weight;
            let mut app = &self.apps[self.apps.len() - 1];
            for a in &self.apps {
                if pick < a.weight {
                    app = a;
                    break;
                }
                pick -= a.weight;
            }
            // Endpoints: clients and servers on either side of the link.
            let internal_client = rng.random::<f64>() < 0.5;
            let (client, server) = if internal_client {
                (hosts.internal(rng), hosts.external(rng))
            } else {
                (hosts.external(rng), hosts.internal(rng))
            };
            let cport: u16 = rng.random_range(1025..=65000);

            if app.server_port == 0 && !app.proto_tcp {
                // ICMP echo pair.
                emit_icmp_pair(t as u64, day_end, client, server, rng, out);
            } else if app.server_port == 0 {
                // p2p: both ports ephemeral, Pareto-tailed packet count.
                let sport: u16 = rng.random_range(1025..=65000);
                let n = (self.p2p_pkts.sample(rng) as usize).clamp(2, 3_000);
                emit_tcp_flow(
                    t as u64,
                    day_end,
                    client,
                    cport,
                    server,
                    sport,
                    n,
                    &self.data_size,
                    rng,
                    out,
                );
            } else if app.proto_tcp {
                let n = sample_flow_len(app.mean_data_pkts, rng);
                emit_tcp_flow(
                    t as u64,
                    day_end,
                    client,
                    cport,
                    server,
                    app.server_port,
                    n,
                    &self.data_size,
                    rng,
                    out,
                );
            } else {
                // UDP request/response (DNS, NTP).
                emit_udp_exchange(
                    t as u64,
                    day_end,
                    client,
                    cport,
                    server,
                    app.server_port,
                    rng,
                    out,
                );
            }
        }
    }
}

fn sample_flow_len(mean: f64, rng: &mut StdRng) -> usize {
    // Geometric-ish around the mean, at least 1 data packet.
    let u: f64 = rng.random::<f64>().max(1e-12);
    ((-u.ln() * mean) as usize).clamp(1, 500)
}

/// Emits a full TCP conversation: handshake, `n_data` data segments
/// alternating directions, FIN teardown. Packets beyond `end_us` are
/// dropped (flows truncated by the capture window, as in real MAWI
/// 15-minute snapshots).
#[allow(clippy::too_many_arguments)]
pub fn emit_tcp_flow(
    t0: u64,
    end_us: u64,
    client: Ipv4Addr,
    cport: u16,
    server: Ipv4Addr,
    sport: u16,
    n_data: usize,
    data_size: &LogNormal,
    rng: &mut StdRng,
    out: &mut Vec<(Packet, u32)>,
) {
    let rtt = rng.random_range(20_000..200_000u64); // 20–200 ms
    let mut push = |ts: u64, p: Packet| {
        if ts < end_us {
            out.push((p, 0));
        }
    };
    let mut t = t0;
    push(
        t,
        Packet::tcp(t, client, cport, server, sport, TcpFlags::syn(), 48),
    );
    t += rtt / 2;
    push(
        t,
        Packet::tcp(t, server, sport, client, cport, TcpFlags::syn_ack(), 48),
    );
    t += rtt / 2;
    push(
        t,
        Packet::tcp(t, client, cport, server, sport, TcpFlags::ack(), 40),
    );
    let gap = Exponential::new(1.0 / (0.02 + rng.random::<f64>() * 0.2)); // mean 20–220 ms
    for i in 0..n_data {
        t += (gap.sample(rng) * 1e6) as u64;
        let len = (data_size.sample(rng) as u16).clamp(40, 1500);
        let (src, sp, dst, dp) = if i % 3 == 0 {
            (client, cport, server, sport) // requests
        } else {
            (server, sport, client, cport) // responses dominate
        };
        push(
            t,
            Packet::tcp(
                t,
                src,
                sp,
                dst,
                dp,
                TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
                len,
            ),
        );
    }
    t += rtt / 2;
    push(
        t,
        Packet::tcp(t, client, cport, server, sport, TcpFlags::fin_ack(), 40),
    );
    t += rtt / 2;
    push(
        t,
        Packet::tcp(t, server, sport, client, cport, TcpFlags::fin_ack(), 40),
    );
}

#[allow(clippy::too_many_arguments)]
fn emit_udp_exchange(
    t0: u64,
    end_us: u64,
    client: Ipv4Addr,
    cport: u16,
    server: Ipv4Addr,
    sport: u16,
    rng: &mut StdRng,
    out: &mut Vec<(Packet, u32)>,
) {
    if t0 < end_us {
        out.push((
            Packet::udp(t0, client, cport, server, sport, rng.random_range(60..120)),
            0,
        ));
    }
    let t1 = t0 + rng.random_range(10_000..150_000u64);
    if t1 < end_us {
        out.push((
            Packet::udp(t1, server, sport, client, cport, rng.random_range(80..512)),
            0,
        ));
    }
}

fn emit_icmp_pair(
    t0: u64,
    end_us: u64,
    a: Ipv4Addr,
    b: Ipv4Addr,
    rng: &mut StdRng,
    out: &mut Vec<(Packet, u32)>,
) {
    if t0 < end_us {
        out.push((Packet::icmp(t0, a, b, 8, 0, 84), 0));
    }
    let t1 = t0 + rng.random_range(20_000..200_000u64);
    if t1 < end_us {
        out.push((Packet::icmp(t1, b, a, 0, 0, 84), 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (SynthConfig, HostModel, TimeWindow, StdRng) {
        let cfg = SynthConfig::default().with_anomalies(vec![]);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let hosts = HostModel::new(&cfg, &mut rng);
        let window = TimeWindow::new(0, cfg.duration_s as u64 * 1_000_000);
        (cfg, hosts, window, rng)
    }

    /// Generates a whole day through the bin-native API: one model,
    /// 1-second bins, each from the shared test rng (sequencing is
    /// irrelevant to these statistical assertions).
    fn generate_background(
        cfg: &SynthConfig,
        hosts: &HostModel,
        window: TimeWindow,
        rng: &mut StdRng,
        out: &mut Vec<(Packet, u32)>,
    ) {
        let phases = (rng.random::<f64>(), rng.random::<f64>());
        let model = BackgroundModel::new(cfg, window, phases);
        let mut start = window.start_us;
        while start < window.end_us {
            let end = (start + 1_000_000).min(window.end_us);
            model.generate_bin(hosts, TimeWindow::new(start, end), rng, out);
            start = end;
        }
    }

    #[test]
    fn volume_tracks_configured_rate() {
        let (cfg, hosts, window, mut rng) = setup();
        let mut out = Vec::new();
        generate_background(&cfg, &hosts, window, &mut rng, &mut out);
        let target = cfg.background_pps * cfg.duration_s as f64;
        let got = out.len() as f64;
        assert!(
            got > target * 0.5 && got < target * 2.0,
            "got {got}, target {target}"
        );
    }

    #[test]
    fn all_background_packets_are_tag_zero_and_in_window() {
        let (cfg, hosts, window, mut rng) = setup();
        let mut out = Vec::new();
        generate_background(&cfg, &hosts, window, &mut rng, &mut out);
        assert!(out
            .iter()
            .all(|(p, tag)| *tag == 0 && window.contains(p.ts_us)));
    }

    #[test]
    fn mix_includes_wellknown_ports_and_protocols() {
        let (cfg, hosts, window, mut rng) = setup();
        let mut out = Vec::new();
        generate_background(&cfg, &hosts, window, &mut rng, &mut out);
        let has_port = |p: u16| out.iter().any(|(pkt, _)| pkt.dport == p || pkt.sport == p);
        assert!(has_port(80), "no HTTP");
        assert!(has_port(53), "no DNS");
        let has_udp = out
            .iter()
            .any(|(p, _)| p.proto == mawilab_model::Protocol::Udp);
        let has_icmp = out
            .iter()
            .any(|(p, _)| p.proto == mawilab_model::Protocol::Icmp);
        assert!(has_udp && has_icmp);
    }

    #[test]
    fn background_syn_ratio_is_low() {
        // Normal traffic must not look like an attack to the Table-1
        // heuristics (SYN ratio ≥ 50% ⇒ attack).
        let (cfg, hosts, window, mut rng) = setup();
        let mut out = Vec::new();
        generate_background(&cfg, &hosts, window, &mut rng, &mut out);
        let tcp: Vec<_> = out
            .iter()
            .filter(|(p, _)| p.proto == mawilab_model::Protocol::Tcp)
            .collect();
        let syn = tcp.iter().filter(|(p, _)| p.flags.is_syn()).count();
        let ratio = syn as f64 / tcp.len() as f64;
        assert!(ratio < 0.3, "background SYN ratio {ratio}");
    }

    #[test]
    fn popular_hosts_dominate() {
        let (cfg, hosts, _window, mut rng) = setup();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(hosts.internal(&mut rng)).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let avg = 10_000 / cfg.internal_hosts as u32;
        assert!(max > avg * 5, "no Zipf skew: max={max} avg={avg}");
    }

    #[test]
    fn spoofed_addresses_avoid_reserved_space() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let ip = HostModel::spoofed(&mut rng);
            let o = ip.octets();
            assert!(o[0] != 10 && o[0] != 127 && o[0] != 203 && o[0] <= 223);
        }
    }

    #[test]
    fn stable_host_indexing() {
        let (cfg, hosts, _, _) = setup();
        assert_eq!(hosts.internal_at(0), hosts.internal_at(0));
        assert_eq!(hosts.internal_at(cfg.internal_hosts), hosts.internal_at(0));
        // wraps
    }

    #[test]
    fn truncation_drops_packets_beyond_window() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        let data = LogNormal::new(6.0, 0.5);
        // Flow starting 1µs before the end: almost everything dropped.
        emit_tcp_flow(
            999_999,
            1_000_000,
            Ipv4Addr::new(1, 1, 1, 1),
            1025,
            Ipv4Addr::new(2, 2, 2, 2),
            80,
            50,
            &data,
            &mut rng,
            &mut out,
        );
        assert!(out.len() <= 1);
    }
}
