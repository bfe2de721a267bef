//! Golden-corpus regression pins.
//!
//! Every committed BENCH baseline and every seeded test in the
//! workspace sits on top of the synthetic corpus. A refactor of the
//! generator that silently shifts the corpus would invalidate all of
//! them at once while every structural test stays green — so the
//! corpus itself is pinned: stable FNV-1a content hashes over the
//! full packet tuples + truth tags of three (seed, date) archive
//! days, including the worm-onset day of each epoch so the
//! `worm_intensity` wiring is pinned too.
//!
//! If an intentional generator change lands (it rewrites the corpus
//! by design — like the sharded engine did), regenerate the constants
//! with `cargo test -p mawilab-synth --test golden_corpus -- --nocapture`
//! after setting `PRINT_GOLDEN=1`, and say so in the changelog.

use mawilab_model::TraceDate;
use mawilab_synth::{AnomalyKind, ArchiveConfig, ArchiveSimulator, LabeledTrace};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }
}

/// Content hash of a labeled day: every packet tuple in stream order,
/// interleaved with its truth tag.
fn corpus_hash(lt: &LabeledTrace) -> u64 {
    let mut h = Fnv::new();
    h.u64(lt.trace.len() as u64);
    for (p, tag) in lt.trace.packets.iter().zip(lt.truth.tags()) {
        h.u64(p.ts_us);
        h.write(&p.src.octets());
        h.write(&p.dst.octets());
        h.u16(p.sport);
        h.u16(p.dport);
        h.u16(p.len);
        h.write(&[p.proto.number(), p.flags.0]);
        h.u64(match tag {
            Some(t) => *t as u64 + 1,
            None => 0,
        });
    }
    h.0
}

fn sim() -> ArchiveSimulator {
    ArchiveSimulator::new(ArchiveConfig {
        scale: 0.3,
        ..Default::default()
    })
}

/// The pinned (date, packet count, hash) triples. Counts make hash
/// mismatches easier to diagnose (volume shift vs content shift).
const GOLDEN: [(u16, u8, u8, usize, u64); 3] = [
    // Quiet 18 Mbps baseline, no worm epochs.
    (2002, 3, 5, 6974, 0xfe84_e068_6eb6_ec3e),
    // Blaster onset day.
    (2003, 8, 12, 8516, 0x42fb_7cfe_299f_8355),
    // Sasser onset day.
    (2004, 5, 10, 9517, 0x418d_84e1_1f0a_be9e),
];

#[test]
fn corpus_hashes_are_pinned() {
    for &(y, m, d, want_count, want_hash) in &GOLDEN {
        let date = TraceDate::new(y, m, d);
        let lt = sim().generate(date);
        let hash = corpus_hash(&lt);
        if std::env::var("PRINT_GOLDEN").is_ok() {
            println!("({y}, {m}, {d}, {}, 0x{hash:016x}),", lt.trace.len());
            continue;
        }
        assert_eq!(
            lt.trace.len(),
            want_count,
            "{date}: packet count shifted — the corpus under every \
             committed baseline changed"
        );
        assert_eq!(
            hash, want_hash,
            "{date}: corpus content hash shifted — the corpus under \
             every committed baseline changed"
        );
    }
}

#[test]
fn worm_onset_days_inject_their_worms() {
    // Pins the `worm_intensity` wiring behind the golden hashes: the
    // onset-day corpora above must actually contain their epoch's worm
    // traffic, with tagged packets on the scan port.
    for (date, kind, port) in [
        (TraceDate::new(2003, 8, 12), AnomalyKind::BlasterWorm, 135),
        (TraceDate::new(2004, 5, 10), AnomalyKind::SasserWorm, 445),
    ] {
        let lt = sim().generate(date);
        let ids: Vec<u32> = lt
            .truth
            .anomalies()
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| a.id)
            .collect();
        assert!(!ids.is_empty(), "{date}: no {kind:?} injected on onset day");
        let tagged_on_port = lt
            .trace
            .packets
            .iter()
            .zip(lt.truth.tags())
            .filter(|(p, tag)| p.dport == port && matches!(tag, Some(t) if ids.contains(t)))
            .count();
        assert!(
            tagged_on_port > 50,
            "{date}: only {tagged_on_port} tagged {kind:?} scan packets"
        );
    }
}

#[test]
fn quiet_day_has_no_worms() {
    let lt = sim().generate(TraceDate::new(2002, 3, 5));
    assert!(lt
        .truth
        .anomalies()
        .iter()
        .all(|a| !matches!(a.kind, AnomalyKind::BlasterWorm | AnomalyKind::SasserWorm)));
}
