//! The data plane's hasher: a seeded multiply-mix [`FastState`] and the
//! [`FastMap`] / [`FastSet`] aliases every per-packet and per-unit map
//! uses.
//!
//! Each key word is folded in as `h = (h + word) * K`. Byte slices go
//! in as little-endian 8-byte words plus a zero-padded tail, so an
//! `Ipv4Addr` (hashed as its `[u8; 4]` octets) costs one word. `finish`
//! mixes in the map's seed with one more multiply and ends with
//! `rotate_left(26)`: a product's well-mixed bits are its high ones,
//! and the table picks buckets by the low bits.
//!
//! **Seeding.** Every [`FastState::default`] call draws a fresh `u64`
//! seed from std `RandomState` (a cloned map keeps its seed), so
//! iteration order still changes from map to map and from run to run.
//! An output that leaks hash order therefore stays visibly
//! non-deterministic instead of becoming stable by accident; the
//! `hashmap-iteration-order` lint and `tests/online_equivalence.rs` pin
//! that no output depends on it.
//!
//! **Robustness trade-off.** SipHash under a secret key resists a
//! capture whose 5-tuples are crafted to collide; this hasher does not
//! fully. The per-map seed moves every key's bucket, so a collision
//! table cannot be precomputed offline from the keys alone. But the
//! per-word mix is linear, so keys whose accumulators agree in the low
//! bits collide under every seed and can force long probe chains: the
//! seed is not a keyed PRF. The labeler reads archived captures, and
//! it trades that resistance for speed on the per-packet path.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// The multiplier: odd, with well-spread bits (the FxHash v2 constant).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A `HashMap` hashed by [`FastState`].
// lint:allow(data-plane-hasher): this alias is the fast hasher's definition
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastState>;
/// A `HashSet` hashed by [`FastState`].
// lint:allow(data-plane-hasher): this alias is the fast hasher's definition
pub type FastSet<T> = std::collections::HashSet<T, FastState>;

/// Builds [`FastHasher`]s that share one random per-map seed.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> Self {
        FastState {
            seed: RandomState::new().hash_one(K),
        }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            hash: 0,
            seed: self.seed,
        }
    }
}

/// The multiply-mix hasher [`FastState`] builds.
#[derive(Debug, Clone)]
pub struct FastHasher {
    hash: u64,
    seed: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        (self.hash ^ self.seed).wrapping_mul(K).rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowKey, Protocol};
    use std::net::Ipv4Addr;

    /// Distinct values of the low 16 hash bits over `keys`.
    fn low16_spread<T: std::hash::Hash>(keys: impl Iterator<Item = T>) -> usize {
        let state = FastState::default();
        let low: FastSet<u64> = keys.map(|k| state.hash_one(k) & 0xffff).collect();
        low.len()
    }

    fn flow(src: Ipv4Addr) -> FlowKey {
        FlowKey {
            src,
            dst: Ipv4Addr::new(192, 168, 0, 1),
            sport: 40_000,
            dport: 80,
            proto: Protocol::Tcp,
        }
    }

    #[test]
    fn fresh_states_iterate_the_same_keys_in_different_orders() {
        let a: FastSet<u32> = (0..1000).collect();
        let b: FastSet<u32> = (0..1000).collect();
        assert_eq!(a, b);
        let (oa, ob): (Vec<u32>, Vec<u32>) = (a.into_iter().collect(), b.into_iter().collect());
        assert_ne!(
            oa, ob,
            "two maps share one iteration order: is the seed constant?"
        );
    }

    // 4096 keys over 65,536 low-16 values: uniform hashing leaves
    // about 3,973 distinct. Keys that differ only above bit 15 of
    // every word (the shifted u32s; the last two octets, since octets
    // hash little-endian) leave 1 if the final rotate is dropped.

    #[test]
    fn high_u32_bits_reach_the_low_hash_bits() {
        assert!(low16_spread((0..4096u32).map(|hi| hi << 16)) > 3800);
    }

    #[test]
    fn flow_keys_differing_in_source_octets_spread() {
        let first_two = (0..4096u32).map(|i| flow(Ipv4Addr::new((i >> 8) as u8, i as u8, 7, 9)));
        assert!(low16_spread(first_two) > 3800);
        let last_two = (0..4096u32).map(|i| flow(Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8)));
        assert!(low16_spread(last_two) > 3800);
    }

    #[test]
    fn equal_keys_hash_equal_under_one_state() {
        let state = FastState::default();
        let k = flow(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(
            state.hash_one(k),
            state.hash_one(flow(Ipv4Addr::new(10, 0, 0, 1)))
        );
        assert_eq!(state.hash_one(b"abcdefghij"), state.hash_one(b"abcdefghij"));
        assert_eq!(state.hash_one(7u32), state.hash_one(7u32));
    }
}
