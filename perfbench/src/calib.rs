//! The host-speed reference: a fixed kernel of the benchmark's own,
//! sampled around and inside every op, by which every reported wall is
//! normalized.
//!
//! The shared host this benchmark was built on changes speed by more
//! than half in phases lasting minutes, and by ±25 % from one half
//! second to the next, with flat steal time: the processor is granted
//! but runs slower. No estimator over one run's ops removes a phase
//! that covers the whole run. The reference kernel shares no code with
//! the program, so a change to the program leaves its wall alone, while
//! a host phase slows it as it slows the ops. An op's wall times [`NOMINAL_S`] over
//! the median reference sample taken around and during it is then the
//! op's wall at a fixed host speed: the speed at which one reference
//! sample takes [`NOMINAL_S`].
//!
//! Samples are taken between ops (a bracket, see
//! [`Reference::bracket`]) and, inside a labeling op, between chunks
//! once every [`SAMPLE_EVERY_S`] ([`Sampled`]), with their time taken
//! out of the op's wall: a short bracket next to a 6 s op says little
//! about the half seconds the op ran through.

use crate::inputs::{splitmix64, timed};
use crate::stats::median;
use mawilab_model::{PacketChunk, PacketSource, SourceError, TraceMeta};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys hashed and sorted per reference round: a working set of a few
/// hundred KiB, like a labeling op's per-chunk tables.
const KEYS: usize = 1 << 14;

/// Rounds in one reference sample.
const ROUNDS: usize = 4;

/// Share of an op's wall spent on the reference samples after it.
const BRACKET_SHARE: f64 = 0.05;

/// Interval between two reference samples inside a labeling op,
/// seconds.
const SAMPLE_EVERY_S: f64 = 0.2;

/// Most reference samples in one bracket.
const BRACKET_MAX: usize = 9;

/// The reference host speed: one reference sample's wall on this
/// benchmark's 2-vCPU build host in a fast phase, seconds.
const NOMINAL_S: f64 = 0.004;

/// The reference kernel with its buffers, allocated once so that no
/// sample touches the allocator: the program's heap state cannot change
/// a sample's wall.
pub struct Reference {
    keys: Vec<u64>,
    counts: HashMap<u64, u32>,
}

impl Reference {
    /// Allocates the buffers and runs one untimed round, so every page
    /// is mapped before the first sample.
    pub fn new() -> Self {
        let mut r = Reference {
            keys: Vec::with_capacity(KEYS),
            counts: HashMap::with_capacity(KEYS / 2),
        };
        black_box(r.round());
        r
    }

    /// One reference round: hash-map counting, a sort and a
    /// floating-point reduction over the same keys, the three kinds of
    /// work a labeling op does most. Deterministic; returns a checksum
    /// so nothing is optimised away.
    fn round(&mut self) -> u64 {
        let buckets = KEYS as u64 / 4;
        let mut state = 0x5EED_C0FF_EE00;
        self.keys.clear();
        self.keys.extend((0..KEYS).map(|_| splitmix64(&mut state)));
        self.counts.clear();
        for &k in &self.keys {
            *self.counts.entry(k % buckets).or_default() += 1;
        }
        self.keys.sort_unstable();
        let mut acc = 0.0f64;
        for (i, &k) in self.keys.iter().enumerate() {
            let x = (k >> 11) as f64 / (1u64 << 53) as f64;
            let c = self.counts.get(&(k % buckets)).copied().unwrap_or(0);
            acc += (x * i as f64 + 1.0).sqrt() * c as f64;
        }
        acc.to_bits() ^ self.keys[KEYS / 2] ^ self.counts.len() as u64
    }

    /// Wall of one reference sample, seconds.
    fn sample_s(&mut self) -> f64 {
        timed(|| {
            for _ in 0..ROUNDS {
                black_box(self.round());
            }
        })
        .1
    }

    /// Walls of `n` reference samples, seconds.
    pub fn samples(&mut self, n: usize) -> Vec<f64> {
        (0..n.max(1)).map(|_| self.sample_s()).collect()
    }

    /// The reference samples to take after an op of `op_wall` seconds:
    /// one, plus as many as fit in [`BRACKET_SHARE`] of the op's wall at
    /// the reference speed, at most [`BRACKET_MAX`].
    pub fn bracket(&mut self, op_wall: f64) -> Vec<f64> {
        let n = 1 + (op_wall * BRACKET_SHARE / NOMINAL_S) as usize;
        self.samples(n.min(BRACKET_MAX))
    }
}

/// A packet source that takes a reference sample before a chunk
/// whenever [`SAMPLE_EVERY_S`] have passed since the last, so a long
/// labeling op's host speed is sampled while the op runs. Without a
/// reference it only passes chunks through.
pub struct Sampled<'a, S: ?Sized> {
    inner: &'a mut S,
    reference: Option<&'a mut Reference>,
    last: Instant,
    /// Walls of the samples taken, seconds.
    pub walls: Vec<f64>,
    /// Time spent sampling, to be taken out of the op's wall, seconds.
    pub spent_s: f64,
}

impl<'a, S: ?Sized> Sampled<'a, S> {
    /// Wraps `inner`; the first sample falls [`SAMPLE_EVERY_S`] in.
    pub fn new(inner: &'a mut S, reference: Option<&'a mut Reference>) -> Self {
        Sampled {
            inner,
            reference,
            // lint:allow(no-wall-clock-in-kernels): the benchmark's sampling clock, outside the measured program
            last: Instant::now(),
            walls: Vec::new(),
            spent_s: 0.0,
        }
    }
}

impl<S: PacketSource + ?Sized> PacketSource for Sampled<'_, S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn bin_us(&self) -> u64 {
        self.inner.bin_us()
    }

    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        if let Some(reference) = self.reference.as_deref_mut() {
            if self.last.elapsed().as_secs_f64() >= SAMPLE_EVERY_S {
                let (wall, spent) = timed(|| reference.sample_s());
                self.walls.push(wall);
                self.spent_s += spent;
                // lint:allow(no-wall-clock-in-kernels): the benchmark's sampling clock, outside the measured program
                self.last = Instant::now();
            }
        }
        self.inner.next_chunk()
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.inner.rewind()
    }
}

/// `wall` at the reference host speed, given the reference samples
/// taken around and during it.
pub fn normalize(wall: f64, around: &[f64]) -> f64 {
    wall * NOMINAL_S / median(around)
}
