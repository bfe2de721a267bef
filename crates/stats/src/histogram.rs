//! Fixed-width feature histograms.
//!
//! The KL detector (Brauckhoff et al., reproduced in
//! `mawilab-detectors::kl`) monitors one histogram per traffic feature
//! and time bin. Feature domains (IPv4 addresses, ports) are larger
//! than practical bin counts, so values are folded into `bins` cells by
//! a multiplicative hash — the same trade-off the original work makes
//! with hash-based histograms.

/// A fixed-width histogram over `u64` keys.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` cells (≥1).
    pub fn new(bins: usize) -> Self {
        assert!(bins >= 1, "histogram needs at least one bin");
        Histogram {
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Number of cells.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cell index a key folds into (Fibonacci multiplicative hash —
    /// cheap, deterministic, well-mixed for sequential keys).
    pub fn bin_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.counts.len()
    }

    /// Adds one observation of `key`.
    pub fn add(&mut self, key: u64) {
        let idx = self.bin_of(key);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Raw cell counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cells sorted by count, descending: `(bin index, count)`.
    /// The KL detector uses the head of this list to find the feature
    /// values responsible for a divergence spike.
    pub fn top_cells(&self, k: usize) -> Vec<(usize, u64)> {
        let mut cells: Vec<(usize, u64)> = self
            .counts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        cells.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        cells.truncate(k);
        cells
    }

    /// Resets all cells to zero, keeping the bin count.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut h = Histogram::new(16);
        for k in 0..100u64 {
            h.add(k);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.counts().iter().sum::<u64>(), 100);
    }

    #[test]
    fn same_key_same_bin() {
        let mut h = Histogram::new(8);
        h.add(42);
        h.add(42);
        h.add(42);
        assert_eq!(h.counts()[h.bin_of(42)], 3);
    }

    #[test]
    fn top_cells_orders_by_count() {
        let mut h = Histogram::new(128);
        for _ in 0..50 {
            h.add(1);
        }
        for _ in 0..30 {
            h.add(2);
        }
        h.add(3);
        let top = h.top_cells(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1, 50);
        assert_eq!(top[1].1, 30);
    }

    #[test]
    fn clear_resets_counts() {
        let mut h = Histogram::new(8);
        h.add(1);
        h.clear();
        assert_eq!(h.total(), 0);
        assert!(h.counts().iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0);
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        // Sequential IPv4-like keys should not all collide.
        let mut h = Histogram::new(64);
        for k in 0..64u64 {
            h.add(k);
        }
        let occupied = h.counts().iter().filter(|&&c| c > 0).count();
        assert!(occupied > 32, "only {occupied} bins used");
    }
}
