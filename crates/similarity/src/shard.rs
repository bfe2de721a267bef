//! Sharded co-occurrence counting for the similarity graph.
//!
//! The graph build's dominant cost is discovering which alarm pairs
//! share traffic units and how many. The sequential reference does it
//! with one global inverted index, a hash set of pairs and a
//! per-pair sorted-merge intersection; this module shards the work so
//! independent slices run on separate threads and the per-slice work
//! is hash-free.
//!
//! **Why shard by traffic-id range, not by alarm window.** Traffic-unit
//! ids are assigned in first-appearance order ([`FlowTable`] /
//! [`ItemIndex`] both number flows as they first show up, and packet
//! ids are trace positions), so a contiguous id range *is* a time bin
//! of the traffic. Sharding the inverted index by id range is exact by
//! construction: a pair lands in shard `k` iff the two alarms co-occur
//! on an item of bin `k`, and the deduplicated union over bins is
//! precisely the global candidate set. Binning by *alarm window*
//! instead — tempting, since detection windows look like natural
//! shards — is **not** exact at flow granularity: a long-lived flow
//! puts the same flow id into two alarms whose windows never overlap,
//! and window-disjoint shards would silently drop that edge. Id-range
//! bins keep the parallel build byte-identical to the reference (the
//! property test in `tests/shard_equivalence.rs` checks exactly this).
//!
//! Each bin builds a dense per-bin inverted index (a `Vec` indexed by
//! `item - bin_start` — ids are dense, so this replaces the global
//! hash map), then **counts** each pair's co-occurrences instead of
//! merely deduplicating them: an item id lives in exactly one bin, so
//! the multiplicity of `(a, b)` summed across all buckets is exactly
//! `|A∩B|`, and the graph build gets its exact intersection sizes
//! without ever running the per-pair sorted-merge scoring pass that
//! used to dominate the stage. Sparse id spaces (ids much larger than
//! the number of occurrences, which dense time-ordered ids never
//! produce but arbitrary callers can) fall back to a per-bin
//! `FastMap` index with identical output.
//!
//! [`FlowTable`]: mawilab_model::FlowTable
//! [`ItemIndex`]: mawilab_model::ItemIndex

use mawilab_model::FastMap;

/// How many id-range bins to cut the item space into: a few bins per
/// worker so atomic work pulling balances bins of uneven density.
const BINS_PER_WORKER: usize = 4;

/// Dense-index fallback threshold: when the id space is more than
/// this many times larger than the number of id occurrences, the
/// per-bin index uses a `FastMap` instead of a dense `Vec`.
const DENSE_SLACK: usize = 8;

/// Co-occurrence counting: every pair `(a, b)` with `a < b` sharing
/// at least one traffic item, with **how many** items they share —
/// sorted by `(a, b)`. This is candidate-pair discovery and exact
/// intersection sizing fused into one pass: each item id lives in
/// exactly one bin, so a pair's emission multiplicity summed over
/// buckets *is* `|A∩B|`. The per-pair sorted-merge scoring the graph
/// build used to run after discovery disappears entirely — discovery
/// already touched every co-occurrence, so counting them during the
/// existing sort/dedup is free by comparison.
///
/// Requires strictly increasing traffic sets (the extractor's output
/// invariant — a duplicated item would be double-counted).
pub(crate) fn cooccurrence(traffic: &[Vec<u32>]) -> Vec<(u32, u32, u32)> {
    cooccurrence_with_bins(traffic, mawilab_exec::thread_count() * BINS_PER_WORKER)
}

/// [`cooccurrence`] with an explicit bin count — the output is
/// bin-count invariant (tests sweep this directly).
fn cooccurrence_with_bins(traffic: &[Vec<u32>], requested_bins: usize) -> Vec<(u32, u32, u32)> {
    let Some(max_id) = traffic.iter().filter_map(|s| s.last().copied()).max() else {
        return Vec::new();
    };
    let id_space = max_id as usize + 1;
    let occurrences: usize = traffic.iter().map(|s| s.len()).sum();
    let dense = id_space <= occurrences.saturating_mul(DENSE_SLACK) + 1024;

    let bins = requested_bins.clamp(1, id_space);
    let width = id_space.div_ceil(bins);
    let ranges: Vec<(u64, u64)> = (0..bins)
        .map(|b| {
            let lo = (b * width) as u64;
            let hi = ((b + 1) * width).min(id_space) as u64;
            (lo, hi)
        })
        .filter(|(lo, hi)| lo < hi)
        .collect();

    let per_bin: Vec<Vec<(u32, u32, u32)>> = mawilab_exec::par_map(&ranges, |&(lo, hi)| {
        if dense {
            let width = (hi - lo) as usize;
            let slices: Vec<&[u32]> = traffic.iter().map(|s| slice_in_range(s, lo, hi)).collect();
            let mut offsets = vec![0u32; width + 1];
            for s in &slices {
                for &item in *s {
                    offsets[(item as u64 - lo) as usize + 1] += 1;
                }
            }
            for k in 0..width {
                offsets[k + 1] += offsets[k];
            }
            let mut entries = vec![0u32; offsets[width] as usize];
            let mut cursor = offsets.clone();
            for (ai, s) in slices.iter().enumerate() {
                for &item in *s {
                    let k = (item as u64 - lo) as usize;
                    entries[cursor[k] as usize] = ai as u32;
                    cursor[k] += 1;
                }
            }
            counts_of_index(
                (0..width).map(|k| &entries[offsets[k] as usize..offsets[k + 1] as usize]),
            )
        } else {
            let mut index: FastMap<u32, Vec<u32>> = FastMap::default();
            for (ai, set) in traffic.iter().enumerate() {
                for &item in slice_in_range(set, lo, hi) {
                    index.entry(item).or_default().push(ai as u32);
                }
            }
            counts_of_index(index.values().map(|v| v.as_slice()))
        }
    });

    // The same pair can co-occur in several bins: merge and sum. The
    // merged order is the reference's `(a, b)` ascending order, and
    // integer sums are iteration-order independent, so the result is
    // identical at any bin (= thread) count.
    let mut counts: Vec<(u32, u32, u32)> = per_bin.concat();
    counts.sort_unstable_by_key(|&(a, b, _)| (a, b));
    collapse_counts(&mut counts);
    counts
}

/// Expands per-item alarm lists into `(a, b, count)` triples, where
/// `count` is the number of items whose bucket contained both alarms.
/// Consecutive identical buckets — the shape of worst-case workloads
/// where every alarm shares a common item block — collapse into one
/// emission with a multiplier instead of `k²/2` duplicates each.
fn counts_of_index<'a>(lists: impl Iterator<Item = &'a [u32]>) -> Vec<(u32, u32, u32)> {
    let mut counts: Vec<(u32, u32, u32)> = Vec::new();
    let mut prev: &[u32] = &[];
    let mut mult: u32 = 0;
    let flush = |run: &[u32], m: u32, out: &mut Vec<(u32, u32, u32)>| {
        for i in 0..run.len() {
            for j in (i + 1)..run.len() {
                out.push((run[i], run[j], m));
            }
        }
    };
    for alarms in lists {
        if alarms.len() > 1 && alarms == prev {
            mult += 1;
            continue;
        }
        flush(prev, mult, &mut counts);
        prev = alarms;
        mult = 1;
    }
    flush(prev, mult, &mut counts);
    counts.sort_unstable_by_key(|&(a, b, _)| (a, b));
    collapse_counts(&mut counts);
    counts
}

/// Sums the counts of adjacent entries with equal `(a, b)` in place.
/// Input must be sorted by `(a, b)`.
fn collapse_counts(counts: &mut Vec<(u32, u32, u32)>) {
    counts.dedup_by(|cur, acc| {
        if (acc.0, acc.1) == (cur.0, cur.1) {
            acc.2 += cur.2;
            true
        } else {
            false
        }
    });
}

/// The sub-slice of a sorted id set falling in `[lo, hi)`.
fn slice_in_range(set: &[u32], lo: u64, hi: u64) -> &[u32] {
    let start = set.partition_point(|&x| (x as u64) < lo);
    let end = set.partition_point(|&x| (x as u64) < hi);
    &set[start..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The candidate set of the sequential reference, straight from
    /// its definition.
    fn reference_pairs(traffic: &[Vec<u32>]) -> Vec<(u32, u32)> {
        let mut index: FastMap<u32, Vec<u32>> = FastMap::default();
        for (ai, set) in traffic.iter().enumerate() {
            for &item in set {
                index.entry(item).or_default().push(ai as u32);
            }
        }
        let mut pairs: mawilab_model::FastSet<(u32, u32)> = Default::default();
        for alarms in index.values() {
            for i in 0..alarms.len() {
                for j in (i + 1)..alarms.len() {
                    pairs.insert((alarms[i], alarms[j]));
                }
            }
        }
        let mut v: Vec<(u32, u32)> = pairs.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Intersection sizes straight from the definition, for every
    /// candidate pair.
    fn reference_counts(traffic: &[Vec<u32>]) -> Vec<(u32, u32, u32)> {
        reference_pairs(traffic)
            .into_iter()
            .map(|(a, b)| {
                let inter = traffic[a as usize]
                    .iter()
                    .filter(|x| traffic[b as usize].binary_search(x).is_ok())
                    .count() as u32;
                (a, b, inter)
            })
            .collect()
    }

    #[test]
    fn cooccurrence_counts_equal_reference_intersections() {
        // Pseudo-random traffic sets (LCG — keep the test seedless
        // and deterministic) across sizes and bin counts.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for n in [0usize, 1, 2, 7, 23, 60] {
            let traffic: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let mut s: Vec<u32> = (0..next(20) + 1).map(|_| next(120) as u32).collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let expected = reference_counts(&traffic);
            for bins in [1, 3, 16] {
                assert_eq!(
                    cooccurrence_with_bins(&traffic, bins),
                    expected,
                    "n={n} bins={bins}"
                );
            }
        }
    }

    #[test]
    fn cooccurrence_counts_identical_common_block() {
        // Every alarm shares one 50-item block (the consecutive
        // identical-bucket shape the multiplier collapses): each pair
        // must count exactly the 50 shared items.
        let traffic: Vec<Vec<u32>> = (0..6u32)
            .map(|i| {
                let mut s: Vec<u32> = (0..50).collect();
                s.push(100 + i);
                s
            })
            .collect();
        for (a, b, inter) in cooccurrence(&traffic) {
            assert!(a < b);
            assert_eq!(inter, 50);
        }
        assert_eq!(cooccurrence(&traffic).len(), 15);
    }

    #[test]
    fn matches_reference_on_overlapping_sets() {
        let traffic = vec![
            vec![1, 2, 3, 900],
            vec![2, 3, 4],
            vec![100, 101],
            vec![3, 100, 900],
            vec![],
        ];
        assert_eq!(cooccurrence(&traffic), reference_counts(&traffic));
    }

    #[test]
    fn empty_inputs() {
        assert!(cooccurrence(&[]).is_empty());
        assert!(cooccurrence(&[vec![], vec![]]).is_empty());
        assert!(cooccurrence(&[vec![5, 9]]).is_empty());
    }

    #[test]
    fn sparse_id_space_takes_hashmap_path() {
        // Two items near u32::MAX: dense indexing would allocate 4G
        // slots; the sparse path must produce the same counts.
        let traffic = vec![vec![7, u32::MAX - 1], vec![u32::MAX - 1], vec![7]];
        assert_eq!(cooccurrence(&traffic), vec![(0, 1, 1), (0, 2, 1)]);
    }

    #[test]
    fn max_id_item_is_not_dropped() {
        // id_space = 2^32: the last bin's exclusive bound overflows
        // u32, so bin bounds must be u64 (regression test).
        let traffic = vec![vec![u32::MAX], vec![7, u32::MAX]];
        assert_eq!(cooccurrence(&traffic), vec![(0, 1, 1)]);
    }

    #[test]
    fn pair_spanning_many_bins_sums_across_bins() {
        // Alarms sharing items across the whole id range co-occur in
        // every bin; the merged counts must sum to the exact
        // intersection size, held once.
        let a: Vec<u32> = (0..1000).collect();
        let traffic = vec![a.clone(), a];
        assert_eq!(cooccurrence(&traffic), vec![(0, 1, 1000)]);
    }

    #[test]
    fn identical_across_bin_counts() {
        // The thread count only picks the bin count; sweeping bins
        // directly covers every sharding the env override can reach
        // without mutating process-wide state (the env path itself is
        // covered by tests/thread_determinism.rs).
        let traffic: Vec<Vec<u32>> = (0..40)
            .map(|i| ((i * 13) % 61..(i * 13) % 61 + 20).collect())
            .collect();
        let expect = reference_counts(&traffic);
        for bins in [1, 3, 16, 1024] {
            assert_eq!(
                cooccurrence_with_bins(&traffic, bins),
                expect,
                "{bins} bins"
            );
        }
    }
}
