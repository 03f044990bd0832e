//! Compressed relabeling payloads (ROADMAP item 4; Sanders & Schimek,
//! arXiv:2302.12199 §"compressed vertex relabeling").
//!
//! The boundary exchanges of the phase drivers ship component ids — either
//! bare ids (the ghost-information exchange) or `(old, new)` rename pairs
//! (the ghost-parent exchange). Raw, each id costs 4 bytes. These wrappers
//! model the obvious on-the-wire compressions a real implementation would
//! apply:
//!
//! * [`PackedIds`] — a **sorted** id sequence is delta-encoded and each
//!   gap shipped as a LEB128 varint (boundary buckets are sorted and
//!   deduplicated, so gaps are small where the partition has locality).
//! * [`PackedCounts`] — a vector of counts (the partial sums of the degree
//!   allreduce and the hierarchical merge's votes) ships one LEB128 varint
//!   per entry: degrees and edge counts are small, so most entries fit
//!   one byte where the raw layout spends eight.
//! * [`PackedPairs`] — rename pairs are **densified**: the distinct ids of
//!   the message form a sorted dictionary (itself delta-varint encoded),
//!   and every pair ships as two dictionary indexes of minimal byte width
//!   (1/2/4 bytes for ≤2⁸/2¹⁶/2³² distinct ids). The receiver inverts
//!   through the dictionary. Late Boruvka rounds reference few surviving
//!   components, so the index width collapses to one byte exactly when
//!   the dense path would still ship 4-byte ids.
//!
//! Both encoders are **honest but never pessimal**: they compute the real
//! serialized size of the compressed form and fall back to the raw layout
//! (plus the 1-byte format flag) whenever compression would lose, so
//! `wire_bytes` is `min(raw, packed) + 1`. The simulation keeps payloads
//! in memory — only the charged byte size reflects the encoding — so
//! decode is a move, and a round-trip is exact by construction (asserted
//! by the tests against a reference encoder).

use crate::Wire;

/// Serialized size of `v` as a LEB128 varint (7 bits per byte): 1 byte
/// for 0–127, 5 for `u32::MAX`, 10 for `u64::MAX`.
#[inline]
pub fn varint_bytes(v: u64) -> u64 {
    // Significant bits rounded up to whole 7-bit groups; `| 1` makes 0
    // one group.
    (70 - u64::from((v | 1).leading_zeros())) / 7
}

/// Delta-varint cost of a sorted ascending slice (first id absolute).
/// Returns `None` if the slice is not ascending (raw fallback applies).
pub fn delta_cost(ids: &[u32]) -> Option<u64> {
    let mut total = 0u64;
    let mut prev = 0u32;
    for (i, &id) in ids.iter().enumerate() {
        if i > 0 && id < prev {
            return None;
        }
        total += varint_bytes(u64::from(if i == 0 { id } else { id - prev }));
        prev = id;
    }
    Some(total)
}

/// Dictionary-index byte width for `k` distinct ids.
#[inline]
fn index_width(k: usize) -> u64 {
    if k <= 1 << 8 {
        1
    } else if k <= 1 << 16 {
        2
    } else {
        4
    }
}

/// A sequence of component ids, delta-varint compressed when sorted.
///
/// Wire layout (modelled, not materialized): 1 flag byte, then either the
/// raw 4-byte ids or `varint(len)` + delta varints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedIds {
    ids: Vec<u32>,
    wire: u64,
}

impl PackedIds {
    /// Encodes a bucket of ids (typically sorted + deduplicated boundary
    /// vertices). Unsorted input is legal and charged at the raw rate.
    pub fn encode(ids: Vec<u32>) -> Self {
        let raw = 4 * ids.len() as u64;
        let packed = delta_cost(&ids).map(|d| varint_bytes(ids.len() as u64) + d);
        let wire = 1 + packed.map_or(raw, |p| p.min(raw));
        PackedIds { ids, wire }
    }

    /// Inverts the encoding (a move — the simulation keeps the data).
    pub fn into_ids(self) -> Vec<u32> {
        self.ids
    }

    /// The ids without consuming the message.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

impl Wire for PackedIds {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        self.wire
    }
}

/// A vector of `u64` counts, one LEB128 varint per entry.
///
/// Wire layout (modelled): 1 flag byte, then either the raw 8-byte counts
/// or `varint(len)` + one varint per count. Counts of 2⁵⁶ or more take
/// nine or ten varint bytes, so a vector of such values takes the raw
/// fallback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedCounts {
    counts: Vec<u64>,
    wire: u64,
}

impl PackedCounts {
    /// Encodes a vector of counts.
    pub fn encode(counts: Vec<u64>) -> Self {
        let raw = 8 * counts.len() as u64;
        let packed = varint_bytes(counts.len() as u64)
            + counts.iter().map(|&c| varint_bytes(c)).sum::<u64>();
        let wire = 1 + packed.min(raw);
        PackedCounts { counts, wire }
    }

    /// Inverts the encoding (a move — the simulation keeps the data).
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }
}

impl Wire for PackedCounts {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        self.wire
    }
}

/// A bucket of `(old, new)` rename pairs, dictionary-densified.
///
/// Wire layout (modelled): 1 flag byte, then either raw 8-byte pairs or
/// `varint(k)` + delta-varint dictionary of the k distinct ids +
/// `2 · len · width(k)` index bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedPairs {
    pairs: Vec<(u32, u32)>,
    wire: u64,
}

impl PackedPairs {
    /// Encodes a bucket of rename pairs.
    pub fn encode(pairs: Vec<(u32, u32)>) -> Self {
        let raw = 8 * pairs.len() as u64;
        let wire = if pairs.is_empty() {
            1
        } else {
            let mut dict: Vec<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
            dict.sort_unstable();
            dict.dedup();
            let dict_bytes =
                delta_cost(&dict).expect("sorted dictionary is ascending by construction");
            let packed = varint_bytes(dict.len() as u64)
                + dict_bytes
                + 2 * pairs.len() as u64 * index_width(dict.len());
            1 + packed.min(raw)
        };
        PackedPairs { pairs, wire }
    }

    /// Inverts the densification (a move — the simulation keeps the data).
    pub fn into_pairs(self) -> Vec<(u32, u32)> {
        self.pairs
    }

    /// The pairs without consuming the message.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }
}

impl Wire for PackedPairs {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        self.wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_sizes_match_leb128() {
        assert_eq!(varint_bytes(0), 1);
        assert_eq!(varint_bytes(127), 1);
        assert_eq!(varint_bytes(128), 2);
        assert_eq!(varint_bytes(16383), 2);
        assert_eq!(varint_bytes(16384), 3);
        assert_eq!(varint_bytes(u64::from(u32::MAX)), 5);
        assert_eq!(varint_bytes(1 << 56), 9);
        assert_eq!(varint_bytes(u64::MAX), 10);
    }

    /// LEB128 as a real serializer would emit it.
    fn leb128(mut v: u64, out: &mut Vec<u8>) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// The reference encoder: flag byte, then the smaller of the raw
    /// little-endian counts and `varint(len)` + one varint per count.
    fn reference_counts_bytes(counts: &[u64]) -> u64 {
        let raw: Vec<u8> = counts.iter().flat_map(|c| c.to_le_bytes()).collect();
        let mut packed = Vec::new();
        leb128(counts.len() as u64, &mut packed);
        for &c in counts {
            leb128(c, &mut packed);
        }
        1 + raw.len().min(packed.len()) as u64
    }

    #[test]
    fn varint_sizes_match_a_leb128_encoder() {
        let mut probes = vec![0u64, u64::MAX];
        for shift in 0..64 {
            let v = 1u64 << shift;
            probes.extend([v - 1, v, v + 1]);
        }
        for v in probes {
            let mut bytes = Vec::new();
            leb128(v, &mut bytes);
            assert_eq!(varint_bytes(v), bytes.len() as u64, "{v}");
        }
    }

    #[test]
    fn counts_round_trip_at_the_reference_size() {
        let shapes: [Vec<u64>; 5] = [
            Vec::new(),
            vec![0; 7],
            (0..300).map(|i| i * i).collect(),
            vec![3, 1 << 20, 0, 127, 128, 1 << 35, 42],
            (0..40).map(|i| u64::MAX - i).collect(),
        ];
        for counts in shapes {
            let p = PackedCounts::encode(counts.clone());
            assert_eq!(
                p.wire_bytes(),
                reference_counts_bytes(&counts),
                "{counts:?}"
            );
            assert_eq!(p.into_counts(), counts);
        }
    }

    #[test]
    fn small_counts_ship_one_byte_each() {
        // 1000 degrees below 128: raw 8000 bytes, packed the flag, a
        // 2-byte length and one byte per count.
        let p = PackedCounts::encode(vec![5; 1000]);
        assert_eq!(p.wire_bytes(), 1 + 2 + 1000);
    }

    #[test]
    fn huge_counts_fall_back_to_raw_plus_flag() {
        // Every count needs ten varint bytes: the raw layout wins.
        let counts = vec![u64::MAX; 16];
        let p = PackedCounts::encode(counts.clone());
        assert_eq!(p.wire_bytes(), 8 * 16 + 1);
        assert_eq!(p.into_counts(), counts);
    }

    #[test]
    fn sorted_ids_compress_below_raw() {
        // 100 nearby ids: raw 400 bytes, deltas of 3 fit one varint each.
        let ids: Vec<u32> = (0..100).map(|i| 1000 + 3 * i).collect();
        let p = PackedIds::encode(ids.clone());
        assert!(p.wire_bytes() < 400, "{}", p.wire_bytes());
        assert_eq!(p.into_ids(), ids);
    }

    #[test]
    fn unsorted_ids_fall_back_to_raw_plus_flag() {
        let ids = vec![50u32, 10, 90];
        let p = PackedIds::encode(ids.clone());
        assert_eq!(p.wire_bytes(), 4 * 3 + 1);
        assert_eq!(p.into_ids(), ids);
    }

    #[test]
    fn empty_payloads_cost_only_the_flag() {
        assert_eq!(PackedIds::encode(Vec::new()).wire_bytes(), 1);
        assert_eq!(PackedPairs::encode(Vec::new()).wire_bytes(), 1);
        assert_eq!(PackedCounts::encode(Vec::new()).wire_bytes(), 1);
    }

    #[test]
    fn few_distinct_ids_densify_to_one_byte_indexes() {
        // 200 pairs over 16 distinct ids: raw 1600 bytes; packed is a tiny
        // dictionary plus 2 one-byte indexes per pair.
        let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i % 16 * 7, 112)).collect();
        let p = PackedPairs::encode(pairs.clone());
        assert!(p.wire_bytes() < 500, "{}", p.wire_bytes());
        assert_eq!(p.into_pairs(), pairs);
    }

    #[test]
    fn adversarial_pairs_never_beat_raw_by_more_than_the_flag() {
        // Distinct far-apart ids (every dictionary delta needs a 4-byte
        // varint): the dictionary plus indexes exceeds the raw layout, so
        // the encoder must take the raw fallback.
        let pairs: Vec<(u32, u32)> = (0..50u32)
            .map(|i| (i * 80_000_000, i * 80_000_000 + 40_000_000))
            .collect();
        let p = PackedPairs::encode(pairs.clone());
        assert_eq!(p.wire_bytes(), 8 * 50 + 1);
        assert_eq!(p.into_pairs(), pairs);
    }

    #[test]
    fn pair_width_steps_at_dictionary_boundaries() {
        // ≤256 distinct ids → 1-byte indexes; >256 → 2-byte.
        let small: Vec<(u32, u32)> = (0..128u32).map(|i| (2 * i, 2 * i + 1)).collect();
        let big: Vec<(u32, u32)> = (0..300u32).map(|i| (2 * i, 2 * i + 1)).collect();
        let ps = PackedPairs::encode(small);
        let pb = PackedPairs::encode(big);
        // Small: dict 256 one-byte deltas + 256 index bytes ≈ 2 per id.
        assert!(ps.wire_bytes() < 8 * 128);
        assert!(pb.wire_bytes() < 8 * 300);
    }
}
