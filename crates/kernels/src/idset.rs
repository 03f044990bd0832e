//! A small set of component ids with a membership test cheap enough to run
//! on both ends of every holding row: the filter the round sweeps put in
//! front of their real work ("count the rows you skip, do not sweep them").
//!
//! The members sit in a bitmap over their own id span, so a row end outside
//! the span costs one range check and one inside it a bit test in a table of
//! `span / 8` bytes. A span too wide for the bitmap budget keeps the members
//! sorted and binary-searches them instead.

use crate::cgraph::CompId;

/// Widest id span kept as a bitmap: 2²² bits, 512 KB.
const MAX_SPAN_BITS: u64 = 1 << 22;

/// A set of component ids (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct IdSet {
    /// Lowest member: the base of `bits`.
    lo: CompId,
    /// Bit `c - lo` is set iff `c` is a member; empty when the set is, or
    /// when the members are in `wide`.
    bits: Vec<u64>,
    /// The members ascending, when their span is wider than the bitmap
    /// budget; empty otherwise.
    wide: Vec<CompId>,
}

impl IdSet {
    /// The set of `ids` (any order, repeats allowed). The iterator is
    /// cloned and read twice, never collected, except into the sorted
    /// layout.
    pub fn new<I>(ids: I) -> Self
    where
        I: IntoIterator<Item = CompId>,
        I::IntoIter: Clone,
    {
        let ids = ids.into_iter();
        let Some((lo, hi)) = ids.clone().fold(None, |span, c| match span {
            None => Some((c, c)),
            Some((lo, hi)) => Some((c.min(lo), c.max(hi))),
        }) else {
            return IdSet::default();
        };
        let span = u64::from(hi - lo) + 1;
        if span > MAX_SPAN_BITS {
            let mut wide: Vec<CompId> = ids.collect();
            wide.sort_unstable();
            wide.dedup();
            return IdSet {
                wide,
                ..IdSet::default()
            };
        }
        let mut bits = vec![0u64; span.div_ceil(64) as usize];
        for c in ids {
            let off = (c - lo) as usize;
            bits[off >> 6] |= 1 << (off & 63);
        }
        IdSet {
            lo,
            bits,
            wide: Vec::new(),
        }
    }

    /// True if the set has no member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty() && self.wide.is_empty()
    }

    /// True if `c` is a member.
    #[inline]
    pub fn contains(&self, c: CompId) -> bool {
        let off = c.wrapping_sub(self.lo) as usize;
        match self.bits.get(off >> 6) {
            Some(word) => word >> (off & 63) & 1 == 1,
            None => !self.wide.is_empty() && self.wide.binary_search(&c).is_ok(),
        }
    }

    /// True if `a` or `b` is a member: the row filter.
    #[inline]
    pub fn touches(&self, a: CompId, b: CompId) -> bool {
        self.contains(a) || self.contains(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_equals_a_linear_search_in_both_layouts() {
        for ids in [
            vec![],
            vec![7],
            vec![0, 63, 64, 65, 127, 128],
            vec![5, 5, 9, 1000, 9],
            vec![u32::MAX - 3, u32::MAX],
            vec![3, 40_000, 40_001, 1 << 21],
            (0..5000).map(|i| i * 13).collect(),
            // Wider than the bitmap budget: the sorted layout answers.
            vec![0, 1 << 23, 1 << 30, u32::MAX],
        ] {
            let set = IdSet::new(ids.iter().copied());
            assert_eq!(set.is_empty(), ids.is_empty());
            let probes = ids
                .iter()
                .flat_map(|&c| [c, c.wrapping_add(1), c.wrapping_sub(1)])
                .chain([0, 1, 62, 63, 64, 1 << 22, u32::MAX]);
            for c in probes {
                assert_eq!(set.contains(c), ids.contains(&c), "{c} in {ids:?}");
                assert_eq!(set.touches(c, c), ids.contains(&c));
            }
        }
    }
}
