//! Lock-free kernel-plane primitives: packed `(weight << 32) | row` atomic
//! words, the CAS fetch-min loop, and O(1) resident-slot lookup.
//!
//! A parallel election needs no per-chunk winner tables and no merge pass:
//! every resident slot owns one `AtomicU64` holding the packed key of its
//! current winner, and workers race CAS fetch-min loops against it — the
//! shared-memory design of the SNIPPETS.md exemplars (abarankab's
//! `encode_edge(id, weight)`, pashagoose's `chippestEdgeOut`).
//!
//! ## Why the result is still byte-identical to sequential
//!
//! The sequential election orders candidates by the total order
//! `(original edge key, row index)` = `((w, u, v), row)`. The packed word
//! orders by `(w, row)` — identical whenever weights differ, but under a
//! weight tie the packed order could disagree with the `(u, v)` tie-break
//! the sequential kernel (and Kruskal, and every downstream byte-match
//! oracle) uses. [`fetch_min_edge`] therefore compares the packed words as
//! the fast path and falls back to the full `(edge key, row)` comparison
//! only when the weights are equal. A fetch-min under a total order is
//! commutative and idempotent, so every interleaving of every thread count
//! converges to the same per-slot winner: the global minimum. Memory
//! ordering needs only the CAS's own atomicity for that argument — the
//! sweep is racy by design and correct under any ordering — but winners are
//! published with `AcqRel` so the post-join reader also sees the winning
//! row's payload without relying on the join's barrier.

use std::sync::atomic::{AtomicU64, Ordering};

use mnd_graph::types::WEdge;

use crate::cgraph::CompId;

/// Empty-slot sentinel. `pack(u32::MAX, u32::MAX)` would collide, but a
/// holding with `u32::MAX` rows is unrepresentable (row indices are `u32`
/// and the collision needs *both* halves saturated).
pub const NONE_KEY: u64 = u64::MAX;

/// Packs an election candidate into one atomic word: weight in the high
/// half so the integer order is `(weight, row)`.
#[inline]
pub fn pack(weight: u32, row: u32) -> u64 {
    ((weight as u64) << 32) | row as u64
}

/// The row index a packed word elects.
#[inline]
pub fn row_of(key: u64) -> u32 {
    key as u32
}

/// Lock-free fetch-min of `key` into `slot` under the sequential election's
/// total order. `orig_of` resolves a row index to its original edge and is
/// consulted only on weight ties (see module docs).
#[inline]
pub fn fetch_min_edge(slot: &AtomicU64, key: u64, orig_of: &impl Fn(u32) -> WEdge) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        if cur != NONE_KEY && !precedes(key, cur, orig_of) {
            return;
        }
        match slot.compare_exchange_weak(cur, key, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// [`fetch_min_edge`] for a slot no other thread is writing: the same
/// order, a plain load and store in place of the CAS loop.
#[inline]
pub fn min_edge(slot: &AtomicU64, key: u64, orig_of: &impl Fn(u32) -> WEdge) {
    let cur = slot.load(Ordering::Relaxed);
    if cur == NONE_KEY || precedes(key, cur, orig_of) {
        slot.store(key, Ordering::Relaxed);
    }
}

/// `true` when `a` precedes `b` under `((w, u, v), row)` — the packed-word
/// comparison except on weight ties, where the full edge key breaks them.
#[inline]
fn precedes(a: u64, b: u64, orig_of: &impl Fn(u32) -> WEdge) -> bool {
    if (a >> 32) != (b >> 32) {
        return a < b;
    }
    let (ra, rb) = (row_of(a), row_of(b));
    (orig_of(ra), ra) < (orig_of(rb), rb)
}

/// Id ranges up to this many entries (256 KB of slots) always get the
/// direct table, however few residents they hold.
pub const DENSE_BUDGET: usize = 1 << 16;

/// The holding's id→slot resolver: answers "which resident slot is
/// component `c`?" in O(1). Holdings keep their resident ids nearly
/// contiguous (level-0 partitions are vertex ranges), so a direct-index
/// table over the id range replaces the ~17 branchy probes a binary search
/// pays per endpoint at 10⁵ components. The table is built whenever it is
/// small — at most [`DENSE_BUDGET`] entries — or within 4× of the resident
/// count; only a range both wide and sparse (a few survivors spread over a
/// large id space) falls back to the binary search.
///
/// Owned by [`crate::cgraph::CGraph`], which rebuilds it wherever the
/// resident column changes; the table allocation is reused across
/// rebuilds.
#[derive(Clone, Debug, Default)]
pub struct SlotLookup {
    /// Lowest resident id — the base of `table`.
    lo: CompId,
    /// `table[c - lo]` is the slot of component `c`, `u32::MAX` when `c` is
    /// not resident. Empty in sparse mode.
    table: Vec<u32>,
}

impl SlotLookup {
    /// Rebuilds the lookup over a sorted resident column. Densifies when
    /// the id range fits [`DENSE_BUDGET`] or is within 4× of the resident
    /// count; beyond both the table would thrash cache for no probe
    /// savings.
    pub fn rebuild(&mut self, resident: &[CompId]) {
        self.table.clear();
        let (Some(&lo), Some(&hi)) = (resident.first(), resident.last()) else {
            return;
        };
        let range = (hi - lo) as usize + 1;
        if range > resident.len().saturating_mul(4).max(DENSE_BUDGET) {
            return;
        }
        self.lo = lo;
        self.table.resize(range, u32::MAX);
        for (slot, &c) in resident.iter().enumerate() {
            self.table[(c - lo) as usize] = slot as u32;
        }
    }

    /// The slot of component `c` in `resident` (the column this lookup was
    /// last rebuilt over), if resident.
    #[inline]
    pub fn get(&self, resident: &[CompId], c: CompId) -> Option<u32> {
        if self.table.is_empty() {
            return resident.binary_search(&c).ok().map(|i| i as u32);
        }
        match self.table.get(c.checked_sub(self.lo)? as usize) {
            Some(&slot) if slot != u32::MAX => Some(slot),
            _ => None,
        }
    }
}

// The lock-free count kernel reinterprets the holding's reusable `Vec<u64>`
// scratch as atomic words for the duration of one sweep; both layouts must
// agree exactly for that cast to be sound.
const _: () = assert!(std::mem::size_of::<u64>() == std::mem::size_of::<AtomicU64>());
const _: () = assert!(std::mem::align_of::<u64>() == std::mem::align_of::<AtomicU64>());

/// Views an exclusively-borrowed `u64` slice as atomic words so parallel
/// workers can `fetch_add` into it without a per-chunk partial table. Sound
/// because the borrow is exclusive (no non-atomic access can race) and the
/// layouts are asserted identical above.
pub(crate) fn as_atomic_u64(xs: &mut [u64]) -> &[AtomicU64] {
    // SAFETY: size/align asserted at compile time; `&mut` guarantees no
    // other reference (atomic or plain) aliases the slice for the lifetime
    // of the returned view; every element is a valid AtomicU64 bit pattern.
    unsafe { std::slice::from_raw_parts(xs.as_mut_ptr() as *const AtomicU64, xs.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_orders_by_weight_then_row() {
        assert!(pack(1, 500) < pack(2, 0));
        assert!(pack(3, 1) < pack(3, 2));
        assert_eq!(row_of(pack(7, 42)), 42);
        assert!(pack(u32::MAX, u32::MAX - 1) < NONE_KEY);
    }

    #[test]
    fn fetch_min_keeps_the_smaller_key() {
        let origs = [WEdge::new(0, 1, 5), WEdge::new(2, 3, 3)];
        let orig_of = |r: u32| origs[r as usize];
        let slot = AtomicU64::new(NONE_KEY);
        fetch_min_edge(&slot, pack(5, 0), &orig_of);
        assert_eq!(slot.load(Ordering::Relaxed), pack(5, 0));
        fetch_min_edge(&slot, pack(3, 1), &orig_of);
        assert_eq!(slot.load(Ordering::Relaxed), pack(3, 1));
        fetch_min_edge(&slot, pack(5, 0), &orig_of);
        assert_eq!(slot.load(Ordering::Relaxed), pack(3, 1));
    }

    #[test]
    fn weight_ties_break_on_edge_key_not_row() {
        // Row 1 holds the lexicographically smaller edge despite the larger
        // row index: the tie fallback must pick it, exactly like the
        // sequential `(edge, row)` comparison would.
        let origs = [WEdge::new(9, 9, 4), WEdge::new(0, 1, 4)];
        let orig_of = |r: u32| origs[r as usize];
        let slot = AtomicU64::new(pack(4, 0));
        fetch_min_edge(&slot, pack(4, 1), &orig_of);
        assert_eq!(slot.load(Ordering::Relaxed), pack(4, 1));
    }

    /// Calls `visit` with every permutation of `0..n` (Heap's algorithm).
    fn for_each_permutation(n: usize, mut visit: impl FnMut(&[usize])) {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut c = vec![0; n];
        visit(&perm);
        let mut i = 1;
        while i < n {
            if c[i] < i {
                perm.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                visit(&perm);
                c[i] += 1;
                i = 1;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    /// Each offer is one linearisable operation on one word, so the
    /// outcomes any thread interleaving can reach are exactly those of the
    /// sequential offer orders. A row offers itself to both of its slots, as
    /// the election sweeps do; every order of the offers one slot sees is
    /// the restriction of some row order, and slots are independent words —
    /// so walking all 8! row orders covers every interleaving. In each, every
    /// slot must end on its `((w, u, v), row)` minimum, through the CAS loop
    /// and through the single-writer store alike.
    #[test]
    fn every_offer_order_elects_the_minimum() {
        /// Eight rows: both endpoint slots and the original edge.
        type Rows = [(usize, usize, WEdge); 8];
        type Offer<'a> = &'a dyn Fn(&AtomicU64, u64);
        let e = WEdge::new;
        let cases: [(&str, Rows); 3] = [
            (
                "distinct weights",
                [
                    (0, 1, e(0, 1, 17)),
                    (1, 2, e(1, 2, 3)),
                    (2, 3, e(2, 3, 11)),
                    (0, 3, e(0, 3, 2)),
                    (0, 2, e(0, 2, 29)),
                    (1, 3, e(1, 3, 7)),
                    (2, 4, e(2, 4, 5)),
                    (3, 4, e(3, 4, 13)),
                ],
            ),
            (
                // Later rows carry smaller `(u, v)`: the packed order alone
                // would elect wrongly everywhere.
                "all weights equal",
                [
                    (0, 1, e(7, 8, 4)),
                    (1, 2, e(6, 7, 4)),
                    (2, 3, e(5, 6, 4)),
                    (0, 3, e(4, 5, 4)),
                    (0, 2, e(3, 4, 4)),
                    (1, 3, e(2, 3, 4)),
                    (2, 4, e(1, 2, 4)),
                    (3, 4, e(0, 1, 4)),
                ],
            ),
            (
                // Six rows between slots 0 and 1: weight ties, edge-key
                // ties and two copies of one original edge (row decides).
                "parallel rows",
                [
                    (0, 1, e(5, 9, 6)),
                    (0, 1, e(2, 9, 6)),
                    (0, 1, e(2, 8, 6)),
                    (0, 1, e(2, 8, 6)),
                    (0, 1, e(1, 3, 9)),
                    (1, 2, e(1, 4, 6)),
                    (0, 1, e(0, 7, 6)),
                    (2, 0, e(0, 6, 6)),
                ],
            ),
        ];
        for (name, rows) in cases {
            let orig_of = |r: u32| rows[r as usize].2;
            let want: Vec<u64> = (0..5)
                .map(|slot| {
                    (0..rows.len() as u32)
                        .filter(|&r| rows[r as usize].0 == slot || rows[r as usize].1 == slot)
                        .min_by_key(|&r| (orig_of(r), r))
                        .map_or(NONE_KEY, |r| pack(orig_of(r).w, r))
                })
                .collect();
            let offers: [(&str, Offer); 2] = [
                ("fetch_min_edge", &|slot, key| {
                    fetch_min_edge(slot, key, &orig_of)
                }),
                ("min_edge", &|slot, key| min_edge(slot, key, &orig_of)),
            ];
            for (offer_name, offer) in offers {
                let mut orders = 0;
                for_each_permutation(rows.len(), |order| {
                    let slots: Vec<AtomicU64> = (0..5).map(|_| AtomicU64::new(NONE_KEY)).collect();
                    for &r in order {
                        let (a, b, orig) = rows[r];
                        let key = pack(orig.w, r as u32);
                        offer(&slots[a], key);
                        offer(&slots[b], key);
                    }
                    let got: Vec<u64> = slots.iter().map(|s| s.load(Ordering::Relaxed)).collect();
                    assert_eq!(got, want, "{name} via {offer_name}, order {order:?}");
                    orders += 1;
                });
                assert_eq!(orders, 40_320, "{name}: all 8! orders");
            }
        }
    }

    #[test]
    fn slot_lookup_matches_binary_search() {
        let mut lk = SlotLookup::default();
        for resident in [
            vec![],
            vec![5],
            vec![0, 1, 2, 3],
            vec![10, 20, 30, 999],
            (0..5000u32).step_by(7).collect::<Vec<_>>(),
            // Sparse but small: the range fits the dense budget.
            vec![3, 9_000, 40_000, DENSE_BUDGET as u32 + 2],
            // Sparse enough to force the binary-search fallback.
            vec![0, 1 << 20, 1 << 24, u32::MAX - 1],
        ] {
            // One instance across all columns: rebuilds must not leak the
            // previous column's table.
            lk.rebuild(&resident);
            for probe in resident
                .iter()
                .copied()
                .chain([0, 1, 6, 100, 1 << 21, u32::MAX])
            {
                assert_eq!(
                    lk.get(&resident, probe),
                    resident.binary_search(&probe).ok().map(|i| i as u32),
                    "probe {probe} in {:?}…",
                    &resident[..resident.len().min(6)]
                );
            }
        }
    }

    #[test]
    fn slot_lookup_densifies_within_the_budget_only() {
        let mut lk = SlotLookup::default();
        lk.rebuild(&[3, DENSE_BUDGET as u32 + 2]);
        assert!(
            !lk.table.is_empty(),
            "two residents in a small range: the table"
        );
        lk.rebuild(&[3, DENSE_BUDGET as u32 + 3]);
        assert!(
            lk.table.is_empty(),
            "two residents past the budget: the search"
        );
        let many: Vec<CompId> = (0..40_000).map(|i| i * 3).collect();
        lk.rebuild(&many);
        assert!(
            !lk.table.is_empty(),
            "within 4× of the residents: the table"
        );
    }

    #[test]
    fn atomic_view_round_trips() {
        let mut xs = vec![1u64, 2, 3];
        let view = as_atomic_u64(&mut xs);
        view[1].fetch_add(40, Ordering::Relaxed);
        assert_eq!(xs, vec![1, 42, 3]);
    }
}
