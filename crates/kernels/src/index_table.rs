//! Open-addressing table of `u32` indexes into an external record array —
//! the paper's "hash table of minimums" (§3.3) without owning the keys.
//!
//! A slot stores only the index of a record; the record's key is read back
//! through the caller's `same_key` closure. That keeps the table at 4 bytes
//! per slot (8 per record at the fixed load factor of ½) whatever the key
//! is: an `(a, b)` component pair for multi-edge removal, an old
//! component id for the ghost-parent map. Linear probing; keys are mixed
//! with the splitmix64 finalizer, so structured ids (consecutive, strided,
//! packed pairs) spread as well as random ones.

/// Empty-slot sentinel (record indexes are row numbers, which stay below
/// `u32::MAX`).
pub(crate) const EMPTY: u32 = u32::MAX;

/// Clears `slots` to an empty table with room for `records` insertions at
/// load factor ≤ ½, reusing the allocation.
pub(crate) fn reset(slots: &mut Vec<u32>, records: usize) {
    assert!(
        records < EMPTY as usize,
        "record index would hit the sentinel"
    );
    slots.clear();
    slots.resize((2 * records).max(1), EMPTY);
}

/// Position of the slot for `key`: the slot holding a record `same_key`
/// accepts, else the empty slot where such a record belongs. The table must
/// have an empty slot ([`reset`] guarantees it while insertions stay within
/// the announced record count).
#[inline]
pub(crate) fn probe(slots: &[u32], key: u64, same_key: impl Fn(u32) -> bool) -> usize {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Multiply-shift range reduction: no power-of-two capacity needed.
    let mut pos = (((z >> 32) * slots.len() as u64) >> 32) as usize;
    loop {
        let held = slots[pos];
        if held == EMPTY || same_key(held) {
            return pos;
        }
        pos += 1;
        if pos == slots.len() {
            pos = 0;
        }
    }
}

/// Packs two `u32` ids into one table key.
#[inline]
pub(crate) fn pair_key(hi: u32, lo: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_finds_inserted_records_and_empty_slots() {
        // Keys chosen to collide under any range reduction: many records,
        // tiny table.
        let keys: Vec<u64> = (0..500u64)
            .map(|i| pair_key((i % 7) as u32, i as u32))
            .collect();
        let mut slots = Vec::new();
        reset(&mut slots, keys.len());
        for (i, &k) in keys.iter().enumerate() {
            let pos = probe(&slots, k, |j| keys[j as usize] == k);
            assert_eq!(slots[pos], EMPTY, "key {k} inserted twice");
            slots[pos] = i as u32;
        }
        for (i, &k) in keys.iter().enumerate() {
            let pos = probe(&slots, k, |j| keys[j as usize] == k);
            assert_eq!(slots[pos], i as u32);
        }
        let absent = pair_key(99, 99);
        let pos = probe(&slots, absent, |j| keys[j as usize] == absent);
        assert_eq!(slots[pos], EMPTY);
    }

    #[test]
    fn reset_reuses_the_allocation_and_never_fills_up() {
        let mut slots = Vec::new();
        reset(&mut slots, 1000);
        let cap = slots.capacity();
        reset(&mut slots, 10);
        assert_eq!(slots.len(), 20);
        assert_eq!(slots.capacity(), cap);
        reset(&mut slots, 0);
        assert_eq!(slots, vec![EMPTY]);
    }
}
