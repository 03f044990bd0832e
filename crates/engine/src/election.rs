//! Dense per-round election state for the round-loop engines (`bsp`,
//! `spmsf`).
//!
//! Every Boruvka round of those engines min-reduces candidate edges per
//! component — at the sender (combiner / SpMV) and again at the owner. The
//! keys are vertex ids, which already are dense array indexes, so the
//! working set is a slot column allocated once per run plus the round's
//! first-touch list; [`Election::clear`] walks that list, never the column,
//! so a late round with ten components costs ten resets. First-touch order
//! also makes the order inside every outgoing bucket reproducible.

use mnd_graph::types::{VertexId, WEdge};

/// Empty-slot sentinel of every dense round column. Vertex ids and entry
/// indexes stay below it because the engines refuse `num_vertices ==
/// u32::MAX` at entry.
pub const NONE: u32 = u32::MAX;

/// One component's elected candidate.
#[derive(Clone, Copy, Debug)]
pub struct Elected {
    at: u32,
    /// The electing component.
    pub comp: VertexId,
    /// Its minimum outgoing edge so far under the `(w, u, v)` order.
    pub edge: WEdge,
    /// The component on the other side of `edge`.
    pub target: VertexId,
    /// The hook step's verdict on a mutual pair (`spmsf`: the pair is
    /// mutual; `bsp`: this side drops its duplicate of the shared edge).
    pub mark: bool,
}

impl Elected {
    /// The slot this entry was offered at.
    #[inline]
    pub fn at(&self) -> usize {
        self.at as usize
    }
}

/// A table of per-component minimum candidates over a dense index space
/// chosen by the caller (component id, or offset into the rank's own
/// range).
pub struct Election {
    slot: Vec<u32>,
    entries: Vec<Elected>,
}

impl Election {
    /// An empty table over slots `0..len`.
    pub fn new(len: usize) -> Self {
        assert!(len < NONE as usize, "election slots are u32 indexes");
        Election {
            slot: vec![NONE; len],
            entries: Vec::new(),
        }
    }

    /// Min-reduces `(edge, target)` into the candidate of `comp`, which
    /// lives at slot `at`. Edges are totally ordered by `(w, u, v)`, so the
    /// result does not depend on the order of the offers.
    #[inline]
    pub fn offer(&mut self, at: usize, comp: VertexId, edge: WEdge, target: VertexId) {
        let slot = &mut self.slot[at];
        if *slot == NONE {
            *slot = self.entries.len() as u32;
            self.entries.push(Elected {
                at: at as u32,
                comp,
                edge,
                target,
                mark: false,
            });
        } else {
            let cur = &mut self.entries[*slot as usize];
            if edge < cur.edge {
                cur.edge = edge;
                cur.target = target;
            }
        }
    }

    /// The candidate offered at slot `at`, if any.
    #[inline]
    pub fn get_mut(&mut self, at: usize) -> Option<&mut Elected> {
        match self.slot[at] {
            NONE => None,
            i => Some(&mut self.entries[i as usize]),
        }
    }

    /// This round's candidates in first-touch order.
    #[inline]
    pub fn entries(&self) -> &[Elected] {
        &self.entries
    }

    /// Empties the table through its touched list.
    pub fn clear(&mut self) {
        for e in self.entries.drain(..) {
            self.slot[e.at as usize] = NONE;
        }
    }

    /// Whether no entry and no stale slot is left (walks the whole column:
    /// for `debug_assert!`s at round tops).
    pub fn is_clear(&self) -> bool {
        self.entries.is_empty() && self.slot.iter().all(|&s| s == NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offers_min_reduce_per_slot_in_first_touch_order() {
        let mut t = Election::new(8);
        t.offer(5, 105, WEdge::new(1, 2, 9), 7);
        t.offer(2, 102, WEdge::new(3, 4, 4), 8);
        t.offer(5, 105, WEdge::new(1, 6, 3), 9);
        t.offer(5, 105, WEdge::new(1, 7, 5), 10);
        let got: Vec<_> = t
            .entries()
            .iter()
            .map(|e| (e.at(), e.comp, e.edge, e.target))
            .collect();
        assert_eq!(
            got,
            vec![
                (5, 105, WEdge::new(1, 6, 3), 9),
                (2, 102, WEdge::new(3, 4, 4), 8)
            ]
        );
        assert_eq!(t.get_mut(2).map(|e| e.comp), Some(102));
        assert!(t.get_mut(0).is_none());
    }

    #[test]
    fn equal_weights_break_ties_by_endpoints() {
        let mut t = Election::new(1);
        t.offer(0, 0, WEdge::new(4, 9, 1), 9);
        t.offer(0, 0, WEdge::new(4, 5, 1), 5);
        t.offer(0, 0, WEdge::new(4, 7, 1), 7);
        assert_eq!(t.entries()[0].target, 5);
    }

    #[test]
    fn clear_resets_only_what_was_touched_and_allows_reuse() {
        let mut t = Election::new(4);
        assert!(t.is_clear());
        t.offer(3, 3, WEdge::new(0, 3, 1), 0);
        t.get_mut(3).unwrap().mark = true;
        assert!(!t.is_clear());
        t.clear();
        assert!(t.is_clear());
        t.offer(3, 3, WEdge::new(1, 3, 2), 1);
        assert!(!t.entries()[0].mark, "marks do not survive a clear");
        // An empty index space (a rank that owns nothing) is a valid table.
        assert!(Election::new(0).is_clear());
    }
}
