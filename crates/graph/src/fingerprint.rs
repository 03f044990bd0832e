//! Stable graph fingerprints: the cache key of the serving plane.
//!
//! A [`Fingerprint`] is a 128-bit chained hash over a canonical
//! [`EdgeList`] — vertex-count bound, edge count, and every `(u, v, w)`
//! triple in the canonical `(u, v)` sort order. Because canonicalisation
//! already normalises endpoint order, drops self loops, collapses parallel
//! edges and sorts, two edge lists fingerprint equal **iff** they describe
//! the same weighted graph over the same vertex ids. In particular,
//! isomorphic-but-relabelled graphs hash differently: the fingerprint
//! identifies *the input*, not its isomorphism class, which is exactly
//! what a result cache needs (a relabelled graph has a relabelled MSF).
//!
//! The hash is two independent splitmix64 chains (different seeds) over
//! the same stream, giving 128 bits. Each edge's endpoint pair and weight
//! are absorbed in *separate* chained splitmix64 steps — never XOR-ed
//! into the same state word — so no linear combination of field tweaks
//! can cancel, and the chain construction makes the value
//! order-dependent, so "same multiset of edges in a different canonical
//! order" (impossible after canonicalisation anyway) cannot alias.
//!
//! There is one hash body, [`fingerprint`], and it streams: it takes the
//! vertex bound and an iterator over the canonical edges.
//! [`EdgeList::fingerprint`] feeds it the list's slice; the serving plane's
//! `IncrementalMsf::fingerprint` feeds it the session's sorted adjacency
//! lists directly, so keying a mutated session costs one walk of the lists
//! and no copy. Both produce the same value for the same graph.

use crate::edgelist::{splitmix64, EdgeList};
use crate::types::{VertexId, WEdge};

/// A 128-bit stable hash of a canonical edge list. `Ord`/`Hash` so it can
/// key both tree and hash maps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint {
    /// Low 64 bits (chain seeded with `FP_SEED_LO`).
    pub lo: u64,
    /// High 64 bits (chain seeded with `FP_SEED_HI`).
    pub hi: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Seed of the low chain (`splitmix64` of the ASCII tag "mnd-fp-lo").
const FP_SEED_LO: u64 = 0x6d6e_642d_6670_6c6f;
/// Seed of the high chain.
const FP_SEED_HI: u64 = 0x6d6e_642d_6670_6869;

/// Fingerprints the graph over `num_vertices` vertices whose canonical
/// edges `edges` yields in canonical `(u, v)` order. `O(E)`, no allocation:
/// the one hash body, streaming, so an owner of the edges in another
/// container (the serving plane's update sessions keep sorted adjacency
/// lists) keys its graph without materialising an [`EdgeList`] first.
pub fn fingerprint(
    num_vertices: VertexId,
    edges: impl ExactSizeIterator<Item = WEdge>,
) -> Fingerprint {
    let len = edges.len() as u64;
    let mut lo = splitmix64(FP_SEED_LO ^ num_vertices as u64);
    let mut hi = splitmix64(FP_SEED_HI ^ num_vertices as u64);
    lo = splitmix64(lo ^ len);
    hi = splitmix64(hi ^ len.rotate_left(17));
    for e in edges {
        let pair = ((e.u as u64) << 32) | e.v as u64;
        let w = e.w as u64;
        // `pair` and `w` are absorbed in separate chained steps: XOR-ing
        // both into one state word would let a crafted (pair', w') pair
        // cancel — splitmix64 between the two absorptions makes the
        // combined edge contribution non-linear in either field.
        lo = splitmix64(splitmix64(lo ^ pair) ^ w);
        hi = splitmix64(splitmix64(hi ^ w) ^ pair);
    }
    Fingerprint { lo, hi }
}

impl EdgeList {
    /// The stable [`Fingerprint`] of this (canonical) edge list — the
    /// serving plane's cache key.
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint(self.num_vertices(), self.edges().iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el(n: u32, raw: &[(u32, u32, u32)]) -> EdgeList {
        EdgeList::from_raw(
            n,
            raw.iter().map(|&(a, b, w)| WEdge::new(a, b, w)).collect(),
        )
    }

    #[test]
    fn equal_graphs_fingerprint_equal_regardless_of_input_order() {
        let a = el(5, &[(0, 1, 3), (2, 3, 4), (1, 4, 9)]);
        let b = el(5, &[(4, 1, 9), (1, 0, 3), (3, 2, 4)]);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn weight_endpoint_and_bound_changes_all_move_the_fingerprint() {
        let base = el(5, &[(0, 1, 3), (2, 3, 4)]);
        let heavier = el(5, &[(0, 1, 7), (2, 3, 4)]);
        let rewired = el(5, &[(0, 2, 3), (2, 3, 4)]);
        let wider = el(6, &[(0, 1, 3), (2, 3, 4)]);
        for other in [&heavier, &rewired, &wider] {
            assert_ne!(base.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn isomorphic_but_relabelled_graphs_differ() {
        // A path 0-1-2 and the same path relabelled 2-1-0: isomorphic,
        // same degree sequence, same weights — different inputs, so they
        // must not share a cache slot.
        let a = el(3, &[(0, 1, 5), (1, 2, 6)]);
        let b = el(3, &[(2, 1, 5), (1, 0, 6)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn crafted_rotation_cancelling_pair_does_not_collide() {
        // Regression: an earlier construction absorbed `pair ^ rotl(w,41)`
        // into one chain and `rotl(pair,23) ^ w` into the other; with
        // 41 + 23 = 64 the rotations cancelled, so for any error word `e`
        // the edge (pair ^ rotl(e,41), w ^ e) fed both chains identically.
        // With e = 1 that maps (0,600,2) onto (512,600,3): 512<<32 is
        // exactly rotl64(1,41). These must not share a cache slot.
        let a = el(1000, &[(0, 600, 2)]);
        let b = el(1000, &[(512, 600, 3)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn empty_lists_with_different_bounds_differ() {
        assert_ne!(
            EdgeList::new(0).fingerprint(),
            EdgeList::new(1).fingerprint()
        );
    }

    #[test]
    fn values_are_pinned_and_streaming_from_a_sorted_map_agrees() {
        // Computed from the definition by an independent implementation:
        // a refactor of the hash body must not move any value, or every
        // persisted or compared key silently changes.
        let g = el(5, &[(0, 1, 3), (2, 3, 4), (1, 4, 9)]);
        assert_eq!(
            g.fingerprint().to_string(),
            "dab187643a43bdd76b77d8ece2de77dc"
        );
        assert_eq!(
            EdgeList::new(0).fingerprint().to_string(),
            "2067bbdbf28a115dc636f2f1e693880e"
        );
        let map: std::collections::BTreeMap<(u32, u32), u32> =
            g.edges().iter().map(|e| ((e.u, e.v), e.w)).collect();
        let streamed = fingerprint(5, map.iter().map(|(&(u, v), &w)| WEdge::new(u, v, w)));
        assert_eq!(streamed, g.fingerprint());
    }

    #[test]
    fn display_is_32_hex_chars() {
        let s = el(4, &[(0, 1, 1)]).fingerprint().to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
