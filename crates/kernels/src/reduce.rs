//! Data-structure reduction between computation stages (§3.3): self-edge
//! removal, ghost-parent application, and multi-edge removal.
//!
//! The ghost half works in tandem with the driver: processors exchange
//! `(old component id, new parent id)` pairs for their boundary components;
//! [`apply_ghost_parents`] applies the received pairs to the *non-resident*
//! endpoints of a holding, after which multi-edge removal can collapse
//! parallel inter-component edges correctly even across processor borders.
//!
//! All reductions run **in place** on the holding's SoA columns: removal
//! compacts with a write cursor, multi-edge removal is one pass over the
//! holding's reusable table of minimums, and canonical order is re-sorted
//! only when a pass actually disturbed it.
//!
//! A round pays for what it changed. Both halves test a row's two ends
//! against a small [`IdSet`] first and do real work only on the rows that
//! hit: the ghost renames the received old ids, the reduction the ids
//! renamed into since the holding's last reduction
//! ([`CGraph::renamed_since_reduce`]). The rows skipped still count in
//! [`ReduceStats::edges_before`], which is what the cost model charges.

use crate::cgraph::{CGraph, CompId};
use crate::idset::IdSet;
use crate::index_table;

/// Summary of one reduction pass (reported to the cost model; the paper
/// charges these operations to the merge phase).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Edges before the pass.
    pub edges_before: u64,
    /// Self edges removed.
    pub self_removed: u64,
    /// Multi-edges removed.
    pub multi_removed: u64,
    /// Edges after the pass.
    pub edges_after: u64,
}

/// Runs self-edge removal followed by multi-edge removal on a holding,
/// entirely in place — over the rows touching an id renamed since the last
/// reduction when the holding knows those ids, else over every row. The
/// full pass is [`CGraph::remove_self_edges`] then
/// [`CGraph::remove_multi_edges`], chunked on rayon workers as the calling
/// thread's kernel policy says. Oracle-identical for any chunking.
pub fn reduce_holding(cg: &mut CGraph) -> ReduceStats {
    let before = cg.num_edges() as u64;
    let (self_removed, multi_removed) = cg.reduce_rows();
    ReduceStats {
        edges_before: before,
        self_removed,
        multi_removed,
        edges_after: cg.num_edges() as u64,
    }
}

/// Normalises the ghost-parent message a processor sends — the `(old, new)`
/// renaming pairs of its own components, restricted by the driver to ids
/// that other processors may reference — by sorting and deduplicating **in
/// place**. Called once per exchange round per rank, so it must not copy
/// the pair vector. Idempotent: renormalising an already-normalised message
/// leaves it unchanged.
pub fn ghost_parent_message(msg: &mut Vec<(CompId, CompId)>) {
    msg.sort_unstable();
    msg.dedup();
}

/// Applies received ghost-parent pairs to a holding: every edge endpoint
/// matching an `old` id is renamed to `new`. Resident ids are left alone —
/// renames of resident components were already committed by the local
/// kernel; this call is specifically for ghost (non-resident) endpoints,
/// so it walks the holding's cut rows ([`CGraph::cut_rows`]) and renames
/// only those with an end among the pairs' old ids.
///
/// The pairs of **all** sending ranks go through one call: each rank
/// renames only its own residents, so the pairs of different senders never
/// chain or collide ([`ghost_parents_are_chain_free`]) and one sweep equals
/// applying the senders one after another.
pub fn apply_ghost_parents(cg: &mut CGraph, updates: &[(CompId, CompId)]) {
    if updates.is_empty() {
        return;
    }
    // old id -> index of its pair; should a broken sender repeat an `old`,
    // the last pair wins (what collecting into a map always did).
    let slot_for = |slots: &[u32], old: CompId| {
        index_table::probe(slots, old as u64, |i| updates[i as usize].0 == old)
    };
    let mut slots = Vec::new();
    index_table::reset(&mut slots, updates.len());
    for (i, &(old, _)) in updates.iter().enumerate() {
        let pos = slot_for(&slots, old);
        slots[pos] = i as u32;
    }
    let olds = IdSet::new(updates.iter().map(|&(old, _)| old));
    cg.relabel_ghosts(&olds, |c| match slots[slot_for(&slots, c)] {
        index_table::EMPTY => c,
        i => updates[i as usize].1,
    });
}

/// The protocol invariant that lets [`apply_ghost_parents`] take every
/// sender's pairs in one sweep: no `old` id is renamed to two different
/// `new` ids, and no `new` id is itself renamed (no chains). It holds
/// because a rank renames only components resident on it, and a component
/// is resident on exactly one rank.
pub fn ghost_parents_are_chain_free(updates: &[(CompId, CompId)]) -> bool {
    let mut sorted = updates.to_vec();
    ghost_parent_message(&mut sorted);
    let one_parent_each = sorted.windows(2).all(|w| w[0].0 != w[1].0);
    let no_chains = sorted
        .iter()
        .all(|&(_, new)| sorted.binary_search_by_key(&new, |&(old, _)| old).is_err());
    one_parent_each && no_chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgraph::CEdge;
    use mnd_graph::types::WEdge;
    use proptest::prelude::*;

    #[test]
    fn reduce_removes_both_kinds() {
        let mut cg = CGraph::from_parts(
            vec![0, 5],
            vec![
                CEdge::new(0, 0, WEdge::new(1, 2, 3)), // self
                CEdge::new(0, 5, WEdge::new(0, 5, 9)), // kept? no: heavier multi
                CEdge::new(0, 5, WEdge::new(2, 6, 4)), // kept (lightest 0~5)
            ],
            vec![],
        );
        let stats = reduce_holding(&mut cg);
        assert_eq!(stats.self_removed, 1);
        assert_eq!(stats.multi_removed, 1);
        assert_eq!(stats.edges_after, 1);
        assert_eq!(cg.edge(0).orig, WEdge::new(2, 6, 4));
    }

    #[test]
    fn ghost_parents_rename_only_non_resident() {
        let mut cg = CGraph::from_parts(
            vec![0, 1],
            vec![
                CEdge::new(0, 7, WEdge::new(0, 7, 1)), // ghost endpoint 7
                CEdge::new(1, 0, WEdge::new(0, 1, 2)),
            ],
            vec![],
        );
        // Remote processor reports 7 -> 5; a malicious/stale pair 1 -> 9
        // must not touch our resident component 1.
        apply_ghost_parents(&mut cg, &[(7, 5), (1, 9)]);
        assert!(cg.iter_edges().any(|e| (e.a, e.b) == (0, 5)));
        assert!(cg.iter_edges().any(|e| (e.a, e.b) == (0, 1)));
        assert_eq!(cg.resident(), &[0, 1]);
    }

    #[test]
    fn ghost_message_dedups() {
        let mut msg = vec![(3, 1), (3, 1), (4, 1)];
        ghost_parent_message(&mut msg);
        assert_eq!(msg, vec![(3, 1), (4, 1)]);
    }

    #[test]
    fn ghost_message_normalisation_is_idempotent() {
        // Regression: normalising twice (as happens when a relabel buffer is
        // reused across exchange rounds) must be a no-op the second time,
        // including capacity — the in-place contract means no reallocation.
        let mut msg = vec![(9, 2), (3, 1), (9, 2), (4, 1), (3, 1)];
        ghost_parent_message(&mut msg);
        let once = msg.clone();
        let cap = msg.capacity();
        ghost_parent_message(&mut msg);
        assert_eq!(msg, once);
        assert_eq!(msg.capacity(), cap);
    }

    #[test]
    fn empty_updates_are_noop() {
        let mut cg =
            CGraph::from_parts(vec![2], vec![CEdge::new(2, 8, WEdge::new(2, 8, 1))], vec![]);
        let before = cg.clone();
        apply_ghost_parents(&mut cg, &[]);
        assert_eq!(cg, before);
    }
    #[test]
    fn merged_sweep_ignores_a_stale_pair_naming_a_resident_id() {
        // Pairs of two senders in one sweep. Sender B's (1, 9) is stale: 1
        // is resident here, so it is ours to rename and nobody else's.
        let mut cg = CGraph::from_parts(
            vec![0, 1],
            vec![
                CEdge::new(0, 7, WEdge::new(0, 7, 1)),
                CEdge::new(1, 12, WEdge::new(1, 12, 2)),
                CEdge::new(0, 1, WEdge::new(0, 1, 3)),
            ],
            vec![1],
        );
        let (from_a, from_b) = (vec![(7, 5)], vec![(12, 10), (1, 9)]);
        let merged: Vec<_> = from_a.iter().chain(&from_b).copied().collect();
        apply_ghost_parents(&mut cg, &merged);
        let ends: Vec<_> = cg.iter_edges().map(|e| (e.a, e.b)).collect();
        assert_eq!(ends, vec![(0, 5), (1, 10), (0, 1)]);
        assert_eq!(cg.resident(), &[0, 1]);
        assert_eq!(cg.frozen(), &[1]);
    }

    #[test]
    fn chain_free_check_catches_protocol_violations() {
        assert!(ghost_parents_are_chain_free(&[]));
        assert!(ghost_parents_are_chain_free(&[(7, 5), (8, 5), (12, 10)]));
        // A repeated pair is harmless; two parents for one id are not.
        assert!(ghost_parents_are_chain_free(&[(7, 5), (7, 5)]));
        assert!(!ghost_parents_are_chain_free(&[(7, 5), (7, 6)]));
        // 7 -> 5 -> 3 would need two sweeps.
        assert!(!ghost_parents_are_chain_free(&[(7, 5), (5, 3)]));
    }

    /// [`apply_ghost_parents`] as it was before the cut-row list: a map of
    /// the pairs (the last pair of a repeated `old` wins) applied by the
    /// every-row sweep.
    fn full_sweep_apply_ghost_parents(cg: &mut CGraph, updates: &[(CompId, CompId)]) {
        let map: std::collections::HashMap<CompId, CompId> = updates.iter().copied().collect();
        cg.reference_relabel_ghosts(|c| map.get(&c).copied().unwrap_or(c));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The cut-row rename equals the every-row sweep it replaced, on
        /// holdings whose rows have no, one or two ghost ends (`keep_every`
        /// = 1: nothing is a ghost, no cut row at all), under pairs that
        /// repeat an `old` and name resident ids.
        #[test]
        fn cut_row_ghost_rename_equals_the_full_sweep(
            rows in proptest::collection::vec((0u32..40, 0u32..40, 1u32..50), 0..200),
            keep_every in 1u32..4,
            updates in proptest::collection::vec((0u32..40, 100u32..130), 0..50),
            read_first in 0u8..2,
        ) {
            let edges = rows
                .iter()
                .enumerate()
                .map(|(i, &(a, b, w))| CEdge::new(a, b, WEdge::new(i as u32, 1000 + a, w)))
                .collect();
            let resident: Vec<CompId> = (0..40).step_by(keep_every as usize).collect();
            let mut cg = CGraph::from_parts(resident.clone(), edges, vec![resident[0]]);
            if read_first == 1 {
                // Rename through a list cached earlier rather than filled
                // by the call itself.
                cg.cut_rows();
            }
            let mut expect = cg.clone();
            full_sweep_apply_ghost_parents(&mut expect, &updates);
            apply_ghost_parents(&mut cg, &updates);
            prop_assert_eq!(cg.edges_vec(), expect.edges_vec());
            prop_assert_eq!(&cg, &expect);
            prop_assert_eq!(cg.cut_rows(), expect.fresh_cut_rows());
        }

        /// One sweep over every sender's pairs equals applying the senders
        /// one after another. Sender `s` owns ids `100·(s+1) ..` and renames
        /// within them to its block's multiples of ten (never themselves
        /// renamed), as a rank renames only its own residents.
        #[test]
        fn merged_ghost_sweep_equals_per_source_application(
            rows in proptest::collection::vec((0u32..8, 0u32..400, 1u32..50), 0..200),
            renames in proptest::collection::vec((0u32..3, 0u32..100), 0..60),
        ) {
            let edges = rows
                .iter()
                .enumerate()
                .map(|(i, &(mine, ghost, w))| CEdge::new(mine, 100 + ghost, WEdge::new(i as u32, 1000 + ghost, w)))
                .collect();
            let cg = CGraph::from_parts((0..8).collect(), edges, vec![2]);
            let mut per_source: Vec<Vec<(CompId, CompId)>> = vec![Vec::new(); 3];
            for (s, k) in renames {
                if k % 10 != 0 {
                    let base = 100 * (s + 1);
                    per_source[s as usize].push((base + k, base + k / 10 * 10));
                }
            }
            let merged: Vec<(CompId, CompId)> = per_source.concat();
            prop_assert!(ghost_parents_are_chain_free(&merged));

            let mut one_by_one = cg.clone();
            for pairs in &per_source {
                apply_ghost_parents(&mut one_by_one, pairs);
            }
            let mut at_once = cg.clone();
            apply_ghost_parents(&mut at_once, &merged);
            prop_assert_eq!(&at_once, &one_by_one);
            prop_assert_eq!(at_once.resident(), cg.resident());
            prop_assert_eq!(at_once.frozen(), cg.frozen());
        }
    }
}
