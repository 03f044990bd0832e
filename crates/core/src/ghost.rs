//! The ghost directory: who currently holds which component.
//!
//! The paper's `ghostList` is "a hash table indexed on the processor id of
//! the ghost vertex" (§3.1). [`GhostDirectory`] is the equivalent
//! structure, generalised to survive the hierarchical merge: it maps a
//! component id to the rank where it is resident.
//!
//! * At level 0 the owner of component `c` (= vertex `c`) follows from the
//!   1D partition, so the directory is seeded from the vertex ranges.
//! * When a ring shift moves a segment of components between ranks, every
//!   move is announced (the driver allgathers `(component, new owner)`
//!   deltas) and applied with [`GhostDirectory::apply_moves`].
//! * A group merge moves whole holdings: every member's components go to
//!   the group's elected leader, which every rank knows from the
//!   replicated groups and election. Nothing is announced; each rank
//!   composes a rank → rank redirect ([`GhostDirectory::merge_groups`]),
//!   and [`GhostDirectory::owner`] resolves the range-derived or moved
//!   owner through it.
//! * Relabels shrink the id space: when `old` merges into `new`, `old`
//!   disappears; [`GhostDirectory::apply_relabels`] drops the stale entry.
//!
//! [`relabel_buckets`] computes the paper's ghost-parent message: for each
//! rename `(old, new)` performed locally, a pair is sent to the owner of
//! every ghost component adjacent to `old` — exactly the processors whose
//! holdings reference `old` (each edge is held by the resident ranks of
//! both endpoints; see DESIGN.md).

use std::collections::HashMap;

use mnd_graph::partition::{owner_of, VertexRange};
use mnd_kernels::cgraph::{CGraph, CompId};
use mnd_kernels::idset::IdSet;
use mnd_net::Group;

/// Component → resident rank map.
#[derive(Clone, Debug, Default)]
pub struct GhostDirectory {
    ranges: Vec<VertexRange>,
    /// Overrides of the range-derived owner (components that moved).
    moved: HashMap<CompId, u32>,
    /// Where each rank's holding lives after the group merges so far
    /// (indexed by rank); empty before the first merge, which is the
    /// identity.
    redirect: Vec<u32>,
}

impl GhostDirectory {
    /// Seeds the directory from the level-0 partition.
    pub fn from_ranges(ranges: Vec<VertexRange>) -> Self {
        GhostDirectory {
            ranges,
            moved: HashMap::new(),
            redirect: Vec::new(),
        }
    }

    /// Current owner of component `c`: the last ring move's target, or
    /// the range owner, resolved through the group merges.
    pub fn owner(&self, c: CompId) -> u32 {
        match self.moved.get(&c) {
            Some(&r) => self.resolve(r),
            None => self.resolve(owner_of(&self.ranges, c) as u32),
        }
    }

    /// The rank now holding what rank `r` held.
    #[inline]
    fn resolve(&self, r: u32) -> u32 {
        self.redirect.get(r as usize).copied().unwrap_or(r)
    }

    /// Applies announced moves (`component -> new owner`).
    pub fn apply_moves(&mut self, moves: &[(CompId, u32)]) {
        for &(c, r) in moves {
            // Keep the map small: an override equal to the (resolved)
            // range owner can be dropped.
            if self.resolve(owner_of(&self.ranges, c) as u32) == r {
                self.moved.remove(&c);
            } else {
                self.moved.insert(c, r);
            }
        }
    }

    /// Records a group merge: every member of `groups[i]` handed its whole
    /// holding to `leaders[i]`. Composes the redirect (ranks in no group
    /// keep their target) and drops the overrides it makes redundant.
    pub fn merge_groups(&mut self, groups: &[Group], leaders: &[usize]) {
        let ranks = self.ranges.len();
        let mut to: Vec<u32> = (0..ranks as u32).collect();
        for (g, &leader) in groups.iter().zip(leaders) {
            for &m in g.members() {
                to[m] = leader as u32;
            }
        }
        self.redirect = if self.redirect.is_empty() {
            to
        } else {
            self.redirect.iter().map(|&r| to[r as usize]).collect()
        };
        let (ranges, redirect) = (&self.ranges, &self.redirect);
        self.moved
            .retain(|&c, r| redirect[*r as usize] != redirect[owner_of(ranges, c)]);
    }

    /// Forgets ids that were merged away (`(old, new)` relabels: `old`
    /// no longer exists anywhere).
    pub fn apply_relabels(&mut self, relabels: &[(CompId, CompId)]) {
        for &(old, _) in relabels {
            self.moved.remove(&old);
        }
    }

    /// Approximate serialized size: the ranges table, one `(component,
    /// owner)` pair per override and the redirect. Used to cost checkpoint
    /// writes (the directory has no exact wire format — it never travels
    /// over the fabric).
    pub fn approx_wire_bytes(&self) -> u64 {
        8 + self.ranges.len() as u64 * 8
            + self.moved.len() as u64 * 8
            + self.redirect.len() as u64 * 4
    }

    /// Number of move overrides currently tracked (diagnostics).
    pub fn num_overrides(&self) -> usize {
        self.moved.len()
    }
}

/// Builds the per-destination ghost-parent buckets for a holding's relabels:
/// pair `(old, new)` goes to every distinct owner of a ghost component
/// adjacent to `old` in `cg` (after the relabel was applied locally, `old`
/// endpoints have already been renamed to `new`, so adjacency is probed via
/// `new`, which is resident here).
///
/// Returns `nranks` buckets (the own-rank bucket stays empty). A bucket
/// lists, in the order an ascending sweep of the holding's cut rows
/// ([`CGraph::cut_rows`] — no other row has a ghost end) first meets each
/// renamed component next to one of that owner's ghosts, all of the
/// component's pairs — each exactly once. The sweep tests both ends of a
/// cut row against the renamed-into ids first and resolves only the rows
/// that touch one.
pub fn relabel_buckets(
    cg: &CGraph,
    relabels: &[(CompId, CompId)],
    dir: &GhostDirectory,
    my_rank: usize,
    nranks: usize,
) -> Vec<Vec<(CompId, CompId)>> {
    let mut buckets: Vec<Vec<(CompId, CompId)>> = (0..nranks).map(|_| Vec::new()).collect();
    if relabels.is_empty() {
        return buckets;
    }
    // Group the pairs by the component they merged into (stable: a group
    // keeps the callers' order), and point each renamed-into resident slot
    // at its group.
    let mut by_new = relabels.to_vec();
    by_new.sort_by_key(|&(_, new)| new);
    let mut group_start: Vec<u32> = Vec::new();
    let mut group_of_slot = vec![u32::MAX; cg.num_resident()];
    for (i, &(_, new)) in by_new.iter().enumerate() {
        if i == 0 || by_new[i - 1].1 != new {
            debug_assert!(cg.is_resident(new), "renamed into non-resident {new}");
            if let Some(slot) = cg.slot_of(new) {
                group_of_slot[slot as usize] = group_start.len() as u32;
            }
            group_start.push(i as u32);
        }
    }
    group_start.push(by_new.len() as u32);

    // For every edge joining a renamed component to a ghost, the ghost's
    // owner needs the component's whole group, once: `sent` marks the
    // (group, owner) combinations already served, `unserved` counts a
    // group's other ranks not yet served — at 0 its rows need no owner.
    let groups = group_start.len() - 1;
    let mut sent = vec![false; groups * nranks];
    let mut unserved = vec![nranks as u32 - 1; groups];
    let news = IdSet::new(group_start[..groups].iter().map(|&i| by_new[i as usize].1));
    let (ca, cb) = cg.endpoint_cols();
    for &row in cg.cut_rows() {
        let (a, b) = (ca[row as usize], cb[row as usize]);
        if !news.touches(a, b) {
            continue;
        }
        let (sa, sb) = (cg.slot_of(a), cg.slot_of(b));
        for (mine, other, ghost) in [(sa, sb, b), (sb, sa, a)] {
            // A resident neighbour lives here and was renamed locally.
            let (Some(slot), None) = (mine, other) else {
                continue;
            };
            let group = group_of_slot[slot as usize];
            if group == u32::MAX || unserved[group as usize] == 0 {
                continue;
            }
            let owner = dir.owner(ghost) as usize;
            if owner == my_rank
                || std::mem::replace(&mut sent[group as usize * nranks + owner], true)
            {
                continue;
            }
            unserved[group as usize] -= 1;
            let (lo, hi) = (group_start[group as usize], group_start[group as usize + 1]);
            buckets[owner].extend_from_slice(&by_new[lo as usize..hi as usize]);
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use mnd_graph::types::WEdge;
    use mnd_kernels::cgraph::CEdge;

    fn ranges4() -> Vec<VertexRange> {
        (0..4)
            .map(|i| VertexRange {
                start: i * 10,
                end: (i + 1) * 10,
            })
            .collect()
    }

    #[test]
    fn range_owner_lookup() {
        let d = GhostDirectory::from_ranges(ranges4());
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(15), 1);
        assert_eq!(d.owner(39), 3);
    }

    #[test]
    fn moves_override_and_collapse() {
        let mut d = GhostDirectory::from_ranges(ranges4());
        d.apply_moves(&[(15, 3)]);
        assert_eq!(d.owner(15), 3);
        assert_eq!(d.num_overrides(), 1);
        // Moving back to the natural owner drops the override.
        d.apply_moves(&[(15, 1)]);
        assert_eq!(d.owner(15), 1);
        assert_eq!(d.num_overrides(), 0);
    }

    /// A redirect resolves range owners and moved owners alike, and an
    /// override the redirect makes redundant is dropped.
    #[test]
    fn merges_redirect_range_and_moved_owners() {
        let mut d = GhostDirectory::from_ranges(ranges4());
        d.apply_moves(&[(5, 1), (15, 3)]);
        let groups = Group::partition(&[0, 1, 2, 3], 2);
        d.merge_groups(&groups, &[0, 2]);
        assert_eq!(
            [d.owner(5), d.owner(15), d.owner(25), d.owner(35)],
            [0, 2, 2, 2]
        );
        // 5 → 1 → 0 is its range owner again; 15 → 3 → 2 is not rank 1's 0.
        assert_eq!(d.num_overrides(), 1);
        // A ring move at the next level names an active rank.
        d.apply_moves(&[(25, 0)]);
        d.merge_groups(&Group::partition(&[0, 2], 2), &[2]);
        assert!((0..40).all(|c| d.owner(c) == 2));
        assert_eq!(d.num_overrides(), 0);
    }

    /// A small deterministic generator for the hierarchy replays.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    proptest::proptest! {
        /// Replays whole hierarchies — ring moves between merges, ids
        /// merged away, elected leaders other than the first member — on a
        /// directory and on a per-component map that applies every merge
        /// the way the merge's `(component, leader)` announcements did: at
        /// every step, every live component has the map's owner, and the
        /// directory keeps exactly the overrides the redirect cannot derive.
        #[test]
        fn redirect_owners_equal_announced_moves(
            wide in proptest::bool::ANY,
            pairs in proptest::bool::ANY,
            failover in proptest::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            let p = if wide { 16 } else { 8 };
            let group_size = if pairs { 2 } else { 4 };
            let ranges: Vec<VertexRange> = (0..p)
                .map(|i| VertexRange { start: i * 10, end: (i + 1) * 10 })
                .collect();
            let mut dir = GhostDirectory::from_ranges(ranges.clone());
            let mut announced: BTreeMap<CompId, u32> =
                (0..10 * p).map(|c| (c, owner_of(&ranges, c) as u32)).collect();
            let mut rng = SplitMix(seed);
            let check = |dir: &GhostDirectory, announced: &BTreeMap<CompId, u32>| {
                let mut derived = 0;
                for (&c, &owner) in announced {
                    proptest::prop_assert_eq!(dir.owner(c), owner, "component {}", c);
                    derived += usize::from(dir.resolve(owner_of(&ranges, c) as u32) != owner);
                }
                proptest::prop_assert_eq!(dir.num_overrides(), derived);
            };
            let mut active: Vec<usize> = (0..p as usize).collect();
            while active.len() > 1 {
                let groups = Group::partition(&active, group_size);
                // Ring rounds: components move to another member of their
                // owner's group, announced.
                for _ in 0..rng.below(3) {
                    let mut moves = Vec::new();
                    for (&c, &owner) in &announced {
                        let g = Group::find(&groups, owner as usize).expect("owner is active");
                        if !g.is_singleton() && rng.below(4) == 0 {
                            let to = g.members()[rng.below(g.members().len())] as u32;
                            moves.push((c, to));
                        }
                    }
                    moves.sort_unstable();
                    dir.apply_moves(&moves);
                    announced.extend(moves.iter().copied());
                    check(&dir, &announced);
                }
                // Some components merge into others and disappear.
                let mut gone: Vec<CompId> =
                    announced.keys().copied().filter(|_| rng.below(8) == 0).collect();
                gone.sort_unstable();
                let relabels: Vec<(CompId, CompId)> = gone.iter().map(|&c| (c, u32::MAX)).collect();
                dir.apply_relabels(&relabels);
                gone.iter().for_each(|c| {
                    announced.remove(c);
                });
                // The merge: a healthy member leads (under a failover, not
                // necessarily the first), every member's components go there.
                let leaders: Vec<usize> = groups
                    .iter()
                    .map(|g| {
                        let k = if failover { rng.below(g.members().len()) } else { 0 };
                        g.members()[k]
                    })
                    .collect();
                for owner in announced.values_mut() {
                    let gi = groups.iter().position(|g| g.position(*owner as usize).is_some());
                    *owner = leaders[gi.expect("owner is active")] as u32;
                }
                dir.merge_groups(&groups, &leaders);
                check(&dir, &announced);
                active = leaders;
            }
            proptest::prop_assert!(announced.values().all(|&r| r as usize == active[0]));
        }
    }

    #[test]
    fn relabels_clean_stale_overrides() {
        let mut d = GhostDirectory::from_ranges(ranges4());
        d.apply_moves(&[(22, 0)]);
        d.apply_relabels(&[(22, 20)]);
        assert_eq!(d.num_overrides(), 0);
    }

    #[test]
    fn buckets_target_ghost_owners_only() {
        // Rank 0 holds comps {0, 5}; it renamed 5 -> 0. Its edges: 0~12
        // (ghost, owner 1), 0~35 (ghost, owner 3), 0~5 impossible (merged).
        let cg = CGraph::from_parts(
            vec![0],
            vec![
                CEdge::new(0, 12, WEdge::new(3, 12, 5)),
                CEdge::new(0, 35, WEdge::new(5, 35, 7)),
            ],
            vec![],
        );
        let d = GhostDirectory::from_ranges(ranges4());
        let buckets = relabel_buckets(&cg, &[(5, 0)], &d, 0, 4);
        assert_eq!(buckets[1], vec![(5, 0)]);
        assert_eq!(buckets[3], vec![(5, 0)]);
        assert!(buckets[0].is_empty() && buckets[2].is_empty());
    }

    #[test]
    fn buckets_dedup_per_destination() {
        // Two edges to ghosts owned by the same rank: one pair, not two.
        let cg = CGraph::from_parts(
            vec![0],
            vec![
                CEdge::new(0, 12, WEdge::new(3, 12, 5)),
                CEdge::new(0, 13, WEdge::new(4, 13, 6)),
            ],
            vec![],
        );
        let d = GhostDirectory::from_ranges(ranges4());
        let buckets = relabel_buckets(&cg, &[(5, 0), (3, 0)], &d, 0, 4);
        let mut b1 = buckets[1].clone();
        b1.sort_unstable();
        assert_eq!(b1, vec![(3, 0), (5, 0)]);
    }

    /// [`relabel_buckets`] as it was before the cut-row list: the same
    /// grouping, then a sweep resolving both ends of every row.
    fn full_sweep_relabel_buckets(
        cg: &CGraph,
        relabels: &[(CompId, CompId)],
        dir: &GhostDirectory,
        my_rank: usize,
        nranks: usize,
    ) -> Vec<Vec<(CompId, CompId)>> {
        let mut buckets: Vec<Vec<(CompId, CompId)>> = (0..nranks).map(|_| Vec::new()).collect();
        let mut by_new = relabels.to_vec();
        by_new.sort_by_key(|&(_, new)| new);
        let mut sent = std::collections::HashSet::new();
        for e in cg.iter_edges() {
            for (mine, ghost) in [(e.a, e.b), (e.b, e.a)] {
                if !cg.is_resident(mine) || cg.is_resident(ghost) {
                    continue;
                }
                let group: Vec<_> = by_new.iter().filter(|&&(_, new)| new == mine).collect();
                let owner = dir.owner(ghost) as usize;
                if group.is_empty() || owner == my_rank || !sent.insert((mine, owner)) {
                    continue;
                }
                buckets[owner].extend(group);
            }
        }
        buckets
    }

    proptest::proptest! {
        /// Walking the cut rows fills the buckets exactly as the every-row
        /// sweep did — same pairs in the same order, which is what the wire
        /// codec's bytes depend on — on holdings with rows of no, one and
        /// two ghost ends, and with no cut row at all (`keep_every` = 1).
        #[test]
        fn cut_row_buckets_equal_the_full_sweep_in_order(
            rows in proptest::collection::vec((0u32..40, 0u32..40, 1u32..9), 0..150),
            keep_every in 1u32..4,
            renames in proptest::collection::vec((0u32..40, 0u32..40), 0..30),
            my_rank in 0usize..4,
        ) {
            let edges = rows
                .iter()
                .enumerate()
                .map(|(i, &(a, b, w))| CEdge::new(a, b, WEdge::new(i as u32, 100 + a, w)))
                .collect();
            let resident: Vec<CompId> = (0..40).step_by(keep_every as usize).collect();
            // (old, new): new is resident here, old is an id it absorbed.
            let relabels: Vec<(CompId, CompId)> = renames
                .iter()
                .map(|&(old, new)| (100 + old, resident[new as usize % resident.len()]))
                .collect();
            let cg = CGraph::from_parts(resident, edges, vec![]);
            let dir = GhostDirectory::from_ranges(ranges4());
            let expect = full_sweep_relabel_buckets(&cg, &relabels, &dir, my_rank, 4);
            proptest::prop_assert_eq!(relabel_buckets(&cg, &relabels, &dir, my_rank, 4), expect);
        }
    }

    #[test]
    fn empty_relabels_produce_empty_buckets() {
        let cg = CGraph::new();
        let d = GhostDirectory::from_ranges(ranges4());
        let buckets = relabel_buckets(&cg, &[], &d, 0, 4);
        assert!(buckets.iter().all(|b| b.is_empty()));
    }
}
