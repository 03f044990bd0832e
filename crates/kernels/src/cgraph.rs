//! The *contracted graph*: components plus inter-component edges with
//! original-edge provenance.
//!
//! After the first round of independent computations, every stage of
//! MND-MST (self/multi-edge removal, ring segment exchange, leader merges,
//! post-processing) manipulates graphs whose "vertices" are component ids.
//! [`CGraph`] is that uniform representation:
//!
//! * **resident** components — the ones this processor currently owns,
//! * **edges** — inter-component edges; each carries the original graph
//!   edge ([`CEdge::orig`]) so the final MSF can be reported in terms of
//!   input edges, and so weight ties break identically everywhere.
//!
//! Edges are stored **structure-of-arrays**: three parallel columns
//! (`ea`, `eb`, `eorig`) instead of a `Vec<CEdge>`. The reduce passes
//! (relabel, self/multi-edge removal, dedup) are the hot path of every
//! merge level and sweep the columns linearly; SoA keeps those sweeps
//! compact and lets them run fully in place, so no pass allocates a new
//! edge vector. [`CEdge`] remains the *view* type: [`CGraph::edge`],
//! [`CGraph::iter_edges`] and [`CGraph::edges_vec`] materialize rows on
//! demand for callers that want the old AoS shape.
//!
//! Four pieces of derived state ride along with the columns, none part
//! of a holding's identity. [`CGraph::validate_derived`] recomputes each
//! one that carries information — the resolver, the cut-row list, the
//! renamed ids — from the columns, and debug builds run it after every
//! mutator:
//!
//! * **The resolver.** Every per-edge sweep has to ask "is this endpoint
//!   resident, and in which slot?". The holding answers in O(1) through a
//!   [`SlotLookup`] over the resident id range ([`CGraph::slot_of`],
//!   [`CGraph::is_resident`]), rebuilt by exactly the mutators that change
//!   the resident column — [`CGraph::set_resident`], [`CGraph::relabel`],
//!   the kernel's contraction commit, [`CGraph::absorb_all`],
//!   [`CGraph::split_off`] — so a sweep resolves each endpoint once and
//!   never searches.
//! * **The table of minimums.** Multi-edge removal is the paper's "hash
//!   table of minimums" (§3.3): one linear pass over an open-addressing
//!   table of row indexes (`index_table`) keeps the minimal row per
//!   component pair and a write cursor compacts the losers away. The table
//!   and the keep flags are reusable scratch.
//! * **The cut-row list.** Contiguous 1D cuts keep most rows internal
//!   (§3.1), and only rows with a non-resident end take part in the
//!   ghost-parent protocol (§3.3). [`CGraph::cut_rows`] is the ascending
//!   list of exactly those rows, so the protocol's sweeps visit the cut,
//!   not the holding, in the order a full sweep would. Whoever already
//!   knows the list writes it — the level-0 builder ([`CGraph::level0`])
//!   and the kernel's contraction commit — every other mutator that moves
//!   rows or changes residency drops it, and a read after a drop refills it
//!   with one two-look-ups-per-row sweep. The filtered reduction and the
//!   filter-Boruvka compaction keep it: a row's cut status is its ends'
//!   residency, which removing other rows does not change.
//! * **The ids renamed since the last reduction.** A reduced holding is
//!   canonical and has no self row and no two rows between one pair of
//!   components. Renames keep the order (a row's original edge does not
//!   change), so after a round's renames — the kernel's commit, the
//!   ghost-parent pairs of [`CGraph::relabel_ghosts`] — every self row and
//!   every parallel pair touches an id renamed *into* this round, and the
//!   next reduction visits only the rows that do
//!   ([`CGraph::renamed_since_reduce`]). `None` (unknown: the full pass)
//!   after the level-0 builder, [`CGraph::push_edge`], [`CGraph::relabel`]
//!   and [`CGraph::absorb_all`].
//!
//! An edge may connect a resident component to a *non-resident* one (the
//! paper's ghost component); such edges are exactly the ones the exception
//! condition of `indComp` refuses to contract.
//!
//! Edge ownership rule (see DESIGN.md): when a segment of components moves
//! between processors, edges internal to the segment move with it, while
//! edges linking the segment to components left behind are **duplicated**
//! (both processors need them to compute min edges and freezes).
//! [`CGraph::absorb_all`] drops the duplicates whenever holdings recombine;
//! a copy is a row with the same original edge, the whole `(w, u, v)`.
//!
//! **Canonical order.** Rows ascend in `(w, u, v, a, b)` from a holding's
//! first [`CGraph::remove_multi_edges`] on: relabels, compactions, the
//! kernel's commit and [`CGraph::split_off`] keep the order (a row's
//! original edge never changes, and a holding has one row per original),
//! and recombination merges canonical runs into a canonical holding, where
//! the copies of an original edge meet as neighbours. Only a level-0
//! holding before its first reduction is in another (anchor) order.

use std::ops::Range;
use std::sync::OnceLock;

use mnd_graph::partition::VertexRange;
use mnd_graph::types::{VertexId, WEdge};
use mnd_graph::EdgeList;
use mnd_wire::Wire;
use rayon::prelude::*;

use crate::idset::IdSet;
use crate::index_table::{self, pair_key};
use crate::lockfree::{as_atomic_u64, SlotLookup};
use crate::policy::KernelPolicy;

/// A component identifier. Components are named by the smallest original
/// vertex they contain, so ids stay globally consistent without any central
/// allocator.
pub type CompId = u32;

/// The resident slot of a non-resident ("ghost") component, where a sweep
/// carries slots as plain `u32`s. No holding has `u32::MAX` residents.
pub(crate) const GHOST: u32 = u32::MAX;

/// An inter-component edge: current component endpoints plus the original
/// graph edge it stands for. This is the row *view* over the SoA columns
/// of [`CGraph`] (and the unit that crosses the wire inside segment
/// messages).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CEdge {
    /// One component endpoint.
    pub a: CompId,
    /// The other component endpoint.
    pub b: CompId,
    /// The original graph edge (weight + global tie-break + provenance).
    pub orig: WEdge,
}

impl CEdge {
    /// Creates an edge; component endpoints are stored canonically
    /// (`a <= b`).
    #[inline]
    pub fn new(a: CompId, b: CompId, orig: WEdge) -> Self {
        if a <= b {
            CEdge { a, b, orig }
        } else {
            CEdge { a: b, b: a, orig }
        }
    }

    /// True if both endpoints are the same component.
    #[inline]
    pub fn is_self(&self) -> bool {
        self.a == self.b
    }

    /// The component endpoint other than `c` (debug-checked).
    #[inline]
    pub fn other(&self, c: CompId) -> CompId {
        debug_assert!(c == self.a || c == self.b);
        if c == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// Total-order key: the original edge's `(w, u, v)`.
    #[inline]
    pub fn key(&self) -> (u32, VertexId, VertexId) {
        self.orig.key()
    }
}

impl Wire for CEdge {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        // Two packed endpoints + the original edge (u, v, w).
        (2 * std::mem::size_of::<CompId>() as u64) + self.orig.wire_bytes()
    }
}

impl PartialOrd for CEdge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CEdge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl std::fmt::Debug for CEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[c{}~c{} via {:?}]", self.a, self.b, self.orig)
    }
}

/// A processor's current holding: resident components and the edges it
/// knows about (SoA columns).
#[derive(Clone, Debug, Default)]
pub struct CGraph {
    /// Sorted, deduplicated resident component ids.
    resident: Vec<CompId>,
    /// Edge endpoint column `a` (canonical `a <= b` per row).
    ea: Vec<CompId>,
    /// Edge endpoint column `b`.
    eb: Vec<CompId>,
    /// Original-edge column (provenance + tie-break).
    eorig: Vec<WEdge>,
    /// Components frozen by a previous `indComp` invocation (sticky across
    /// stages until a relabel merges them away or they move processors).
    frozen: Vec<CompId>,
    /// id → resident-slot resolver over `resident`, rebuilt by every
    /// mutator that changes that column; never part of identity.
    lookup: SlotLookup,
    /// Reusable per-resident incident-count column (see
    /// [`CGraph::incident_counts`]); never part of identity.
    counts: Vec<u64>,
    /// Reusable open-addressing table of row indexes for the
    /// table-of-minimums reductions; never part of identity.
    table: Vec<u32>,
    /// Reusable flag column: per-row keep flags of a reduction, per-slot
    /// marks of a split; never part of identity.
    flags: Vec<bool>,
    /// Ascending indexes of the rows with a non-resident end (see
    /// [`CGraph::cut_rows`]): set where it is known, emptied by every
    /// mutator that moves rows or changes residency, refilled on the next
    /// read; never part of identity.
    cut: OnceLock<Vec<u32>>,
    /// The ids renamed into since the last reduction (repeats allowed), or
    /// `None` when the holding is not known to be a canonical reduced one
    /// plus renames (see [`CGraph::renamed_since_reduce`]); never part of
    /// identity.
    renamed: Option<Vec<CompId>>,
}

/// Writes holding row `row` at the write cursor `w` (at most `row`) with
/// ends `a` and `b`, canonically ordered.
#[inline]
fn put_row(
    (ea, eb, eorig): (&mut [CompId], &mut [CompId], &mut [WEdge]),
    w: usize,
    row: usize,
    a: CompId,
    b: CompId,
) {
    (ea[w], eb[w]) = (a.min(b), a.max(b));
    eorig[w] = eorig[row];
}

impl PartialEq for CGraph {
    fn eq(&self, other: &Self) -> bool {
        self.resident == other.resident
            && self.ea == other.ea
            && self.eb == other.eb
            && self.eorig == other.eorig
            && self.frozen == other.frozen
    }
}

/// A row as one contiguous, totally ordered record: `(w, u, v, a, b)`.
type Record = (u32, VertexId, VertexId, CompId, CompId);

/// Applies `map` to every endpoint of the two columns, chunked across
/// rayon workers when the policy says the holding is big enough. Rows are
/// independent, so any chunking produces the sequential result.
fn remap_rows(
    ea: &mut [CompId],
    eb: &mut [CompId],
    policy: &KernelPolicy,
    map: impl Fn(CompId) -> CompId + Sync,
) {
    let remap = |ca: &mut [CompId], cb: &mut [CompId]| {
        for (a, b) in ca.iter_mut().zip(cb.iter_mut()) {
            let na = map(*a);
            let nb = map(*b);
            // Keep the per-row canonical a <= b invariant.
            if na <= nb {
                *a = na;
                *b = nb;
            } else {
                *a = nb;
                *b = na;
            }
        }
    };
    if policy.use_par(ea.len()) {
        let chunk = policy.chunk_rows.max(1);
        let pairs: Vec<(&mut [CompId], &mut [CompId])> =
            ea.chunks_mut(chunk).zip(eb.chunks_mut(chunk)).collect();
        pairs.into_par_iter().for_each(|(ca, cb)| remap(ca, cb));
    } else {
        remap(ea, eb);
    }
}

/// Calls `visit(k, anchor, edge)` once per level-0 row of a block of
/// contiguous ranges, in list order: holding `k` of the block anchors the
/// canonicalised `edge` at `anchor` — its lower end if that lies in the
/// holding's range, else its upper end. Self loops anchor nowhere.
fn for_each_level0_row(
    el: &EdgeList,
    block: &[VertexRange],
    ranks: &Range<usize>,
    mut visit: impl FnMut(usize, VertexId, WEdge),
) {
    let (Some(first), Some(last)) = (block.first(), block.last()) else {
        return;
    };
    let span = VertexRange {
        start: first.start,
        end: last.end,
    };
    let n = el.num_vertices();
    // Lists mostly ascend in the lower end, so an end's owner rarely
    // differs from the previous edge's.
    let owner = |k: &mut usize, v: VertexId| {
        if !block[*k].contains(v) {
            *k = block.partition_point(|r| r.end <= v);
        }
        *k
    };
    let (mut k_lower, mut k_upper) = (0, 0);
    for e in el.edges() {
        let e = WEdge::new(e.u, e.v, e.w);
        assert!(
            e.v < n,
            "{e:?} has an endpoint beyond the edge list's limit of {n} vertices \
             (building the level-0 holdings of ranks {ranks:?})"
        );
        if e.is_self_loop() {
            continue;
        }
        if span.contains(e.u) {
            visit(owner(&mut k_lower, e.u), e.u, e);
        }
        if span.contains(e.v) {
            let k = owner(&mut k_upper, e.v);
            if !block[k].contains(e.u) {
                visit(k, e.v, e);
            }
        }
    }
}

impl CGraph {
    /// Empty holding.
    pub fn new() -> Self {
        CGraph::default()
    }

    /// An edgeless holding over a sorted, deduplicated resident column.
    fn with_resident(resident: Vec<CompId>) -> Self {
        debug_assert!(resident.windows(2).all(|w| w[0] < w[1]));
        let mut cg = CGraph {
            resident,
            ..CGraph::default()
        };
        cg.lookup.rebuild(&cg.resident);
        cg
    }

    /// Builds the level-0 holdings of ranks `ranks` of a 1D partition
    /// straight from the edge list: every owned vertex is a singleton
    /// component; a holding's rows are all edges touching its range (cut
    /// edges included, held by the inside endpoint; internal edges held
    /// once), self loops dropped and endpoints canonicalised.
    ///
    /// One stable counting sort of the list by *anchor* — an edge's lower
    /// end if it lies in the holding's range, else its upper end — so rows
    /// ascend in anchor and keep list order within an anchor: the
    /// adjacency-order walk of a mirrored CSR of the whole graph, row for
    /// row, without the CSR (the proptests compare the two). The ranks of
    /// the block share the two passes over the list, so a caller that cuts
    /// the ranks into `b` blocks pays `2·b` whole-list passes whatever the
    /// rank count. Every holding leaves with its cut-row list: the rows
    /// whose other end is outside the range.
    ///
    /// `ranges[ranks]` must be contiguous and ascending (what
    /// `partition_1d` returns).
    ///
    /// # Panics
    ///
    /// If an edge has an endpoint `>= el.num_vertices()`, or a holding
    /// would reach `u32::MAX` rows (row cursors and row indexes are 32
    /// bits) — in both cases before any column is allocated.
    pub fn level0(el: &EdgeList, ranges: &[VertexRange], ranks: Range<usize>) -> Vec<CGraph> {
        let block = &ranges[ranks.clone()];
        let (Some(first), Some(last)) = (block.first(), block.last()) else {
            return Vec::new();
        };
        debug_assert!(
            block.windows(2).all(|w| w[0].end == w[1].start),
            "the ranges of a block must be contiguous"
        );
        let base = first.start;
        // Pass 1: rows per anchor, then per holding an exclusive prefix sum
        // turning the counts into write cursors.
        let mut cursor = vec![0u32; (last.end - base) as usize];
        for_each_level0_row(el, block, &ranks, |_, anchor, _| {
            let c = &mut cursor[(anchor - base) as usize];
            *c = c.saturating_add(1);
        });
        let rows: Vec<usize> = block
            .iter()
            .zip(ranks.clone())
            .map(|(r, rank)| {
                let mut total = 0u64;
                for c in &mut cursor[(r.start - base) as usize..(r.end - base) as usize] {
                    // Truncation only past the limit asserted below.
                    total += u64::from(std::mem::replace(c, total as u32));
                }
                assert!(
                    total < u64::from(u32::MAX),
                    "rank {rank}'s level-0 holding of {total} rows exceeds the builder's limit \
                     of u32::MAX - 1 rows (row cursors and row indexes are 32 bits)"
                );
                total as usize
            })
            .collect();

        // Pass 2: every row to its cursor. Rows anchored at an upper end
        // land anywhere, and a level-0 row's ends are its original edge's:
        // only that column is scattered, the other two are read off it.
        let mut origs: Vec<Vec<WEdge>> = rows
            .iter()
            .map(|&rows| vec![WEdge::new(0, 0, 0); rows])
            .collect();
        for_each_level0_row(el, block, &ranks, |k, anchor, e| {
            let at = &mut cursor[(anchor - base) as usize];
            origs[k][*at as usize] = e;
            *at += 1;
        });
        block
            .iter()
            .zip(origs)
            .map(|(r, eorig)| {
                // One end of every row is inside the range and `u <= v`.
                let cut: Vec<u32> = (0..eorig.len())
                    .filter(|&i| eorig[i].u < r.start || eorig[i].v >= r.end)
                    .map(|i| i as u32)
                    .collect();
                CGraph {
                    ea: eorig.iter().map(|e| e.u).collect(),
                    eb: eorig.iter().map(|e| e.v).collect(),
                    eorig,
                    cut: OnceLock::from(cut),
                    ..CGraph::with_resident(r.iter().collect())
                }
            })
            .collect()
    }

    /// Builds a whole-graph holding (single-device execution): all vertices
    /// resident, all edges held.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        let mut cg = CGraph::with_resident((0..el.num_vertices()).collect());
        cg.reserve_rows(el.len());
        for e in el.edges() {
            cg.push_edge(CEdge::new(e.u, e.v, *e));
        }
        cg
    }

    /// Constructs from parts (used by segment transfer). `resident` must be
    /// sorted and deduplicated.
    pub fn from_parts(resident: Vec<CompId>, edges: Vec<CEdge>, frozen: Vec<CompId>) -> Self {
        let mut cg = CGraph::with_resident(resident);
        cg.frozen = frozen;
        cg.reserve_rows(edges.len());
        for e in edges {
            cg.push_edge(e);
        }
        cg
    }

    fn reserve_rows(&mut self, rows: usize) {
        self.ea.reserve(rows);
        self.eb.reserve(rows);
        self.eorig.reserve(rows);
    }

    /// Resident component ids (sorted).
    #[inline]
    pub fn resident(&self) -> &[CompId] {
        &self.resident
    }

    /// Number of resident components.
    #[inline]
    pub fn num_resident(&self) -> usize {
        self.resident.len()
    }

    /// Number of held edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.ea.len()
    }

    /// The `i`-th edge as a row view.
    #[inline]
    pub fn edge(&self, i: usize) -> CEdge {
        CEdge {
            a: self.ea[i],
            b: self.eb[i],
            orig: self.eorig[i],
        }
    }

    /// Iterates the edges as row views, in storage order.
    #[inline]
    pub fn iter_edges(&self) -> impl Iterator<Item = CEdge> + '_ {
        self.ea
            .iter()
            .zip(&self.eb)
            .zip(&self.eorig)
            .map(|((&a, &b), &orig)| CEdge { a, b, orig })
    }

    /// The edge endpoint columns `(a, b)` (canonical `a <= b` per row).
    #[inline]
    pub fn endpoint_cols(&self) -> (&[CompId], &[CompId]) {
        (&self.ea, &self.eb)
    }

    /// The original-edge column.
    #[inline]
    pub fn orig_col(&self) -> &[WEdge] {
        &self.eorig
    }

    /// Materializes the edges as an AoS vector (compatibility accessor for
    /// tests and message assembly; hot paths use the columns directly).
    pub fn edges_vec(&self) -> Vec<CEdge> {
        self.iter_edges().collect()
    }

    /// Appends one edge.
    #[inline]
    pub fn push_edge(&mut self, e: CEdge) {
        self.cut.take();
        self.renamed = None;
        self.ea.push(e.a);
        self.eb.push(e.b);
        self.eorig.push(e.orig);
    }

    /// Components frozen by the last independent computation.
    #[inline]
    pub fn frozen(&self) -> &[CompId] {
        &self.frozen
    }

    /// The freeze marks as a per-slot column: `marks[i]` iff
    /// `resident()[i]` is frozen.
    pub fn frozen_marks(&self) -> Vec<bool> {
        let mut marks = vec![false; self.resident.len()];
        for &f in &self.frozen {
            if let Some(slot) = self.slot_of(f) {
                marks[slot as usize] = true;
            }
        }
        marks
    }

    /// Replaces the frozen set (kernels call this after an invocation).
    pub fn set_frozen(&mut self, mut frozen: Vec<CompId>) {
        frozen.sort_unstable();
        frozen.dedup();
        self.frozen = frozen;
    }

    /// Clears freeze marks (done when residency changes — a component that
    /// froze on a cut edge may be able to expand once its neighbour becomes
    /// resident).
    pub fn clear_frozen(&mut self) {
        self.frozen.clear();
    }

    /// The resident slot of component `c` (`resident()[slot] == c`), `None`
    /// for a ghost. O(1) through the holding's resolver.
    #[inline]
    pub fn slot_of(&self, c: CompId) -> Option<u32> {
        self.lookup.get(&self.resident, c)
    }

    /// True if `c` is resident here.
    #[inline]
    pub fn is_resident(&self, c: CompId) -> bool {
        self.slot_of(c).is_some()
    }

    /// True if the holding has no resident components and no edges.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty() && self.ea.is_empty()
    }

    /// The rows with a non-resident end, as ascending row indexes — the
    /// only rows the ghost-parent protocol reads or renames. Cached beside
    /// the columns: free after the level-0 builder and the kernel's commit,
    /// one two-look-ups-per-row sweep after any other mutator.
    pub fn cut_rows(&self) -> &[u32] {
        self.cut.get_or_init(|| {
            let rows = u32::try_from(self.ea.len()).expect("row indexes are 32 bits");
            (0..rows).filter(|&i| self.is_cut_row(i as usize)).collect()
        })
    }

    #[inline]
    fn is_cut_row(&self, i: usize) -> bool {
        !self.is_resident(self.ea[i]) || !self.is_resident(self.eb[i])
    }

    /// The length of [`CGraph::cut_rows`] if the holding has the list at
    /// hand, without filling it (for instruments that must not add a sweep).
    pub fn known_cut_rows(&self) -> Option<usize> {
        self.cut.get().map(Vec::len)
    }

    /// The ids renamed into since the holding's last reduction, repeats
    /// allowed: every self row and every pair of parallel rows touches one
    /// of them, and the rows ascend in their original edge's `(w, u, v)`.
    /// `Some(&[])` right after a reduction; `None` when the holding is not
    /// known to be a reduced one plus renames, and the next reduction takes
    /// the full pass.
    pub fn renamed_since_reduce(&self) -> Option<&[CompId]> {
        self.renamed.as_deref()
    }

    /// Number of edges with a non-resident endpoint (the holding's "ghost
    /// degree" — drives communication volume).
    pub fn num_cut_edges(&self) -> usize {
        self.cut_rows().len()
    }

    /// Replaces the resident set (sorted + deduplicated by this call).
    pub fn set_resident(&mut self, mut resident: Vec<CompId>) {
        resident.sort_unstable();
        resident.dedup();
        self.resident = resident;
        self.lookup.rebuild(&self.resident);
        self.cut.take();
        self.debug_validate();
    }

    /// Applies a component renaming to **all** edge endpoints. `map` returns
    /// the new id of a component (identity for unknown ids). Resident ids
    /// and frozen marks are remapped too. The endpoint sweep is chunked
    /// across rayon workers when [`KernelPolicy::current`] says the holding
    /// is big enough.
    pub fn relabel(&mut self, map: impl Fn(CompId) -> CompId + Sync) {
        self.renamed = None;
        remap_rows(&mut self.ea, &mut self.eb, &KernelPolicy::current(), &map);
        let mut resident = std::mem::take(&mut self.resident);
        resident.iter_mut().for_each(|r| *r = map(*r));
        self.set_resident(resident);
        let mut frozen = std::mem::take(&mut self.frozen);
        frozen.iter_mut().for_each(|f| *f = map(*f));
        self.set_frozen(frozen);
    }

    /// Renames the **ghost** endpoints (ids not resident here) that `olds`
    /// names through `map` — the receiving half of the ghost-parent
    /// protocol — by a walk of the cut rows that tests both ends against
    /// `olds` and touches only the rows that hit. Resident ids, the resident
    /// column and the freeze marks are untouched by construction (a stale
    /// pair naming a resident id is ignored), so nothing is re-sorted and
    /// the resolver stays valid. `map` must send a ghost to a ghost, as the
    /// protocol's pairs do (a component is resident on one processor, and
    /// only that processor renames into it), so the cut rows stay the cut
    /// rows. The ids written are noted as renamed since the last reduction.
    pub fn relabel_ghosts(&mut self, olds: &IdSet, map: impl Fn(CompId) -> CompId) {
        self.cut_rows();
        let cut = self.cut.take().expect("filled above");
        let mut renamed = self.renamed.take();
        for &i in &cut {
            let i = i as usize;
            let (a, b) = (self.ea[i], self.eb[i]);
            if !olds.touches(a, b) {
                continue;
            }
            let rename = |c: CompId| {
                if !olds.contains(c) || self.is_resident(c) {
                    return c;
                }
                let new = map(c);
                debug_assert!(
                    !self.is_resident(new),
                    "ghost {c} renamed to resident {new}"
                );
                new
            };
            let (na, nb) = (rename(a), rename(b));
            if let Some(renamed) = &mut renamed {
                renamed.extend(
                    [(a, na), (b, nb)]
                        .iter()
                        .filter(|(o, n)| o != n)
                        .map(|p| p.1),
                );
            }
            // Keep the per-row canonical a <= b invariant.
            (self.ea[i], self.eb[i]) = (na.min(nb), na.max(nb));
        }
        self.cut = OnceLock::from(cut);
        self.renamed = renamed;
        self.debug_validate();
    }

    /// Commits a contraction. `root_of(slot)` is the root slot resident
    /// slot `slot` was contracted into, a root its own. `tracked` lists the
    /// rows the kernel's sweeps visited, ascending (`None`: every row), and
    /// `survivors` yields `(row, a, b)` for those still alive, ascending:
    /// `a`/`b` are the root slots the row's ends were contracted into
    /// ([`GHOST`] for a non-resident end, which keeps the id the row
    /// carries). A tracked row not yielded is dropped, as is a
    /// ghost-to-ghost self row; a row not tracked (*parked*) keeps its ends
    /// but those of a slot that merged away, which take their root's id —
    /// the caller guarantees that no parked row becomes a self row. Kept
    /// rows stay canonically ordered and are written at a cursor that never
    /// passes the row read, so the columns compact in place, and the
    /// cut-row list follows them (a resident end stays resident). The
    /// resident column keeps the root slots (a subsequence of a sorted
    /// column: no re-sort) and the resolver is rebuilt; freeze marks are
    /// the caller's to replace.
    pub(crate) fn commit_contraction(
        &mut self,
        tracked: Option<&[u32]>,
        survivors: impl Iterator<Item = (u32, u32, u32)>,
        root_of: impl Fn(u32) -> u32,
    ) {
        let root_of = &root_of;
        let CGraph {
            ea,
            eb,
            eorig,
            resident,
            lookup,
            cut,
            ..
        } = self;
        let resident: &[CompId] = resident;
        let n = ea.len();
        // The ids of the slots that merged away, for the parked rows.
        let merged = match tracked {
            Some(_) => IdSet::new(
                (0..resident.len() as u32)
                    .filter(|&slot| root_of(slot) != slot)
                    .map(|slot| resident[slot as usize]),
            ),
            None => IdSet::default(),
        };
        let is_resident = |c: CompId| lookup.get(resident, c).is_some();
        let id = |c: CompId| match merged.contains(c) {
            true => {
                let slot = lookup.get(resident, c).expect("merged ids are resident");
                resident[root_of(slot) as usize]
            }
            false => c,
        };
        let old_cut = cut.take();
        let known_cut = old_cut.is_some();
        let mut old_cut = old_cut.iter().flatten().copied().peekable();
        let mut tracked = tracked.map(|rows| rows.iter().copied().peekable());
        let mut new_cut = Vec::new();
        let (mut w, mut next) = (0usize, 0usize);
        // Each survivor, after the rows between it and the one before:
        // tracked rows a sweep dropped, and parked rows. `n` closes.
        for (row, sa, sb) in survivors.chain([(n as u32, GHOST, GHOST)]) {
            let row = row as usize;
            debug_assert!(next <= row, "survivors must ascend in row");
            if let Some(tracked) = &mut tracked {
                let mut r = next;
                while r < row {
                    if tracked.next_if_eq(&(r as u32)).is_some() {
                        r += 1;
                        continue;
                    }
                    // A run of parked rows, up to the next tracked one: it
                    // moves down as a block, and only its rows with a
                    // merged end are rewritten.
                    let end = tracked.peek().map_or(row, |&t| row.min(t as usize));
                    let to = w..w + (end - r);
                    if w < r {
                        ea.copy_within(r..end, w);
                        eb.copy_within(r..end, w);
                        eorig.copy_within(r..end, w);
                    }
                    for k in to.clone() {
                        let (a, b) = (ea[k], eb[k]);
                        if !merged.touches(a, b) {
                            continue;
                        }
                        let (na, nb) = (id(a), id(b));
                        debug_assert!(na != nb, "a parked row became a self row");
                        (ea[k], eb[k]) = (na.min(nb), na.max(nb));
                    }
                    match known_cut {
                        true => {
                            while let Some(c) = old_cut.next_if(|&c| (c as usize) < end) {
                                if c as usize >= r {
                                    new_cut.push((c as usize - r + w) as u32);
                                }
                            }
                        }
                        // A renamed end stays resident: test the new ids.
                        false => new_cut.extend(
                            to.clone()
                                .filter(|&k| !is_resident(ea[k]) || !is_resident(eb[k]))
                                .map(|k| k as u32),
                        ),
                    }
                    (w, r) = (to.end, end);
                }
                let is_tracked = tracked.next_if_eq(&(row as u32)).is_some();
                debug_assert!(row == n || is_tracked, "survivors must be tracked rows");
            }
            if row == n {
                break;
            }
            next = row + 1;
            debug_assert!([sa, sb].iter().all(|&s| s == GHOST || root_of(s) == s));
            let slot_id = |slot: u32, own: CompId| match slot {
                GHOST => own,
                slot => resident[slot as usize],
            };
            let (na, nb) = (slot_id(sa, ea[row]), slot_id(sb, eb[row]));
            if na == nb {
                continue;
            }
            if sa == GHOST || sb == GHOST {
                new_cut.push(w as u32);
            }
            put_row((ea, eb, eorig), w, row, na, nb);
            w += 1;
        }
        ea.truncate(w);
        eb.truncate(w);
        eorig.truncate(w);
        *cut = OnceLock::from(new_cut);
        self.keep_root_slots(root_of);
        self.debug_validate();
    }

    /// The resident column's half of a commit: notes the roots that
    /// absorbed a slot as renamed since the last reduction, keeps the root
    /// slots and rebuilds the resolver.
    fn keep_root_slots(&mut self, root_of: impl Fn(u32) -> u32) {
        if let Some(renamed) = &mut self.renamed {
            let resident = &self.resident;
            renamed.extend(
                (0..resident.len() as u32)
                    .filter(|&slot| root_of(slot) != slot)
                    .map(|slot| resident[root_of(slot) as usize]),
            );
        }
        let mut slot = 0u32;
        self.resident.retain(|_| {
            slot += 1;
            root_of(slot - 1) == slot - 1
        });
        self.lookup.rebuild(&self.resident);
    }

    /// Order-preserving write-cursor compaction: keeps row `i` iff
    /// `keep(i)`, called once per row in ascending order.
    fn compact_rows(&mut self, mut keep: impl FnMut(&Self, usize) -> bool) {
        let n = self.ea.len();
        let mut w = 0usize;
        for i in 0..n {
            if keep(self, i) {
                if w != i {
                    self.ea[w] = self.ea[i];
                    self.eb[w] = self.eb[i];
                    self.eorig[w] = self.eorig[i];
                }
                w += 1;
            }
        }
        self.ea.truncate(w);
        self.eb.truncate(w);
        self.eorig.truncate(w);
        self.cut.take();
    }

    /// Removes the rows `dropped` names (ascending): every run of kept rows
    /// moves down once, so only the rows past the first drop are touched. A
    /// known cut-row list follows the kept rows to their new places.
    fn drop_rows(&mut self, dropped: &[u32]) {
        let Some(&first) = dropped.first() else {
            return;
        };
        let n = self.ea.len();
        let mut w = first as usize;
        for (k, &row) in dropped.iter().enumerate() {
            let run = row as usize + 1..dropped.get(k + 1).map_or(n, |&next| next as usize);
            let len = run.len();
            self.ea.copy_within(run.clone(), w);
            self.eb.copy_within(run.clone(), w);
            self.eorig.copy_within(run, w);
            w += len;
        }
        self.ea.truncate(w);
        self.eb.truncate(w);
        self.eorig.truncate(w);
        if let Some(cut) = self.cut.get_mut() {
            let mut before = 0;
            cut.retain_mut(|row| {
                while dropped.get(before).is_some_and(|&d| d < *row) {
                    before += 1;
                }
                let gone = dropped.get(before) == Some(row);
                *row -= before as u32;
                !gone
            });
        }
    }

    /// In-place column compaction: keeps row `i` iff `keep(i)`, preserving
    /// order. Below the policy's crossover this is the allocation-free
    /// write-cursor sweep; above it the predicate is evaluated over row
    /// chunks on rayon workers into the reusable flag column first and the
    /// (memory-bound) compaction follows the flags, so any chunking yields
    /// the sequential result.
    fn retain_rows_with(
        &mut self,
        policy: &KernelPolicy,
        keep: impl Fn(&Self, usize) -> bool + Sync,
    ) {
        let n = self.ea.len();
        if !policy.use_par(n) {
            self.compact_rows(keep);
            return;
        }
        let mut flags = std::mem::take(&mut self.flags);
        flags.clear();
        flags.resize(n, false);
        let chunk = policy.chunk_rows.max(1);
        let this: &Self = self;
        let chunks: Vec<(usize, &mut [bool])> = flags.chunks_mut(chunk).enumerate().collect();
        chunks.into_par_iter().for_each(|(k, part)| {
            for (j, flag) in part.iter_mut().enumerate() {
                *flag = keep(this, k * chunk + j);
            }
        });
        self.compact_rows(|_, i| flags[i]);
        self.flags = flags;
    }

    /// Keeps exactly the rows whose flag is `true` (one flag per current
    /// row, storage order preserved) — for a keep decision computed outside
    /// this module (the filter-Boruvka sweep). A known cut-row list follows
    /// the kept rows to their new places.
    pub(crate) fn retain_edge_rows(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.num_edges(), "one flag per edge row");
        let cut = self.cut.take();
        self.compact_rows(|_, i| keep[i]);
        if let Some(mut cut) = cut {
            let (mut row, mut kept) = (0, 0u32);
            cut.retain_mut(|c| {
                while row < *c as usize {
                    kept += keep[row] as u32;
                    row += 1;
                }
                *c = kept;
                keep[row]
            });
            self.cut = OnceLock::from(cut);
        }
        self.debug_validate();
    }

    /// Lends the holding's reusable row-index table and flag column to a
    /// kernel of another module of this crate, and takes them back after.
    pub(crate) fn with_scratch<R>(
        &mut self,
        f: impl FnOnce(&mut Self, &mut Vec<u32>, &mut Vec<bool>) -> R,
    ) -> R {
        let mut table = std::mem::take(&mut self.table);
        let mut flags = std::mem::take(&mut self.flags);
        let out = f(self, &mut table, &mut flags);
        self.table = table;
        self.flags = flags;
        out
    }

    /// Removes self edges (endpoints in the same component) — the paper's
    /// `removeSelfEdges` (§3.3). In-place compaction.
    pub fn remove_self_edges(&mut self) {
        self.retain_rows_with(&KernelPolicy::current(), |cg, i| cg.ea[i] != cg.eb[i]);
        self.debug_validate();
    }

    /// The table of minimums: one linear pass that keeps, per `key`, the
    /// single row no other row of that key `beats` (`beats(cg, i, j)` is a
    /// strict order on rows of equal key; the earlier row survives a tie),
    /// then compacts the losers away in place, order preserved. The table
    /// holds row indexes only — keys are read back from the columns — and
    /// lives with the keep flags in the holding's reusable scratch.
    fn keep_minima(
        &mut self,
        key: impl Fn(&Self, usize) -> u64,
        beats: impl Fn(&Self, usize, usize) -> bool,
    ) {
        let n = self.ea.len();
        let mut table = std::mem::take(&mut self.table);
        let mut flags = std::mem::take(&mut self.flags);
        index_table::reset(&mut table, n);
        flags.clear();
        flags.resize(n, true);
        for i in 0..n {
            let k = key(self, i);
            let pos = index_table::probe(&table, k, |j| key(self, j as usize) == k);
            let held = table[pos];
            if held == index_table::EMPTY {
                table[pos] = i as u32;
            } else if beats(self, i, held as usize) {
                table[pos] = i as u32;
                flags[held as usize] = false;
            } else {
                flags[i] = false;
            }
        }
        self.compact_rows(|_, i| flags[i]);
        self.table = table;
        self.flags = flags;
    }

    /// Keeps only the lightest edge between every component pair — the
    /// paper's `removeMultiEdges` (§3.3), as the paper's table of
    /// minimums keyed on `(a, b)`: the survivor of a pair is its row
    /// minimal under `(orig key, row)`. Rows end in canonical order. The
    /// table pass is one sequential sweep; the policy governs the
    /// canonical-order restore ([`CGraph::sort_edges`]).
    pub fn remove_multi_edges(&mut self) {
        debug_assert!(
            self.ea.iter().zip(&self.eb).all(|(a, b)| a != b),
            "run remove_self_edges first"
        );
        self.keep_minima(
            |cg, i| pair_key(cg.ea[i], cg.eb[i]),
            |cg, i, j| cg.eorig[i].key() < cg.eorig[j].key(),
        );
        self.sort_edges();
        self.renamed = Some(Vec::new());
        self.debug_validate();
    }

    /// Self-edge then multi-edge removal, returning how many rows each
    /// removed. A holding that knows the ids renamed since its last
    /// reduction ([`CGraph::renamed_since_reduce`]) runs the table of
    /// minimums over the rows touching one of them and touches no other:
    /// every self row and every parallel pair is among those, and rows
    /// ascend in `(w, u, v)`, so the first of a pair met is its lightest.
    /// No renamed id, no pass. Any other holding takes the full pass.
    pub(crate) fn reduce_rows(&mut self) -> (u64, u64) {
        let Some(renamed) = self.renamed.take() else {
            let before = self.num_edges() as u64;
            self.remove_self_edges();
            let after_self = self.num_edges() as u64;
            self.remove_multi_edges();
            return (before - after_self, after_self - self.num_edges() as u64);
        };
        let renamed = IdSet::new(renamed.iter().copied());
        let (ea, eb) = (&self.ea, &self.eb);
        let hits: Vec<u32> = match renamed.is_empty() {
            true => Vec::new(),
            false => (0..ea.len() as u32)
                .filter(|&i| renamed.touches(ea[i as usize], eb[i as usize]))
                .collect(),
        };
        let mut table = std::mem::take(&mut self.table);
        index_table::reset(&mut table, hits.len());
        let (mut dropped, mut self_removed) = (Vec::new(), 0u64);
        for &i in &hits {
            let (a, b) = (ea[i as usize], eb[i as usize]);
            if a == b {
                self_removed += 1;
                dropped.push(i);
                continue;
            }
            let key = pair_key(a, b);
            let pos = index_table::probe(&table, key, |j| {
                pair_key(ea[j as usize], eb[j as usize]) == key
            });
            if table[pos] == index_table::EMPTY {
                table[pos] = i;
            } else {
                dropped.push(i);
            }
        }
        self.table = table;
        self.drop_rows(&dropped);
        self.renamed = Some(Vec::new());
        self.debug_validate();
        (self_removed, dropped.len() as u64 - self_removed)
    }

    /// Canonical deterministic edge order: by original-edge key
    /// `(w, u, v)`, rows standing for the same original edge by their
    /// component endpoints — a total order on row content, so the result
    /// does not depend on the order the rows arrived in. One comparison
    /// sweep, and only a holding it finds out of order is sorted (on rayon
    /// workers above the crossover of [`KernelPolicy::current`]) and
    /// written back.
    pub fn sort_edges(&mut self) {
        let n = self.ea.len();
        if (1..n).all(|i| self.record(i - 1) <= self.record(i)) {
            return;
        }
        self.cut.take();
        let mut records: Vec<Record> = (0..n).map(|i| self.record(i)).collect();
        if KernelPolicy::current().use_par(n) {
            records.par_sort_unstable_by_key(|&r| r);
        } else {
            records.sort_unstable();
        }
        for (i, (w, u, v, a, b)) in records.into_iter().enumerate() {
            self.ea[i] = a;
            self.eb[i] = b;
            self.eorig[i] = WEdge { u, v, w };
        }
    }

    #[inline]
    fn record(&self, i: usize) -> Record {
        let o = self.eorig[i];
        (o.w, o.u, o.v, self.ea[i], self.eb[i])
    }

    /// Per-resident-component incident-edge counts (slot `i` counts edges
    /// touching `resident()[i]`; a self edge counts twice, matching a
    /// per-endpoint tally). The column lives in reusable scratch so the
    /// repeated callers — device splitting, skew estimation, segment
    /// choice — stop rebuilding a hash map per call, and every path
    /// resolves slots through the holding's resolver. Above the threshold
    /// of [`KernelPolicy::current`] the tally is lock-free `fetch_add`s from
    /// row chunks straight into the scratch column (viewed atomically).
    /// Additions commute, so both paths are byte-identical.
    pub fn incident_counts(&mut self) -> &[u64] {
        let policy = KernelPolicy::current();
        let n = self.resident.len();
        let rows = self.ea.len();
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        counts.resize(n, 0);
        if policy.use_par(rows) {
            let slots = as_atomic_u64(&mut counts);
            policy
                .chunk_ranges(rows)
                .into_par_iter()
                .for_each(|(lo, hi)| {
                    for i in lo..hi {
                        for c in [self.ea[i], self.eb[i]] {
                            if let Some(slot) = self.slot_of(c) {
                                slots[slot as usize]
                                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                        }
                    }
                });
        } else {
            for i in 0..rows {
                for c in [self.ea[i], self.eb[i]] {
                    if let Some(slot) = self.slot_of(c) {
                        counts[slot as usize] += 1;
                    }
                }
            }
        }
        self.counts = counts;
        &self.counts
    }

    /// Absorbs other holdings in one merge: unions the resident sets and
    /// freeze marks, and merges the rows of all holdings — canonical runs,
    /// `self` first, then the parts in the order given — into fresh
    /// columns, one sequential read of every run and one write stream. The
    /// merge is stable and drops a row whose original edge is the one just
    /// written, so of an original edge's copies the one minimal under
    /// `(a, b, arrival)` survives and the result is canonical again. A run
    /// the sortedness sweep finds out of order (a level-0 holding before
    /// its first reduction) is sorted first. Equal to absorbing the parts
    /// one after another, in any order — the survivor of an original edge's
    /// copies and the row order are functions of the rows' content alone.
    ///
    /// # Panics
    ///
    /// If the merged holding would reach `u32::MAX` rows.
    pub fn absorb_all(&mut self, parts: impl IntoIterator<Item = CGraph>) {
        let mut runs: Vec<CGraph> = parts.into_iter().filter(|p| !p.is_empty()).collect();
        if runs.is_empty() {
            return;
        }
        let mut resident = std::mem::take(&mut self.resident);
        let mut frozen = std::mem::take(&mut self.frozen);
        for part in &mut runs {
            resident.append(&mut part.resident);
            frozen.append(&mut part.frozen);
        }
        self.set_resident(resident);
        self.set_frozen(frozen);
        let mine = CGraph {
            ea: std::mem::take(&mut self.ea),
            eb: std::mem::take(&mut self.eb),
            eorig: std::mem::take(&mut self.eorig),
            ..CGraph::default()
        };
        runs.insert(0, mine);
        for run in &mut runs {
            run.sort_edges();
        }

        let total = runs.iter().map(|run| run.ea.len()).sum();
        self.reserve_rows(total);
        // (head row, run, the run's next row) of every unfinished run, in
        // run order: the first of the least heads is the stable choice.
        let mut heads: Vec<(Record, usize, usize)> = runs
            .iter()
            .enumerate()
            .filter(|(_, run)| !run.ea.is_empty())
            .map(|(k, run)| (run.record(0), k, 1))
            .collect();
        let mut written = None;
        while !heads.is_empty() {
            let mut least = 0;
            for h in 1..heads.len() {
                if heads[h].0 < heads[least].0 {
                    least = h;
                }
            }
            let ((w, u, v, a, b), k, next) = heads[least];
            let orig = WEdge { u, v, w };
            if written != Some(orig) {
                self.ea.push(a);
                self.eb.push(b);
                self.eorig.push(orig);
                written = Some(orig);
            }
            if next < runs[k].ea.len() {
                heads[least] = (runs[k].record(next), k, next + 1);
            } else {
                heads.remove(least);
            }
        }
        let rows = self.ea.len();
        assert!(
            rows < u32::MAX as usize,
            "a holding of {rows} rows exceeds the merge's limit of u32::MAX - 1 rows \
             (row indexes are 32 bits)"
        );
        // Rows of different holdings may run parallel: the next reduction
        // needs the full pass.
        self.renamed = None;
        self.debug_validate();
    }

    /// [`CGraph::absorb_all`] of one holding.
    pub fn absorb(&mut self, other: CGraph) {
        self.absorb_all([other]);
    }

    /// Splits off the components in `take` (must be a subset of resident)
    /// into a new holding. Edges fully inside `take` move; boundary edges
    /// (one endpoint in `take`, one resident endpoint remaining) are
    /// **copied** to the new holding and retained here; edges with a
    /// non-resident endpoint in `take`'s perspective follow the same rule.
    ///
    /// # Panics
    ///
    /// If `take` names a component that is not resident.
    pub fn split_off(&mut self, take: &[CompId]) -> CGraph {
        // Per-slot membership marks: an endpoint resolves to its slot once
        // and the slot answers both "resident?" and "moving?".
        let mut taken = std::mem::take(&mut self.flags);
        taken.clear();
        taken.resize(self.resident.len(), false);
        for &c in take {
            let slot = self.slot_of(c).unwrap_or_else(|| {
                panic!(
                    "cannot split off component {c}: it is not among the holding's {} residents",
                    self.resident.len()
                )
            });
            taken[slot as usize] = true;
        }
        let moving = |slot: Option<u32>| slot.is_some_and(|s| taken[s as usize]);

        let mut moved = CGraph::new();
        // Single sweep: rows moving to the segment are pushed to `moved`,
        // rows staying are compacted in place with a write cursor.
        self.compact_rows(|cg, i| {
            let (sa, sb) = (cg.slot_of(cg.ea[i]), cg.slot_of(cg.eb[i]));
            let (goes, stays) = match (moving(sa), moving(sb)) {
                (true, true) => (true, false),
                (false, false) => (false, true),
                // Boundary edge: the mover always needs it; the holder
                // keeps a copy only if its side of the edge remains
                // resident (otherwise the edge is pure ghost-to-ghost
                // here and would only waste memory).
                (a_moves, _) => (true, if a_moves { sb } else { sa }.is_some()),
            };
            if goes {
                moved.push_edge(cg.edge(i));
            }
            stays
        });

        for f in std::mem::take(&mut self.frozen) {
            if moving(self.slot_of(f)) {
                moved.frozen.push(f);
            } else {
                self.frozen.push(f);
            }
        }
        // Both sides keep their slots' relative order: still sorted.
        let mut slot = 0usize;
        self.resident.retain(|&c| {
            let goes = taken[slot];
            slot += 1;
            if goes {
                moved.resident.push(c);
            }
            !goes
        });
        self.lookup.rebuild(&self.resident);
        moved.lookup.rebuild(&moved.resident);
        self.cut.take();
        self.flags = taken;
        // Both sides keep a subsequence of the rows, in order.
        moved.renamed.clone_from(&self.renamed);
        self.debug_validate();
        moved.debug_validate();
        moved
    }

    /// Approximate in-memory footprint in bytes — the quantity the
    /// hierarchical merge compares against a node's memory capacity.
    /// (SoA columns total the same 20 bytes/edge as the packed row view.)
    pub fn approx_bytes(&self) -> usize {
        self.resident.len() * 4 + self.ea.len() * std::mem::size_of::<CEdge>()
    }

    /// Sanity check: the structure — resident sorted/deduped, per-row
    /// canonical endpoints, no edge duplicated by original identity, frozen
    /// components resident — and every piece of derived state, recomputed
    /// from the columns ([`CGraph::validate_derived`]).
    pub fn validate(&self) -> Result<(), String> {
        if !self.resident.windows(2).all(|w| w[0] < w[1]) {
            return Err("resident not sorted+dedup".into());
        }
        if self.ea.len() != self.eb.len() || self.ea.len() != self.eorig.len() {
            return Err("SoA columns out of sync".into());
        }
        let mut seen = std::collections::HashSet::with_capacity(self.ea.len());
        for i in 0..self.ea.len() {
            if self.ea[i] > self.eb[i] {
                return Err(format!("row {i} violates a <= b"));
            }
            let orig = &self.eorig[i];
            if !seen.insert(orig.key()) {
                return Err(format!("duplicate original edge {orig:?}"));
            }
        }
        for f in &self.frozen {
            if !self.is_resident(*f) {
                return Err(format!("frozen non-resident component {f}"));
            }
        }
        self.validate_derived()
    }

    /// Recomputes the derived state from the columns and compares: the
    /// resolver against a binary search of the resident column, a cached
    /// cut-row list against a fresh sweep, and — when the holding knows the
    /// ids renamed since its last reduction — the `(w, u, v)` order of the
    /// rows and the absence of self and parallel rows among the rows that
    /// touch none of those ids. Holds for any holding the mutators built,
    /// duplicated original edges included; debug builds check it after
    /// every mutator.
    pub fn validate_derived(&self) -> Result<(), String> {
        let resident = &self.resident;
        for &c in resident {
            for probe in [c, c.wrapping_add(1)] {
                let want = resident.binary_search(&probe).ok().map(|i| i as u32);
                if self.slot_of(probe) != want {
                    return Err(format!(
                        "the resolver answers {:?} for component {probe}, the resident column {want:?}",
                        self.slot_of(probe)
                    ));
                }
            }
        }
        let (ea, eb) = (&self.ea, &self.eb);
        if let Some(cut) = self.cut.get() {
            let ghost = |c: CompId| resident.binary_search(&c).is_err();
            let fresh = (0..ea.len()).filter(|&i| ghost(ea[i]) || ghost(eb[i]));
            if !cut.iter().map(|&i| i as usize).eq(fresh) {
                return Err("the cached cut-row list is stale".into());
            }
        }
        if let Some(renamed) = &self.renamed {
            if let Some(i) = (1..ea.len()).find(|&i| self.eorig[i - 1].key() > self.eorig[i].key())
            {
                return Err(format!("rows {} and {i} are out of (w, u, v) order", i - 1));
            }
            let renamed = IdSet::new(renamed.iter().copied());
            let mut pairs: Vec<(CompId, CompId)> = (0..ea.len())
                .filter(|&i| !renamed.touches(ea[i], eb[i]))
                .map(|i| (ea[i], eb[i]))
                .collect();
            if let Some((c, _)) = pairs.iter().find(|(a, b)| a == b) {
                return Err(format!("a self row on {c} touches no renamed id"));
            }
            pairs.sort_unstable();
            if let Some(w) = pairs.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!(
                    "parallel rows between {} and {} touch no renamed id",
                    w[0].0, w[0].1
                ));
            }
        }
        Ok(())
    }

    /// [`CGraph::validate_derived`] in debug builds, after a mutator.
    #[inline]
    fn debug_validate(&self) {
        if cfg!(debug_assertions) {
            if let Err(e) = self.validate_derived() {
                panic!("a mutator left the holding's derived state stale: {e}");
            }
        }
    }
}

/// The sort-compact-restore reductions the table of minimums replaced,
/// kept as the reference the proptests compare it against: co-sort the rows
/// by `(key, order)` through an index permutation, keep the first row of
/// every key run, restore canonical order with a second permutation sort.
/// Beside them the append-and-dedup recombination the run merge of
/// [`CGraph::absorb_all`] replaced.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use mnd_graph::CsrGraph;

    /// Sentinel marking an already-placed slot during in-place permutation.
    const PLACED: u32 = u32::MAX;

    /// The level-0 holding [`CGraph::level0`] replaced: the rows of `range`
    /// read in adjacency order out of a mirrored CSR of the whole graph
    /// (which wants its self loops dropped first).
    pub(crate) fn level0_via_csr(el: &EdgeList, range: VertexRange) -> CGraph {
        let edges: Vec<WEdge> = el
            .edges()
            .iter()
            .filter(|e| !e.is_self_loop())
            .copied()
            .collect();
        let g = CsrGraph::from_edges(el.num_vertices(), &edges);
        let mut cg = CGraph::with_resident(range.iter().collect());
        for e in g.edges_touching_range(range.start, range.end) {
            cg.push_edge(CEdge::new(e.u, e.v, e));
        }
        cg
    }

    impl CGraph {
        /// What [`CGraph::cut_rows`] caches, by a sweep of every row that
        /// searches the resident column instead of asking the resolver.
        pub(crate) fn fresh_cut_rows(&self) -> Vec<u32> {
            let ghost = |c: CompId| self.resident.binary_search(&c).is_err();
            (0..self.ea.len())
                .filter(|&i| ghost(self.ea[i]) || ghost(self.eb[i]))
                .map(|i| i as u32)
                .collect()
        }

        /// The every-row sweep [`CGraph::relabel_ghosts`] replaced.
        pub(crate) fn reference_relabel_ghosts(&mut self, map: impl Fn(CompId) -> CompId + Sync) {
            let (lookup, resident) = (&self.lookup, &self.resident);
            remap_rows(&mut self.ea, &mut self.eb, &KernelPolicy::seq(), |c| {
                if lookup.get(resident, c).is_some() {
                    c
                } else {
                    map(c)
                }
            });
            self.cut.take();
        }

        /// Applies permutation `perm` (result row `i` = current row
        /// `perm[i]`) to all three columns in place by cycle-walking.
        fn apply_perm(&mut self, perm: &mut [u32]) {
            for start in 0..perm.len() {
                if perm[start] == PLACED || perm[start] as usize == start {
                    continue;
                }
                let held = self.edge(start);
                let mut dst = start;
                loop {
                    let src = perm[dst] as usize;
                    perm[dst] = PLACED;
                    let row = if src == start { held } else { self.edge(src) };
                    self.ea[dst] = row.a;
                    self.eb[dst] = row.b;
                    self.eorig[dst] = row.orig;
                    if src == start {
                        break;
                    }
                    dst = src;
                }
            }
        }

        /// Sorts the rows by `(key, row index)` — injective, so the
        /// permutation is unique — via an index permutation.
        pub(super) fn sort_rows_by_key<K: Ord>(&mut self, key: impl Fn(&Self, usize) -> K) {
            let mut perm: Vec<u32> = (0..self.ea.len() as u32).collect();
            perm.sort_unstable_by_key(|&i| (key(self, i as usize), i));
            self.apply_perm(&mut perm);
        }

        pub(super) fn reference_remove_multi_edges(&mut self) {
            self.sort_rows_by_key(|cg, i| (cg.ea[i], cg.eb[i], cg.eorig[i].key()));
            self.compact_rows(|cg, i| {
                i == 0 || cg.ea[i] != cg.ea[i - 1] || cg.eb[i] != cg.eb[i - 1]
            });
            self.sort_rows_by_key(|cg, i| cg.eorig[i].key());
        }

        /// Removes duplicate holdings of the *same original edge*: the
        /// table of minimums keyed on `(orig.u, orig.v)` — one weight per
        /// pair, as in a canonical edge list — keeps of an original edge's
        /// copies the row minimal under `(a, b, row)`. Rows end in
        /// canonical order.
        pub(crate) fn dedup_edges(&mut self) {
            self.keep_minima(
                |cg, i| pair_key(cg.eorig[i].u, cg.eorig[i].v),
                |cg, i, j| (cg.ea[i], cg.eb[i]) < (cg.ea[j], cg.eb[j]),
            );
            self.sort_edges();
        }

        pub(super) fn reference_dedup_edges(&mut self) {
            self.sort_rows_by_key(|cg, i| (cg.eorig[i].u, cg.eorig[i].v, cg.ea[i], cg.eb[i]));
            self.compact_rows(|cg, i| {
                i == 0 || cg.eorig[i].u != cg.eorig[i - 1].u || cg.eorig[i].v != cg.eorig[i - 1].v
            });
            self.sort_rows_by_key(|cg, i| cg.eorig[i].key());
        }

        /// The rename-every-row commit [`CGraph::commit_contraction`]
        /// replaced: the component in slot `i` merges into the one in slot
        /// `root_of(i)` (idempotent) and takes its id; resident endpoints
        /// are renamed, ghosts left alone, the resident column keeps the
        /// root slots. Self edges stay for `remove_self_edges`.
        pub(crate) fn contract_slots(&mut self, root_of: impl Fn(u32) -> u32 + Sync) {
            let (lookup, resident) = (&self.lookup, &self.resident);
            let new_id = |c: CompId| match lookup.get(resident, c) {
                Some(slot) => resident[root_of(slot) as usize],
                None => c,
            };
            remap_rows(&mut self.ea, &mut self.eb, &KernelPolicy::seq(), new_id);
            self.cut.take();
            // The reference keeps no account of the ids it renamed.
            self.renamed = None;
            self.frozen.iter_mut().for_each(|f| *f = new_id(*f));
            self.frozen.sort_unstable();
            self.frozen.dedup();
            let mut slot = 0u32;
            self.resident.retain(|_| {
                slot += 1;
                root_of(slot - 1) == slot - 1
            });
            self.lookup.rebuild(&self.resident);
        }

        pub(super) fn reference_absorb(&mut self, other: CGraph) {
            let mut resident = other.resident;
            resident.extend_from_slice(&self.resident);
            self.set_resident(resident);
            self.ea.extend(other.ea);
            self.eb.extend(other.eb);
            self.eorig.extend(other.eorig);
            self.reference_dedup_edges();
            let mut frozen = other.frozen;
            frozen.extend_from_slice(&self.frozen);
            self.set_frozen(frozen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ExcpCond, FreezePolicy, StopPolicy};
    use mnd_graph::gen;
    use proptest::prelude::*;

    /// The level-0 holding of one vertex range.
    fn holding(el: &EdgeList, range: VertexRange) -> CGraph {
        CGraph::level0(el, &[range], 0..1).remove(0)
    }

    #[test]
    fn from_partition_includes_cut_edges() {
        let cg = holding(&gen::path(4, 1), VertexRange { start: 1, end: 3 });
        assert_eq!(cg.resident(), &[1, 2]);
        assert_eq!(cg.num_edges(), 3); // 0-1 (cut), 1-2 (internal), 2-3 (cut)
        assert_eq!(cg.cut_rows(), &[0, 2]);
        assert_eq!(cg.num_cut_edges(), 2);
        cg.validate().unwrap();
    }

    #[test]
    fn whole_graph_has_no_cut_edges() {
        let el = gen::gnm(50, 100, 3);
        let cg = CGraph::from_edge_list(&el);
        assert_eq!(cg.num_cut_edges(), 0);
        assert_eq!(cg.num_resident(), 50);
    }

    #[test]
    fn relabel_merges_resident_ids() {
        let mut cg = holding(&gen::path(4, 1), VertexRange { start: 0, end: 4 });
        cg.relabel(|c| if c == 1 { 0 } else { c });
        assert_eq!(cg.resident(), &[0, 2, 3]);
        // Edge 0-1 became a self edge.
        assert_eq!(cg.iter_edges().filter(|e| e.is_self()).count(), 1);
        cg.remove_self_edges();
        assert_eq!(cg.num_edges(), 2);
    }

    #[test]
    fn multi_edge_removal_keeps_lightest() {
        let e1 = WEdge::new(0, 2, 5);
        let e2 = WEdge::new(1, 3, 2);
        let mut cg = CGraph::from_parts(
            vec![0, 1],
            vec![CEdge::new(0, 1, e1), CEdge::new(0, 1, e2)],
            vec![],
        );
        cg.remove_multi_edges();
        assert_eq!(cg.num_edges(), 1);
        assert_eq!(cg.edge(0).orig, e2);
    }

    #[test]
    fn record_sort_matches_aos_sort_and_skips_sorted_rows() {
        // Sorting the SoA columns through contiguous records must order
        // rows exactly as sorting the materialized CEdge vector would.
        let el = gen::gnm(60, 300, 17);
        let mut cg = CGraph::from_edge_list(&el);
        let mut rows = cg.edges_vec();
        rows.reverse();
        let mut cg_rev = CGraph::from_parts(cg.resident().to_vec(), rows.clone(), vec![]);
        cg.sort_edges();
        cg_rev.sort_edges();
        rows.sort_unstable_by_key(|e| (e.key(), e.a, e.b));
        assert_eq!(cg.edges_vec(), rows);
        assert_eq!(cg_rev.edges_vec(), rows);
        // The order is total on row content: the reference's stable
        // permutation sort agrees wherever original edges are unique.
        let mut by_perm = CGraph::from_edge_list(&el);
        by_perm.sort_rows_by_key(|cg, i| cg.eorig[i].key());
        assert_eq!(by_perm, cg);
    }

    #[test]
    fn split_off_copies_boundary_edges() {
        // Components 0,1,2 resident; edges 0-1, 1-2, 2-9 (9 non-resident).
        let mut cg = CGraph::from_parts(
            vec![0, 1, 2],
            vec![
                CEdge::new(0, 1, WEdge::new(0, 1, 1)),
                CEdge::new(1, 2, WEdge::new(1, 2, 2)),
                CEdge::new(2, 9, WEdge::new(2, 9, 3)),
            ],
            vec![],
        );
        let seg = cg.split_off(&[2]);
        assert_eq!(seg.resident(), &[2]);
        // Segment takes 1-2 (boundary, copied) and 2-9 (its only resident
        // endpoint is moving, so it moves as a "boundary" copy as well).
        assert_eq!(seg.num_edges(), 2);
        assert_eq!(cg.resident(), &[0, 1]);
        // Holder keeps 0-1 and the boundary copy of 1-2, but drops 2-9
        // (after the split neither endpoint 2 nor 9 is resident here).
        assert_eq!(cg.num_edges(), 2);
        assert!(cg.iter_edges().any(|e| e.orig == WEdge::new(1, 2, 2)));
        assert!(!cg.iter_edges().any(|e| e.orig == WEdge::new(2, 9, 3)));
    }

    #[test]
    #[should_panic(
        expected = "cannot split off component 7: it is not among the holding's 3 residents"
    )]
    fn split_off_names_the_component_that_is_not_resident() {
        CGraph::from_parts(vec![0, 1, 2], vec![], vec![]).split_off(&[1, 7]);
    }

    #[test]
    fn absorb_dedups_boundary_copies() {
        let shared = CEdge::new(1, 2, WEdge::new(1, 2, 2));
        let mut a = CGraph::from_parts(vec![1], vec![shared], vec![]);
        let b = CGraph::from_parts(vec![2], vec![shared], vec![]);
        a.absorb(b);
        assert_eq!(a.resident(), &[1, 2]);
        assert_eq!(a.num_edges(), 1);
        a.validate().unwrap();
    }

    /// Original-edge identity is the whole `(w, u, v)`: a list that was
    /// never canonicalised may carry one pair at two weights, and those are
    /// two originals. Both survive a recombination (each once, whichever
    /// holdings carried copies); the lighter one then wins the pair.
    #[test]
    fn a_pair_at_two_weights_is_two_originals() {
        let (light, heavy) = (WEdge::new(1, 2, 2), WEdge::new(1, 2, 9));
        let rows = |a, b| vec![CEdge::new(a, b, light), CEdge::new(a, b, heavy)];
        let mut cg = CGraph::from_parts(vec![1], rows(1, 2), vec![]);
        cg.absorb_all([
            CGraph::from_parts(vec![2], rows(1, 2), vec![]),
            CGraph::from_parts(vec![3], vec![CEdge::new(1, 2, heavy)], vec![]),
        ]);
        assert_eq!(cg.edges_vec(), rows(1, 2));
        cg.validate().unwrap();
        cg.remove_multi_edges();
        assert_eq!(cg.edges_vec(), vec![CEdge::new(1, 2, light)]);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let empty = CGraph::new();
        let el = gen::gnm(100, 400, 1);
        let cg = CGraph::from_edge_list(&el);
        assert!(cg.approx_bytes() > empty.approx_bytes());
    }

    #[test]
    fn validate_catches_duplicates() {
        let e = CEdge::new(0, 1, WEdge::new(0, 1, 1));
        let cg = CGraph::from_parts(vec![0, 1], vec![e, e], vec![]);
        assert!(cg.validate().is_err());
    }

    #[test]
    fn cedge_wire_bytes_is_packed_row_size() {
        let e = CEdge::new(0, 1, WEdge::new(0, 1, 1));
        assert_eq!(e.wire_bytes(), std::mem::size_of::<CEdge>() as u64);
    }
    /// A component-id stride that spreads a dozen residents past the
    /// resolver's dense budget: its binary-search fallback answers.
    const SPARSE: u32 = 100_000;

    /// A holding over few components and few original endpoints: repeated
    /// `(a, b)` pairs, equal-weight ties, duplicated original edges, rows in
    /// arrival (non-canonical) order. `spread` stretches the id space so
    /// sparse resident sets take the resolver's binary-search fallback.
    fn messy_holding(raw: &[(u32, u32, u32, u32, u32)], comps: u32, spread: u32) -> CGraph {
        let edges = raw
            .iter()
            .map(|&(a, b, u, v, w)| {
                CEdge::new(
                    (a % comps) * spread,
                    (b % comps) * spread,
                    WEdge::new(u, v, w),
                )
            })
            .collect();
        CGraph::from_parts((0..comps).map(|c| c * spread).collect(), edges, vec![])
    }

    /// `raw` with every row's weight derived from its original endpoints:
    /// rows that share `(u, v)` are then *copies* of one original edge, as
    /// the rows two holdings of a canonical edge list share are (a pair at
    /// two weights is two originals — see
    /// `a_pair_at_two_weights_is_two_originals`).
    fn true_copies(raw: &[(u32, u32, u32, u32, u32)]) -> Vec<(u32, u32, u32, u32, u32)> {
        raw.iter()
            .map(|&(a, b, u, v, _)| (a, b, u, v, (u.min(v) * 7 + u.max(v) * 13) % 4 + 1))
            .collect()
    }

    fn arb_rows(max_rows: usize) -> impl Strategy<Value = Vec<(u32, u32, u32, u32, u32)>> {
        proptest::collection::vec(
            (0u32..64, 0u32..64, 0u32..12, 0u32..12, 1u32..4),
            0..max_rows,
        )
    }

    fn assert_resolver_matches_binary_search(cg: &CGraph) {
        let probes = cg
            .resident
            .iter()
            .flat_map(|&c| [c, c.wrapping_add(1), c.wrapping_sub(1)])
            .chain([0, 1, 4999, 5000, u32::MAX]);
        for c in probes {
            assert_eq!(
                cg.slot_of(c),
                cg.resident.binary_search(&c).ok().map(|i| i as u32),
                "component {c} in {:?}",
                cg.resident
            );
            assert_eq!(cg.is_resident(c), cg.resident.binary_search(&c).is_ok());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn table_of_minima_equals_sort_reference_for_multi_edges(
            raw in arb_rows(300),
            comps in 2u32..10,
        ) {
            let mut cg = messy_holding(&raw, comps, 1);
            cg.remove_self_edges();
            let mut expect = cg.clone();
            expect.reference_remove_multi_edges();
            cg.remove_multi_edges();
            prop_assert_eq!(cg.edges_vec(), expect.edges_vec());
            // Reusing the scratch on the reduced holding changes nothing.
            cg.remove_multi_edges();
            prop_assert_eq!(cg.edges_vec(), expect.edges_vec());
        }

        #[test]
        fn table_of_minima_equals_sort_reference_for_dedup(
            raw in arb_rows(300),
            comps in 1u32..10,
        ) {
            let mut cg = messy_holding(&true_copies(&raw), comps, 1);
            let mut expect = cg.clone();
            expect.reference_dedup_edges();
            cg.dedup_edges();
            prop_assert_eq!(cg.edges_vec(), expect.edges_vec());
        }

        #[test]
        fn absorb_equals_sort_reference(
            mine in arb_rows(200),
            theirs in arb_rows(200),
            comps in 2u32..10,
            spread_pick in 0u8..2,
        ) {
            let spread = if spread_pick == 0 { 1 } else { SPARSE };
            let mut cg = messy_holding(&true_copies(&mine), comps, spread);
            // The other holding overlaps in original edges (boundary
            // copies) but owns a shifted component range.
            let mut other = messy_holding(&true_copies(&theirs), comps, spread);
            other.relabel(|c| c + 3 * spread);
            other.set_frozen(other.resident.iter().copied().take(2).collect());
            let mut expect = cg.clone();
            expect.reference_absorb(other.clone());
            cg.absorb(other);
            prop_assert_eq!(&cg, &expect);
            assert_resolver_matches_binary_search(&cg);
        }

        #[test]
        fn absorb_all_equals_folded_absorbs_in_any_order(
            raws in proptest::collection::vec(arb_rows(120), 4..5),
            comps in 2u32..8,
            spread_pick in 0u8..2,
            empty_mask in 0u8..8,
        ) {
            // Part `k` owns components `k·comps ..`; its rows end anywhere
            // (ghosts included) and stand for originals every part draws
            // from one small pool, so parts share boundary copies — true
            // copies: an original's weight is a function of its endpoints.
            let spread = if spread_pick == 0 { 1 } else { SPARSE };
            let part = |k: u32, raw: &[(u32, u32, u32, u32, u32)]| {
                let edges = raw
                    .iter()
                    .map(|&(a, b, u, v, _)| {
                        let orig = WEdge::new(u, v, (u.min(v) * 7 + u.max(v) * 13) % 4 + 1);
                        CEdge::new(a % (4 * comps) * spread, b % (4 * comps) * spread, orig)
                    })
                    .collect();
                let resident: Vec<CompId> = (k * comps..(k + 1) * comps).map(|c| c * spread).collect();
                let frozen = resident.iter().copied().skip(k as usize).step_by(3).collect();
                let mut cg = CGraph::from_parts(resident, edges, frozen);
                cg.dedup_edges();
                cg
            };
            let mine = part(0, &raws[0]);
            let parts: Vec<CGraph> = (1..4u32)
                .map(|k| if empty_mask >> (k - 1) & 1 == 1 { CGraph::new() } else { part(k, &raws[k as usize]) })
                .collect();

            let mut at_once = mine.clone();
            at_once.absorb_all(parts.clone());
            assert_resolver_matches_binary_search(&at_once);
            for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
                let (mut folded, mut reference) = (mine.clone(), mine.clone());
                for k in order {
                    folded.absorb(parts[k].clone());
                    reference.reference_absorb(parts[k].clone());
                }
                prop_assert_eq!(&folded, &at_once, "order {:?}", order);
                prop_assert_eq!(&reference, &at_once, "order {:?}", order);
            }
        }

        /// The run merge against the append-and-dedup it replaced, folded
        /// over the parts: 0–8 parts over a dense or sparse id range, any of
        /// them (and `self`) empty, canonical or in shuffled / descending
        /// row order (the sort-first arm), and one original edge copied
        /// into three parts under different `(a, b)`.
        #[test]
        fn absorb_all_equals_the_reference_folded_over_the_parts(
            raws in proptest::collection::vec(arb_rows(60), 9..10),
            nparts in 0usize..9,
            comps in 2u32..6,
            spread_pick in 0u8..2,
            empty_mask in 0u16..512,
            order_seed in 0u32..1000,
        ) {
            let spread = if spread_pick == 0 { 1 } else { SPARSE };
            let ids = 9 * comps;
            // Holding `k` owns components `k·comps ..`; its rows end
            // anywhere. Every third holding past the first also carries
            // original (50, 51) under endpoints of its own.
            let build = |k: u32| {
                let mut edges: Vec<CEdge> = true_copies(&raws[k as usize])
                    .iter()
                    .map(|&(a, b, u, v, w)| {
                        CEdge::new(a % ids * spread, b % ids * spread, WEdge::new(u, v, w))
                    })
                    .collect();
                if k % 3 == 1 {
                    edges.push(CEdge::new(k * spread, (k + 20) * spread, WEdge::new(50, 51, 2)));
                }
                let resident: Vec<CompId> =
                    (k * comps..(k + 1) * comps).map(|c| c * spread).collect();
                let frozen = resident.iter().copied().skip(k as usize % 3).step_by(2).collect();
                let mut cg = CGraph::from_parts(resident, edges, frozen);
                match (order_seed + k) % 3 {
                    // Canonical, as every production holding past level 0.
                    0 => cg.dedup_edges(),
                    // Descending.
                    1 => {
                        cg.dedup_edges();
                        let mut rows = cg.edges_vec();
                        rows.reverse();
                        cg = CGraph::from_parts(cg.resident.clone(), rows, cg.frozen.clone());
                    }
                    // Arrival order, duplicates inside the run included.
                    _ => {}
                }
                cg
            };
            let holding = |k: u32| {
                if empty_mask >> k & 1 == 1 { CGraph::new() } else { build(k) }
            };
            let mine = holding(0);
            let parts: Vec<CGraph> = (1..=nparts as u32).map(holding).collect();

            let mut expect = mine.clone();
            if parts.iter().any(|p| !p.is_empty()) {
                for part in &parts {
                    expect.reference_absorb(part.clone());
                }
            }
            let mut got = mine.clone();
            got.cut_rows();
            got.absorb_all(parts.clone());
            prop_assert_eq!(&got, &expect);
            assert_resolver_matches_binary_search(&got);
            prop_assert_eq!(got.cut_rows(), got.fresh_cut_rows());
            let mut resident: Vec<CompId> =
                parts.iter().chain([&mine]).flat_map(|p| p.resident.clone()).collect();
            resident.sort_unstable();
            prop_assert_eq!(&got.resident, &resident);
            let mut frozen: Vec<CompId> =
                parts.iter().chain([&mine]).flat_map(|p| p.frozen.clone()).collect();
            frozen.sort_unstable();
            prop_assert_eq!(&got.frozen, &frozen);
        }

        #[test]
        fn resolver_equals_binary_search_after_every_mutator(
            raw in arb_rows(150),
            comps in 2u32..12,
            spread_pick in 0u8..3,
            ghosts in 0u8..2,
            ops in proptest::collection::vec((0u8..13, 0u32..64, 0u32..64), 1..16),
        ) {
            // Spread 5000 makes a resident set sparse (range > 4× len) but
            // small (range within the dense budget): the table answers.
            // [`SPARSE`] makes it sparse and large: the binary search does.
            let spread = [1, 5000, SPARSE][spread_pick as usize];
            let mut cg = messy_holding(&raw, comps, spread);
            if ghosts == 1 {
                // Every other component is somebody else's: rows with one
                // and with two ghost ends from the start.
                cg.set_resident((0..comps).step_by(2).map(|c| c * spread).collect());
            }
            // Every mutator below starts from a holding whose cut-row list
            // is cached (the check reads it), so a mutator that forgets to
            // drop or rewrite it is caught by the next check.
            let check = |cg: &CGraph| {
                assert_resolver_matches_binary_search(cg);
                assert_eq!(cg.cut_rows(), cg.fresh_cut_rows(), "cached cut rows are stale");
                assert_eq!(cg.num_cut_edges(), cg.fresh_cut_rows().len());
            };
            check(&cg);
            for (op, x, y) in ops {
                let n = cg.num_resident() as u32;
                match op {
                    0 if n > 0 => {
                        let (from, to) = (cg.resident[(x % n) as usize], cg.resident[(y % n) as usize]);
                        cg.relabel(|c| if c == from { to } else { c });
                    }
                    1 => {
                        let mut other = messy_holding(&raw, comps, spread);
                        other.relabel(|c| c + (x % 4) * spread);
                        let third = messy_holding(&raw[..raw.len() / 2], comps, spread);
                        cg.absorb_all([other, CGraph::new(), third]);
                    }
                    2 if n > 1 => {
                        let take: Vec<CompId> = cg.resident.iter().copied().filter(|c| (c / spread + x).is_multiple_of(3)).collect();
                        let seg = cg.split_off(&take);
                        check(&seg);
                        prop_assert_eq!(seg.resident(), &take[..]);
                    }
                    3 => {
                        let resident: Vec<CompId> = (0..(x % 20)).map(|i| (i * 7 + y) * spread).collect();
                        cg.set_resident(resident);
                    }
                    4 if n > 0 => {
                        // The kernel's commit: neighbouring slots pair up,
                        // roots at even slots. The sweeps visited every row
                        // (one call in four), or the rows the pairing makes
                        // self rows and every third row; they shed every
                        // other row they visited.
                        let every = x.is_multiple_of(4);
                        let slot = |c: CompId| cg.slot_of(c).map_or(GHOST, |slot| slot - slot % 2);
                        let tracked: Vec<u32> = (0..cg.num_edges())
                            .filter(|&i| every || (i as u32 + x).is_multiple_of(3) || slot(cg.ea[i]) == slot(cg.eb[i]))
                            .map(|i| i as u32)
                            .collect();
                        let survivors: Vec<(u32, u32, u32)> = tracked
                            .iter()
                            .filter(|&&i| !(i + y).is_multiple_of(2))
                            .map(|&i| (i, slot(cg.ea[i as usize]), slot(cg.eb[i as usize])))
                            .collect();
                        let tracked = (!every).then_some(&tracked[..]);
                        cg.commit_contraction(tracked, survivors.into_iter(), |slot| slot - slot % 2);
                    }
                    5 => cg.push_edge(CEdge::new(x * spread, y * spread, WEdge::new(x, y, 1))),
                    // Ghosts renamed to ghosts (ids past every resident's),
                    // several to the same one.
                    6 => {
                        let ends = cg.ea.iter().chain(&cg.eb).copied().filter(|c| !(c / spread % 3 + y).is_multiple_of(3));
                        cg.relabel_ghosts(&IdSet::new(ends), |c| u32::MAX - 24 + (c / spread % 24 + x) % 24);
                    }
                    7 => cg.remove_self_edges(),
                    8 => {
                        cg.remove_self_edges();
                        check(&cg);
                        cg.remove_multi_edges();
                    }
                    9 => cg.dedup_edges(),
                    10 => cg.sort_edges(),
                    11 => {
                        let keep: Vec<bool> = (0..cg.num_edges()).map(|i| !(i as u32 + x).is_multiple_of(4)).collect();
                        cg.retain_edge_rows(&keep);
                    }
                    12 => cg = CGraph::from_parts(cg.resident.clone(), cg.edges_vec(), cg.frozen.clone()),
                    _ => {}
                }
                check(&cg);
            }
        }

        /// The level-0 builder against the CSR walk it replaced, row for
        /// row: lists in arrival order with self loops and repeated pairs
        /// (an `EdgeList` canonicalises `u <= v` on the way in, so `u > v`
        /// cannot reach a builder), cuts that leave empty ranges and more
        /// ranges than vertices, and every block size.
        #[test]
        fn level0_equals_the_csr_walk_row_for_row(
            raw in proptest::collection::vec((0u32..64, 0u32..64, 1u32..5), 0..160),
            n in 1u32..24,
            cuts in proptest::collection::vec(0u32..64, 0..30),
        ) {
            let mut el = EdgeList::new(n);
            for (a, b, w) in raw {
                el.push(a % n, b % n, w);
            }
            let mut points: Vec<u32> = cuts.iter().map(|c| c % (n + 1)).collect();
            points.extend([0, n]);
            points.sort_unstable();
            let ranges: Vec<VertexRange> = points
                .windows(2)
                .map(|w| VertexRange { start: w[0], end: w[1] })
                .collect();
            let p = ranges.len();
            let expect: Vec<CGraph> = ranges.iter().map(|&r| reference::level0_via_csr(&el, r)).collect();
            for block in 1..=p {
                let got: Vec<CGraph> = (0..p)
                    .step_by(block)
                    .flat_map(|lo| CGraph::level0(&el, &ranges, lo..(lo + block).min(p)))
                    .collect();
                prop_assert_eq!(got.len(), p);
                for (k, (got, expect)) in got.iter().zip(&expect).enumerate() {
                    prop_assert_eq!(got.edges_vec(), expect.edges_vec(), "rank {} of {}, blocks of {}", k, p, block);
                    prop_assert_eq!(got, expect);
                    assert_resolver_matches_binary_search(got);
                    prop_assert_eq!(got.known_cut_rows(), Some(expect.fresh_cut_rows().len()));
                    prop_assert_eq!(got.cut_rows(), expect.fresh_cut_rows());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random runs of the production mutators — the kernel's commit (by
        /// slots on a holding without marks, by renames with them), ghost
        /// renames, the reduction, a ring round trip through `split_off`
        /// and `absorb_all`, a split kept apart, new residents — on a
        /// holding with one row per original edge: after each, `validate`
        /// recomputes every piece of derived state and finds it as kept,
        /// and a reduction over the renamed rows equals the full pass.
        #[test]
        fn validate_holds_after_every_production_mutator(
            rows in proptest::collection::vec((0u32..90, 0u32..90, 1u32..20), 0..200),
            spread_pick in 0u8..3,
            ops in proptest::collection::vec((0u8..7, 0u32..64), 1..14),
        ) {
            let spread = [1, 5000, SPARSE][spread_pick as usize];
            // Residents 0..30, ghosts 30..90, every id stretched by `spread`.
            let edges = rows
                .iter()
                .enumerate()
                .map(|(i, &(a, b, w))| CEdge::new(a * spread, b * spread, WEdge::new(i as u32, 1000 + i as u32, w)))
                .collect();
            let mut cg = CGraph::from_parts((0..30).map(|c| c * spread).collect(), edges, vec![]);
            let stop = StopPolicy::DiminishingBenefit { min_improvement: 0.5 };
            for (op, x) in ops {
                match op {
                    0 => {
                        crate::boruvka::local_boruvka(&mut cg, ExcpCond::BorderEdge, FreezePolicy::Sticky, stop);
                    }
                    1 => {
                        // Ghost parents: ghosts onto ghosts of the same
                        // block of ten.
                        let pairs: Vec<(CompId, CompId)> = (30..90)
                            .filter(|g| (g + x) % 4 == 0 && g % 10 != 0)
                            .map(|g| (g * spread, g / 10 * 10 * spread))
                            .collect();
                        crate::reduce::apply_ghost_parents(&mut cg, &pairs);
                    }
                    2 => {
                        let mut full = cg.clone();
                        full.relabel(|c| c);
                        let (got, expect) = (crate::reduce::reduce_holding(&mut cg), crate::reduce::reduce_holding(&mut full));
                        prop_assert_eq!(got, expect);
                        prop_assert_eq!(cg.edges_vec(), full.edges_vec());
                    }
                    3 | 4 if cg.num_resident() > 1 => {
                        let take: Vec<CompId> = cg.resident.iter().copied().filter(|c| (c / spread + x).is_multiple_of(3)).collect();
                        let seg = cg.split_off(&take);
                        seg.validate().unwrap();
                        if op == 3 {
                            cg.absorb_all([seg]);
                        }
                    }
                    5 => {
                        // A ghost becomes resident (its owner moved it here).
                        let mut resident = cg.resident.clone();
                        resident.push((30 + x % 60) * spread);
                        cg.set_resident(resident);
                    }
                    _ => cg.set_frozen(cg.resident.iter().copied().skip(x as usize % 3).step_by(2).collect()),
                }
                cg.validate().unwrap();
            }
        }
    }

    #[test]
    fn validate_catches_stale_derived_state() {
        let rows = vec![
            CEdge::new(0, 1, WEdge::new(0, 1, 1)),
            CEdge::new(1, 9, WEdge::new(1, 9, 2)),
            CEdge::new(0, 9, WEdge::new(0, 9, 3)),
        ];
        let mut cg = CGraph::from_parts(vec![0, 1], rows, vec![]);
        cg.remove_self_edges();
        cg.remove_multi_edges();
        cg.validate().unwrap();
        let mut stale = cg.clone();
        stale.cut = OnceLock::from(vec![1]);
        assert!(stale.validate().unwrap_err().contains("cut-row list"));
        let mut stale = cg.clone();
        // Row 2 renamed into a parallel of row 1 behind the holding's back.
        stale.ea[2] = 1;
        assert!(stale.validate().unwrap_err().contains("parallel rows"));
        stale.renamed = Some(vec![1]);
        stale.validate().unwrap();
        let mut stale = cg.clone();
        stale.eorig.swap(0, 2);
        assert!(stale.validate().unwrap_err().contains("(w, u, v) order"));
        let mut stale = cg.clone();
        stale.resident.push(5);
        assert!(stale.validate().unwrap_err().contains("resolver"));
    }

    #[test]
    #[should_panic(expected = "beyond the edge list's limit of 4 vertices")]
    fn level0_refuses_an_endpoint_past_the_vertex_count() {
        // `from_raw` canonicalises but cannot know the endpoint is bogus.
        let el = EdgeList::from_raw(4, vec![WEdge::new(0, 1, 1), WEdge::new(1, 9, 1)]);
        holding(&el, VertexRange { start: 0, end: 4 });
    }

    #[test]
    fn level0_of_no_ranks_and_of_empty_ranges() {
        let el = gen::gnm(30, 90, 3);
        assert!(CGraph::level0(&el, &[], 0..0).is_empty());
        let empty = holding(&el, VertexRange { start: 7, end: 7 });
        assert!(empty.is_empty());
        assert_eq!(empty.cut_rows(), &[] as &[u32]);
    }

    #[test]
    fn contract_slots_equals_relabel_by_id() {
        let el = gen::gnm(40, 160, 5);
        // A partition, so ghost endpoints exist and must be left alone.
        let mut by_slot = holding(&el, VertexRange { start: 10, end: 30 });
        by_slot.set_frozen(vec![11, 14, 29]);
        let mut by_id = by_slot.clone();
        let resident = by_slot.resident().to_vec();
        by_slot.contract_slots(|i| i - i % 4);
        by_id.relabel(|c| match resident.binary_search(&c) {
            Ok(i) => resident[i - i % 4],
            Err(_) => c,
        });
        assert_eq!(by_slot, by_id);
        assert_resolver_matches_binary_search(&by_slot);
    }

    #[test]
    fn relabel_ghosts_never_touches_resident_ids() {
        let mut cg = CGraph::from_parts(
            vec![0, 1],
            vec![
                CEdge::new(0, 7, WEdge::new(0, 7, 1)),
                CEdge::new(0, 1, WEdge::new(0, 1, 2)),
            ],
            vec![1],
        );
        cg.relabel_ghosts(&IdSet::new([0, 1, 7]), |c| c + 100);
        assert_eq!(cg.resident(), &[0, 1]);
        assert_eq!(cg.frozen(), &[1]);
        assert_eq!(cg.edge(0), CEdge::new(0, 107, WEdge::new(0, 7, 1)));
        assert_eq!(cg.edge(1), CEdge::new(0, 1, WEdge::new(0, 1, 2)));
    }

    #[test]
    fn reduction_scratch_is_reused_not_regrown() {
        let mut cg = CGraph::from_edge_list(&gen::gnm(60, 300, 17));
        cg.relabel(|c| c / 4 * 4);
        cg.remove_self_edges();
        cg.remove_multi_edges();
        let (table_cap, flags_cap) = (cg.table.capacity(), cg.flags.capacity());
        cg.dedup_edges();
        cg.remove_multi_edges();
        assert_eq!(cg.table.capacity(), table_cap);
        assert_eq!(cg.flags.capacity(), flags_cap);
    }
}
