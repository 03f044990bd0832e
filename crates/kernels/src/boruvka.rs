//! Boruvka's algorithm: the whole-graph variant and the paper's
//! exception-condition variant for partitions (§3.2).
//!
//! Both operate on the contracted-graph representation ([`CGraph`]) so the
//! same kernel serves level-0 partitions (components = vertices) and every
//! later merging level (components = merged supervertices).
//!
//! ## Correctness of freezing (the §3.2 exception)
//!
//! In each iteration a resident component elects its lightest incident edge
//! *considering every edge it holds, cut edges included*. If the winner is
//! a cut edge the component freezes instead of expanding; otherwise the
//! winner connects two resident components and is contracted. Because the
//! contracted edge is the minimum over **all** edges leaving the component,
//! the cut property guarantees it belongs to the (unique) MSF — no edge is
//! ever contracted speculatively.
//!
//! ## One sweep per round
//!
//! The kernel keeps a worklist of 16-byte *live rows* `{a, b, w, row}`: both
//! ends as resident root slots (`GHOST` for a non-resident end), the
//! weight, and the holding row it stands for (stable for the whole call).
//! Building that worklist *is* round 1's election: every holding row (but
//! the parked ones, below) is resolved once, self rows are dropped, and the
//! row is offered to both of its roots. Every later round is one sweep too:
//! each live row is re-rooted through the union-find (path-halving),
//! dropped if the last contraction made it a self edge, compacted in place
//! and offered for the next election. An offer is a min of the packed key
//! `(w << 32) | row` into one `u64` slot per root, weight ties falling back
//! to the full `(edge key, row)` order ([`crate::lockfree`]), so the
//! winners are those of a sweep under that total order in any arrival
//! order.
//!
//! Contraction then drains the slots in root-index order — safe because the
//! elected edges form a forest under the total edge order (mutual elections
//! are the same edge), so the union *set* is order-independent, and the
//! fixed order makes the kernel deterministic — resetting each slot as it
//! goes. No sweep touches a row that left the worklist.
//!
//! ## Quiet rounds: only the live roots' rows are swept
//!
//! Under [`FreezePolicy::Sticky`] a frozen root never takes an offer, a
//! merge with a frozen side is frozen, and so only rows touching an unfrozen
//! root can elect, merge, or turn into self rows. When a holding arrives
//! with freeze marks, one cheap pass tests both ends of every row against
//! the set of unfrozen resident ids ([`IdSet`]); the rows that hit, and the
//! self rows, are the worklist, the others are *parked*. Every union is
//! elected by a live root and a root elects once per round, so a tree of
//! one round's unions holds at most one root that did not elect: two
//! parked ends never meet, and a parked row never becomes a self row. It is
//! counted into every round's `edges_scanned` all the same, so the work
//! profile — and the simulated clock priced from it — is that of a sweep of
//! every row. The commit is one pass over the survivors and the rows
//! between them: a dropped row goes, a parked one keeps its place and its
//! ends but those of a slot that merged away, which a bitmap of the merged
//! ids finds. A call in which no unfrozen root holds a row makes the filter
//! pass and no sweep (nor the pass, when no root is unfrozen and the
//! holding is reduced), and with no union and no self row it writes
//! nothing. A holding without marks (level 0, every recombination,
//! [`FreezePolicy::Recheck`], `ExcpCond::None`) has every root live: it is
//! swept whole without the filter pass, which would only cost there.
//!
//! ## One body for every policy
//!
//! Above the [`KernelPolicy`] election crossover the same sweep body runs
//! over row chunks on rayon workers — chunk-local compaction, then a stitch
//! — and offers through a CAS fetch-min instead of a plain one; the table,
//! the freeze marks and the union-find parents are relaxed atomics either
//! way (plain loads and stores on one thread), and workers only ever
//! shorten a parent pointer to another ancestor. A min under a total order
//! is commutative, so every chunking and interleaving elects what the
//! sequential sweep does: output is byte-identical for every policy.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};

use mnd_graph::types::WEdge;
use rayon::prelude::*;

use crate::cgraph::{CGraph, CompId, GHOST};
use crate::idset::IdSet;
use crate::lockfree::{fetch_min_edge, min_edge, pack, row_of, NONE_KEY};
use crate::msf::MsfResult;
use crate::policy::{ExcpCond, FreezePolicy, IterWork, KernelPolicy, StopPolicy, WorkProfile};

/// Output of one `indComp` invocation on a holding.
#[derive(Clone, Debug, Default)]
pub struct LocalOutput {
    /// Original-graph edges contracted by this invocation (a subset of the
    /// global MSF).
    pub msf_edges: Vec<WEdge>,
    /// Renaming applied to previously-resident components:
    /// `(old_id, new_id)` for every old id whose id changed.
    pub relabel: Vec<(CompId, CompId)>,
    /// Work profile for the device cost model.
    pub work: WorkProfile,
}

/// Runs Boruvka with the given exception condition on the holding,
/// mutating it in place:
///
/// * resident components become the merged components (named by their
///   smallest member id),
/// * edge endpoints on the resident side are relabelled,
/// * self edges produced by contraction are removed (the paper's separate
///   `removeSelfEdges` step is fused here for efficiency; multi-edge
///   removal stays separate because it needs ghost communication),
/// * frozen components are recorded in the holding.
///
/// `ExcpCond::None` is only legal when the holding has no cut edges; the
/// kernel panics otherwise (using it on a real partition silently corrupts
/// the MSF — we make that a loud error instead).
///
/// Which sweeps run chunked on rayon workers is the calling thread's
/// [`KernelPolicy::current`]; output is identical for every policy.
///
/// # Panics
///
/// If the holding has `u32::MAX` rows or more (a row index must fit the low
/// half of the packed election key, below the empty-slot sentinel), or on
/// `ExcpCond::None` with a cut edge.
pub fn local_boruvka(
    cg: &mut CGraph,
    excp: ExcpCond,
    freeze: FreezePolicy,
    stop: StopPolicy,
) -> LocalOutput {
    let policy = &KernelPolicy::current();
    let rows = cg.num_edges();
    assert!(
        rows < u32::MAX as usize,
        "a holding of {rows} rows exceeds the kernel's limit of u32::MAX - 1 rows \
         (the election key packs the row index into 32 bits)"
    );
    let n = cg.num_resident();
    let mut dsu = MinDsu::new(n);
    let table: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(NONE_KEY)).collect();
    // Freeze marks surviving from a previous invocation stay sticky.
    let marks = cg.frozen_marks();
    let sticky = freeze == FreezePolicy::Sticky;
    let whole = excp == ExcpCond::None;
    // The live roots: with sticky marks on some residents, only rows
    // touching an unfrozen one are swept (module docs, "Quiet rounds").
    let live = (sticky && !whole && marks.contains(&true)).then(|| {
        let resident = cg.resident();
        IdSet::new((0..n).filter(|&i| !marks[i]).map(|i| resident[i]))
    });
    let frozen: Vec<AtomicBool> = marks.into_iter().map(AtomicBool::new).collect();

    // The rows the sweeps visit, ascending (`None`: every row): those
    // touching a live root, and the self rows, which round 1 drops (a
    // ghost's: the commit). The others are parked, and counted. A reduced
    // holding has no self row, so with no live root it needs no pass.
    let reduced = cg.renamed_since_reduce().is_some_and(|ids| ids.is_empty());
    let (ea, eb) = cg.endpoint_cols();
    let (mut tracked, mut parked, mut self_rows) = (None, 0u64, 0usize);
    if let Some(live) = &live {
        let mut hits = Vec::new();
        if !live.is_empty() || !reduced {
            for i in 0..rows as u32 {
                let (a, b) = (ea[i as usize], eb[i as usize]);
                if a == b || live.touches(a, b) {
                    self_rows += usize::from(a == b);
                    hits.push(i);
                } else {
                    parked += 1;
                }
            }
        }
        tracked = Some(hits);
    }
    let swept = tracked.as_ref().map_or(rows, Vec::len);
    let mut sweep = Sweep {
        table: &table,
        frozen: &frozen,
        orig: cg.orig_col(),
        sticky,
        whole,
        prefreeze: excp == ExcpCond::BorderVertex,
        elect: true,
        shared: policy.use_par(swept),
    };

    // Round 1's sweep builds the worklist: it scans every tracked row,
    // resolving both ends to their slots once; every row counts.
    let slot = |c: CompId| cg.slot_of(c).unwrap_or(GHOST);
    let mut live_rows = Worklist::new(
        swept,
        if sweep.shared {
            policy.chunk_rows
        } else {
            swept
        },
    );
    sweep.run(&mut live_rows, |at, _| {
        let i = tracked.as_ref().map_or(at, |hits| hits[at] as usize);
        LiveRow {
            a: slot(ea[i]),
            b: slot(eb[i]),
            w: sweep.orig[i].w,
            row: i as u32,
        }
    });
    sweep.prefreeze = false;
    let mut scanned = rows as u64;

    let mut msf_edges: Vec<WEdge> = Vec::new();
    let mut work = WorkProfile::default();
    let mut prev_cost: Option<u64> = None;
    // The slots that were roots when the round's sweep ran, ascending: the
    // only ones a sweep offers to or reads a freeze mark of.
    let mut roots: Vec<u32> = (0..n as u32).collect();
    loop {
        // --- Contraction / freezing -------------------------------------
        // Recheck policy re-derives freezes every round.
        if !sticky {
            roots
                .iter()
                .for_each(|&r| frozen[r as usize].store(false, Relaxed));
        }
        let (mut active, mut unions) = (0u64, 0u64);
        // Winner slots are drained in root-index order (not election
        // order). Marks set below land on roots at or below the slot being
        // drained, so `frozen[r]` still reads as it did during the sweep.
        for &r in &roots {
            let r = r as usize;
            let key = table[r].load(Relaxed);
            if key == NONE_KEY {
                continue;
            }
            table[r].store(NONE_KEY, Relaxed);
            // A root BorderVertex froze after a row had offered to it.
            if sticky && frozen[r].load(Relaxed) {
                continue;
            }
            active += 1;
            let row = row_of(key) as usize;
            // Re-resolve the winner's ends: earlier unions this round may
            // have merged them further.
            let ra = cg.slot_of(ea[row]).map(|i| dsu.find(i));
            let rb = cg.slot_of(eb[row]).map(|i| dsu.find(i));
            match (ra, rb) {
                (Some(x), Some(y)) => {
                    if dsu.union(x, y) {
                        msf_edges.push(sweep.orig[row]);
                        unions += 1;
                        // Sticky: a merge involving a frozen side freezes
                        // the result.
                        if sticky
                            && (frozen[x as usize].load(Relaxed)
                                || frozen[y as usize].load(Relaxed))
                        {
                            frozen[x.min(y) as usize].store(true, Relaxed);
                        }
                    }
                }
                // Winner is a cut edge: freeze the resident side.
                (Some(x), None) | (None, Some(x)) => frozen[x as usize].store(true, Relaxed),
                (None, None) => unreachable!("edge with no resident endpoint elected"),
            }
        }
        work.iters.push(IterWork {
            active_components: active,
            edges_scanned: scanned,
            unions,
        });
        if unions == 0 {
            break;
        }
        roots.retain(|&r| dsu.find(r) == r);

        // --- Data-driven shrink, fused with the next election ------------
        // Diminishing-benefit early stop (§4.3.2): compare iteration costs.
        // A stopping kernel still sheds the self edges it just made.
        sweep.elect = prev_cost.is_none_or(|prev| stop.should_continue(prev, scanned));
        prev_cost = Some(scanned);
        sweep.shared = policy.use_par(live_rows.len());
        let root = |end: u32| if end == GHOST { end } else { dsu.find(end) };
        sweep.run(&mut live_rows, |_, r| LiveRow {
            a: root(r.a),
            b: root(r.b),
            ..r
        });
        if !sweep.elect {
            break;
        }
        // Parked rows count as scanned: no round makes one a self row.
        scanned = live_rows.len() as u64 + parked;
    }
    debug_assert!(table.iter().all(|slot| slot.load(Relaxed) == NONE_KEY));

    // --- Commit the contraction to the holding ---------------------------
    // New id of a resident component = smallest member id = resident[root].
    let resident = cg.resident();
    let mut relabel = Vec::new();
    let mut new_frozen = Vec::new();
    for i in 0..n as u32 {
        let root = dsu.find(i);
        let new_id = resident[root as usize];
        if root == i && frozen[i as usize].load(Relaxed) {
            new_frozen.push(new_id);
        }
        if new_id != resident[i as usize] {
            relabel.push((resident[i as usize], new_id));
        }
    }
    // A filtered call with no union and no self row leaves the holding as
    // it is.
    if tracked.is_none() || !relabel.is_empty() || self_rows > 0 {
        cg.commit_contraction(
            tracked.as_deref(),
            live_rows.iter().map(|r| (r.row, r.a, r.b)),
            |slot| dsu.find(slot),
        );
    }
    cg.set_frozen(new_frozen);

    LocalOutput {
        msf_edges,
        relabel,
        work,
    }
}

/// Whole-graph Boruvka MSF over an edge list — the single-device baseline
/// and the post-process kernel. Equivalent to
/// [`local_boruvka`] with `ExcpCond::None` on a whole-graph holding.
pub fn boruvka_msf(el: &mnd_graph::EdgeList) -> MsfResult {
    let mut cg = CGraph::from_edge_list(el);
    let out = local_boruvka(
        &mut cg,
        ExcpCond::None,
        FreezePolicy::Sticky,
        StopPolicy::Exhaustive,
    );
    MsfResult::from_edges(el.num_vertices(), out.msf_edges)
}

/// A worklist row: both ends as resident root slots ([`GHOST`] for a
/// non-resident end, in the holding row's `(a, b)` order), the weight, and
/// the holding row it stands for.
#[derive(Clone, Copy, Debug, Default)]
struct LiveRow {
    a: u32,
    b: u32,
    w: u32,
    row: u32,
}

/// The worklist: one slot per holding row, cut into pieces of `chunk` slots
/// (one piece when the call's sweeps stay on one thread). A piece keeps the
/// rows still alive, in holding-row order, in its first `alive[k]` slots:
/// compaction never crosses a piece, so a sweep's workers take a piece each
/// and nothing is stitched together afterwards.
struct Worklist {
    rows: Vec<LiveRow>,
    alive: Vec<usize>,
    chunk: usize,
}

impl Worklist {
    fn new(rows: usize, chunk: usize) -> Self {
        let (rows, chunk) = (vec![LiveRow::default(); rows], chunk.max(1));
        Worklist {
            alive: rows.chunks(chunk).map(<[LiveRow]>::len).collect(),
            rows,
            chunk,
        }
    }

    /// Rows alive.
    fn len(&self) -> usize {
        self.alive.iter().sum()
    }

    /// The rows alive, ascending in holding row.
    fn iter(&self) -> impl Iterator<Item = &LiveRow> {
        let pieces = self.rows.chunks(self.chunk).zip(&self.alive);
        pieces.flat_map(|(piece, &alive)| &piece[..alive])
    }
}

/// What a round's sweep reads and offers into; shared by its chunks.
struct Sweep<'a> {
    /// One packed election key per resident slot, [`NONE_KEY`] when empty.
    table: &'a [AtomicU64],
    /// Freeze marks per resident slot.
    frozen: &'a [AtomicBool],
    /// The holding's original-edge column (weight-tie fallback).
    orig: &'a [WEdge],
    /// Sticky freezing: a frozen root takes no offers.
    sticky: bool,
    /// `ExcpCond::None`: a row with a ghost end is a caller bug.
    whole: bool,
    /// `ExcpCond::BorderVertex`, round 1: a row with one ghost end freezes
    /// its resident end before anything expands.
    prefreeze: bool,
    /// Whether surviving rows are offered (`false`: a shrink-only sweep).
    elect: bool,
    /// Chunks run concurrently, so offers CAS.
    shared: bool,
}

impl Sweep<'_> {
    /// The sweep body, one row: `false` drops a self edge, `true` keeps the
    /// row live after offering it to both of its roots.
    #[inline]
    fn admit(&self, r: LiveRow) -> bool {
        if r.a == r.b && r.a != GHOST {
            return false;
        }
        if r.a == GHOST || r.b == GHOST {
            assert!(
                !self.whole,
                "ExcpCond::None on a holding with cut edges would corrupt the MSF"
            );
            if self.prefreeze && r.a != r.b {
                self.frozen[r.a.min(r.b) as usize].store(true, Relaxed);
            }
        }
        if !self.elect {
            return true;
        }
        let key = pack(r.w, r.row);
        let orig_of = |row: u32| self.orig[row as usize];
        for root in [r.a, r.b] {
            if root == GHOST || (self.sticky && self.frozen[root as usize].load(Relaxed)) {
                continue;
            }
            let slot = &self.table[root as usize];
            if self.shared {
                fetch_min_edge(slot, key, &orig_of);
            } else {
                min_edge(slot, key, &orig_of);
            }
        }
        true
    }

    /// One sweep: the `i`-th slot of every piece becomes `load(at, row)` —
    /// `at` its position in the whole worklist, the holding row while round
    /// 1 fills it — and the rows [`Sweep::admit`] keeps are compacted to the
    /// front of their piece, the pieces on rayon workers when `shared`.
    fn run(&self, live: &mut Worklist, load: impl Fn(usize, LiveRow) -> LiveRow + Sync) {
        let chunk = live.chunk;
        let compact = |(k, (piece, alive)): (usize, (&mut [LiveRow], &mut usize))| {
            let mut kept = 0;
            for i in 0..*alive {
                let r = load(k * chunk + i, piece[i]);
                if self.admit(r) {
                    piece[kept] = r;
                    kept += 1;
                }
            }
            *alive = kept;
        };
        let pieces: Vec<_> = live
            .rows
            .chunks_mut(chunk)
            .zip(&mut live.alive)
            .enumerate()
            .collect();
        if self.shared {
            pieces.into_par_iter().for_each(compact);
        } else {
            pieces.into_iter().for_each(compact);
        }
    }
}

/// Min-representative DSU: links always orient the larger root under the
/// smaller, so the representative of a set is its minimum element — the
/// property that makes component ids globally consistent without
/// coordination. Parents are relaxed atomics so the workers of a chunked
/// sweep can path-halve through a shared reference: no union runs beside a
/// sweep, and a halving store only replaces a parent by another ancestor,
/// so any mix of such stores leaves every root where it was.
struct MinDsu {
    parent: Vec<AtomicU32>,
}

impl MinDsu {
    fn new(n: usize) -> Self {
        MinDsu {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Relaxed);
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize].load(Relaxed);
            if gp == p {
                return p;
            }
            // Only a store that shortens the path: a rewrite of the same
            // parent would still take the line from the other workers.
            self.parent[x as usize].store(gp, Relaxed);
            x = gp;
        }
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra.max(rb) as usize].store(ra.min(rb), Relaxed);
        true
    }
}

/// The loop the one-sweep kernel replaced, kept as the reference the
/// proptest below compares it against byte for byte: a worklist of resolved
/// rows, per round a full election sweep into a winner table, contraction in
/// root-slot order and a second sweep retaining the rows still alive; the
/// commit renames every holding row by slot and removes the self edges.
#[cfg(test)]
mod reference {
    use super::*;

    type Winner = (WEdge, u32, Option<u32>, Option<u32>);

    struct RefDsu(Vec<u32>);

    impl RefDsu {
        fn find(&self, mut x: u32) -> u32 {
            while self.0[x as usize] != x {
                x = self.0[x as usize];
            }
            x
        }

        fn union(&mut self, a: u32, b: u32) -> bool {
            let (ra, rb) = (self.find(a), self.find(b));
            self.0[ra.max(rb) as usize] = ra.min(rb);
            ra != rb
        }
    }

    pub(super) fn local_boruvka(
        cg: &mut CGraph,
        excp: ExcpCond,
        freeze: FreezePolicy,
        stop: StopPolicy,
    ) -> LocalOutput {
        if excp == ExcpCond::None {
            assert_eq!(
                cg.num_cut_edges(),
                0,
                "ExcpCond::None on a holding with cut edges would corrupt the MSF"
            );
        }
        let n = cg.num_resident();
        let mut dsu = RefDsu((0..n as u32).collect());
        let mut frozen = cg.frozen_marks();
        let (ca, cb) = cg.endpoint_cols();
        let mut worklist: Vec<(Option<u32>, Option<u32>, WEdge)> = ca
            .iter()
            .zip(cb)
            .zip(cg.orig_col())
            .map(|((&a, &b), &orig)| (cg.slot_of(a), cg.slot_of(b), orig))
            .collect();
        if excp == ExcpCond::BorderVertex {
            for &(a, b, _) in &worklist {
                if let (Some(i), None) | (None, Some(i)) = (a, b) {
                    frozen[i as usize] = true;
                }
            }
        }

        let mut msf_edges: Vec<WEdge> = Vec::new();
        let mut work = WorkProfile::default();
        let mut prev_cost: Option<u64> = None;
        loop {
            let scanned = worklist.len() as u64;
            let mut best: Vec<Option<Winner>> = vec![None; n];
            for (row, &(a, b, orig)) in worklist.iter().enumerate() {
                let ra = a.map(|i| dsu.find(i));
                let rb = b.map(|i| dsu.find(i));
                if ra.is_some() && ra == rb {
                    continue;
                }
                for r in [ra, rb].into_iter().flatten() {
                    if frozen[r as usize] && freeze == FreezePolicy::Sticky {
                        continue;
                    }
                    let slot = &mut best[r as usize];
                    let cand = (orig, row as u32, ra, rb);
                    if slot.is_none_or(|cur| (cand.0, cand.1) < (cur.0, cur.1)) {
                        *slot = Some(cand);
                    }
                }
            }

            if freeze == FreezePolicy::Recheck {
                frozen.iter_mut().for_each(|f| *f = false);
            }
            let mut unions = 0u64;
            let active = best.iter().filter(|s| s.is_some()).count() as u64;
            for (win, _, ea, eb) in best.into_iter().flatten() {
                match (ea.map(|i| dsu.find(i)), eb.map(|i| dsu.find(i))) {
                    (Some(x), Some(y)) => {
                        if dsu.union(x, y) {
                            msf_edges.push(win);
                            unions += 1;
                            if freeze == FreezePolicy::Sticky
                                && (frozen[x as usize] || frozen[y as usize])
                            {
                                frozen[dsu.find(x) as usize] = true;
                            }
                        }
                    }
                    (Some(x), None) | (None, Some(x)) => frozen[dsu.find(x) as usize] = true,
                    (None, None) => unreachable!("edge with no resident endpoint elected"),
                }
            }
            work.iters.push(IterWork {
                active_components: active,
                edges_scanned: scanned,
                unions,
            });

            if unions == 0 {
                break;
            }
            worklist.retain(|&(a, b, _)| {
                let ra = a.map(|i| dsu.find(i));
                !(ra.is_some() && ra == b.map(|i| dsu.find(i)))
            });
            if let Some(prev) = prev_cost {
                if !stop.should_continue(prev, scanned) {
                    break;
                }
            }
            prev_cost = Some(scanned);
        }

        let resident = cg.resident();
        let mut relabel = Vec::new();
        let mut new_frozen = Vec::new();
        for i in 0..n as u32 {
            let root = dsu.find(i);
            let new_id = resident[root as usize];
            if root == i && frozen[i as usize] {
                new_frozen.push(new_id);
            }
            if new_id != resident[i as usize] {
                relabel.push((resident[i as usize], new_id));
            }
        }
        cg.contract_slots(|i| dsu.find(i));
        cg.remove_self_edges();
        cg.set_frozen(new_frozen);
        LocalOutput {
            msf_edges,
            relabel,
            work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgraph::CEdge;
    use crate::msf::verify_msf;
    use crate::oracle::kruskal_msf;
    use crate::policy::with_kernel_policy;
    use mnd_graph::gen;
    use mnd_graph::partition::{partition_1d, VertexRange};
    use mnd_graph::CsrGraph;
    use proptest::prelude::*;

    fn run_whole(el: &mnd_graph::EdgeList) {
        let msf = boruvka_msf(el);
        verify_msf(el, &msf).unwrap();
    }

    /// The level-0 holding of one vertex range.
    fn holding(el: &mnd_graph::EdgeList, range: VertexRange) -> CGraph {
        CGraph::level0(el, &[range], 0..1).remove(0)
    }

    #[test]
    fn whole_graph_matches_kruskal_on_families() {
        run_whole(&gen::path(20, 1));
        run_whole(&gen::cycle(15, 2));
        run_whole(&gen::star(12, 3));
        run_whole(&gen::complete(10, 4));
        run_whole(&gen::gnm(200, 600, 5));
        run_whole(&gen::watts_strogatz(100, 4, 0.3, 6));
        run_whole(&gen::rmat(128, 512, gen::RmatProbs::GRAPH500, 7));
        run_whole(&gen::road_grid(12, 12, 0.02, 0.38, 8));
    }

    #[test]
    fn whole_graph_handles_disconnected() {
        let u = gen::disconnected_union(&[gen::path(5, 1), gen::cycle(6, 2), gen::gnm(30, 60, 3)]);
        run_whole(&u);
    }

    #[test]
    fn empty_and_trivial_inputs() {
        run_whole(&mnd_graph::EdgeList::new(0));
        run_whole(&mnd_graph::EdgeList::new(1));
        run_whole(&mnd_graph::EdgeList::new(10)); // edgeless
    }

    #[test]
    #[should_panic(expected = "cut edges")]
    fn none_exception_rejects_partitions() {
        let mut cg = holding(&gen::path(6, 1), VertexRange { start: 0, end: 3 });
        local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
    }

    #[test]
    fn partition_kernel_contracts_only_msf_edges() {
        // Property: every contracted edge must be in the oracle MSF.
        for seed in 0..5 {
            let el = gen::gnm(100, 400, seed);
            let oracle: std::collections::HashSet<_> = kruskal_msf(&el).edges.into_iter().collect();
            for (lo, hi) in [(0, 50), (25, 75), (0, 100)] {
                let mut cg = holding(&el, VertexRange { start: lo, end: hi });
                let out = local_boruvka(
                    &mut cg,
                    ExcpCond::BorderEdge,
                    FreezePolicy::Sticky,
                    StopPolicy::Exhaustive,
                );
                for e in &out.msf_edges {
                    assert!(
                        oracle.contains(e),
                        "seed {seed} [{lo},{hi}): {e:?} not in MSF"
                    );
                }
                cg.validate().unwrap();
            }
        }
    }

    #[test]
    fn border_vertex_is_more_conservative_than_border_edge() {
        let el = gen::gnm(200, 800, 11);
        let range = VertexRange { start: 0, end: 100 };
        let mut cg_e = holding(&el, range);
        let mut cg_v = holding(&el, range);
        let out_e = local_boruvka(
            &mut cg_e,
            ExcpCond::BorderEdge,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let out_v = local_boruvka(
            &mut cg_v,
            ExcpCond::BorderVertex,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert!(out_v.msf_edges.len() <= out_e.msf_edges.len());
        assert!(cg_v.num_resident() >= cg_e.num_resident());
    }

    #[test]
    fn resident_ids_become_min_member() {
        let el = gen::path(4, 1); // 0-1-2-3, whole graph
        let mut cg = CGraph::from_edge_list(&el);
        local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert_eq!(cg.resident(), &[0]); // single component named 0
        assert_eq!(cg.num_edges(), 0);
    }

    #[test]
    fn relabel_reports_only_changes() {
        let el = gen::path(3, 1);
        let mut cg = CGraph::from_edge_list(&el);
        let out = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        // 1 and 2 renamed to 0; 0 unchanged.
        let mut r = out.relabel.clone();
        r.sort_unstable();
        assert_eq!(r, vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn frozen_components_survive_in_holding() {
        // Path 0-1-2-3 split in half: with BorderEdge, whether a side
        // freezes depends on whether its internal edge is lighter than its
        // cut edge, but the *union* of contracted edges must stay within
        // the oracle MSF and residency must stay consistent.
        let el = gen::path(4, 5);
        let mut cg = holding(&el, VertexRange { start: 0, end: 2 });
        let out = local_boruvka(
            &mut cg,
            ExcpCond::BorderEdge,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let oracle: std::collections::HashSet<_> = kruskal_msf(&el).edges.into_iter().collect();
        for e in &out.msf_edges {
            assert!(oracle.contains(e));
        }
        for f in cg.frozen() {
            assert!(cg.is_resident(*f));
        }
    }

    #[test]
    fn work_profile_is_recorded() {
        let el = gen::gnm(100, 300, 9);
        let mut cg = CGraph::from_edge_list(&el);
        let out = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert!(out.work.num_iterations() >= 1);
        assert!(out.work.total_scanned() > 0);
        // Boruvka halves components per round: few iterations expected.
        assert!(out.work.num_iterations() <= 20);
    }

    #[test]
    fn recheck_freeze_contracts_at_least_as_much() {
        let el = gen::gnm(150, 500, 13);
        let range = VertexRange { start: 0, end: 75 };
        let mut cg_s = holding(&el, range);
        let mut cg_r = holding(&el, range);
        let s = local_boruvka(
            &mut cg_s,
            ExcpCond::BorderEdge,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let r = local_boruvka(
            &mut cg_r,
            ExcpCond::BorderEdge,
            FreezePolicy::Recheck,
            StopPolicy::Exhaustive,
        );
        assert!(r.msf_edges.len() >= s.msf_edges.len());
        let oracle: std::collections::HashSet<_> = kruskal_msf(&el).edges.into_iter().collect();
        for e in r.msf_edges.iter().chain(s.msf_edges.iter()) {
            assert!(oracle.contains(e));
        }
    }

    #[test]
    fn diminishing_benefit_stops_early_but_stays_correct() {
        let el = gen::gnm(300, 900, 17);
        let mut cg = CGraph::from_edge_list(&el);
        let out = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::DiminishingBenefit {
                min_improvement: 0.5,
            },
        );
        let oracle: std::collections::HashSet<_> = kruskal_msf(&el).edges.into_iter().collect();
        for e in &out.msf_edges {
            assert!(oracle.contains(e));
        }
        // Early stop leaves residue: resident components remain and can be
        // finished later (the recursion / postProcess path).
        assert!(cg.num_resident() >= 1);
    }

    /// Every observable of one invocation: the outputs in order, the work
    /// profile, the holding and its freeze marks.
    fn assert_equals_reference(base: &CGraph, excp: ExcpCond, tag: &str) {
        let stops = [
            StopPolicy::Exhaustive,
            StopPolicy::DiminishingBenefit {
                min_improvement: 0.05,
            },
            StopPolicy::DiminishingBenefit {
                min_improvement: 0.5,
            },
        ];
        for freeze in [FreezePolicy::Sticky, FreezePolicy::Recheck] {
            for stop in stops {
                let mut expect_cg = base.clone();
                let expect = reference::local_boruvka(&mut expect_cg, excp, freeze, stop);
                let forced = KernelPolicy {
                    par_threshold: 0,
                    chunk_rows: 7,
                };
                for policy in [KernelPolicy::seq(), forced] {
                    let mut got_cg = base.clone();
                    let got = with_kernel_policy(policy, || {
                        local_boruvka(&mut got_cg, excp, freeze, stop)
                    });
                    let tag = format!("{tag} {excp:?}/{freeze:?}/{stop:?} {policy:?}");
                    assert_eq!(got.msf_edges, expect.msf_edges, "{tag}");
                    assert_eq!(got.relabel, expect.relabel, "{tag}");
                    assert_eq!(got.work.iters, expect.work.iters, "{tag}");
                    assert_eq!(got_cg, expect_cg, "{tag}");
                    assert_eq!(got_cg.frozen(), expect_cg.frozen(), "{tag}");
                    for (slot, &c) in got_cg.resident().iter().enumerate() {
                        assert_eq!(got_cg.slot_of(c), Some(slot as u32), "{tag}");
                    }
                    // The commit's cut-row list is what a sweep would find.
                    assert_eq!(got_cg.cut_rows(), got_cg.fresh_cut_rows(), "{tag}");
                }
            }
        }
    }

    fn family(pick: u8, seed: u64) -> mnd_graph::EdgeList {
        match pick % 5 {
            0 => gen::gnm(90, 360, seed),
            1 => gen::rmat(128, 600, gen::RmatProbs::GRAPH500, seed),
            2 => gen::road_grid(10, 9, 0.02, 0.38, seed),
            3 => gen::star(70, seed),
            _ => gen::path(80, seed),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn one_sweep_kernel_equals_the_reference_loop(
            pick in 0u8..5,
            seed in 0u64..1000,
            flat_weights in proptest::bool::ANY,
            nparts in 2usize..6,
        ) {
            let mut el = family(pick, seed);
            if flat_weights {
                // All-equal weights: every election is decided by the
                // `(edge key, row)` fallback of the packed comparison.
                let mut flat = mnd_graph::EdgeList::new(el.num_vertices());
                for e in el.edges() {
                    flat.push(e.u, e.v, 5);
                }
                el = flat;
            }
            assert_equals_reference(&CGraph::from_edge_list(&el), ExcpCond::None, "whole");

            let ranges = partition_1d(&CsrGraph::from_edge_list(&el), nparts, 1.0);
            let parts = CGraph::level0(&el, &ranges, 0..nparts);
            for (i, part) in parts.iter().enumerate() {
                for excp in [ExcpCond::BorderEdge, ExcpCond::BorderVertex] {
                    assert_equals_reference(part, excp, &format!("part {i}/{nparts}"));
                }
            }

            // Sticky freezes carried over from a previous invocation: two
            // neighbouring parts contract on their own, tell each other
            // their ghost parents and recombine with their marks.
            let (mut left, mut right) = (parts[0].clone(), parts[1].clone());
            let eager = StopPolicy::DiminishingBenefit { min_improvement: 0.5 };
            let l = reference::local_boruvka(&mut left, ExcpCond::BorderEdge, FreezePolicy::Sticky, eager);
            let r = reference::local_boruvka(&mut right, ExcpCond::BorderEdge, FreezePolicy::Sticky, eager);
            crate::reduce::apply_ghost_parents(&mut left, &r.relabel);
            crate::reduce::apply_ghost_parents(&mut right, &l.relabel);
            left.absorb(right);
            for excp in [ExcpCond::BorderEdge, ExcpCond::BorderVertex] {
                assert_equals_reference(&left, excp, "recombined with marks");
            }

            // Rows a kernel never leaves behind but must cope with: self
            // rows on a resident and on a ghost, ghost-to-ghost rows.
            let resident = parts[0].resident().to_vec();
            let n = el.num_vertices();
            let mut rows = parts[0].edges_vec();
            if let (Some(&first), Some(&last)) = (resident.first(), resident.last()) {
                let extra = [(first, first), (last, last), (n + 3, n + 3), (n + 1, n + 2), (n + 2, n + 5)];
                for (k, (a, b)) in extra.into_iter().enumerate() {
                    let at = (k * 7) % (rows.len() + 1);
                    rows.insert(at, CEdge::new(a, b, WEdge::new(n + 10 + k as u32, n + 20, 1 + k as u32)));
                }
            }
            let messy = CGraph::from_parts(resident.clone(), rows, resident.iter().copied().step_by(3).collect());
            for excp in [ExcpCond::BorderEdge, ExcpCond::BorderVertex] {
                assert_equals_reference(&messy, excp, "self and ghost-ghost rows");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The quiet regime: the invocations after the first, on holdings
        /// that carry sticky marks and renames. Every part runs an early-
        /// stopped first invocation, then exhaustive ones; between two, the
        /// parts exchange their renames (one ghost-rename batch) and reduce
        /// — the filtered reduction from the second round on. The 2nd, 3rd
        /// and 4th invocations are held to the reference loop, work profile
        /// included; by the last most parts have no unfrozen root left.
        #[test]
        fn later_invocations_equal_the_reference_loop(
            pick in 0u8..5,
            seed in 0u64..1000,
            nparts in 2usize..6,
        ) {
            let el = family(pick, seed);
            let ranges = partition_1d(&CsrGraph::from_edge_list(&el), nparts, 1.0);
            let mut parts = CGraph::level0(&el, &ranges, 0..nparts);
            for invocation in 1..=3 {
                let stop = match invocation {
                    1 => StopPolicy::DiminishingBenefit { min_improvement: 0.5 },
                    _ => StopPolicy::Exhaustive,
                };
                let renames: Vec<(CompId, CompId)> = parts
                    .iter_mut()
                    .flat_map(|part| {
                        local_boruvka(part, ExcpCond::BorderEdge, FreezePolicy::Sticky, stop).relabel
                    })
                    .collect();
                for part in &mut parts {
                    crate::reduce::apply_ghost_parents(part, &renames);
                    crate::reduce::reduce_holding(part);
                    part.validate().unwrap();
                }
                for (i, part) in parts.iter().enumerate() {
                    let tag = format!("invocation {} of part {i}/{nparts}", invocation + 1);
                    prop_assert_eq!(part.renamed_since_reduce(), Some(&[][..]), "{}", tag);
                    for excp in [ExcpCond::BorderEdge, ExcpCond::BorderVertex] {
                        assert_equals_reference(part, excp, &tag);
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_holdings_equal_the_reference_loop() {
        let ghost_only = CEdge::new(7, 9, WEdge::new(7, 9, 1));
        for (tag, cg) in [
            ("empty", CGraph::new()),
            (
                "edgeless",
                CGraph::from_parts(vec![2, 5, 9], vec![], vec![5]),
            ),
            (
                "single resident",
                CGraph::from_parts(vec![4], vec![CEdge::new(4, 8, WEdge::new(4, 8, 3))], vec![]),
            ),
            (
                "no resident",
                CGraph::from_parts(vec![], vec![ghost_only], vec![]),
            ),
        ] {
            for excp in [ExcpCond::BorderEdge, ExcpCond::BorderVertex] {
                assert_equals_reference(&cg, excp, tag);
            }
        }
        for el in [mnd_graph::EdgeList::new(0), mnd_graph::EdgeList::new(6)] {
            assert_equals_reference(
                &CGraph::from_edge_list(&el),
                ExcpCond::None,
                "whole, edgeless",
            );
        }
    }
}
