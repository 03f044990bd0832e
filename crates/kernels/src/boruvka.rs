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
//! ## Deterministic parallel election
//!
//! Above the [`KernelPolicy`] crossover the election runs the policy's
//! variant. **Chunk-merge**: worklist chunks sweep on rayon workers, each
//! producing a partial winner table; partials merge in chunk order under
//! the total order `(original edge, worklist row)`, so the merged table is
//! byte-identical to the sequential sweep for any chunking. The union-find
//! is fully path-compressed before each election (`compress_all`), so
//! workers can resolve roots through a shared reference without mutation.
//! **Lock-free**: workers CAS packed `(weight << 32) | row` words into one
//! atomic slot per root ([`crate::lockfree::fetch_min_edge`], weight ties
//! falling back to the full edge key) and resolve roots through the
//! concurrent [`AtomicDisjointSets`] — no partial tables, no merge phase.
//! A fetch-min under a total order is commutative, so every interleaving
//! elects the same winners as the sequential sweep.
//!
//! Either way, contraction then visits winner slots sequentially in
//! root-index order — safe because the elected edges form a forest under
//! the total edge order (mutual elections are the same edge), so the union
//! *set* is order-independent, and making the order fixed makes the whole
//! kernel deterministic across policies and thread counts.
//!
//! Election scratch — the atomic min-edge array, its decoded winner buffer
//! and the DSU parent array — is allocated once per invocation and *reset*
//! (the drain swaps slots back to empty) per round, mirroring the
//! `incident_counts_with` scratch pattern.

use std::sync::atomic::AtomicU64;

use mnd_graph::types::WEdge;
use rayon::prelude::*;

use crate::cgraph::{CGraph, CompId};
use crate::dsu::AtomicDisjointSets;
use crate::lockfree::{fetch_min_edge, pack, row_of, NONE_KEY};
use crate::msf::MsfResult;
use crate::policy::{
    ExcpCond, FreezePolicy, IterWork, KernelClass, KernelPolicy, ParVariant, StopPolicy,
    WorkProfile,
};

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
pub fn local_boruvka(
    cg: &mut CGraph,
    excp: ExcpCond,
    freeze: FreezePolicy,
    stop: StopPolicy,
) -> LocalOutput {
    local_boruvka_with(cg, &KernelPolicy::default(), excp, freeze, stop)
}

/// As [`local_boruvka`], under an explicit (typically calibrated)
/// [`KernelPolicy`] governing the election sweep, the commit relabel and
/// the fused self-edge compaction. Output is identical for every policy.
pub fn local_boruvka_with(
    cg: &mut CGraph,
    policy: &KernelPolicy,
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

    // The election mode is fixed per invocation (the DSU flavour must not
    // switch mid-run): lock-free when the policy routes elections through
    // the atomic plane and the initial worklist clears the crossover —
    // worklists only shrink, and late small rounds cost the same either way.
    let lockfree = policy.variant_for(KernelClass::Election) == ParVariant::LockFree
        && policy.use_par_for(KernelClass::Election, cg.num_edges());
    let mut dsu = if lockfree {
        ElectionDsu::LockFree(AtomicDisjointSets::new(n))
    } else {
        ElectionDsu::Seq(MinDsu::new(n))
    };
    // Lock-free election scratch: allocated once here, reset per round (the
    // drain swaps every hit slot back to NONE_KEY; winners are refilled).
    let mut lf_scratch = lockfree.then(|| LockFreeElection::new(n));
    // Freeze marks surviving from a previous invocation stay sticky.
    let mut frozen = cg.frozen_marks();

    // Every endpoint is resolved to its resident slot exactly once, here;
    // the rounds below work on slots only.
    let (ca, cb) = cg.endpoint_cols();
    let mut worklist: Vec<CEdgeLocal> = ca
        .iter()
        .zip(cb)
        .zip(cg.orig_col())
        .map(|((&a, &b), &orig)| CEdgeLocal {
            a: cg.slot_of(a),
            b: cg.slot_of(b),
            orig,
        })
        .collect();

    // BorderVertex: freeze every component touching the border up front.
    if excp == ExcpCond::BorderVertex {
        for e in &worklist {
            if let (Some(i), None) | (None, Some(i)) = (e.a, e.b) {
                frozen[i as usize] = true;
            }
        }
    }

    let mut msf_edges: Vec<WEdge> = Vec::new();
    let mut work = WorkProfile::default();

    let mut prev_cost: Option<u64> = None;
    loop {
        // --- Min-edge election ------------------------------------------
        // Roots are fully compressed up front so the sweep — sequential,
        // chunked across workers, or atomic — resolves them in ~one hop.
        dsu.compress_all();
        let scanned = worklist.len() as u64;
        let best_owned: Vec<Option<Winner>>;
        let best: &[Option<Winner>] = match &mut lf_scratch {
            Some(lf) => {
                let adsu = match &dsu {
                    ElectionDsu::LockFree(d) => d,
                    ElectionDsu::Seq(_) => unreachable!("scratch without lock-free DSU"),
                };
                lf.elect(&worklist, policy, adsu, &frozen, freeze);
                &lf.winners
            }
            None => {
                let dsu_seq = match &dsu {
                    ElectionDsu::Seq(d) => d,
                    ElectionDsu::LockFree(_) => unreachable!("lock-free mode without scratch"),
                };
                best_owned = if policy.use_par_for(KernelClass::Election, worklist.len()) {
                    let frozen_ref = &frozen;
                    let rows: &[CEdgeLocal] = &worklist;
                    let partials: Vec<Vec<Option<Winner>>> = policy
                        .chunk_ranges(rows.len())
                        .into_par_iter()
                        .map(|(lo, hi)| {
                            let mut part = vec![None; n];
                            elect_rows(&rows[lo..hi], lo, dsu_seq, frozen_ref, freeze, &mut part);
                            part
                        })
                        .collect();
                    // Merge partial tables in chunk order; the (edge, row)
                    // key makes the merge associative, so this equals the
                    // sequential sweep.
                    let mut best = vec![None; n];
                    for part in partials {
                        for (slot, cand) in best.iter_mut().zip(part) {
                            if let Some(w) = cand {
                                take_winner(slot, w);
                            }
                        }
                    }
                    best
                } else {
                    let mut best = vec![None; n];
                    elect_rows(&worklist, 0, dsu_seq, &frozen, freeze, &mut best);
                    best
                };
                &best_owned
            }
        };

        // --- Contraction / freezing -------------------------------------
        // Recheck policy re-derives freezes every round.
        if freeze == FreezePolicy::Recheck {
            for f in frozen.iter_mut() {
                *f = false;
            }
        }
        let mut unions = 0u64;
        let active = best.iter().filter(|s| s.is_some()).count() as u64;
        // Winner slots are visited in root-index order (not election order):
        // the elected edges form a forest, so any visit order unions the
        // same edge set — the fixed order keeps the kernel deterministic.
        for r in 0..n as u32 {
            let (win, _, ea, eb) = match best[r as usize] {
                Some(w) => w,
                None => continue,
            };
            // Endpoints were resolved to roots during election; re-resolve
            // (cheap, path-halved) since earlier unions this round may have
            // merged them further.
            let ra = ea.map(|i| dsu.find(i));
            let rb = eb.map(|i| dsu.find(i));
            match (ra, rb) {
                (Some(x), Some(y)) => {
                    if x != y && dsu.union(x, y) {
                        msf_edges.push(win);
                        unions += 1;
                        // Sticky: a merge involving a frozen side freezes
                        // the result.
                        let root = dsu.find(x);
                        if freeze == FreezePolicy::Sticky
                            && (frozen[x as usize] || frozen[y as usize])
                        {
                            frozen[root as usize] = true;
                        }
                    }
                }
                // Winner is a cut edge: freeze the resident side.
                (Some(x), None) | (None, Some(x)) => {
                    frozen[dsu.find(x) as usize] = true;
                }
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
        // Data-driven shrink: drop edges that became internal self edges.
        worklist.retain(|e| {
            let ra = e.a.map(|i| dsu.find(i));
            let rb = e.b.map(|i| dsu.find(i));
            !matches!((ra, rb), (Some(x), Some(y)) if x == y)
        });
        // Diminishing-benefit early stop (§4.3.2): compare iteration costs.
        if let Some(prev) = prev_cost {
            if !stop.should_continue(prev, scanned) {
                break;
            }
        }
        prev_cost = Some(scanned);
    }

    // --- Commit the contraction to the holding ---------------------------
    // New id of a resident component = smallest member id = resident[root].
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
    // dsu is path-compressed by the loop above; a const find suffices.
    let dsu_ref = &dsu;
    cg.contract_slots(policy, |i| dsu_ref.find_const(i));
    cg.remove_self_edges_with(policy);
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

/// A per-root election winner: the elected original edge, its worklist row
/// (tie-break making the election order-free), and the edge's local
/// endpoint indices (election-time roots in the chunk-merge plane, raw
/// locals in the lock-free drain — contraction re-resolves through the
/// union-find either way, so the two are interchangeable).
type Winner = (WEdge, u32, Option<u32>, Option<u32>);

/// The per-invocation union-find in the flavour the election mode needs:
/// sequential [`MinDsu`] for the seq/chunk-merge plane, the concurrent
/// [`AtomicDisjointSets`] for the lock-free plane. Both orient unions
/// larger-root-under-smaller, so roots — and therefore every output byte —
/// are identical across modes.
enum ElectionDsu {
    Seq(MinDsu),
    LockFree(AtomicDisjointSets),
}

impl ElectionDsu {
    #[inline]
    fn find(&mut self, x: u32) -> u32 {
        match self {
            ElectionDsu::Seq(d) => d.find(x),
            ElectionDsu::LockFree(d) => d.find(x),
        }
    }

    #[inline]
    fn find_const(&self, x: u32) -> u32 {
        match self {
            ElectionDsu::Seq(d) => d.find_const(x),
            // The atomic find is interior-mutable and thread-safe, so it
            // serves as the shared-reference find (relabel workers may call
            // this concurrently).
            ElectionDsu::LockFree(d) => d.find(x),
        }
    }

    #[inline]
    fn union(&mut self, a: u32, b: u32) -> bool {
        match self {
            ElectionDsu::Seq(d) => d.union(a, b),
            ElectionDsu::LockFree(d) => d.union(a, b),
        }
    }

    fn compress_all(&mut self) {
        match self {
            ElectionDsu::Seq(d) => d.compress_all(),
            ElectionDsu::LockFree(d) => d.compress_all(),
        }
    }
}

/// Reusable lock-free election scratch: one packed atomic word per root
/// plus the decoded winner table the shared contraction loop reads. Both
/// buffers are allocated once per invocation; [`LockFreeElection::elect`]
/// leaves every `best` slot back at [`NONE_KEY`], so rounds reuse the
/// arrays without reallocating.
struct LockFreeElection {
    best: Vec<AtomicU64>,
    winners: Vec<Option<Winner>>,
}

impl LockFreeElection {
    fn new(n: usize) -> Self {
        LockFreeElection {
            best: (0..n).map(|_| AtomicU64::new(NONE_KEY)).collect(),
            winners: vec![None; n],
        }
    }

    /// One round's election: a chunked parallel sweep CASes packed
    /// `(weight << 32) | row` keys into `best` (weight ties fall back to
    /// the full `(edge, row)` order, so winners equal the sequential
    /// sweep's for any interleaving), then a sequential drain decodes the
    /// winner table — swapping each hit slot back to [`NONE_KEY`], which
    /// is exactly the reset the next round needs.
    fn elect(
        &mut self,
        rows: &[CEdgeLocal],
        policy: &KernelPolicy,
        dsu: &AtomicDisjointSets,
        frozen: &[bool],
        freeze: FreezePolicy,
    ) {
        let best = &self.best;
        let orig_of = |row: u32| rows[row as usize].orig;
        policy
            .chunk_ranges(rows.len())
            .into_par_iter()
            .for_each(|(lo, hi)| {
                for (k, e) in rows[lo..hi].iter().enumerate() {
                    let row = (lo + k) as u32;
                    // No unions race the election (contraction is a later,
                    // sequential phase), so every concurrent find resolves
                    // to the round's unique root.
                    let ra = e.a.map(|i| dsu.find(i));
                    let rb = e.b.map(|i| dsu.find(i));
                    if let (Some(x), Some(y)) = (ra, rb) {
                        if x == y {
                            continue; // self edge at current contraction
                        }
                    }
                    let key = pack(e.orig.w, row);
                    for r in [ra, rb].into_iter().flatten() {
                        if frozen[r as usize] && freeze == FreezePolicy::Sticky {
                            continue;
                        }
                        fetch_min_edge(&best[r as usize], key, &orig_of);
                    }
                }
            });
        for (slot, win) in self.best.iter().zip(self.winners.iter_mut()) {
            let key = slot.swap(NONE_KEY, std::sync::atomic::Ordering::Relaxed);
            *win = (key != NONE_KEY).then(|| {
                let row = row_of(key);
                let e = &rows[row as usize];
                (e.orig, row, e.a, e.b)
            });
        }
    }
}

/// Elects over `rows` (worklist rows starting at global index `lo`) into
/// `best`, one slot per resident root. Reads the union-find through
/// [`MinDsu::find_const`] — callers compress fully first — so chunks can
/// run on rayon workers against the shared `&MinDsu`.
fn elect_rows(
    rows: &[CEdgeLocal],
    lo: usize,
    dsu: &MinDsu,
    frozen: &[bool],
    freeze: FreezePolicy,
    best: &mut [Option<Winner>],
) {
    for (k, e) in rows.iter().enumerate() {
        let row = (lo + k) as u32;
        let ra = e.a.map(|i| dsu.find_const(i));
        let rb = e.b.map(|i| dsu.find_const(i));
        if let (Some(x), Some(y)) = (ra, rb) {
            if x == y {
                continue; // self edge at current contraction
            }
        }
        for r in [ra, rb].into_iter().flatten() {
            if frozen[r as usize] && freeze == FreezePolicy::Sticky {
                continue;
            }
            take_winner(&mut best[r as usize], (e.orig, row, ra, rb));
        }
    }
}

/// Replaces `slot` with `cand` if the candidate's `(edge, row)` key is
/// smaller — the total order both the sweep and the chunk merge use.
#[inline]
fn take_winner(slot: &mut Option<Winner>, cand: Winner) {
    let lighter = match slot {
        Some((cur, cur_row, _, _)) => (cand.0, cand.1) < (*cur, *cur_row),
        None => true,
    };
    if lighter {
        *slot = Some(cand);
    }
}

/// Min-representative DSU: links always orient the larger root under the
/// smaller, so the representative of a set is its minimum element — the
/// property that makes component ids globally consistent without
/// coordination.
struct MinDsu {
    parent: Vec<u32>,
}

impl MinDsu {
    fn new(n: usize) -> Self {
        MinDsu {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    fn find_const(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Fully path-compresses: afterwards `parent[x]` is `x`'s root, so
    /// [`MinDsu::find_const`] resolves in one hop from shared references.
    fn compress_all(&mut self) {
        for i in 0..self.parent.len() as u32 {
            let r = self.find(i);
            self.parent[i as usize] = r;
        }
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        true
    }
}

/// Local-index edge used by the kernel's worklist (`None` = non-resident
/// endpoint).
#[derive(Clone, Copy, Debug)]
struct CEdgeLocal {
    a: Option<u32>,
    b: Option<u32>,
    orig: WEdge,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msf::verify_msf;
    use crate::oracle::kruskal_msf;
    use mnd_graph::gen;
    use mnd_graph::partition::VertexRange;
    use mnd_graph::CsrGraph;

    fn run_whole(el: &mnd_graph::EdgeList) {
        let msf = boruvka_msf(el);
        verify_msf(el, &msf).unwrap();
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
        let g = CsrGraph::from_edge_list(&gen::path(6, 1));
        let mut cg = CGraph::from_partition(&g, VertexRange { start: 0, end: 3 });
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
            let g = CsrGraph::from_edge_list(&el);
            for (lo, hi) in [(0, 50), (25, 75), (0, 100)] {
                let mut cg = CGraph::from_partition(&g, VertexRange { start: lo, end: hi });
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
        let g = CsrGraph::from_edge_list(&el);
        let range = VertexRange { start: 0, end: 100 };
        let mut cg_e = CGraph::from_partition(&g, range);
        let mut cg_v = CGraph::from_partition(&g, range);
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
        let g = CsrGraph::from_edge_list(&el);
        let mut cg = CGraph::from_partition(&g, VertexRange { start: 0, end: 2 });
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
        let g = CsrGraph::from_edge_list(&el);
        let range = VertexRange { start: 0, end: 75 };
        let mut cg_s = CGraph::from_partition(&g, range);
        let mut cg_r = CGraph::from_partition(&g, range);
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
}
