//! Oracle test for the SoA reduction pass: `reduce_holding` on the
//! column-stored holding must produce **edge-for-edge** the same result as
//! the original array-of-structs implementation (self-edge retain, then a
//! hash-table of per-pair minimums, then canonical sort). The reference is
//! reimplemented inline here exactly as the seed wrote it. A holding that
//! knows the ids renamed since its last reduction reduces only the rows
//! touching them; that pass is held to the full one and to the reference.

use mnd_graph::gen;
use mnd_graph::types::WEdge;
use mnd_kernels::cgraph::{CEdge, CGraph, CompId};
use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd_kernels::reduce::{apply_ghost_parents, reduce_holding};
use proptest::prelude::*;

/// The seed's AoS reduction, verbatim semantics: retain non-self edges in
/// order, keep the minimum-key edge per component pair via a hash table,
/// then sort by original-edge key.
fn aos_reference_reduce(mut edges: Vec<CEdge>) -> Vec<CEdge> {
    edges.retain(|e| !e.is_self());
    let mut best: std::collections::HashMap<(CompId, CompId), CEdge> =
        std::collections::HashMap::new();
    for e in edges {
        best.entry((e.a, e.b))
            .and_modify(|cur| {
                if e.key() < cur.key() {
                    *cur = e;
                }
            })
            .or_insert(e);
    }
    let mut out: Vec<CEdge> = best.into_values().collect();
    out.sort_unstable_by_key(|e| e.key());
    out
}

/// Builds a holding whose component structure forces self and multi edges:
/// vertices are assigned to components by `v / group`, so every group of
/// `group` consecutive vertices collapses into one component and any edges
/// between the same two groups become parallel multi-edges.
fn contracted_holding(el: &mnd_graph::EdgeList, group: u32) -> (CGraph, Vec<CEdge>) {
    let comp = |v: u32| (v / group) * group; // component named by min member
    let cedges: Vec<CEdge> = el
        .edges()
        .iter()
        .map(|e| CEdge::new(comp(e.u), comp(e.v), *e))
        .collect();
    let mut resident: Vec<CompId> = (0..el.num_vertices()).map(comp).collect();
    resident.sort_unstable();
    resident.dedup();
    // from_parts would dedup-check; the raw edge set may hold duplicates of
    // nothing (original edges are unique), so construction is safe.
    let cg = CGraph::from_parts(resident, cedges.clone(), vec![]);
    (cg, cedges)
}

fn assert_reduce_matches_oracle(el: &mnd_graph::EdgeList, group: u32) {
    let (mut cg, aos) = contracted_holding(el, group);
    let expect = aos_reference_reduce(aos);
    let stats = reduce_holding(&mut cg);
    assert_eq!(
        cg.edges_vec(),
        expect,
        "SoA reduce diverged from AoS oracle"
    );
    assert_eq!(stats.edges_after as usize, expect.len());
    assert_eq!(
        stats.edges_before - stats.self_removed - stats.multi_removed,
        stats.edges_after
    );
}

#[test]
fn soa_reduce_matches_aos_on_rmat() {
    for seed in [1, 7, 42] {
        let el = gen::rmat(512, 4000, gen::RmatProbs::GRAPH500, seed); // skewed degrees
        for group in [2, 8, 32] {
            assert_reduce_matches_oracle(&el, group);
        }
    }
}

#[test]
fn soa_reduce_matches_aos_on_er() {
    for seed in [3, 11] {
        let el = gen::gnm(400, 2400, seed);
        for group in [2, 5, 20] {
            assert_reduce_matches_oracle(&el, group);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random graphs, random contraction granularity: SoA == AoS always.
    #[test]
    fn soa_reduce_matches_aos_randomised(
        n in 10u32..200,
        m_per in 1u64..8,
        seed in 0u64..10_000,
        group in 1u32..16,
    ) {
        let el = gen::gnm(n, n as u64 * m_per, seed);
        let (mut cg, aos) = contracted_holding(&el, group);
        let expect = aos_reference_reduce(aos);
        reduce_holding(&mut cg);
        prop_assert_eq!(cg.edges_vec(), expect);
        cg.validate().unwrap();
    }

    /// Reduction is idempotent: a second pass removes nothing.
    #[test]
    fn reduce_is_idempotent(n in 10u32..120, seed in 0u64..1000, group in 1u32..10) {
        let el = gen::gnm(n, n as u64 * 4, seed);
        let (mut cg, _) = contracted_holding(&el, group);
        reduce_holding(&mut cg);
        let once = cg.clone();
        let stats = reduce_holding(&mut cg);
        prop_assert_eq!(stats.self_removed, 0);
        prop_assert_eq!(stats.multi_removed, 0);
        prop_assert_eq!(&cg, &once);
    }
}

#[test]
fn reference_sanity() {
    // Hand-checked tiny case pinning the oracle itself.
    let e = |a: u32, b: u32, u: u32, v: u32, w: u32| CEdge::new(a, b, WEdge::new(u, v, w));
    let input = vec![
        e(0, 0, 0, 1, 1), // self
        e(0, 2, 0, 2, 5),
        e(0, 2, 1, 3, 2), // lighter multi of 0~2
        e(2, 4, 3, 4, 9),
    ];
    let out = aos_reference_reduce(input);
    assert_eq!(out, vec![e(0, 2, 1, 3, 2), e(2, 4, 3, 4, 9)]);
}

/// A reduced holding over residents `0..40` and ghosts `100..160`: one row
/// per original edge, rows with one and with two ghost ends, and some of the
/// residents frozen.
fn reduced_holding(rows: &[(u32, u32, u32)]) -> CGraph {
    let end = |x: u32| if x < 40 { x } else { 100 + x % 60 };
    let edges = rows
        .iter()
        .enumerate()
        .map(|(i, &(a, b, w))| CEdge::new(end(a), end(b), WEdge::new(i as u32, 5000 + i as u32, w)))
        .collect();
    let mut cg = CGraph::from_parts((0..40).collect(), edges, (0..40).step_by(3).collect());
    reduce_holding(&mut cg);
    cg
}

/// `cg` reduced by the full pass: a relabel that renames nothing makes the
/// holding forget the ids renamed since its last reduction.
fn fully_reduced(cg: &CGraph) -> (CGraph, mnd_kernels::reduce::ReduceStats) {
    let mut full = cg.clone();
    full.relabel(|c| c);
    assert_eq!(full.renamed_since_reduce(), None);
    let stats = reduce_holding(&mut full);
    (full, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reduction over the renamed rows alone equals the full table of
    /// minimums — rows, order and counts — after each of a run of rename
    /// batches: ghost-parent batches (some naming no row's end, some
    /// renaming onto ghosts that unrenamed rows already reach, so renamed
    /// and unrenamed rows fall parallel) and kernel commits.
    #[test]
    fn filtered_reduce_equals_the_full_pass_after_rename_batches(
        rows in proptest::collection::vec((0u32..100, 0u32..100, 1u32..30), 0..250),
        batches in proptest::collection::vec(
            (0u8..3, proptest::collection::vec((0u32..80, 0u32..60), 0..12)),
            1..6,
        ),
    ) {
        let mut cg = reduced_holding(&rows);
        for (kind, pairs) in batches {
            match kind {
                // Ghosts renamed onto ghosts, several onto one.
                0 => {
                    let pairs: Vec<(u32, u32)> =
                        pairs.iter().map(|&(old, new)| (100 + old % 60, 100 + new)).filter(|p| p.0 != p.1).collect();
                    let mut msg = pairs.clone();
                    mnd_kernels::reduce::ghost_parent_message(&mut msg);
                    // One parent per old id, no chains: as a protocol round sends.
                    msg.dedup_by_key(|p| p.0);
                    let olds: Vec<u32> = msg.iter().map(|p| p.0).collect();
                    msg.retain(|p| !olds.contains(&p.1));
                    apply_ghost_parents(&mut cg, &msg);
                }
                // A batch naming no id any row carries.
                1 => apply_ghost_parents(&mut cg, &[(90_000, 90_001), (90_002, 90_001)]),
                // The kernel's commit, early-stopped: the filtered kernel
                // whenever marks survive.
                _ => {
                    mnd_kernels::local_boruvka(
                        &mut cg,
                        ExcpCond::BorderEdge,
                        FreezePolicy::Sticky,
                        StopPolicy::DiminishingBenefit { min_improvement: 0.5 },
                    );
                }
            }
            prop_assert!(cg.renamed_since_reduce().is_some());
            let (full, full_stats) = fully_reduced(&cg);
            let expect = aos_reference_reduce(cg.edges_vec());
            let stats = reduce_holding(&mut cg);
            prop_assert_eq!(cg.edges_vec(), full.edges_vec());
            prop_assert_eq!(cg.edges_vec(), expect);
            prop_assert_eq!(stats, full_stats);
            prop_assert_eq!(cg.renamed_since_reduce(), Some(&[][..]));
            cg.validate().unwrap();
        }
    }
}

#[test]
fn a_reduced_holding_renamed_nowhere_costs_no_pass() {
    let mut cg = reduced_holding(&[(0, 1, 3), (1, 2, 4), (2, 45, 5), (45, 46, 6)]);
    let before = cg.clone();
    apply_ghost_parents(&mut cg, &[(7_000, 7_001)]);
    assert_eq!(cg.renamed_since_reduce(), Some(&[][..]));
    let stats = reduce_holding(&mut cg);
    assert_eq!((stats.edges_before, stats.edges_after), (4, 4));
    assert_eq!((stats.self_removed, stats.multi_removed), (0, 0));
    assert_eq!(cg, before);
}
