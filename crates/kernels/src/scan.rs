//! Min-edge election scans over the holding's SoA columns.
//!
//! The hottest loop of every Boruvka variant is the per-component
//! lightest-edge election. This module provides it as a standalone kernel
//! over [`CGraph`]'s column storage: [`min_edge_scan`] runs the
//! sequential sweep at or below the policy's threshold, and above it races
//! CAS fetch-min loops from row chunks against one packed atomic word per
//! resident slot (no partial tables, no merge phase; see
//! [`crate::lockfree`]).
//!
//! Winners are ordered by `(edge, row index)` — a total order even with
//! multi-edges — so the atomic fetch-min is commutative and both arms
//! return *identical* tables regardless of chunking or thread count (the
//! oracle tests assert this).

use std::sync::atomic::AtomicU64;

use mnd_graph::types::WEdge;
use rayon::prelude::*;

use crate::cgraph::CGraph;
use crate::lockfree::{fetch_min_edge, pack, row_of, NONE_KEY};
use crate::policy::KernelPolicy;

/// The sequential arm: the lightest incident edge per resident component,
/// as a row index into the holding's edge columns.
fn min_edge_scan_seq(cg: &CGraph) -> Vec<Option<u32>> {
    let mut best = vec![None; cg.num_resident()];
    scan_rows(cg, 0, cg.num_edges(), &mut best);
    best
}

/// The parallel arm: workers CAS packed `(weight << 32) | row` words into
/// one atomic slot per resident component over `chunk_rows`-row chunks. No
/// per-chunk winner tables, no merge pass. Weight ties fall back to the
/// full `(edge, row)` order, so the table is byte-identical to the
/// sequential arm for any chunking and thread count.
fn min_edge_scan_lockfree(cg: &CGraph, chunk_rows: usize) -> Vec<Option<u32>> {
    assert!(chunk_rows > 0, "chunk_rows must be positive");
    let m = cg.num_edges();
    let best: Vec<AtomicU64> = (0..cg.num_resident())
        .map(|_| AtomicU64::new(NONE_KEY))
        .collect();
    let (ca, cb) = cg.endpoint_cols();
    let orig = cg.orig_col();
    let orig_of = |row: u32| orig[row as usize];
    let ranges: Vec<(usize, usize)> = (0..m)
        .step_by(chunk_rows)
        .map(|lo| (lo, (lo + chunk_rows).min(m)))
        .collect();
    ranges.into_par_iter().for_each(|(lo, hi)| {
        for row in lo..hi {
            if ca[row] == cb[row] {
                continue;
            }
            let key = pack(orig[row].w, row as u32);
            for c in [ca[row], cb[row]] {
                if let Some(slot) = cg.slot_of(c) {
                    fetch_min_edge(&best[slot as usize], key, &orig_of);
                }
            }
        }
    });
    best.into_iter()
        .map(|slot| {
            let key = slot.into_inner();
            (key != NONE_KEY).then(|| row_of(key))
        })
        .collect()
}

/// The lightest incident edge per resident component, as a row index into
/// the holding's edge columns (`None` for isolated components), under
/// [`KernelPolicy::current`]: sequential at or below its threshold, the
/// lock-free sweep above. Resident slot `i` corresponds to
/// `cg.resident()[i]`. Self edges (both endpoints the same component) elect
/// nobody. Identical output either way.
pub fn min_edge_scan(cg: &CGraph) -> Vec<Option<u32>> {
    let policy = KernelPolicy::current();
    if policy.use_par(cg.num_edges()) {
        min_edge_scan_lockfree(cg, policy.chunk_rows.max(1))
    } else {
        min_edge_scan_seq(cg)
    }
}

/// Elects over rows `lo..hi` into `best` (one slot per resident index).
/// Endpoints resolve through the holding's resolver ([`CGraph::slot_of`]),
/// the same lookup the lock-free arm uses.
fn scan_rows(cg: &CGraph, lo: usize, hi: usize, best: &mut [Option<u32>]) {
    let (ca, cb) = cg.endpoint_cols();
    let orig = cg.orig_col();
    for row in lo..hi {
        if ca[row] == cb[row] {
            continue;
        }
        for c in [ca[row], cb[row]] {
            if let Some(slot) = cg.slot_of(c) {
                take_if_lighter(&mut best[slot as usize], row as u32, orig);
            }
        }
    }
}

/// Replaces `slot` with `candidate` if the candidate's `(edge, row)` key is
/// smaller — the order both arms elect winners by.
#[inline]
fn take_if_lighter(slot: &mut Option<u32>, candidate: u32, orig: &[WEdge]) {
    let lighter = match *slot {
        Some(cur) => (orig[candidate as usize], candidate) < (orig[cur as usize], cur),
        None => true,
    };
    if lighter {
        *slot = Some(candidate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::with_kernel_policy;
    use mnd_graph::gen;

    fn holdings() -> Vec<CGraph> {
        vec![
            CGraph::from_edge_list(&gen::path(40, 1)),
            CGraph::from_edge_list(&gen::complete(25, 2)),
            CGraph::from_edge_list(&gen::gnm(500, 3000, 3)),
            CGraph::from_edge_list(&gen::rmat(256, 2048, gen::RmatProbs::GRAPH500, 4)),
            CGraph::from_edge_list(&gen::disconnected_union(&[
                gen::path(10, 5),
                gen::gnm(50, 150, 6),
            ])),
            CGraph::new(),
        ]
    }

    #[test]
    fn parallel_matches_sequential_for_all_chunkings() {
        for cg in holdings() {
            let seq = min_edge_scan_seq(&cg);
            for chunk in [1, 3, 64, 4096, usize::MAX] {
                let forced = KernelPolicy {
                    par_threshold: 0,
                    chunk_rows: chunk,
                };
                let got = with_kernel_policy(forced, || min_edge_scan(&cg));
                assert_eq!(got, seq, "chunk={chunk}");
            }
            assert_eq!(min_edge_scan(&cg), seq);
        }
    }

    #[test]
    fn lockfree_matches_sequential_for_all_chunkings() {
        for cg in holdings() {
            let seq = min_edge_scan_seq(&cg);
            for chunk in [1, 3, 64, 4096, usize::MAX] {
                assert_eq!(min_edge_scan_lockfree(&cg, chunk), seq, "chunk={chunk}");
            }
        }
    }

    #[test]
    fn winners_are_the_lightest_incident_edges() {
        let cg = CGraph::from_edge_list(&gen::gnm(200, 1000, 7));
        let best = min_edge_scan_seq(&cg);
        let orig = cg.orig_col();
        for (i, &c) in cg.resident().iter().enumerate() {
            // Brute-force oracle over the AoS view.
            let expected = cg
                .iter_edges()
                .enumerate()
                .filter(|(_, e)| !e.is_self() && (e.a == c || e.b == c))
                .min_by_key(|&(row, e)| (e.orig, row as u32))
                .map(|(row, _)| row as u32);
            assert_eq!(best[i], expected, "component {c}");
            if let Some(row) = best[i] {
                let e = cg.edge(row as usize);
                assert!(e.a == c || e.b == c);
                assert_eq!(e.orig, orig[row as usize]);
            }
        }
    }

    #[test]
    fn isolated_components_elect_nothing() {
        let cg = CGraph::from_edge_list(&mnd_graph::EdgeList::new(5));
        let best = min_edge_scan_seq(&cg);
        assert_eq!(best, vec![None; cg.num_resident()]);
    }

    #[test]
    #[should_panic(expected = "chunk_rows")]
    fn zero_chunk_is_rejected() {
        min_edge_scan_lockfree(&CGraph::new(), 0);
    }
}
