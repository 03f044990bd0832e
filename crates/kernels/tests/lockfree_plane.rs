//! Oracle tests for the lock-free arms of the kernel plane (DESIGN.md §5e).
//!
//! Above the threshold the min-edge election and the incident counts have
//! one parallel arm each: the packed fetch-min election and the `fetch_add`
//! tally. Both must produce output **byte-identical** to the sequential
//! reference — for any chunk size, any rayon worker count, and adversarial
//! weight ties (where the packed fast path is insufficient and the full
//! edge-key fallback must kick in). `parallel_plane_oracle.rs` checks the
//! whole plane on one seed set; this file checks the atomic arms on a
//! second one.

mod common;

use common::{fixtures, forced, partitioned, seq, CHUNKS};
use mnd_graph::gen;
use mnd_kernels::boruvka::local_boruvka;
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd_kernels::scan::min_edge_scan;

/// Seed of this file's RMAT/ER/road fixtures.
const SEED: u64 = 41;

#[test]
fn lockfree_scan_and_counts_match_seq_for_any_chunking() {
    for (name, el) in fixtures(SEED) {
        let mut cg = CGraph::from_edge_list(&el);
        let expect_scan = seq(|| min_edge_scan(&cg));
        let expect_counts = seq(|| cg.incident_counts().to_vec());
        for chunk in CHUNKS {
            assert_eq!(
                forced(chunk, || min_edge_scan(&cg)),
                expect_scan,
                "{name} chunk={chunk}"
            );
            assert_eq!(
                forced(chunk, || cg.incident_counts().to_vec()),
                expect_counts,
                "{name} chunk={chunk}"
            );
        }
    }
}

#[test]
fn lockfree_boruvka_matches_seq_for_any_chunking() {
    let kernel = |cg: &mut CGraph, freeze| {
        local_boruvka(cg, ExcpCond::BorderEdge, freeze, StopPolicy::Exhaustive)
    };
    for (name, el) in fixtures(SEED) {
        for freeze in [FreezePolicy::Sticky, FreezePolicy::Recheck] {
            for (part, base) in partitioned(&el).into_iter().enumerate() {
                let mut expect_cg = base.clone();
                let expect = seq(|| kernel(&mut expect_cg, freeze));
                for chunk in CHUNKS {
                    let mut got_cg = base.clone();
                    let got = forced(chunk, || kernel(&mut got_cg, freeze));
                    let tag = format!("{name} {freeze:?} part={part} chunk={chunk}");
                    assert_eq!(got.msf_edges, expect.msf_edges, "{tag}");
                    assert_eq!(got.relabel, expect.relabel, "{tag}");
                    assert_eq!(got.work, expect.work, "{tag}");
                    assert_eq!(got_cg, expect_cg, "{tag}");
                    assert_eq!(got_cg.frozen(), expect_cg.frozen(), "{tag}");
                }
            }
        }
    }
}

/// Worker count must not change anything: the same forced-parallel
/// election-and-counts pipeline run under 1, 2 and 8 rayon threads yields
/// one answer. The shim reads `RAYON_NUM_THREADS` per call, so a single
/// test can sweep it.
#[test]
fn lockfree_thread_count_does_not_change_results() {
    let el = gen::rmat(512, 4096, gen::RmatProbs::GRAPH500, 47);
    let run = || -> (Vec<CGraph>, Vec<mnd_graph::WEdge>) {
        forced(13, || {
            let mut holdings = partitioned(&el);
            let mut msf = Vec::new();
            for cg in &mut holdings {
                let out = local_boruvka(
                    cg,
                    ExcpCond::BorderEdge,
                    FreezePolicy::Sticky,
                    StopPolicy::Exhaustive,
                );
                msf.extend(out.msf_edges);
                cg.incident_counts();
            }
            (holdings, msf)
        })
    };
    let mut results = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        results.push(run());
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    let (first_holdings, first_msf) = &results[0];
    for (i, (holdings, msf)) in results.iter().enumerate().skip(1) {
        assert_eq!(holdings, first_holdings, "thread sweep entry {i}");
        assert_eq!(msf, first_msf, "thread sweep entry {i}");
    }
}

/// The forced policy must keep forcing on this file's fixtures too: the
/// election's rows are cut into more than one chunk and the chunks run on
/// more than one thread, whatever thread budget the engines give their
/// ranks.
#[test]
fn force_lockfree_still_runs_several_chunks_on_several_threads() {
    let (_, el) = fixtures(SEED).swap_remove(0);
    let rows = partitioned(&el)[0].num_edges();
    common::assert_several_chunks_on_several_threads(13, rows);
}
