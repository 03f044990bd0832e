//! Oracle tests for the parallel holding plane (DESIGN.md §5e).
//!
//! The determinism contract says every policy-aware kernel produces output
//! **byte-identical** to the sequential reference — for any chunk size and
//! any rayon worker count. These tests force the parallel path (the chunked
//! reduce and relabel, the lock-free election and counts) onto small
//! fixtures with adversarial chunkings (1, a prime, and `usize::MAX`) and
//! diff entire holdings against `KernelPolicy::seq()`, each kernel called by
//! its one name under a scoped `with_kernel_policy`. The all-ties fixture
//! makes the packed `(weight << 32) | row` election key tie on every pair of
//! candidates, so the full edge-key fallback must decide every slot.

mod common;

use common::{fixtures, forced, partitioned, seq, CHUNKS};
use mnd_graph::gen;
use mnd_kernels::boruvka::local_boruvka;
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd_kernels::reduce::reduce_holding;
use mnd_kernels::scan::min_edge_scan;

/// Seed of this file's RMAT/ER/road fixtures.
const SEED: u64 = 31;

#[test]
fn reduce_holding_matches_seq_for_any_chunking() {
    for (name, el) in fixtures(SEED) {
        let mut expect = CGraph::from_edge_list(&el);
        let expect_stats = seq(|| reduce_holding(&mut expect));
        for chunk in CHUNKS {
            let mut got = CGraph::from_edge_list(&el);
            let got_stats = forced(chunk, || reduce_holding(&mut got));
            assert_eq!(got_stats, expect_stats, "{name} chunk={chunk}");
            assert_eq!(got, expect, "{name} chunk={chunk}");
        }
    }
}

#[test]
fn min_edge_scan_matches_seq_for_any_chunking() {
    for (name, el) in fixtures(SEED) {
        let cg = CGraph::from_edge_list(&el);
        let expect = seq(|| min_edge_scan(&cg));
        for chunk in CHUNKS {
            let got = forced(chunk, || min_edge_scan(&cg));
            assert_eq!(got, expect, "{name} chunk={chunk}");
        }
    }
}

#[test]
fn incident_counts_match_seq_for_any_chunking() {
    for (name, el) in fixtures(SEED) {
        let mut cg = CGraph::from_edge_list(&el);
        let expect = seq(|| cg.incident_counts().to_vec());
        for chunk in CHUNKS {
            let got = forced(chunk, || cg.incident_counts().to_vec());
            assert_eq!(got, expect, "{name} chunk={chunk}");
        }
    }
}

#[test]
fn local_boruvka_matches_seq_for_any_chunking() {
    for (name, el) in fixtures(SEED) {
        for excp in [ExcpCond::BorderEdge, ExcpCond::BorderVertex] {
            for freeze in [FreezePolicy::Sticky, FreezePolicy::Recheck] {
                let kernel =
                    |cg: &mut CGraph| local_boruvka(cg, excp, freeze, StopPolicy::Exhaustive);
                for (part, base) in partitioned(&el).into_iter().enumerate() {
                    let mut expect_cg = base.clone();
                    let expect = seq(|| kernel(&mut expect_cg));
                    for chunk in CHUNKS {
                        let mut got_cg = base.clone();
                        let got = forced(chunk, || kernel(&mut got_cg));
                        let tag = format!("{name} {excp:?}/{freeze:?} part={part} chunk={chunk}");
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
}

/// Worker count must not change anything either: the same forced-parallel
/// pipeline run under 1, 2, 4 and 8 rayon threads yields one answer. The
/// shim reads `RAYON_NUM_THREADS` per call, so a single test can sweep it
/// (other tests running concurrently only see their worker counts change,
/// never their results — that is the point of the contract).
#[test]
fn thread_count_does_not_change_results() {
    let el = gen::rmat(512, 4096, gen::RmatProbs::GRAPH500, 37);
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
                reduce_holding(cg);
                cg.incident_counts();
            }
            (holdings, msf)
        })
    };

    let mut results = Vec::new();
    for threads in ["1", "2", "4", "8"] {
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

/// A forced policy must keep forcing, whatever thread budget the engines
/// give their ranks: on a test thread (no pool installed but this one) the
/// fixture's rows are cut into more than one chunk and the chunks run on
/// more than one thread.
#[test]
fn force_par_still_runs_several_chunks_on_several_threads() {
    let (_, el) = fixtures(SEED).swap_remove(0);
    let rows = partitioned(&el)[0].num_edges();
    common::assert_several_chunks_on_several_threads(13, rows);
}
