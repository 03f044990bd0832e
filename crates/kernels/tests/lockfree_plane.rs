//! Oracle tests for the lock-free kernel plane (DESIGN.md §5h).
//!
//! The determinism contract extends to the atomic variants: the packed
//! fetch-min election and the lock-free incident counts must produce
//! output **byte-identical** to the sequential reference — for any chunk
//! size, any rayon worker count, and adversarial weight ties (where the
//! packed fast path is insufficient and the full edge-key fallback must
//! kick in).

use mnd_graph::edgelist::splitmix64;
use mnd_graph::partition::partition_1d;
use mnd_graph::{gen, CsrGraph, EdgeList};
use mnd_kernels::boruvka::local_boruvka_with;
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, KernelPolicy, StopPolicy};
use mnd_kernels::scan::min_edge_scan_with;
use rayon::prelude::*;

/// Adversarial chunk sizes: degenerate single-row chunks, a prime that
/// never divides the fixture sizes, and one chunk covering everything.
const CHUNKS: [usize; 3] = [1, 13, usize::MAX];

fn fixtures() -> Vec<(&'static str, EdgeList)> {
    vec![
        ("rmat", gen::rmat(512, 4096, gen::RmatProbs::GRAPH500, 41)),
        ("er", gen::gnm(400, 2400, 42)),
        ("road", gen::road_grid(20, 20, 0.02, 0.38, 43)),
    ]
}

/// An adversarial all-ties fixture: every edge has the same weight, so the
/// packed `(weight << 32) | row` comparison ties on its fast path for
/// *every* pair of candidates and the election is decided entirely by the
/// `(edge key, row)` fallback.
fn all_ties_fixture() -> EdgeList {
    let mut el = EdgeList::new(120);
    let mut s = 7u64;
    for i in 0..700u32 {
        s = splitmix64(s ^ i as u64);
        let a = (s % 120) as u32;
        let b = ((s >> 16) % 120) as u32;
        if a != b {
            el.push(a, b, 5); // one shared weight: maximal tie pressure
        }
    }
    el
}

fn partitioned(el: &EdgeList) -> Vec<CGraph> {
    let ranges = partition_1d(&CsrGraph::from_edge_list(el), 4, 1.0);
    CGraph::level0(el, &ranges, 0..4)
}

#[test]
fn lockfree_scan_and_counts_match_seq_for_any_chunking() {
    for (name, el) in fixtures().into_iter().chain([("ties", all_ties_fixture())]) {
        let mut cg = CGraph::from_edge_list(&el);
        let expect_scan = min_edge_scan_with(&cg, &KernelPolicy::seq());
        let expect_counts = cg.incident_counts_with(&KernelPolicy::seq()).to_vec();
        for chunk in CHUNKS {
            let policy = KernelPolicy::force_lockfree(chunk);
            assert_eq!(
                min_edge_scan_with(&cg, &policy),
                expect_scan,
                "{name} chunk={chunk}"
            );
            assert_eq!(
                cg.incident_counts_with(&policy).to_vec(),
                expect_counts,
                "{name} chunk={chunk}"
            );
        }
    }
}

#[test]
fn lockfree_boruvka_matches_seq_for_any_chunking() {
    for (name, el) in fixtures().into_iter().chain([("ties", all_ties_fixture())]) {
        for freeze in [FreezePolicy::Sticky, FreezePolicy::Recheck] {
            for (part, base) in partitioned(&el).into_iter().enumerate() {
                let mut expect_cg = base.clone();
                let expect = local_boruvka_with(
                    &mut expect_cg,
                    &KernelPolicy::seq(),
                    ExcpCond::BorderEdge,
                    freeze,
                    StopPolicy::Exhaustive,
                );
                for chunk in CHUNKS {
                    let mut got_cg = base.clone();
                    let got = local_boruvka_with(
                        &mut got_cg,
                        &KernelPolicy::force_lockfree(chunk),
                        ExcpCond::BorderEdge,
                        freeze,
                        StopPolicy::Exhaustive,
                    );
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

/// Worker count must not change anything: the same forced-lock-free
/// pipeline run under 1, 2 and 8 rayon threads yields one answer. The shim
/// reads `RAYON_NUM_THREADS` per call, so a single test can sweep it.
#[test]
fn lockfree_thread_count_does_not_change_results() {
    let el = gen::rmat(512, 4096, gen::RmatProbs::GRAPH500, 47);
    let run = || -> (Vec<CGraph>, Vec<mnd_graph::WEdge>) {
        let policy = KernelPolicy::force_lockfree(13);
        let mut holdings = partitioned(&el);
        let mut msf = Vec::new();
        for cg in &mut holdings {
            let out = local_boruvka_with(
                cg,
                &policy,
                ExcpCond::BorderEdge,
                FreezePolicy::Sticky,
                StopPolicy::Exhaustive,
            );
            msf.extend(out.msf_edges);
            cg.incident_counts_with(&policy);
        }
        (holdings, msf)
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

/// The forced-lock-free policy must keep forcing, whatever thread budget the engines
/// give their ranks: on a test thread (no pool installed but this one) the
/// fixture's rows are cut into more than one chunk and the chunks run on
/// more than one thread. Counted here, around the same chunking calls the
/// kernels make — the product carries no counter.
#[test]
fn force_lockfree_still_runs_several_chunks_on_several_threads() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let (_, el) = fixtures().swap_remove(0);
    let rows = partitioned(&el)[0].num_edges();
    let policy = KernelPolicy::force_lockfree(13);
    assert!(policy.use_par_for(mnd_kernels::KernelClass::Election, rows));
    let chunks = AtomicUsize::new(0);
    let threads = std::sync::Mutex::new(std::collections::HashSet::new());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    pool.install(|| {
        policy.chunk_ranges(rows).into_par_iter().for_each(|_| {
            chunks.fetch_add(1, Ordering::Relaxed);
            threads.lock().unwrap().insert(std::thread::current().id());
        })
    });
    assert!(chunks.into_inner() > 1);
    assert!(threads.into_inner().unwrap().len() > 1);
}
