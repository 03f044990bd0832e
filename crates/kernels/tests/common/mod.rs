//! Fixtures shared by the kernel-plane oracle tests
//! (`parallel_plane_oracle.rs`, `lockfree_plane.rs`).

use mnd_graph::edgelist::splitmix64;
use mnd_graph::partition::partition_1d;
use mnd_graph::{gen, CsrGraph, EdgeList};
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::policy::{with_kernel_policy, with_kernel_threads, KernelPolicy};

/// Adversarial chunk sizes: degenerate single-row chunks, a prime that
/// never divides the fixture sizes, and one chunk covering everything.
pub const CHUNKS: [usize; 3] = [1, 13, usize::MAX];

/// Runs `f` with every kernel it calls on this thread on the parallel path,
/// in `chunk_rows`-row chunks, whatever the thread budget.
pub fn forced<R>(chunk_rows: usize, f: impl FnOnce() -> R) -> R {
    let policy = KernelPolicy {
        par_threshold: 0,
        chunk_rows,
    };
    with_kernel_policy(policy, f)
}

/// Runs `f` with every kernel it calls on this thread on the sequential
/// reference path: one kernel thread gets [`KernelPolicy::seq`].
pub fn seq<R>(f: impl FnOnce() -> R) -> R {
    with_kernel_threads(1, f)
}

/// Graph families the paper evaluates — skewed (RMAT), uniform (ER/gnm)
/// and high-diameter (road grid), generated from `seed`, `seed + 1` and
/// `seed + 2` — plus the all-ties fixture.
pub fn fixtures(seed: u64) -> Vec<(&'static str, EdgeList)> {
    vec![
        ("rmat", gen::rmat(512, 4096, gen::RmatProbs::GRAPH500, seed)),
        ("er", gen::gnm(400, 2400, seed + 1)),
        ("road", gen::road_grid(20, 20, 0.02, 0.38, seed + 2)),
        ("ties", all_ties_fixture()),
    ]
}

/// An adversarial all-ties fixture: every edge has the same weight, so the
/// packed `(weight << 32) | row` election key ties on its fast path for
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

/// A 4-way partitioned holding (has cut edges) for kernels that need one.
pub fn partitioned(el: &EdgeList) -> Vec<CGraph> {
    let ranges = partition_1d(&CsrGraph::from_edge_list(el), 4, 1.0);
    CGraph::level0(el, &ranges, 0..4)
}

/// Walks the chunks of a `rows`-row sweep under the policy a kernel reads
/// inside [`forced`]`(chunk_rows, …)` on a two-thread pool and asserts the
/// sweep was cut into more than one chunk and that the chunks ran on more
/// than one thread. Counted here, around the same chunking calls the
/// kernels make — the product carries no counter.
pub fn assert_several_chunks_on_several_threads(chunk_rows: usize, rows: usize) {
    use rayon::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    let policy = forced(chunk_rows, KernelPolicy::current);
    assert!(policy.use_par(rows));
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
