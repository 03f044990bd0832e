//! Serving-plane contracts, cross-crate: the incremental MSF maintainer
//! tracks a full Kruskal recompute edge-for-edge under arbitrary random
//! insert/delete streams (checked after *every* batch), the fingerprint
//! cache never false-hits on isomorphic-but-relabelled inputs, and a
//! fixed plane workload replays to the byte.

use std::collections::BTreeMap;
use std::sync::Arc;

use mnd::graph::{gen, EdgeList, VertexId, WEdge, Weight};
use mnd::kernels::kruskal_msf;
use mnd::serve::backend::EngineBackend;
use mnd::serve::job::{JobKind, JobSpec};
use mnd::serve::scheduler::{ServeConfig, ServePlane};
use mnd::serve::tenant::TenantSpec;
use mnd::serve::IncrementalMsf;
use proptest::prelude::*;

/// One streamed mutation.
#[derive(Clone, Debug)]
enum Op {
    Insert(u32, u32, Weight),
    /// Delete the i-th edge (mod current count) of the live graph; no-op
    /// when the graph is empty.
    DeleteNth(usize),
}

/// `(vertex count, ops, base-graph seed)`: each raw tuple's selector
/// picks insert (3 in 5) or delete-nth (2 in 5).
fn arb_ops(max_v: u32, max_ops: usize) -> impl Strategy<Value = (u32, Vec<Op>, u64)> {
    (
        2..max_v,
        proptest::collection::vec((0u32..5, 0u32..max_v, 0u32..max_v, 1u32..1000), 1..max_ops),
        0u64..1000,
    )
        .prop_map(|(n, raw, seed)| {
            let ops = raw
                .into_iter()
                .map(|(sel, a, b, w)| {
                    if sel < 3 {
                        Op::Insert(a, b, w)
                    } else {
                        Op::DeleteNth(((a as usize) << 16) | b as usize)
                    }
                })
                .collect();
            (n, ops, seed)
        })
}

/// Applies one op to the session and to an independent mirror edge map,
/// returning the mirror as an edge list for the oracle.
fn apply(
    inc: &mut IncrementalMsf,
    mirror: &mut BTreeMap<(VertexId, VertexId), Weight>,
    n: u32,
    op: &Op,
) {
    match *op {
        Op::Insert(a, b, w) => {
            let (u, v) = (a % n, b % n);
            inc.insert(u, v, w);
            if u != v {
                mirror.insert((u.min(v), u.max(v)), w);
            }
        }
        Op::DeleteNth(i) => {
            if mirror.is_empty() {
                return;
            }
            let key = *mirror.keys().nth(i % mirror.len()).unwrap();
            inc.delete(key.0, key.1);
            mirror.remove(&key);
        }
    }
}

fn mirror_graph(n: u32, mirror: &BTreeMap<(VertexId, VertexId), Weight>) -> EdgeList {
    EdgeList::from_raw(
        n,
        mirror
            .iter()
            .map(|(&(u, v), &w)| WEdge::new(u, v, w))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The incremental forest equals a full Kruskal recompute of the
    /// live graph after every single mutation — inserts (join, cycle-max
    /// replacement, re-weight) and deletes (replacement-edge search)
    /// alike — and the maintained edge list round-trips exactly.
    #[test]
    fn incremental_msf_tracks_full_recompute(
        (n, ops, seed) in arb_ops(60, 40),
    ) {
        let base = gen::gnm(n, n as u64 * 2, seed);
        let mut inc = IncrementalMsf::from_graph(&base);
        let mut mirror: BTreeMap<(VertexId, VertexId), Weight> =
            base.edges().iter().map(|e| ((e.u, e.v), e.w)).collect();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut inc, &mut mirror, n, op);
            let live = mirror_graph(n, &mirror);
            prop_assert_eq!(inc.edge_list().edges(), live.edges(), "op {i}: edge set diverged");
            let oracle = kruskal_msf(&live);
            prop_assert_eq!(
                &inc.msf(), &oracle,
                "op {i} ({op:?}): incremental forest != recompute", i = i, op = op
            );
        }
    }

    /// Isomorphic-but-relabelled graphs (same structure, permuted vertex
    /// ids) fingerprint differently, so a cached result for one can
    /// never be served for the other — their answers live in different
    /// id spaces.
    #[test]
    fn relabelled_graphs_never_share_a_fingerprint(
        n in 3u32..50,
        m in 3u64..120,
        seed in 0u64..1000,
        shift in 1u32..7,
    ) {
        let a = gen::gnm(n, m, seed);
        let relabel = |v: VertexId| (v + shift) % n;
        let b = EdgeList::from_raw(
            n,
            a.edges().iter().map(|e| WEdge::new(relabel(e.u), relabel(e.v), e.w)).collect(),
        );
        // The permutation can map the edge list onto itself (an
        // automorphism); equal inputs legitimately share a fingerprint.
        if a.edges() != b.edges() {
            prop_assert_ne!(a.fingerprint(), b.fingerprint());
        }
    }
}

/// A fixed multi-tenant workload replays to identical completions,
/// latencies, and cache counters — the serving plane runs entirely on
/// the deterministic simulated clock.
#[test]
fn serve_plane_replays_byte_identically() {
    let run = || {
        let g1 = Arc::new(gen::gnm(250, 1200, 17));
        let g2 = Arc::new(gen::gnm(200, 2400, 23));
        let mut plane = ServePlane::new(
            ServeConfig::new(4).with_edges_per_rank(512),
            Box::new(EngineBackend::mnd_mst(1.0)),
            vec![TenantSpec::new("a", 3.0, 8), TenantSpec::new("b", 1.0, 2)],
        );
        let mut jobs = vec![
            JobSpec {
                tenant: 0,
                kind: JobKind::Mst,
                graph: g1.clone(),
                submit: 0.0,
            },
            JobSpec {
                tenant: 0,
                kind: JobKind::Cc,
                graph: g1.clone(),
                submit: 0.1,
            },
            JobSpec {
                tenant: 0,
                kind: JobKind::Bfs { source: 3 },
                graph: g1.clone(),
                submit: 0.2,
            },
            JobSpec {
                tenant: 0,
                kind: JobKind::Mst,
                graph: g1.clone(),
                submit: 5.0,
            },
        ];
        for i in 0..4 {
            jobs.push(JobSpec {
                tenant: 1,
                kind: JobKind::Mst,
                graph: g2.clone(),
                submit: i as f64 * 0.01,
            });
        }
        jobs.push(JobSpec {
            tenant: 0,
            kind: JobKind::Update {
                inserts: vec![WEdge::new(1, 2, 1), WEdge::new(7, 90, 3)],
                deletes: vec![(1, 2)],
            },
            graph: g2.clone(),
            submit: 6.0,
        });
        let report = plane.run(jobs);
        report
            .completions
            .iter()
            .map(|c| {
                (
                    c.job,
                    c.tenant,
                    c.kind,
                    c.ranks,
                    c.start.to_bits(),
                    c.finish.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    let a = run();
    assert!(!a.is_empty());
    assert_eq!(a, run());
}

/// A cached result is never served for a graph a session has since
/// mutated. After every update batch the plane caches the session's forest
/// under the fingerprint of the *updated* graph: a query on that graph
/// rebuilt from scratch (a mirror map, a fresh `Arc`, hashed on first
/// sight) is a cache hit carrying the rebuilt graph's Kruskal forest. And a
/// query on the session's *base* graph — the very `Arc` the updates were
/// submitted with, whose fingerprint the plane computed once and keeps —
/// is answered with the base forest after every batch, never a mutated one.
#[test]
fn updates_cache_under_the_rebuilt_graphs_fingerprint_and_spare_the_base() {
    use mnd::serve::job::{JobResult, ServedBy};

    let n = 200;
    let base = Arc::new(gen::gnm(n, 900, 41));
    let base_forest = kruskal_msf(&base);
    let mut mirror: BTreeMap<(VertexId, VertexId), Weight> =
        base.edges().iter().map(|e| ((e.u, e.v), e.w)).collect();
    let mut rng = 97u64;
    let mut next = move |modulus: u64| {
        rng = mnd::graph::edgelist::splitmix64(rng);
        (rng % modulus) as u32
    };

    let mut jobs = Vec::new();
    // What each query must be answered with, by job index.
    let mut expect = BTreeMap::new();
    for batch in 0..6 {
        let inserts: Vec<WEdge> = (0..8)
            .map(|_| WEdge::new(next(n as u64), next(n as u64), next(5000) + 1))
            .collect();
        // Delete live edges, so every batch really removes something.
        let deletes: Vec<(VertexId, VertexId)> = (0..4)
            .map(|_| {
                *mirror
                    .keys()
                    .nth(next(mirror.len() as u64) as usize)
                    .unwrap()
            })
            .collect();
        for e in &inserts {
            if e.u != e.v {
                mirror.insert((e.u, e.v), e.w);
            }
        }
        for key in &deletes {
            mirror.remove(key);
        }
        let t = batch as f64 * 10.0;
        jobs.push(JobSpec {
            tenant: 0,
            kind: JobKind::Update { inserts, deletes },
            graph: base.clone(),
            submit: t,
        });
        let rebuilt = mirror_graph(n, &mirror);
        expect.insert(jobs.len(), kruskal_msf(&rebuilt));
        jobs.push(JobSpec {
            tenant: 0,
            kind: JobKind::Mst,
            graph: Arc::new(rebuilt),
            submit: t + 4.0,
        });
        expect.insert(jobs.len(), base_forest.clone());
        jobs.push(JobSpec {
            tenant: 0,
            kind: JobKind::Mst,
            graph: base.clone(),
            submit: t + 5.0,
        });
    }
    assert_ne!(mirror_graph(n, &mirror).edges(), base.edges());

    let mut plane = ServePlane::new(
        ServeConfig::new(4),
        Box::new(EngineBackend::mnd_mst(1.0)),
        vec![TenantSpec::new("session", 1.0, 64)],
    );
    let report = plane.run(jobs);
    assert_eq!(report.completed(), 18);
    for c in &report.completions {
        let Some(forest) = expect.get(&c.job) else {
            continue;
        };
        assert_eq!(c.served_by, ServedBy::Cache, "job {}", c.job);
        match &c.result {
            JobResult::Msf(m) => assert_eq!(&**m, forest, "job {}", c.job),
            _ => panic!("MST jobs return forests"),
        }
    }
}
