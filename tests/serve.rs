//! Serving-plane contracts, cross-crate: the incremental MSF maintainer
//! tracks a full Kruskal recompute edge-for-edge under arbitrary random
//! insert/delete streams (checked after *every* batch), the fingerprint
//! cache never false-hits on isomorphic-but-relabelled inputs, a fixed
//! plane workload replays to the byte, an update's forest is served for
//! exactly the graph it spans (current version: hit; superseded or
//! lookalike: backend), a payload naming a vertex or a tenant that does
//! not exist is refused at admission without moving any other job, and a
//! session seeded from a non-canonical list serves its canonical graph's
//! forest.

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
/// mutated, and a session's forest is served for exactly the graph it
/// spans. An update batch leaves the plane owing the cache the session's
/// forest under the fingerprint of the *updated* graph; the first MSF
/// look-up on a graph with the session's vertex and edge counts has it
/// keyed. So:
///
/// * a query on the session's *current* graph rebuilt from scratch (a
///   mirror map, a fresh `Arc`, hashed on first sight) is a cache hit
///   carrying the rebuilt graph's Kruskal forest, and books the update's
///   charged seconds as saved;
/// * a query on the session's *base* graph — the very `Arc` the updates
///   were submitted with, whose fingerprint the plane computed once and
///   keeps — is answered with the base forest after every batch, never a
///   mutated one;
/// * a query on a version that was *superseded before anything asked for
///   it* is a backend miss (nobody paid to key it) with that version's
///   Kruskal forest;
/// * a graph with the session's vertex and edge counts but another weight
///   is a backend miss with its own forest — the counts select which
///   sessions to key, the fingerprint alone decides a hit.
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
    let mst = |graph: Arc<EdgeList>, submit: f64| JobSpec {
        tenant: 0,
        kind: JobKind::Mst,
        graph,
        submit,
    };

    let mut jobs = Vec::new();
    // What each query must be answered with, and how, by job index.
    let mut expect = BTreeMap::new();
    // Update job of the version each current-version query asks for.
    let mut current_of = BTreeMap::new();
    let mut superseded = None;
    for batch in 0..8 {
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
        let update = jobs.len();
        jobs.push(JobSpec {
            tenant: 0,
            kind: JobKind::Update { inserts, deletes },
            graph: base.clone(),
            submit: t,
        });
        let rebuilt = mirror_graph(n, &mirror);
        if batch == 6 {
            // Nobody asks for this version while it is current.
            superseded = Some(rebuilt);
            continue;
        }
        expect.insert(jobs.len(), (ServedBy::Cache, kruskal_msf(&rebuilt)));
        current_of.insert(jobs.len(), update);
        jobs.push(mst(Arc::new(rebuilt), t + 4.0));
        expect.insert(jobs.len(), (ServedBy::Cache, base_forest.clone()));
        jobs.push(mst(base.clone(), t + 5.0));
    }
    let current = mirror_graph(n, &mirror);
    assert_ne!(current.edges(), base.edges());

    let superseded = superseded.unwrap();
    expect.insert(jobs.len(), (ServedBy::Backend, kruskal_msf(&superseded)));
    jobs.push(mst(Arc::new(superseded), 100.0));
    // The current graph with its first edge one unit heavier: the
    // session's counts, another fingerprint.
    let mut reweighted = current.edges().to_vec();
    reweighted[0].w += 1;
    let lookalike = EdgeList::from_raw(n, reweighted);
    assert_eq!(lookalike.len(), current.len());
    expect.insert(jobs.len(), (ServedBy::Backend, kruskal_msf(&lookalike)));
    jobs.push(mst(Arc::new(lookalike), 110.0));
    // Batch 7's version once more: still current, keyed by its first query.
    let last_update = *current_of.values().max().unwrap();
    expect.insert(jobs.len(), (ServedBy::Cache, kruskal_msf(&current)));
    current_of.insert(jobs.len(), last_update);
    jobs.push(mst(Arc::new(current), 120.0));

    let new_plane = || {
        ServePlane::new(
            ServeConfig::new(4),
            Box::new(EngineBackend::mnd_mst(1.0)),
            vec![TenantSpec::new("session", 1.0, 64)],
        )
    };
    let total = jobs.len();
    let report = new_plane().run(jobs);
    assert_eq!(report.completed(), total);
    let by_job: BTreeMap<usize, _> = report.completions.iter().map(|c| (c.job, c)).collect();
    for (job, (served_by, forest)) in &expect {
        let c = by_job[job];
        assert_eq!(c.served_by, *served_by, "job {job}");
        match &c.result {
            JobResult::Msf(m) => assert_eq!(&**m, forest, "job {job}"),
            _ => panic!("MST jobs return forests"),
        }
    }

    // Saved seconds, hit by hit in look-up order: a hit on a session
    // version saves what the update that produced it was charged, a hit on
    // the base graph what the cold run that seeded the session cost.
    let base_cold = new_plane().run(vec![mst(base.clone(), 0.0)]).completions[0].exec_seconds;
    let mut saved = 0.0;
    for (job, (served_by, _)) in &expect {
        if *served_by == ServedBy::Cache {
            saved += current_of
                .get(job)
                .map_or(base_cold, |update| by_job[update].exec_seconds);
        }
    }
    assert_eq!(report.cache.saved_seconds, saved);
    assert_eq!(report.cache.hits, 15);
    // The seeding look-up, the superseded version and the lookalike.
    assert_eq!(report.cache.misses, 3);
}

/// A payload naming a vertex that does not exist — a BFS source past the
/// graph, an update endpoint past the session — is refused at admission
/// and counted against its tenant; it used to reach an index at dispatch
/// and take the whole plane down. Nothing else moves: every other job, the
/// hostile tenant's own well-formed ones included, completes exactly as in
/// a run the bad jobs were never submitted to.
#[test]
fn hostile_payloads_are_refused_at_admission_and_spare_the_other_tenants() {
    let small = Arc::new(gen::gnm(100, 400, 5));
    let large = Arc::new(gen::gnm(500, 2000, 6));
    let job = |tenant: usize, kind: JobKind, graph: &Arc<EdgeList>, submit: f64| JobSpec {
        tenant,
        kind,
        graph: graph.clone(),
        submit,
    };
    let update = |u: u32, v: u32| JobKind::Update {
        inserts: vec![WEdge::new(u, v, 7)],
        deletes: vec![(v, u)],
    };
    // `(hostile, job)`: tenant 0 misbehaves, tenants 1 and 2 do not.
    let jobs = vec![
        (false, job(0, JobKind::Mst, &small, 0.0)),
        (true, job(0, JobKind::Bfs { source: 100 }, &small, 0.1)),
        (false, job(0, JobKind::Bfs { source: 99 }, &small, 0.2)),
        // Refused before it can seed a session: the next one seeds it.
        (true, job(0, update(3, 100), &small, 0.3)),
        (false, job(0, update(3, 99), &small, 0.4)),
        // In range for the graph this job carries, not for the session
        // (which is over `small` and ignores later jobs' graphs).
        (true, job(0, update(3, 300), &large, 0.5)),
        (
            true,
            job(
                0,
                JobKind::Update {
                    inserts: Vec::new(),
                    deletes: vec![(u32::MAX, 0)],
                },
                &small,
                0.6,
            ),
        ),
        (false, job(0, update(5, 6), &large, 0.7)),
        (false, job(1, JobKind::Mst, &large, 0.0)),
        (false, job(1, JobKind::Cc, &large, 0.35)),
        (false, job(1, update(3, 300), &large, 0.55)),
        (false, job(2, JobKind::Bfs { source: 499 }, &large, 0.15)),
        (false, job(2, JobKind::Mst, &small, 0.65)),
    ];
    let run = |with_hostile: bool| {
        let mut plane = ServePlane::new(
            ServeConfig::new(2).with_edges_per_rank(1024),
            Box::new(EngineBackend::mnd_mst(64.0)),
            vec![
                TenantSpec::new("hostile", 1.0, 8),
                TenantSpec::new("b", 2.0, 8),
                TenantSpec::new("c", 1.0, 8),
            ],
        );
        // Completions are told apart by submit time: job indexes shift
        // when the hostile jobs are left out.
        let submitted: Vec<JobSpec> = jobs
            .iter()
            .filter(|(hostile, _)| with_hostile || !hostile)
            .map(|(_, job)| job.clone())
            .collect();
        let report = plane.run(submitted);
        let history: Vec<_> = report
            .completions
            .iter()
            .map(|c| {
                (
                    c.tenant,
                    c.kind,
                    c.served_by,
                    c.submit.to_bits(),
                    c.start.to_bits(),
                    c.finish.to_bits(),
                )
            })
            .collect();
        (report, history)
    };
    let (report, history) = run(true);
    let (clean, clean_history) = run(false);
    assert_eq!(report.rejected, 4);
    assert_eq!(report.tenants[0].rejected, 4);
    assert_eq!(report.tenants[0].submitted, 8);
    assert_eq!(report.tenants[1].rejected + report.tenants[2].rejected, 0);
    assert_eq!(clean.rejected, 0);
    assert_eq!(report.completed(), 9);
    assert_eq!(history, clean_history);
    assert_eq!(report.makespan, clean.makespan);
}

/// A job naming a tenant the plane does not have is refused at admission
/// too — it used to fail an `assert!` and take the whole batch down. It
/// gets no completion, counts in `rejected` (no tenant's row), and every
/// other job starts and finishes exactly as in a run it was never
/// submitted to.
#[test]
fn unknown_tenants_are_refused_at_admission_and_move_no_other_job() {
    let g = Arc::new(gen::gnm(200, 800, 9));
    let job = |tenant: usize, kind: JobKind, submit: f64| JobSpec {
        tenant,
        kind,
        graph: g.clone(),
        submit,
    };
    let update = JobKind::Update {
        inserts: vec![WEdge::new(1, 2, 3)],
        deletes: vec![(1, 2)],
    };
    // `(stranger, job)`: the plane has tenants 0 and 1.
    let jobs = [
        (false, job(0, JobKind::Mst, 0.0)),
        (true, job(2, JobKind::Mst, 0.0)),
        (false, job(1, JobKind::Bfs { source: 7 }, 0.05)),
        (true, job(usize::MAX, update.clone(), 0.1)),
        (false, job(1, update, 0.2)),
        (true, job(5, JobKind::Cc, 0.3)),
        (false, job(0, JobKind::Cc, 0.3)),
    ];
    let run = |with_strangers: bool| {
        let mut plane = ServePlane::new(
            ServeConfig::new(2).with_edges_per_rank(512),
            Box::new(EngineBackend::mnd_mst(64.0)),
            vec![TenantSpec::new("a", 1.0, 8), TenantSpec::new("b", 2.0, 8)],
        );
        let submitted: Vec<JobSpec> = jobs
            .iter()
            .filter(|(stranger, _)| with_strangers || !stranger)
            .map(|(_, job)| job.clone())
            .collect();
        let report = plane.run(submitted);
        let history: Vec<_> = report
            .completions
            .iter()
            .map(|c| {
                (
                    c.tenant,
                    c.kind,
                    c.served_by,
                    c.submit.to_bits(),
                    c.start.to_bits(),
                    c.finish.to_bits(),
                )
            })
            .collect();
        (report, history)
    };
    let (report, history) = run(true);
    let (clean, clean_history) = run(false);
    assert_eq!(report.rejected, 3);
    assert_eq!(clean.rejected, 0);
    assert_eq!(report.completed(), 4);
    let per_tenant: Vec<_> = report
        .tenants
        .iter()
        .map(|t| (t.submitted, t.rejected))
        .collect();
    assert_eq!(per_tenant, [(2, 0), (2, 0)]);
    assert_eq!(history, clean_history);
    assert_eq!(report.makespan, clean.makespan);
}

/// A session seeded from a list built with `push` — a pair twice, a self
/// loop — holds the list's canonical graph, and the forest the plane
/// serves after every update batch is Kruskal's forest of that graph as
/// the batches changed it.
#[test]
fn a_session_seeded_from_a_pushed_list_serves_its_canonical_graphs_forest() {
    use mnd::serve::job::JobResult;

    let n = 120;
    let mut base = EdgeList::new(n);
    for e in gen::gnm(n, 500, 12).edges() {
        base.push(e.u, e.v, e.w);
        // A second copy of every third pair, lighter or heavier.
        if (e.u + e.v) % 3 == 0 {
            let w = if e.u % 2 == 0 { e.w / 2 + 1 } else { e.w + 7 };
            base.push(e.v, e.u, w);
        }
    }
    base.push(5, 5, 1);
    let canonical = EdgeList::from_raw(n, base.edges().to_vec());
    assert_ne!(canonical.len(), base.len());
    let mut mirror: BTreeMap<(VertexId, VertexId), Weight> = canonical
        .edges()
        .iter()
        .map(|e| ((e.u, e.v), e.w))
        .collect();

    let base = Arc::new(base);
    let mut rng = 5u64;
    let mut next = move |modulus: u64| {
        rng = mnd::graph::edgelist::splitmix64(rng);
        (rng % modulus) as u32
    };
    let mut jobs = Vec::new();
    let mut expect = Vec::new();
    for batch in 0..6 {
        let inserts: Vec<WEdge> = (0..6)
            .map(|_| WEdge::new(next(n as u64), next(n as u64), next(2000) + 1))
            .collect();
        for e in inserts.iter().filter(|e| e.u != e.v) {
            mirror.insert((e.u, e.v), e.w);
        }
        // Deleting live pairs reaches the forest edges a duplicate seeded.
        let deletes: Vec<(VertexId, VertexId)> = (0..3)
            .map(|_| {
                let key = *mirror
                    .keys()
                    .nth(next(mirror.len() as u64) as usize)
                    .unwrap();
                mirror.remove(&key);
                key
            })
            .collect();
        jobs.push(JobSpec {
            tenant: 0,
            kind: JobKind::Update { inserts, deletes },
            graph: base.clone(),
            submit: batch as f64,
        });
        expect.push(kruskal_msf(&mirror_graph(n, &mirror)));
    }
    let mut plane = ServePlane::new(
        ServeConfig::new(2),
        Box::new(EngineBackend::mnd_mst(1.0)),
        vec![TenantSpec::new("updates", 1.0, 16)],
    );
    let report = plane.run(jobs);
    assert_eq!(report.completed(), expect.len());
    for (c, forest) in report.completions.iter().zip(&expect) {
        match &c.result {
            JobResult::Msf(m) => assert_eq!(&**m, forest, "job {}", c.job),
            _ => panic!("updates return forests"),
        }
    }
}
