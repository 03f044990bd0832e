//! The BSP minimum-spanning-forest algorithm (Pregel+/GPS style).
//!
//! Vertices never move between workers; components are tracked by parent
//! pointers and resolved with conjoined-tree + pointer-jumping supersteps.
//! See the crate docs for the round structure.
//!
//! The worker's mutable state lives in `MsfState` so that a chaos-armed
//! run ([`pregel_msf_chaos`]) can checkpoint it at superstep boundaries
//! and roll back after an injected mid-superstep crash (see
//! [`mnd_engine::run_recoverable`]). Everything else in the worker (partition maps,
//! the CSR graph) is immutable and rebuilt deterministically on
//! re-execution.
//!
//! A round's working sets are keyed by vertex ids, which already are dense
//! array indexes, so they are flat columns allocated once per run: the
//! sender-side combiner (an [`Election`] whose slot is the destination
//! root's id), the roots' `elected` table (slot = `idx(root)`, the entry's
//! mark dropping a mutual pair's duplicate edge) and an `n`-sized
//! `new_super` column (the round's relabel updates, read once per live
//! adjacency entry). A round resets exactly what it wrote — the tables
//! through their first-touch lists, `new_super` through the update messages
//! it was written from — so every column is all-[`NONE`] at each round top.
//! None of it is checkpointed, and none of it is live across a recovery
//! boundary inside the pointer-jumping loop.

use std::sync::Arc;

use mnd_device::NodePlatform;
use mnd_engine::election::{Election, NONE};
use mnd_engine::{run_recoverable, EngineChaos, Recoverable, Recovery};
use mnd_graph::types::{VertexId, WEdge};
use mnd_graph::{CsrGraph, EdgeList};
use mnd_kernels::msf::MsfResult;
use mnd_net::{Cluster, Comm, RankStats, Wire};

use crate::framework::{superstep_exchange, BspConfig, BspStats};

/// Outcome of a BSP MSF run — mirrors `MndMstReport` so benches can print
/// both side by side.
#[derive(Clone, Debug)]
pub struct PregelReport {
    /// The global minimum spanning forest.
    pub msf: MsfResult,
    /// Simulated makespan (max final virtual clock).
    pub total_time: f64,
    /// Max communication time across workers.
    pub comm_time: f64,
    /// Supersteps executed (max across workers — they run in lockstep, so
    /// all workers report the same number).
    pub supersteps: u64,
    /// Boruvka rounds.
    pub rounds: u64,
    /// Logical messages sent (after combining), summed over workers.
    pub messages: u64,
    /// Supersteps re-executed at recovery cost after injected crashes,
    /// summed over workers (0 on fault-free runs).
    pub recovered_supersteps: u64,
    /// Per-worker raw statistics.
    pub rank_stats: Vec<RankStats>,
}

/// One adjacency entry at a worker: the original neighbour vertex, the
/// neighbour's current supervertex (maintained by update supersteps), and
/// the original edge.
#[derive(Clone, Copy, Debug)]
struct AdjEntry {
    target_vertex: VertexId,
    target_super: VertexId,
    orig: WEdge,
}

impl Wire for AdjEntry {
    fn wire_bytes(&self) -> u64 {
        self.target_vertex.wire_bytes() + self.target_super.wire_bytes() + self.orig.wire_bytes()
    }
}

/// The mutable per-worker state of the BSP MSF — the checkpoint unit for
/// rollback recovery. Cloning it captures everything a re-executed worker
/// needs to resume at a superstep boundary.
#[derive(Clone)]
struct MsfState {
    /// Supervertex (root) of each owned vertex.
    parent: Vec<VertexId>,
    /// Live adjacency of all owned vertices in one arena, vertex by vertex
    /// (compacted in place as components merge).
    adj: Vec<AdjEntry>,
    /// Vertex `i`'s entries are `adj[adj_start[i]..adj_start[i + 1]]`.
    /// Derivable from the per-vertex degrees a serialised adjacency carries
    /// anyway, so not part of the checkpoint's `Wire` size.
    adj_start: Vec<u32>,
    /// MSF edges this worker has settled so far.
    msf_local: Vec<WEdge>,
    /// Parents as of the last adjacency broadcast: only vertices whose
    /// parent changed re-broadcast (vote-to-halt-style traffic reduction;
    /// receivers keep valid entries for unchanged neighbours).
    broadcast_parent: Vec<VertexId>,
    /// Superstep/round/message counters (checkpointed with the state so
    /// restored counters stay consistent with the restored supersteps).
    stats: BspStats,
}

impl Wire for MsfState {
    fn wire_bytes(&self) -> u64 {
        self.parent.wire_bytes()
            + self.adj.wire_bytes()
            + self.msf_local.wire_bytes()
            + self.broadcast_parent.wire_bytes()
            + 4 * 8 // the BspStats counters
    }
}

impl MsfState {
    /// Live adjacency of owned vertex `ui`.
    fn adj_of(&self, ui: usize) -> &[AdjEntry] {
        &self.adj[self.adj_start[ui] as usize..self.adj_start[ui + 1] as usize]
    }
}

impl Recoverable for MsfState {
    type State = MsfState;
    fn capture(&self) -> MsfState {
        self.clone()
    }
    fn restore(&mut self, snapshot: MsfState) {
        *self = snapshot;
    }
}

/// Runs the BSP MSF on `nranks` workers over the platform's network and CPU
/// model. Returns the unique MSF (oracle-comparable) plus simulated times.
pub fn pregel_msf(
    el: &EdgeList,
    nranks: usize,
    platform: &NodePlatform,
    cfg: &BspConfig,
) -> PregelReport {
    pregel_msf_chaos(el, nranks, platform, cfg, &EngineChaos::none())
}

/// [`pregel_msf`] with the chaos plane armed: fabric faults from
/// `chaos.faults`, and superstep-boundary checkpoints with mid-superstep
/// crash rollback from `chaos.control` (see [`mnd_engine::run_recoverable`]). With
/// [`EngineChaos::none`] this is exactly the fault-free run.
pub fn pregel_msf_chaos(
    el: &EdgeList,
    nranks: usize,
    platform: &NodePlatform,
    cfg: &BspConfig,
    chaos: &EngineChaos,
) -> PregelReport {
    assert!(nranks >= 1);
    let n = el.num_vertices();
    assert!(
        n < NONE,
        "bsp: {n} vertices, but ids and slots must stay below the u32::MAX sentinel"
    );
    let csr = Arc::new(CsrGraph::from_edge_list(el));
    let network = platform.network.scaled(cfg.sim_scale);
    let cluster = Cluster::new(nranks, network).with_fault_hook(chaos.faults.clone());

    let outcomes = cluster.run(|comm| {
        run_recoverable(
            comm,
            &chaos.control,
            &chaos.observer,
            cfg.checkpoint_interval,
            cfg.sim_scale,
            |rp| worker_main(comm, &csr, n, platform, cfg, rp),
        )
    });

    let total_time = Cluster::makespan(&outcomes);
    let mut msf = None;
    let mut supersteps = 0;
    let mut rounds = 0;
    let mut messages = 0;
    let mut recovered_supersteps = 0;
    let mut rank_stats = Vec::new();
    for o in &outcomes {
        let (m, stats) = &o.result;
        if let Some(m) = m {
            msf = Some(m.clone());
        }
        supersteps = supersteps.max(stats.supersteps);
        rounds = rounds.max(stats.rounds);
        messages += stats.messages;
        recovered_supersteps += stats.recovered_supersteps;
        rank_stats.push(o.stats.clone());
    }
    let comm_time = rank_stats.iter().map(|s| s.comm_time).fold(0.0, f64::max);
    PregelReport {
        msf: msf.expect("worker 0 returns the MSF"),
        total_time,
        comm_time,
        supersteps,
        rounds,
        messages,
        recovered_supersteps,
        rank_stats,
    }
}

fn worker_main(
    comm: &Comm,
    csr: &CsrGraph,
    n: VertexId,
    platform: &NodePlatform,
    cfg: &BspConfig,
    rp: &mut Recovery<'_, MsfState>,
) -> (Option<MsfResult>, BspStats) {
    let me = comm.rank();
    let p = comm.size();
    let charge = |comm: &Comm, items: u64| {
        let m = &platform.cpu;
        comm.compute(items as f64 * cfg.sim_scale / (m.edge_throughput * m.efficiency));
    };

    // Vertex-to-worker map: Pregel+'s hash partitioning.
    let (p32, me32) = (p as VertexId, me as VertexId);
    let owner = |v: VertexId| -> usize { (v % p32) as usize };
    // Owned vertices in ascending order; `idx` inverts the enumeration.
    let mine: Vec<VertexId> = (me32..csr.num_vertices()).step_by(p).collect();
    let count = mine.len();
    let idx = |v: VertexId| -> usize {
        // `mine[i] == v`, decided without the load.
        let i = v / p32;
        assert!(
            v % p32 == me32 && (i as usize) < count,
            "bsp worker {me}: vertex {v} was routed here but belongs to worker {}",
            owner(v)
        );
        i as usize
    };
    let arcs: u64 = mine.iter().map(|&u| csr.degree(u)).sum();
    assert!(
        arcs < NONE as u64,
        "bsp worker {me}: {arcs} arcs, but adjacency offsets are u32"
    );
    let mut st = MsfState {
        parent: mine.clone(),
        adj: Vec::with_capacity(arcs as usize),
        adj_start: Vec::with_capacity(count + 1),
        msf_local: Vec::new(),
        broadcast_parent: mine.clone(),
        stats: BspStats::default(),
    };
    st.adj_start.push(0);
    for &u in &mine {
        st.adj.extend(csr.neighbors(u).map(|(v, w)| AdjEntry {
            target_vertex: v,
            target_super: v,
            orig: WEdge::new(u, v, w),
        }));
        st.adj_start.push(st.adj.len() as u32);
    }
    charge(comm, arcs);

    // The round scratch (see the module docs for the reset discipline).
    let mut combiner = Election::new(if cfg.combine { n as usize } else { 0 });
    let mut elected = Election::new(count);
    let mut new_super: Vec<VertexId> = vec![NONE; n as usize];

    loop {
        // Recovery point between Boruvka rounds (no-op unless chaos is
        // armed and the checkpoint interval has elapsed).
        let ss = st.stats.supersteps;
        rp.boundary(&mut st, ss);
        debug_assert!(
            combiner.is_clear() && elected.is_clear() && new_super.iter().all(|&x| x == NONE),
            "round scratch must be back to NONE at every round top"
        );

        // ---- S1: candidate election --------------------------------------
        // Each vertex proposes its lightest outgoing edge to its root; with
        // the Pregel combiner on, the sender min-reduces per root first.
        let mut buckets: Vec<Vec<(VertexId, WEdge, VertexId)>> =
            (0..p).map(|_| Vec::new()).collect();
        let mut scanned = 0u64;
        let mut my_candidates = 0u64;
        for ui in 0..count {
            let pu = st.parent[ui];
            let mut best: Option<(WEdge, VertexId)> = None;
            for e in st.adj_of(ui) {
                scanned += 1;
                if e.target_super == pu {
                    continue;
                }
                match &best {
                    Some((b, _)) if *b <= e.orig => {}
                    _ => best = Some((e.orig, e.target_super)),
                }
            }
            if let Some((e, other)) = best {
                my_candidates += 1;
                if cfg.combine {
                    combiner.offer(pu as usize, pu, e, other);
                } else {
                    buckets[owner(pu)].push((pu, e, other));
                }
            }
        }
        charge(comm, scanned);
        let total_candidates = comm.allreduce_u64(my_candidates, |a, b| a + b);
        if total_candidates == 0 {
            break;
        }
        st.stats.rounds += 1;
        for c in combiner.entries() {
            buckets[owner(c.comp)].push((c.comp, c.edge, c.target));
        }
        combiner.clear();
        let inbound = superstep_exchange(comm, buckets, &mut st.stats, cfg);

        // Roots pick the component minimum.
        let mut inbound_count = 0u64;
        for (dest, e, other) in inbound.into_iter().flatten() {
            inbound_count += 1;
            elected.offer(idx(dest), dest, e, other);
        }
        charge(comm, inbound_count);

        // ---- S2: merge proposals ----------------------------------------
        let mut buckets: Vec<Vec<(VertexId, VertexId, WEdge)>> =
            (0..p).map(|_| Vec::new()).collect();
        for c in elected.entries() {
            let (s, t) = (c.comp, c.target);
            debug_assert_eq!(st.parent[c.at()], s, "candidates are addressed to roots");
            st.parent[c.at()] = t; // tentative link; mutual pairs fixed below
            buckets[owner(t)].push((t, s, c.edge));
        }
        let inbound = superstep_exchange(comm, buckets, &mut st.stats, cfg);

        // ---- S3: conjoined-tree resolution --------------------------------
        let mut proposals = 0u64;
        for (t, s, e) in inbound.into_iter().flatten() {
            proposals += 1;
            let ti = idx(t);
            if let Some(c) = elected.get_mut(ti) {
                if c.target == s && c.edge == e {
                    // Mutual: smaller id stays root and keeps the edge;
                    // larger id drops its duplicate.
                    if t < s {
                        st.parent[ti] = t;
                    } else {
                        c.mark = true;
                    }
                }
            }
        }
        charge(comm, proposals);
        st.msf_local
            .extend(elected.entries().iter().filter(|c| !c.mark).map(|c| c.edge));
        elected.clear();

        // ---- S4: pointer jumping ------------------------------------------
        loop {
            // Recovery point between jump iterations: long compression
            // chains are where a crash loses the most BSP work.
            let ss = st.stats.supersteps;
            rp.boundary(&mut st, ss);

            let mut buckets: Vec<Vec<(VertexId, VertexId)>> = (0..p).map(|_| Vec::new()).collect();
            let mut asked = 0u64;
            for (&u, &pu) in mine.iter().zip(&st.parent) {
                if pu != u {
                    buckets[owner(pu)].push((pu, u));
                    asked += 1;
                }
            }
            charge(comm, asked);
            let queries = superstep_exchange(comm, buckets, &mut st.stats, cfg);
            let mut buckets: Vec<Vec<(VertexId, VertexId)>> = (0..p).map(|_| Vec::new()).collect();
            let mut served = 0u64;
            for (dest_parent, asker) in queries.into_iter().flatten() {
                served += 1;
                buckets[owner(asker)].push((asker, st.parent[idx(dest_parent)]));
            }
            charge(comm, served);
            let replies = superstep_exchange(comm, buckets, &mut st.stats, cfg);
            let mut changed = 0u64;
            for (asker, gp) in replies.into_iter().flatten() {
                let ui = idx(asker);
                if st.parent[ui] != gp {
                    st.parent[ui] = gp;
                    changed = 1;
                }
            }
            if comm.allreduce_u64(changed, u64::max) == 0 {
                break;
            }
        }

        // ---- S5: adjacency relabel ----------------------------------------
        // LALP: high-degree vertices broadcast one update per destination
        // worker (mirroring); everyone else messages per live edge — the
        // Pregel+ design, and the dominant BSP traffic.
        let mut update_msgs = 0u64;
        let mut buckets: Vec<Vec<(VertexId, VertexId)>> = (0..p).map(|_| Vec::new()).collect();
        for (ui, &u) in mine.iter().enumerate() {
            let live = st.adj_of(ui);
            if live.is_empty() || st.parent[ui] == st.broadcast_parent[ui] {
                continue;
            }
            let pu = st.parent[ui];
            let mirrored = cfg
                .mirror_threshold
                .map(|t| live.len() as u64 >= t)
                .unwrap_or(false);
            if mirrored {
                let mut dests: Vec<usize> = live.iter().map(|e| owner(e.target_vertex)).collect();
                dests.sort_unstable();
                dests.dedup();
                for d in dests {
                    buckets[d].push((u, pu));
                    update_msgs += 1;
                }
            } else {
                for e in live {
                    buckets[owner(e.target_vertex)].push((u, pu));
                    update_msgs += 1;
                }
            }
            st.broadcast_parent[ui] = pu;
        }
        let inbound = superstep_exchange(comm, buckets, &mut st.stats, cfg);
        charge(comm, update_msgs);
        // Apply the updates and prune the edges they made internal
        // (symmetric on both endpoints' workers) in one sweep over the live
        // adjacency; the model still charges a relabel and a prune pass.
        for &(src, ns) in inbound.iter().flatten() {
            new_super[src as usize] = ns;
        }
        let live = st.adj.len() as u64;
        let (mut read, mut write) = (0usize, 0usize);
        for (ui, &pu) in st.parent.iter().enumerate() {
            let end = st.adj_start[ui + 1] as usize;
            st.adj_start[ui] = write as u32;
            while read < end {
                let mut e = st.adj[read];
                read += 1;
                let ns = new_super[e.target_vertex as usize];
                if ns != NONE {
                    e.target_super = ns;
                }
                if e.target_super != pu {
                    st.adj[write] = e;
                    write += 1;
                }
            }
        }
        st.adj_start[count] = write as u32;
        st.adj.truncate(write);
        for &(src, _) in inbound.iter().flatten() {
            new_super[src as usize] = NONE;
        }
        charge(comm, live);
        charge(comm, live);
    }

    // Gather the forest at worker 0.
    let gathered = comm.gather_vec(0, st.msf_local);
    let msf = gathered.map(|parts| {
        let all: Vec<WEdge> = parts.into_iter().flatten().collect();
        MsfResult::from_edges(n, all)
    });
    (msf, st.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;
    use mnd_kernels::oracle::kruskal_msf;

    fn check(el: &EdgeList, nranks: usize) -> PregelReport {
        let r = pregel_msf(
            el,
            nranks,
            &NodePlatform::amd_cluster(),
            &BspConfig::default(),
        );
        assert_eq!(r.msf, kruskal_msf(el), "nranks={nranks}");
        r
    }

    #[test]
    fn matches_oracle_single_worker() {
        check(&gen::gnm(200, 800, 1), 1);
    }

    #[test]
    fn matches_oracle_many_workers_and_families() {
        for (el, name) in [
            (gen::gnm(300, 1200, 2), "gnm"),
            (gen::watts_strogatz(200, 6, 0.2, 3), "ws"),
            (gen::rmat(256, 2048, gen::RmatProbs::GRAPH500, 4), "rmat"),
            (gen::road_grid(15, 15, 0.02, 0.38, 5), "road"),
            (gen::star(100, 6), "star"),
        ] {
            for nranks in [2, 4, 7] {
                let r = pregel_msf(
                    &el,
                    nranks,
                    &NodePlatform::amd_cluster(),
                    &BspConfig::default(),
                );
                assert_eq!(r.msf, kruskal_msf(&el), "{name} nranks={nranks}");
            }
        }
    }

    #[test]
    fn handles_disconnected_and_edgeless() {
        let u = gen::disconnected_union(&[gen::path(20, 1), gen::cycle(15, 2)]);
        let r = check(&u, 3);
        assert_eq!(r.msf.num_components, 2);
        let empty = EdgeList::new(5);
        let r = pregel_msf(
            &empty,
            2,
            &NodePlatform::amd_cluster(),
            &BspConfig::default(),
        );
        assert!(r.msf.edges.is_empty());
    }

    /// The sentinel limit is an error at engine entry (before anything
    /// `O(V)` is allocated), not a wrap-around inside a round.
    #[test]
    #[should_panic(expected = "must stay below the u32::MAX sentinel")]
    fn refuses_a_vertex_count_that_reaches_the_sentinel() {
        pregel_msf(
            &EdgeList::new(u32::MAX),
            2,
            &NodePlatform::amd_cluster(),
            &BspConfig::default(),
        );
    }

    #[test]
    fn supersteps_accumulate_and_cost_time() {
        let el = gen::gnm(400, 1600, 7);
        let r = check(&el, 4);
        assert!(r.supersteps > 10, "supersteps {}", r.supersteps);
        assert!(r.rounds >= 2);
        assert!(r.comm_time > 0.0);
        assert!(r.total_time > r.comm_time);
        assert_eq!(r.recovered_supersteps, 0, "fault-free run recovers nothing");
    }

    #[test]
    fn mirroring_reduces_messages_on_skewed_graphs() {
        let el = gen::rmat(512, 8192, gen::RmatProbs::GRAPH500, 9);
        let plat = NodePlatform::amd_cluster();
        let mirrored = pregel_msf(
            &el,
            4,
            &plat,
            &BspConfig {
                mirror_threshold: Some(16),
                ..Default::default()
            },
        );
        let plain = pregel_msf(
            &el,
            4,
            &plat,
            &BspConfig {
                mirror_threshold: None,
                ..Default::default()
            },
        );
        assert_eq!(mirrored.msf, plain.msf);
        let bytes = |r: &PregelReport| r.rank_stats.iter().map(|s| s.bytes_sent).sum::<u64>();
        assert!(
            bytes(&mirrored) < bytes(&plain),
            "mirrored {} !< plain {}",
            bytes(&mirrored),
            bytes(&plain)
        );
    }

    #[test]
    fn deterministic() {
        let el = gen::gnm(300, 1200, 11);
        let a = check(&el, 4);
        let b = check(&el, 4);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.supersteps, b.supersteps);
    }
}
