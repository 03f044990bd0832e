//! Level-synchronised BSP BFS — the Pregel textbook algorithm, used as the
//! counterpart of `mnd_mst::bfs::distributed_bfs` to contrast execution
//! models on a second application: BSP pays **one superstep per BFS
//! level**, the divide-and-conquer version one exchange per *border
//! crossing*.

use std::sync::Arc;

use mnd_device::NodePlatform;
use mnd_graph::types::VertexId;
use mnd_graph::{CsrGraph, EdgeList};
use mnd_net::{Cluster, Comm, RankStats, Wire};

use mnd_engine::{run_recoverable, EngineChaos, Recoverable, Recovery};

use crate::framework::{superstep_exchange, BspConfig, BspStats};

/// Result of a BSP BFS run.
#[derive(Clone, Debug)]
pub struct BspBfsReport {
    /// Hop distances (`u64::MAX` = unreachable).
    pub dist: Vec<u64>,
    /// Simulated makespan.
    pub total_time: f64,
    /// Max communication time across workers.
    pub comm_time: f64,
    /// Supersteps executed (= BFS levels + 1).
    pub supersteps: u64,
    /// Per-worker statistics.
    pub rank_stats: Vec<RankStats>,
}

/// The mutable per-worker BFS state — the checkpoint unit for rollback
/// recovery under a chaos plan (see [`mnd_engine::run_recoverable`]).
#[derive(Clone)]
struct BfsState {
    /// Hop distance of each owned vertex (`u64::MAX` = unreached).
    dist: Vec<u64>,
    /// Frontier vertices owned by this worker.
    active: Vec<VertexId>,
    /// Superstep counters, checkpointed with the state.
    stats: BspStats,
}

impl Wire for BfsState {
    fn wire_bytes(&self) -> u64 {
        self.dist.wire_bytes() + self.active.wire_bytes() + 4 * 8
    }
}

impl Recoverable for BfsState {
    type State = BfsState;
    fn capture(&self) -> BfsState {
        self.clone()
    }
    fn restore(&mut self, snapshot: BfsState) {
        *self = snapshot;
    }
}

/// Runs level-synchronised BFS from `source` on `nranks` BSP workers.
pub fn pregel_bfs(
    el: &EdgeList,
    source: VertexId,
    nranks: usize,
    platform: &NodePlatform,
    cfg: &BspConfig,
) -> BspBfsReport {
    pregel_bfs_chaos(el, source, nranks, platform, cfg, &EngineChaos::none())
}

/// [`pregel_bfs`] with the chaos plane armed: fabric faults plus
/// superstep-boundary checkpoints and mid-superstep crash rollback (see
/// [`mnd_engine::run_recoverable`]). With [`EngineChaos::none`] this is exactly the
/// fault-free run.
pub fn pregel_bfs_chaos(
    el: &EdgeList,
    source: VertexId,
    nranks: usize,
    platform: &NodePlatform,
    cfg: &BspConfig,
    chaos: &EngineChaos,
) -> BspBfsReport {
    assert!(source < el.num_vertices());
    let csr = Arc::new(CsrGraph::from_edge_list(el));
    let cluster = Cluster::new(nranks, platform.network.scaled(cfg.sim_scale))
        .with_fault_hook(chaos.faults.clone());
    let outcomes = cluster.run(|comm| {
        run_recoverable(
            comm,
            &chaos.control,
            &chaos.observer,
            cfg.checkpoint_interval,
            cfg.sim_scale,
            |rp| worker_bfs(comm, &csr, source, platform, cfg, rp),
        )
    });
    let total_time = Cluster::makespan(&outcomes);
    let mut dist = None;
    let mut supersteps = 0;
    let mut rank_stats = Vec::new();
    for o in &outcomes {
        let (d, stats) = &o.result;
        if let Some(d) = d {
            dist = Some(d.clone());
        }
        supersteps = supersteps.max(stats.supersteps);
        rank_stats.push(o.stats.clone());
    }
    let comm_time = rank_stats.iter().map(|s| s.comm_time).fold(0.0, f64::max);
    BspBfsReport {
        dist: dist.expect("worker 0 gathers"),
        total_time,
        comm_time,
        supersteps,
        rank_stats,
    }
}

fn worker_bfs(
    comm: &Comm,
    csr: &CsrGraph,
    source: VertexId,
    platform: &NodePlatform,
    cfg: &BspConfig,
    rp: &mut Recovery<'_, BfsState>,
) -> (Option<Vec<u64>>, BspStats) {
    let me = comm.rank();
    let p = comm.size();
    let charge = |items: u64| {
        let m = &platform.cpu;
        comm.compute(items as f64 * cfg.sim_scale / (m.edge_throughput * m.efficiency));
    };
    // Hash partitioning, like the MSF baseline.
    let owner = |v: VertexId| -> usize { v as usize % p };
    let mine: Vec<VertexId> = ((me as VertexId)..csr.num_vertices()).step_by(p).collect();
    let idx = |v: VertexId| -> usize { (v as usize - me) / p };

    let mut st = BfsState {
        dist: vec![u64::MAX; mine.len()],
        active: Vec::new(),
        stats: BspStats::default(),
    };
    if owner(source) == me {
        st.dist[idx(source)] = 0;
        st.active.push(source);
    }

    // One superstep per level: actives send dist+1 to every neighbour.
    loop {
        // Recovery point between levels (no-op unless chaos is armed and
        // the checkpoint interval has elapsed).
        let ss = st.stats.supersteps;
        rp.boundary(&mut st, ss);

        let mut buckets: Vec<Vec<(VertexId, u64)>> = (0..p).map(|_| Vec::new()).collect();
        let mut scanned = 0u64;
        for &u in &st.active {
            let du = st.dist[idx(u)];
            for (v, _) in csr.neighbors(u) {
                scanned += 1;
                buckets[owner(v)].push((v, du + 1));
            }
        }
        charge(scanned);
        if cfg.combine {
            for b in buckets.iter_mut() {
                b.sort_unstable();
                b.dedup_by_key(|(v, _)| *v);
            }
        }
        let inbound = superstep_exchange(comm, buckets, &mut st.stats, cfg);
        st.active.clear();
        let mut applied = 0u64;
        for b in inbound {
            for (v, d) in b {
                applied += 1;
                let dv = &mut st.dist[idx(v)];
                if *dv > d {
                    *dv = d;
                    st.active.push(v);
                }
            }
        }
        charge(applied);
        if comm.allreduce_u64(st.active.len() as u64, |a, b| a + b) == 0 {
            break;
        }
    }

    let stats = st.stats;
    // Gather: distances must come back in global vertex order. Worker w
    // owns vertices w, w+p, …, so rank 0 interleaves.
    let gathered = comm.gather_vec(0, st.dist);
    let all = gathered.map(|parts| {
        let n = csr.num_vertices() as usize;
        let mut out = vec![u64::MAX; n];
        for (w, part) in parts.into_iter().enumerate() {
            for (i, d) in part.into_iter().enumerate() {
                out[w + i * p] = d;
            }
        }
        out
    });
    (all, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::components::bfs_distances;
    use mnd_graph::gen;

    fn check(el: &EdgeList, source: VertexId, nranks: usize, cfg: &BspConfig) -> BspBfsReport {
        let r = pregel_bfs(el, source, nranks, &NodePlatform::amd_cluster(), cfg);
        let oracle = bfs_distances(&CsrGraph::from_edge_list(el), source);
        assert_eq!(r.dist, oracle);
        r
    }

    #[test]
    fn matches_sequential() {
        let el = gen::gnm(300, 1200, 3);
        for nranks in [1, 4] {
            check(&el, 0, nranks, &BspConfig::default());
        }
    }

    #[test]
    fn supersteps_equal_levels_plus_one() {
        let el = gen::path(100, 5);
        let r = check(&el, 0, 4, &BspConfig::default());
        // A 100-vertex path from one end: 99 levels -> 100 supersteps.
        assert_eq!(r.supersteps, 100);
    }

    #[test]
    fn disconnected_unreached() {
        let u = gen::disconnected_union(&[gen::cycle(10, 1), gen::cycle(10, 2)]);
        let r = check(&u, 0, 3, &BspConfig::default());
        assert!(r.dist[10..].iter().all(|&d| d == u64::MAX));
    }

    #[test]
    fn dnc_bfs_needs_far_fewer_rounds_than_bsp_levels() {
        // The model contrast on a second application: a deep graph costs
        // BSP one superstep per level, the divide-and-conquer BFS one
        // exchange per border crossing.
        let el = gen::road_grid(40, 40, 0.02, 0.2, 7);
        let bsp = check(&el, 0, 4, &BspConfig::default());
        let dnc = mnd_mst::bfs::distributed_bfs(&el, 0, 4, &NodePlatform::amd_cluster(), 1.0);
        assert_eq!(bsp.dist, dnc.dist);
        assert!(
            dnc.rounds * 5 < bsp.supersteps,
            "dnc rounds {} vs bsp supersteps {}",
            dnc.rounds,
            bsp.supersteps
        );
    }
}
