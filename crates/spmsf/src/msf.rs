//! The min-plus SpMV MSF algorithm (see the crate docs for the round
//! structure).
//!
//! The worker's mutable state lives in `SpmsfState` so a chaos-armed run
//! can checkpoint it at collective-step boundaries and roll back after an
//! injected mid-step crash. The partition map and CSR graph are immutable
//! and rebuilt deterministically on re-execution.
//!
//! Everything a round works in besides that state is keyed by component
//! ids, which already are dense array indexes, so it lives in flat columns
//! allocated once per run: two [`Election`] tables (`local`, slot = the
//! component id, min-reduced by the SpMV; `best`, slot = offset into the
//! rank's own range, min-reduced from the routed candidates), a `parent`
//! column over the own range (the hook pointers) and an `n`-sized `root_of`
//! column (the round's relabel map). A round resets exactly what it wrote —
//! the tables through their first-touch lists, `parent` through `best`'s
//! list, `root_of` through the allgathered pairs it was written from — so
//! every column is all-[`NONE`] at each round top and a late round with ten
//! components costs ten resets. None of it is checkpointed: between the
//! boundaries inside the compress loop `best` and `parent` are live, and a
//! rollback re-derives them by replaying the round from the top, exactly
//! as it re-derives the partition map.

use std::cell::Cell;
use std::sync::Arc;

use mnd_device::NodePlatform;
use mnd_engine::election::{Election, NONE};
use mnd_engine::{run_recoverable, EngineChaos, Recoverable, Recovery};
use mnd_graph::partition::{owner_of, partition_1d};
use mnd_graph::types::{VertexId, WEdge, Weight};
use mnd_graph::{CsrGraph, EdgeList};
use mnd_kernels::msf::MsfResult;
use mnd_net::{Cluster, Comm, RankStats, Wire};

/// Tunables of the min-plus engine.
#[derive(Clone, Debug)]
pub struct SpmsfConfig {
    /// Simulation scale (see `HyParConfig::sim_scale`): device work and
    /// message bytes are multiplied by this so fixed overheads keep their
    /// paper-scale ratios.
    pub sim_scale: f64,
    /// Collective steps between checkpoints when a chaos schedule is
    /// armed. A round costs a handful of steps, so the default of 2
    /// checkpoints a few times per round; see `repro checkpoint-sweep`.
    pub checkpoint_interval: u64,
}

impl Default for SpmsfConfig {
    fn default() -> Self {
        SpmsfConfig {
            sim_scale: 1.0,
            checkpoint_interval: 2,
        }
    }
}

/// Counters of one min-plus run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpmsfStats {
    /// Boruvka rounds executed.
    pub rounds: u64,
    /// Collective steps (candidate exchanges, hook probes, jump
    /// query/reply pairs, root broadcasts).
    pub steps: u64,
    /// Steps re-executed at recovery cost after injected crashes.
    pub recovered_steps: u64,
}

/// Outcome of a min-plus run — mirrors `MndMstReport`/`PregelReport` so
/// benches can print all three side by side.
#[derive(Clone, Debug)]
pub struct SpmsfReport {
    /// The global minimum spanning forest.
    pub msf: MsfResult,
    /// Simulated makespan (max final virtual clock).
    pub total_time: f64,
    /// Max communication time across ranks.
    pub comm_time: f64,
    /// Boruvka rounds.
    pub rounds: u64,
    /// Collective steps (max across ranks — they run in lockstep).
    pub steps: u64,
    /// Steps re-executed at recovery cost, summed over ranks (0 on
    /// fault-free runs).
    pub recovered_steps: u64,
    /// Per-rank raw statistics.
    pub rank_stats: Vec<RankStats>,
}

/// The mutable per-rank state — the checkpoint unit for rollback
/// recovery: the replicated component vector, this rank's surviving CSR
/// row block, settled forest edges, and the step counters (checkpointed
/// together so restored counters stay consistent with restored progress).
#[derive(Clone)]
struct SpmsfState {
    /// Component of every vertex (replicated, relabelled each round).
    comp: Vec<VertexId>,
    /// This rank's directed row block: `(u, v, w)` with `u` owned. Rows
    /// whose endpoints merge are pruned each round.
    rows: Vec<(VertexId, VertexId, Weight)>,
    /// Forest edges settled by this rank (as owner of the electing
    /// component).
    msf_local: Vec<WEdge>,
    /// Round/step counters.
    stats: SpmsfStats,
    /// Distinct entries of `comp` the relabel rewrote since the last
    /// checkpoint capture — the delta segment's size. An entry
    /// relabelled in several rounds within one window is a single
    /// `(index, root)` pair in the segment (the latest root wins), so it
    /// is counted on first touch only — see `comp_epoch`. `Cell` because
    /// [`Recoverable::capture`] takes `&self` but must start a new
    /// delta window.
    comp_dirty: Cell<u64>,
    /// Per-entry delta-window stamp: `comp_epoch[u] == dirty_epoch`
    /// means entry `u` is already counted in `comp_dirty` for the
    /// current window.
    comp_epoch: Vec<u64>,
    /// The current delta window id; bumped by capture/restore so stale
    /// stamps are invalidated without an `O(V)` clear.
    dirty_epoch: Cell<u64>,
    /// Whether a base segment exists in this execution. The first
    /// capture streams the full vector; a restore re-establishes the
    /// base (the restored vector *is* the latest segment's content).
    has_base: Cell<bool>,
}

/// The min-plus engine's checkpoint payload. It carries the full state —
/// restore must be exact — but *charges* the component vector at its
/// encoded size: entries are only rewritten by the per-round relabel, so
/// consecutive checkpoints differ in the merged entries alone, and the
/// storage segment records `(index, new_root)` pairs against the resident
/// base instead of re-streaming all `O(V)` replicated entries. Restores
/// re-read the latest segment; the base stays resident in node-local
/// storage across segments (log-structured store, compacted on restore).
#[derive(Clone)]
struct SpmsfCheckpoint {
    comp: Vec<VertexId>,
    rows: Vec<(VertexId, VertexId, Weight)>,
    msf_local: Vec<WEdge>,
    stats: SpmsfStats,
    /// `None`: base segment (full vector). `Some(k)`: delta segment
    /// rewriting `k` entries.
    comp_delta: Option<u64>,
}

impl Wire for SpmsfCheckpoint {
    fn wire_bytes(&self) -> u64 {
        // Delta segments charge an entry-count header plus an
        // (index: u32, root: u32) pair per rewritten entry.
        let comp_bytes = match self.comp_delta {
            Some(k) => 8 + k * 8,
            None => self.comp.wire_bytes(),
        };
        comp_bytes + self.rows.wire_bytes() + self.msf_local.wire_bytes() + 3 * 8
    }
}

impl Recoverable for SpmsfState {
    type State = SpmsfCheckpoint;
    fn capture(&self) -> SpmsfCheckpoint {
        // A delta segment only pays off while the rewrites since the
        // last checkpoint stay under the full vector's footprint —
        // sparse cadences can accumulate more rewrites than entries, at
        // which point the base encoding is the smaller write.
        let dirty = self.comp_dirty.get();
        let comp_delta =
            (self.has_base.get() && 8 + dirty * 8 < self.comp.wire_bytes()).then_some(dirty);
        self.has_base.set(true);
        self.comp_dirty.set(0);
        self.dirty_epoch.set(self.dirty_epoch.get() + 1);
        SpmsfCheckpoint {
            comp: self.comp.clone(),
            rows: self.rows.clone(),
            msf_local: self.msf_local.clone(),
            stats: self.stats,
            comp_delta,
        }
    }
    fn restore(&mut self, snapshot: SpmsfCheckpoint) {
        self.comp = snapshot.comp;
        self.rows = snapshot.rows;
        self.msf_local = snapshot.msf_local;
        self.stats = snapshot.stats;
        self.comp_dirty.set(0);
        self.dirty_epoch.set(self.dirty_epoch.get() + 1);
        self.has_base.set(true);
    }
}

/// Runs the min-plus MSF on `nranks` ranks over the platform's network and
/// CPU model. Returns the unique MSF (oracle-comparable) plus simulated
/// times.
pub fn spmsf_msf(
    el: &EdgeList,
    nranks: usize,
    platform: &NodePlatform,
    cfg: &SpmsfConfig,
) -> SpmsfReport {
    spmsf_msf_chaos(el, nranks, platform, cfg, &EngineChaos::none())
}

/// [`spmsf_msf`] with the chaos plane armed: fabric faults from
/// `chaos.faults`, step-boundary checkpoints and mid-step crash rollback
/// from `chaos.control`. With [`EngineChaos::none`] this is exactly the
/// fault-free run.
pub fn spmsf_msf_chaos(
    el: &EdgeList,
    nranks: usize,
    platform: &NodePlatform,
    cfg: &SpmsfConfig,
    chaos: &EngineChaos,
) -> SpmsfReport {
    assert!(nranks >= 1);
    let n = el.num_vertices();
    assert!(
        n < NONE,
        "spmsf: {n} vertices, but ids and slots must stay below the u32::MAX sentinel"
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
    let mut rounds = 0;
    let mut steps = 0;
    let mut recovered_steps = 0;
    let mut rank_stats = Vec::new();
    for o in &outcomes {
        let (m, stats) = &o.result;
        if let Some(m) = m {
            msf = Some(m.clone());
        }
        rounds = rounds.max(stats.rounds);
        steps = steps.max(stats.steps);
        recovered_steps += stats.recovered_steps;
        rank_stats.push(o.stats.clone());
    }
    let comm_time = rank_stats.iter().map(|s| s.comm_time).fold(0.0, f64::max);
    SpmsfReport {
        msf: msf.expect("rank 0 returns the MSF"),
        total_time,
        comm_time,
        rounds,
        steps,
        recovered_steps,
        rank_stats,
    }
}

/// One collective step: counts it (at recovery cost when replaying a
/// crashed epoch live) and runs the exchange.
fn exchange<T: Wire + Clone>(
    comm: &Comm,
    buckets: Vec<Vec<T>>,
    stats: &mut SpmsfStats,
) -> Vec<Vec<T>> {
    stats.steps += 1;
    if comm.replay_live() {
        stats.recovered_steps += 1;
    }
    comm.alltoallv(buckets)
}

fn worker_main(
    comm: &Comm,
    csr: &CsrGraph,
    n: VertexId,
    platform: &NodePlatform,
    cfg: &SpmsfConfig,
    rp: &mut Recovery<'_, SpmsfCheckpoint>,
) -> (Option<MsfResult>, SpmsfStats) {
    let me = comm.rank();
    let p = comm.size();
    let cpu = &platform.cpu;
    let charge = |comm: &Comm, items: u64| {
        comm.compute(items as f64 * cfg.sim_scale / (cpu.edge_throughput * cpu.efficiency));
    };

    let ranges = partition_1d(csr, p, 0.0);
    let own = ranges[me];
    // Slot of an owned component in the owner-side columns.
    let own_at = |c: VertexId| -> usize {
        assert!(
            own.contains(c),
            "spmsf rank {me}: component {c} was routed here but belongs to rank {}",
            owner_of(&ranges, c)
        );
        (c - own.start) as usize
    };
    let mut st = SpmsfState {
        comp: (0..n).collect(),
        rows: ranges[me]
            .iter()
            .flat_map(|u| csr.neighbors(u).map(move |(v, w)| (u, v, w)))
            .collect(),
        msf_local: Vec::new(),
        stats: SpmsfStats::default(),
        comp_dirty: Cell::new(0),
        comp_epoch: vec![0; n as usize],
        dirty_epoch: Cell::new(1),
        has_base: Cell::new(false),
    };
    charge(comm, st.rows.len() as u64);

    // The round scratch (see the module docs for the reset discipline).
    let mut local = Election::new(n as usize);
    let mut best = Election::new(own.len() as usize);
    let mut parent: Vec<VertexId> = vec![NONE; own.len() as usize];
    let mut root_of: Vec<VertexId> = vec![NONE; n as usize];

    loop {
        let progress = st.stats.steps;
        rp.boundary(&mut st, progress);
        debug_assert!(
            local.is_clear()
                && best.is_clear()
                && parent.iter().chain(&root_of).all(|&x| x == NONE),
            "round scratch must be back to NONE at every round top"
        );

        // (1) Min-plus SpMV over the row block: per source component, the
        // minimum outgoing edge under the strict (w, u, v) order.
        for &(u, v, w) in &st.rows {
            let (cu, cv) = (st.comp[u as usize], st.comp[v as usize]);
            if cu != cv {
                local.offer(cu as usize, cu, WEdge::new(u, v, w), cv);
            }
        }
        charge(comm, st.rows.len() as u64);

        // Fixpoint: no component anywhere has an outgoing edge.
        if comm.allreduce_u64(local.entries().len() as u64, |a, b| a + b) == 0 {
            break;
        }
        st.stats.rounds += 1;

        // (2) Route candidates to the owner of their source component,
        // which min-reduces to the global elected edge.
        let mut buckets: Vec<Vec<(VertexId, WEdge, VertexId)>> = vec![Vec::new(); p];
        for c in local.entries() {
            buckets[owner_of(&ranges, c.comp)].push((c.comp, c.edge, c.target));
        }
        local.clear();
        let inbound = exchange(comm, buckets, &mut st.stats);
        let mut incoming = 0u64;
        for (c, e, t) in inbound.into_iter().flatten() {
            incoming += 1;
            best.offer(own_at(c), c, e, t);
        }
        charge(comm, incoming);

        // (3) Hook. Probes `(t, c)` tell owner(t) that component c elected
        // an edge into t; if t elected one into c as well, the pair elected
        // the *same* cut edge (both are the minimum of the c–t cut under a
        // total order), so the smaller id becomes the pair's root and keeps
        // the edge once.
        let mut probes: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); p];
        for b in best.entries() {
            probes[owner_of(&ranges, b.target)].push((b.target, b.comp));
        }
        let inbound = exchange(comm, probes, &mut st.stats);
        for (t, c) in inbound.into_iter().flatten() {
            if let Some(b) = best.get_mut(own_at(t)) {
                b.mark |= b.target == c;
            }
        }
        for b in best.entries() {
            let (c, t) = (b.comp, b.target);
            // A mutual pair's larger id just hooks: the partner (its root)
            // keeps the shared edge.
            parent[b.at()] = if b.mark && c < t { c } else { t };
            if !(b.mark && c > t) {
                st.msf_local.push(b.edge);
            }
        }
        charge(comm, best.entries().len() as u64);

        // (4) Compress: distributed pointer jumping. The hook forest is
        // acyclic (mutual pairs were broken), so pointer depth halves per
        // iteration and the changed-count allreduce reaches zero.
        loop {
            let progress = st.stats.steps;
            rp.boundary(&mut st, progress);
            let mut queries: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); p];
            for b in best.entries() {
                let t = parent[b.at()];
                if t != b.comp {
                    queries[owner_of(&ranges, t)].push((t, b.comp));
                }
            }
            let pending: u64 = queries.iter().map(|q| q.len() as u64).sum();
            let inbound = exchange(comm, queries, &mut st.stats);
            let mut replies: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); p];
            for (t, c) in inbound.into_iter().flatten() {
                // Components that elected nothing are roots.
                let gp = match parent[own_at(t)] {
                    NONE => t,
                    gp => gp,
                };
                replies[owner_of(&ranges, c)].push((c, gp));
            }
            let back = exchange(comm, replies, &mut st.stats);
            let mut changed = 0u64;
            for (c, gp) in back.into_iter().flatten() {
                let cur = &mut parent[own_at(c)];
                assert!(
                    *cur != NONE,
                    "spmsf rank {me}: jump reply for component {c}, which sent no query"
                );
                if *cur != gp {
                    *cur = gp;
                    changed += 1;
                }
            }
            charge(comm, pending);
            if comm.allreduce_u64(changed, |a, b| a.max(b)) == 0 {
                break;
            }
        }

        // (5) Relabel: merged components broadcast their new root and
        // every rank applies the map to its replicated component vector,
        // then prunes rows the merge made internal.
        st.stats.steps += 1;
        if comm.replay_live() {
            st.stats.recovered_steps += 1;
        }
        let mut moved: Vec<(VertexId, VertexId)> = Vec::new();
        for b in best.entries() {
            let root = std::mem::replace(&mut parent[b.at()], NONE);
            if root != b.comp {
                moved.push((b.comp, root));
            }
        }
        best.clear();
        let moved = comm.allgather_vec(moved);
        for &(c, r) in moved.iter().flatten() {
            root_of[c as usize] = r;
        }
        let epoch = st.dirty_epoch.get();
        let mut rewritten = 0u64;
        for (cu, stamp) in st.comp.iter_mut().zip(st.comp_epoch.iter_mut()) {
            let r = root_of[*cu as usize];
            if r != NONE {
                *cu = r;
                // First touch in this delta window: one (index, root)
                // pair in the next segment, however many more rounds
                // relabel this entry before the capture.
                if *stamp != epoch {
                    *stamp = epoch;
                    rewritten += 1;
                }
            }
        }
        for &(c, _) in moved.iter().flatten() {
            root_of[c as usize] = NONE;
        }
        st.comp_dirty.set(st.comp_dirty.get() + rewritten);
        charge(comm, n as u64);

        let before = st.rows.len() as u64;
        let comp = &st.comp;
        st.rows
            .retain(|&(u, v, _)| comp[u as usize] != comp[v as usize]);
        charge(comm, before);
    }

    // Settled edges gather to rank 0, which assembles the canonical
    // forest (sorted, deduplicated by construction).
    let msf = comm.gather_vec(0, st.msf_local.clone()).map(|per_rank| {
        let edges: Vec<WEdge> = per_rank.into_iter().flatten().collect();
        MsfResult::from_edges(n, edges)
    });
    (msf, st.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;
    use mnd_kernels::kruskal_msf;

    fn run(el: &EdgeList, nranks: usize) -> SpmsfReport {
        spmsf_msf(
            el,
            nranks,
            &NodePlatform::amd_cluster(),
            &SpmsfConfig::default(),
        )
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for (n, m, seed) in [(50u32, 120u64, 1u64), (400, 2400, 2), (1000, 8000, 3)] {
            let el = gen::gnm(n, m, seed);
            let r = run(&el, 4);
            assert_eq!(r.msf, kruskal_msf(&el), "n={n} m={m} seed={seed}");
        }
    }

    #[test]
    fn rank_counts_agree() {
        let el = gen::gnm(300, 1800, 17);
        let oracle = kruskal_msf(&el);
        for p in [1, 2, 3, 5, 8] {
            let r = run(&el, p);
            assert_eq!(r.msf, oracle, "p={p}");
        }
    }

    #[test]
    fn disconnected_and_degenerate_inputs() {
        // Two far-apart cliques: forest has 2 components.
        let mut el = EdgeList::new(100);
        for c in [0u32, 50] {
            for i in 0..8u32 {
                for j in (i + 1)..8 {
                    el.push(c + i, c + j, (i * 13 + j * 7 + c) % 97 + 1);
                }
            }
        }
        let r = run(&el, 4);
        let oracle = kruskal_msf(&el);
        assert_eq!(r.msf, oracle);
        assert!(r.msf.num_components >= 2);

        // Empty graph.
        let empty = EdgeList::new(0);
        let r = run(&empty, 3);
        assert_eq!(r.msf.edges.len(), 0);

        // Isolated vertices only.
        let iso = EdgeList::new(7);
        let r = run(&iso, 2);
        assert_eq!(r.msf.num_components, 7);

        // Single edge.
        let mut one = EdgeList::new(2);
        one.push(0, 1, 5);
        let r = run(&one, 4);
        assert_eq!(r.msf.weight, 5);
    }

    /// The sentinel limit is an error at engine entry (before anything
    /// `O(V)` is allocated), not a wrap-around inside a round.
    #[test]
    #[should_panic(expected = "must stay below the u32::MAX sentinel")]
    fn refuses_a_vertex_count_that_reaches_the_sentinel() {
        run(&EdgeList::new(u32::MAX), 2);
    }

    #[test]
    fn mid_step_crash_recovers_byte_identical() {
        use mnd_chaos::FaultPlan;
        let el = gen::gnm(600, 3600, 31);
        let oracle = kruskal_msf(&el);
        let clean = run(&el, 4);
        let plan = Arc::new(FaultPlan::new(3).with_mid_phase_crash(2, 1, 3));
        let chaos = EngineChaos::from_plan(plan);
        let r = spmsf_msf_chaos(
            &el,
            4,
            &NodePlatform::amd_cluster(),
            &SpmsfConfig::default(),
            &chaos,
        );
        assert_eq!(r.msf, oracle);
        assert_eq!(r.msf, clean.msf, "recovered forest must be byte-identical");
        assert_eq!(r.rank_stats[2].checkpoint_restores, 1);
        assert!(r.recovered_steps > 0, "interrupted epoch re-runs steps");
        assert!(r.total_time > clean.total_time, "recovery costs time");
        // Replayed inbound traffic is served from the log: the logical
        // fabric counters match the fault-free run on every rank.
        for (rank, (a, b)) in clean.rank_stats.iter().zip(&r.rank_stats).enumerate() {
            assert_eq!(a.bytes_sent, b.bytes_sent, "rank {rank} bytes");
            assert_eq!(a.messages_sent, b.messages_sent, "rank {rank} messages");
        }
    }

    /// After the base segment a checkpoint charges the rewritten entries
    /// of the component vector, `(index, root)` pairs behind a count,
    /// instead of the whole vector, and it falls back to the whole vector
    /// once the rewrites would not be smaller. A run that checkpoints at
    /// every boundary stays exact and recovers through a mid-step crash.
    #[test]
    fn delta_checkpoints_shrink_the_bill_and_stay_recoverable() {
        use mnd_chaos::FaultPlan;
        let n = 1000u32;
        let st = SpmsfState {
            comp: (0..n).collect(),
            rows: vec![(0, 1, 5), (1, 0, 5)],
            msf_local: Vec::new(),
            stats: SpmsfStats::default(),
            comp_dirty: Cell::new(0),
            comp_epoch: vec![0; n as usize],
            dirty_epoch: Cell::new(1),
            has_base: Cell::new(false),
        };
        let base = st.capture();
        assert_eq!(base.comp_delta, None, "the first write is the base");
        st.comp_dirty.set(10);
        let delta = st.capture();
        assert_eq!(delta.comp_delta, Some(10));
        assert_eq!(
            base.wire_bytes() - delta.wire_bytes(),
            st.comp.wire_bytes() - (8 + 10 * 8),
            "a delta segment charges a count and a pair per rewrite"
        );
        assert_eq!(st.capture().comp_delta, Some(0), "nothing rewritten");
        st.comp_dirty.set(n as u64);
        assert_eq!(st.capture().comp_delta, None, "the base is smaller");

        let el = gen::gnm(2000, 12000, 41);
        let oracle = kruskal_msf(&el);
        let platform = NodePlatform::amd_cluster();
        let cfg = SpmsfConfig {
            checkpoint_interval: 1,
            ..SpmsfConfig::default()
        };
        let run_with = |plan: FaultPlan| {
            spmsf_msf_chaos(
                &el,
                4,
                &platform,
                &cfg,
                &EngineChaos::from_plan(Arc::new(plan)),
            )
        };
        // Armed-but-clean plan: checkpoints are written, nothing crashes.
        let clean = run_with(FaultPlan::new(9));
        assert_eq!(clean.msf, oracle);
        let writes: u64 = clean.rank_stats.iter().map(|s| s.checkpoint_writes).sum();
        assert!(writes > 4, "interval 1 checkpoints every boundary");
        let crashed = run_with(FaultPlan::new(3).with_mid_phase_crash(1, 1, 1));
        assert_eq!(crashed.msf, oracle);
        assert!(crashed.rank_stats[1].checkpoint_restores >= 1);
    }

    #[test]
    fn rounds_are_logarithmic() {
        let el = gen::gnm(2000, 12000, 23);
        let r = run(&el, 4);
        assert!(r.rounds > 0);
        assert!(
            r.rounds <= 12,
            "Boruvka halves components per round, got {}",
            r.rounds
        );
    }
}
