//! The distributed MND-MST driver (Algorithm 1 of the paper).
//!
//! One [`MndMstRunner::run`] call simulates a whole cluster execution: it
//! spins up `nranks` rank threads over `mnd-net` and runs the phase
//! pipeline of [`crate::phases`] — partitioning → independent computations
//! → mergeParts → hierarchical merging → post-processing — returning the
//! global MSF together with simulated per-phase times.
//!
//! ## Lockstep discipline
//!
//! Every global collective (degree allreduce, ghost alltoallv, ownership
//! allgather, group-size allreduce) is executed by **all** ranks on every
//! round, including ranks that have already merged their data away — their
//! holdings are simply empty, so their contributions are empty. This keeps
//! the communication graph deterministic, mirrors how collectives work on
//! a real MPI job, and lets per-group decisions (§4.3.4) be taken from
//! globally replicated data without extra coordination messages.

use std::sync::Arc;

use mnd_device::NodePlatform;
use mnd_engine::{run_recoverable, EngineChaos};
use mnd_graph::EdgeList;
use mnd_hypar::{ChaosHook, HyParConfig};
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::msf::MsfResult;
use mnd_kernels::policy::{kernel_threads, with_kernel_threads};
use mnd_net::{Cluster, Comm};

use crate::checkpoint::RankCheckpoint;
use crate::phases::{
    HierMerge, IndComp, Level0, Partition, Phase, PhaseTimesRecorder, PostProcess, RankCtx,
};
use crate::result::{MndMstReport, PhaseTimes};

/// Configuration + entry point for distributed runs.
#[derive(Clone, Debug)]
pub struct MndMstRunner {
    /// Number of simulated cluster nodes (one rank per node).
    pub nranks: usize,
    /// Node hardware + interconnect.
    pub platform: NodePlatform,
    /// HyPar runtime configuration.
    pub config: HyParConfig,
    /// Maximum ghost pairs per exchange phase (§3.1/§3.3: boundary
    /// communication happens "in multiple phases" to bound message sizes).
    pub ghost_phase_size: usize,
}

impl MndMstRunner {
    /// A CPU-only runner on the AMD-cluster platform with paper defaults.
    pub fn new(nranks: usize) -> Self {
        MndMstRunner {
            nranks,
            platform: NodePlatform::amd_cluster(),
            config: HyParConfig::default(),
            ghost_phase_size: 1 << 16,
        }
    }

    /// Replaces the platform (e.g. `NodePlatform::cray_xc40(true)`).
    pub fn with_platform(mut self, platform: NodePlatform) -> Self {
        self.platform = platform;
        self
    }

    /// Replaces the HyPar configuration.
    pub fn with_config(mut self, config: HyParConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the full distributed algorithm on `el` and reports.
    ///
    /// The result is validated structurally (component counts) here;
    /// edge-for-edge oracle comparison lives in the tests.
    ///
    /// # Panics
    ///
    /// If `nranks == 0`, or on internal invariant violations (a rank
    /// thread panicking is re-raised with its rank id).
    pub fn run(&self, el: &EdgeList) -> MndMstReport {
        self.run_armed(el, &EngineChaos::none())
    }

    /// [`MndMstRunner::run`] with the chaos plane armed: `chaos.faults` on
    /// the simulated fabric (drops/delays/duplicates/reorders) and
    /// `chaos.control`'s phase-level schedule (stalls, crashes, dead
    /// leaders) at the recovery boundaries. An observer set on `chaos`
    /// replaces the configured one for this run. With
    /// [`EngineChaos::none`] this is exactly the fault-free run.
    pub fn run_armed(&self, el: &EdgeList, chaos: &EngineChaos) -> MndMstReport {
        if !chaos.observer.is_set() {
            return self.execute(el, chaos);
        }
        let mut runner = self.clone();
        runner.config.observer = chaos.observer.clone();
        runner.execute(el, chaos)
    }

    /// The run itself; `chaos.observer` is [`MndMstRunner::run_armed`]'s.
    fn execute(&self, el: &EdgeList, chaos: &EngineChaos) -> MndMstReport {
        assert!(self.nranks >= 1);
        let network = self.platform.network.scaled(self.config.sim_scale);
        let cluster = Cluster::new(self.nranks, network).with_fault_hook(chaos.faults.clone());

        // Ranks × kernel threads ≤ cores: the ranks are threads of this
        // process, so each gets its share of the kernel threads, and a rank
        // left with one runs every sweep on the sequential arm
        // ([`KernelPolicy::current`](mnd_kernels::policy::KernelPolicy::current))
        // — nothing can win a parallel section back on a core it shares.
        // A rank the others wait for takes their share for that stretch
        // ([`RankCtx::alone`]).
        let host = kernel_threads();
        let threads = (host / self.nranks).max(1);
        // The ranks read the edge list themselves (§3.1), one block of
        // them per kernel thread.
        let level0 = Level0::new(self.nranks, host);
        let outcomes = cluster.run(|comm| {
            with_kernel_threads(threads, || {
                self.rank_main(host, comm, el, &level0, &chaos.control)
            })
        });

        let total_time = Cluster::makespan(&outcomes);
        let mut msf: Option<MsfResult> = None;
        let mut phases = Vec::with_capacity(self.nranks);
        let mut rank_stats = Vec::with_capacity(self.nranks);
        let mut levels = 0;
        let mut exchange_rounds = 0;
        let mut max_holding_bytes = 0u64;
        for o in &outcomes {
            let r = &o.result;
            if let Some(m) = &r.msf {
                msf = Some(m.clone());
            }
            let mut ph = r.phases;
            ph.comm = o.stats.comm_time;
            phases.push(ph);
            rank_stats.push(o.stats.clone());
            levels = levels.max(r.levels);
            exchange_rounds = exchange_rounds.max(r.exchange_rounds);
            max_holding_bytes = max_holding_bytes.max(r.max_holding_bytes);
        }
        let comm_time = rank_stats.iter().map(|s| s.comm_time).fold(0.0, f64::max);
        MndMstReport {
            msf: msf.expect("the final rank always produces the MSF"),
            total_time,
            comm_time,
            phases,
            rank_stats,
            levels,
            exchange_rounds,
            max_holding_bytes,
            nranks: self.nranks,
        }
    }

    /// The per-rank program: the phase pipeline over a shared context,
    /// wrapped in the workspace-wide rollback-recovery loop
    /// ([`mnd_engine::run_recoverable`]) when a chaos schedule is armed.
    ///
    /// A mid-phase crash unwinds the pipeline as a panic; the shared loop
    /// catches it, pays the restart penalty, resets the per-peer sequence
    /// cursors, and re-runs the pipeline from the top: epochs before the
    /// crashed one fast-forward at zero cost against the replay log, the
    /// checkpoint written at the previous recovery boundary is swapped in
    /// there, and the crashed epoch replays live — its inbound messages
    /// are served from the log without re-charging the fabric
    /// (DESIGN.md §5f/§6). The recorder is owned here so phase times
    /// survive the unwind; the checkpoint slot and fired-crash set live in
    /// the shared driver.
    fn rank_main(
        &self,
        host_threads: usize,
        comm: &Comm,
        el: &EdgeList,
        level0: &Level0,
        chaos: &ChaosHook,
    ) -> RankResult {
        let recorder = Arc::new(PhaseTimesRecorder::new());
        run_recoverable::<RankCheckpoint, _>(
            comm,
            chaos,
            &self.config.observer,
            self.config.checkpoint_interval,
            self.config.sim_scale,
            |rec| {
                let mut cx = RankCtx::new(
                    self,
                    host_threads,
                    comm,
                    el,
                    level0,
                    chaos,
                    Arc::clone(&recorder),
                );
                let mut pipeline: [Box<dyn Phase>; 4] = [
                    Box::new(Partition),
                    Box::new(IndComp::new()),
                    Box::new(HierMerge::new()),
                    Box::new(PostProcess),
                ];
                for phase in pipeline.iter_mut() {
                    phase.run(&mut cx, rec);
                }
                cx.into_result()
            },
        )
    }

    /// Seconds a single linear sweep over `items` costs on this node's CPU
    /// (used to charge partitioning/reduction work).
    pub(crate) fn sweep_seconds(&self, items: u64) -> f64 {
        let m = &self.platform.cpu;
        items as f64 * self.config.sim_scale / (m.edge_throughput * m.efficiency)
    }

    /// Paper-scale bytes of a holding (the memory the full-size run would
    /// occupy).
    pub(crate) fn paper_bytes(&self, cg: &CGraph) -> u64 {
        (cg.approx_bytes() as f64 * self.config.sim_scale) as u64
    }

    /// Per-segment byte cap: a quarter of node memory (at paper scale), so
    /// a receiver holding its own data plus one segment stays far below
    /// capacity — the §3.4 accommodation guarantee.
    pub(crate) fn segment_cap_bytes(&self) -> u64 {
        let node_mem = self.platform.cpu.mem_bytes;
        ((node_mem / 4) as f64 / self.config.sim_scale) as u64
    }
}

/// What one rank hands back from the simulation.
#[derive(Clone, Debug)]
pub(crate) struct RankResult {
    pub(crate) msf: Option<MsfResult>,
    pub(crate) phases: PhaseTimes,
    pub(crate) levels: usize,
    pub(crate) exchange_rounds: usize,
    pub(crate) max_holding_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;
    use mnd_hypar::observe::{PhaseKind, PhaseObserver, PhaseSample};
    use mnd_kernels::oracle::kruskal_msf;

    fn check(el: &EdgeList, nranks: usize) -> MndMstReport {
        let report = MndMstRunner::new(nranks).run(el);
        let oracle = kruskal_msf(el);
        assert_eq!(report.msf, oracle, "nranks={nranks}");
        report
    }

    #[test]
    fn single_rank_matches_oracle() {
        check(&gen::gnm(300, 1200, 1), 1);
    }

    #[test]
    fn two_ranks_match_oracle() {
        check(&gen::gnm(300, 1200, 2), 2);
    }

    #[test]
    fn many_ranks_many_families() {
        for (el, name) in [
            (gen::gnm(400, 1600, 3), "gnm"),
            (gen::watts_strogatz(300, 6, 0.2, 4), "ws"),
            (gen::rmat(256, 2048, gen::RmatProbs::GRAPH500, 5), "rmat"),
            (gen::road_grid(20, 20, 0.02, 0.38, 6), "road"),
        ] {
            for nranks in [3, 4, 8] {
                let report = MndMstRunner::new(nranks).run(&el);
                let oracle = kruskal_msf(&el);
                assert_eq!(report.msf, oracle, "{name} nranks={nranks}");
            }
        }
    }

    /// The level-0 filter changes which rows the pipeline carries, never
    /// the forest: on and off, every family at every rank count gives
    /// Kruskal's.
    #[test]
    fn level0_filter_on_and_off_returns_the_kruskal_forest() {
        for (el, name) in [
            (gen::gnm(400, 3200, 3), "gnm"),
            (gen::rmat(256, 2048, gen::RmatProbs::GRAPH500, 5), "rmat"),
            (
                gen::web_crawl(600, 6000, gen::CrawlParams::default(), 4),
                "crawl",
            ),
            (gen::road_grid(20, 20, 0.02, 0.38, 6), "road"),
            (gen::star(200, 7), "star"),
        ] {
            let oracle = kruskal_msf(&el);
            for nranks in [1, 2, 4, 7] {
                for level0_filter in [true, false] {
                    let cfg = HyParConfig {
                        level0_filter,
                        ..Default::default()
                    };
                    let r = MndMstRunner::new(nranks).with_config(cfg).run(&el);
                    assert_eq!(r.msf, oracle, "{name} x{nranks} filter {level0_filter}");
                }
            }
        }
    }

    /// §4.3.3's rule is the one recursion rule. On a clustered 3-D k-NN
    /// graph the paper's 100 M-edge threshold stops after one kernel →
    /// mergeParts round: two `IndComp` samples per rank, the kernel and
    /// the recursion vote. A threshold of one edge recurses. Both give
    /// Kruskal's forest.
    #[test]
    fn paper_threshold_runs_one_ind_comp_round_on_knn_graphs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        #[derive(Default)]
        struct IndCompSamples(AtomicU64);
        impl PhaseObserver for IndCompSamples {
            fn on_phase(&self, kind: PhaseKind, sample: &PhaseSample) {
                if matches!(kind, PhaseKind::IndComp) && sample.rank == 0 {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let el = mnd_graph::gen::GeoPreset::Cluster3d.generate(1 << 13, 42);
        let oracle = kruskal_msf(&el);
        let samples = |recursion_edge_threshold: u64| {
            let counter = Arc::new(IndCompSamples::default());
            let cfg = HyParConfig {
                recursion_edge_threshold,
                ..Default::default()
            }
            .with_observer(counter.clone());
            let r = MndMstRunner::new(4).with_config(cfg).run(&el);
            assert_eq!(r.msf, oracle, "threshold {recursion_edge_threshold}");
            counter.0.load(Ordering::Relaxed)
        };
        assert_eq!(samples(HyParConfig::default().recursion_edge_threshold), 2);
        assert!(samples(1) > 2);
    }

    #[test]
    fn disconnected_graphs_yield_forests() {
        let el =
            gen::disconnected_union(&[gen::path(50, 1), gen::gnm(100, 300, 2), gen::cycle(30, 3)]);
        let r = check(&el, 4);
        assert_eq!(r.msf.num_components, 3);
    }

    #[test]
    fn group_sizes_all_work() {
        let el = gen::gnm(500, 2000, 7);
        let oracle = kruskal_msf(&el);
        for gs in [2, 3, 4, 8, 16] {
            let cfg = HyParConfig {
                group_size: gs,
                ..Default::default()
            };
            let r = MndMstRunner::new(8).with_config(cfg).run(&el);
            assert_eq!(r.msf, oracle, "group_size={gs}");
        }
    }

    /// §3.4 segment packing: on a skewed holding with a binding segment
    /// cap, best-fit-decreasing ships the heavy components in the first
    /// exchanges, so the group falls under the merge threshold after two
    /// ring rounds (a first-fit suffix walk, which trickles light
    /// components, needed 15 here). BorderVertex + a large sim scale keep
    /// the holdings fat into the merge hierarchy so the ring (not indComp)
    /// does the work; the level-0 filter, which would thin them, is off.
    #[test]
    fn best_fit_segments_need_fewer_ring_rounds() {
        let el = gen::rmat(512, 4096, gen::RmatProbs::GRAPH500, 5);
        let cfg = HyParConfig {
            group_size: 8,
            excp: mnd_kernels::policy::ExcpCond::BorderVertex,
            merge_min_shrink: 0.0,
            group_edge_threshold: 16,
            max_exchange_rounds: 64,
            level0_filter: false,
            ..Default::default()
        }
        .with_sim_scale(1e7);
        let r = MndMstRunner::new(8).with_config(cfg).run(&el);
        assert_eq!(r.msf, kruskal_msf(&el));
        assert_eq!(r.exchange_rounds, 2);
    }

    #[test]
    fn hybrid_platform_matches_oracle() {
        let el = gen::rmat(512, 4096, gen::RmatProbs::MILD, 9);
        let oracle = kruskal_msf(&el);
        let r = MndMstRunner::new(4)
            .with_platform(NodePlatform::cray_xc40(true))
            .run(&el);
        assert_eq!(r.msf, oracle);
    }

    #[test]
    fn report_is_populated() {
        let el = gen::gnm(400, 1600, 11);
        let r = check(&el, 4);
        assert!(r.total_time > 0.0);
        assert!(r.comm_time > 0.0);
        assert_eq!(r.phases.len(), 4);
        assert!(r.levels >= 1);
        assert!(r.max_holding_bytes > 0);
        let pm = r.phase_max();
        assert!(pm.ind_comp > 0.0);
        assert!(pm.post_process > 0.0);
    }

    #[test]
    fn deterministic_results_and_times() {
        let el = gen::gnm(300, 1500, 13);
        let a = MndMstRunner::new(4).run(&el);
        let b = MndMstRunner::new(4).run(&el);
        assert_eq!(a.msf, b.msf);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.comm_time, b.comm_time);
    }

    #[test]
    fn edgeless_and_tiny_inputs() {
        let empty = EdgeList::new(8);
        let r = MndMstRunner::new(4).run(&empty);
        assert!(r.msf.edges.is_empty());
        assert_eq!(r.msf.num_components, 8);
        let single = gen::path(2, 1);
        let r = MndMstRunner::new(4).run(&single);
        assert_eq!(r.msf.edges.len(), 1);
    }

    #[test]
    fn more_ranks_than_vertices() {
        let el = gen::path(5, 3);
        let r = MndMstRunner::new(8).run(&el);
        assert_eq!(r.msf, kruskal_msf(&el));
    }

    /// The user observer hook sees the same samples the report's PhaseTimes
    /// are built from: re-aggregating the samples per rank with the
    /// recorder's mapping must reproduce the report exactly.
    #[test]
    fn observer_hook_reconstructs_report_phase_times() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct Collector(Mutex<Vec<(PhaseKind, PhaseSample)>>);
        impl PhaseObserver for Collector {
            fn on_phase(&self, kind: PhaseKind, sample: &PhaseSample) {
                self.0.lock().unwrap().push((kind, *sample));
            }
        }

        let el = gen::gnm(400, 1600, 21);
        let nranks = 4;
        let obs = Arc::new(Collector::default());
        let cfg = HyParConfig::default().with_observer(obs.clone());
        let r = MndMstRunner::new(nranks).with_config(cfg).run(&el);

        let samples = obs.0.lock().unwrap();
        assert!(!samples.is_empty());
        // Every phase kind fires at least once somewhere.
        for kind in PhaseKind::ALL {
            assert!(
                samples.iter().any(|(k, _)| *k == kind),
                "{kind:?} never observed"
            );
        }
        // Per-rank reconstruction matches the report's PhaseTimes.
        for rank in 0..nranks {
            let mut ind_comp = 0.0;
            let mut merge = 0.0;
            let mut post = 0.0;
            let mut comm_time = 0.0;
            for (kind, s) in samples.iter().filter(|(_, s)| s.rank as usize == rank) {
                match kind {
                    PhaseKind::IndComp => ind_comp += s.compute_time,
                    PhaseKind::Partition | PhaseKind::MergeParts | PhaseKind::HierMerge => {
                        merge += s.compute_time
                    }
                    PhaseKind::PostProcess => post += s.compute_time,
                }
                comm_time += s.comm_time;
            }
            let ph = &r.phases[rank];
            assert!(
                (ph.ind_comp - ind_comp).abs() < 1e-12,
                "rank {rank} ind_comp"
            );
            assert!((ph.merge - merge).abs() < 1e-12, "rank {rank} merge");
            assert!((ph.post_process - post).abs() < 1e-12, "rank {rank} post");
            // Communication happens only inside observed phases, so the
            // samples must cover the rank's full comm time.
            assert!((ph.comm - comm_time).abs() < 1e-9, "rank {rank} comm");
        }
    }

    /// §4.3.3's recursion stops after a round that did not pay: on a union
    /// of islands with a threshold every holding is over, the second round
    /// shrinks each holding by less than §4.3.4's significant fraction, so
    /// no third runs. With `merge_min_shrink` at 0 any union is progress,
    /// and the step recurses to its cap.
    #[test]
    fn recursion_stops_after_a_round_that_barely_shrank_the_holdings() {
        use std::sync::atomic::{AtomicU64, Ordering};

        use mnd_hypar::observe::StepSample;
        use mnd_kernels::policy::StopPolicy;

        struct KernelSteps(AtomicU64);
        impl PhaseObserver for KernelSteps {
            fn on_phase(&self, _: PhaseKind, _: &PhaseSample) {}
            fn on_step(&self, s: &StepSample) {
                if s.rank == 0 && s.phase == PhaseKind::IndComp && s.name == "kernel" {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let el = gen::disconnected_union(&[
            gen::gnm(300, 900, 5),
            EdgeList::new(17),
            gen::path(120, 6),
            gen::star(60, 8),
            EdgeList::new(5),
        ]);
        let kernel_steps = |merge_min_shrink: f64| {
            let steps = Arc::new(KernelSteps(AtomicU64::new(0)));
            let cfg = HyParConfig {
                stop: StopPolicy::DiminishingBenefit {
                    min_improvement: 0.5,
                },
                recursion_edge_threshold: 1,
                merge_min_shrink,
                ..HyParConfig::default()
            };
            let cfg = cfg.with_sim_scale(4096.0).with_observer(steps.clone());
            let r = MndMstRunner::new(4).with_config(cfg).run(&el);
            assert_eq!(
                r.msf,
                kruskal_msf(&el),
                "merge_min_shrink {merge_min_shrink}"
            );
            steps.0.load(Ordering::Relaxed)
        };
        assert_eq!(kernel_steps(HyParConfig::default().merge_min_shrink), 2);
        assert_eq!(kernel_steps(0.0), 3);
    }

    /// Observer attached or not, results and simulated times are identical.
    #[test]
    fn observer_does_not_perturb_simulation() {
        struct Null;
        impl PhaseObserver for Null {
            fn on_phase(&self, _: PhaseKind, _: &PhaseSample) {}
        }
        let el = gen::gnm(300, 1200, 23);
        let plain = MndMstRunner::new(4).run(&el);
        let cfg = HyParConfig::default().with_observer(Arc::new(Null));
        let observed = MndMstRunner::new(4).with_config(cfg).run(&el);
        assert_eq!(plain.msf, observed.msf);
        assert_eq!(plain.total_time, observed.total_time);
        assert_eq!(plain.phases, observed.phases);
    }
}
