//! Mid-superstep crash recovery tests for the BSP baseline — the Pregel+
//! side of the resilience comparison (DESIGN.md §5g), mirroring
//! `tests/chaos_recovery.rs` for the D&C driver.
//!
//! Three properties are asserted throughout:
//!
//! 1. **Correctness** — whatever the crash point, the MSF equals the
//!    Kruskal oracle and is byte-identical to the fault-free run.
//! 2. **No double-charged traffic** — replayed inbound messages are served
//!    from the replay log, so the recovered run's fabric byte/message
//!    counters equal the fault-free run's on every worker.
//! 3. **Determinism** — the same plan seed yields the same recovery path,
//!    the same stats, and the same virtual makespan, run after run.

use std::sync::Arc;

use mnd::chaos::{ChaosLog, CrashPoint, FaultPlan};
use mnd::device::NodePlatform;
use mnd::engine::EngineChaos;
use mnd::graph::components::bfs_distances;
use mnd::graph::{gen, CsrGraph, EdgeList};
use mnd::hypar::{ChaosControl, ChaosEventKind, ObserverHook};
use mnd::kernels::kruskal_msf;
use mnd::net::{FaultInjector, SendFate, Tag};
use mnd::pregel::{
    pregel_bfs, pregel_bfs_chaos, pregel_msf, pregel_msf_chaos, BspConfig, PregelReport,
};

fn cfg() -> BspConfig {
    BspConfig::default()
}

fn run_with_plan(
    el: &EdgeList,
    nranks: usize,
    plan: Arc<FaultPlan>,
    log: Option<Arc<ChaosLog>>,
) -> PregelReport {
    let mut chaos = EngineChaos::from_plan(plan);
    if let Some(log) = log {
        chaos = chaos.with_observer(ObserverHook::new(log));
    }
    pregel_msf_chaos(el, nranks, &NodePlatform::amd_cluster(), &cfg(), &chaos)
}

fn run_clean(el: &EdgeList, nranks: usize) -> PregelReport {
    pregel_msf(el, nranks, &NodePlatform::amd_cluster(), &cfg())
}

/// The acceptance scenario: worker 2 dies mid-superstep in epoch 1,
/// restores the superstep-boundary checkpoint before the epoch, replays
/// its logged inbound traffic for free, and finishes with a forest
/// byte-identical to the fault-free run.
#[test]
fn mid_superstep_crash_replays_from_checkpoint() {
    let el = gen::gnm(800, 4800, 13);
    let oracle = kruskal_msf(&el);

    let clean = run_clean(&el, 4);
    let log = Arc::new(ChaosLog::new());
    let plan = Arc::new(FaultPlan::new(3).with_mid_phase_crash(2, 1, 9));
    let r = run_with_plan(&el, 4, plan, Some(log.clone()));

    assert_eq!(r.msf, oracle);
    assert_eq!(r.msf, clean.msf, "recovered forest must be byte-identical");
    assert_eq!(log.count(ChaosEventKind::MidPhaseCrash), 1);
    assert_eq!(log.count(ChaosEventKind::CheckpointRestore), 1);
    assert_eq!(r.rank_stats[2].checkpoint_restores, 1);

    // The crashed worker re-executed real compute ...
    assert!(
        r.rank_stats[2].replayed_compute > 0.0,
        "re-executed epoch must charge compute"
    );
    // ... re-ran supersteps at recovery cost ...
    assert!(
        r.recovered_supersteps > 0,
        "interrupted epoch re-runs supersteps"
    );
    // ... and replayed inbound traffic out of its log ...
    assert!(
        r.rank_stats[2].replayed_in_bytes > 0,
        "rolled-back epoch must replay logged messages"
    );
    // ... but the fabric was not re-charged: every worker's byte and
    // message counters match the fault-free run exactly.
    for (rank, (s, c)) in r.rank_stats.iter().zip(&clean.rank_stats).enumerate() {
        assert_eq!(s.bytes_received, c.bytes_received, "rank {rank}");
        assert_eq!(s.bytes_sent, c.bytes_sent, "rank {rank}");
        assert_eq!(s.messages_received, c.messages_received, "rank {rank}");
        assert_eq!(s.messages_sent, c.messages_sent, "rank {rank}");
    }
    for (rank, s) in r.rank_stats.iter().enumerate() {
        if rank != 2 {
            assert_eq!(s.replayed_in_bytes, 0, "rank {rank} never crashed");
            assert_eq!(s.replayed_compute, 0.0, "rank {rank} never crashed");
        }
    }
    // Recovery costs time: restart stall plus the re-executed epoch.
    assert!(r.total_time > clean.total_time, "recovery must cost time");
}

/// Crash every worker at every crash point (superstep boundaries and
/// mid-superstep ops, including epoch 0 where no checkpoint exists yet)
/// across graph seeds: the MSF always equals the oracle.
#[test]
fn crash_grid_over_supersteps_ranks_and_seeds_matches_oracle() {
    let points = [
        CrashPoint::Boundary(0),
        CrashPoint::Boundary(1),
        CrashPoint::MidPhase { epoch: 0, op: 3 },
        CrashPoint::MidPhase { epoch: 1, op: 7 },
        CrashPoint::MidPhase { epoch: 2, op: 2 },
    ];
    for graph_seed in [5, 23] {
        let el = gen::gnm(600, 3600, graph_seed);
        let oracle = kruskal_msf(&el);
        for rank in [0, 3] {
            for point in points {
                let plan = Arc::new(FaultPlan::new(11).with_crash_point(rank, point));
                let r = run_with_plan(&el, 4, plan, None);
                assert_eq!(
                    r.msf, oracle,
                    "graph_seed={graph_seed} rank={rank} point={point:?}"
                );
            }
        }
    }
}

/// A crash in epoch 0 has no checkpoint to fall back to: the worker
/// replays the whole prefix live from scratch (no restore event) and
/// still converges.
#[test]
fn epoch_zero_crash_restarts_from_scratch() {
    let el = gen::gnm(500, 3000, 17);
    let log = Arc::new(ChaosLog::new());
    let plan = Arc::new(FaultPlan::new(7).with_mid_phase_crash(1, 0, 4));
    let r = run_with_plan(&el, 4, plan, Some(log.clone()));

    assert_eq!(r.msf, kruskal_msf(&el));
    assert_eq!(log.count(ChaosEventKind::MidPhaseCrash), 1);
    assert_eq!(
        log.count(ChaosEventKind::CheckpointRestore),
        0,
        "no checkpoint exists before epoch 0"
    );
    assert_eq!(r.rank_stats[1].checkpoint_restores, 0);
    assert!(r.rank_stats[1].replayed_compute > 0.0);
}

/// The recovery path is deterministic: same plan, same graph → identical
/// forest, stats, event stream, and virtual makespan.
#[test]
fn bsp_recovery_path_is_deterministic() {
    let el = gen::web_crawl(1200, 9_000, gen::CrawlParams::default(), 31);
    let plan = Arc::new(
        FaultPlan::new(42)
            .with_drop_rate(0.02)
            .with_mid_phase_crash(2, 1, 6),
    );
    let (log_a, log_b) = (Arc::new(ChaosLog::new()), Arc::new(ChaosLog::new()));
    let a = run_with_plan(&el, 4, plan.clone(), Some(log_a.clone()));
    let b = run_with_plan(&el, 4, plan, Some(log_b.clone()));

    assert_eq!(a.msf, b.msf);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.recovered_supersteps, b.recovered_supersteps);
    for (ra, rb) in a.rank_stats.iter().zip(&b.rank_stats) {
        assert_eq!(ra.replayed_in_bytes, rb.replayed_in_bytes);
        assert_eq!(ra.replayed_compute, rb.replayed_compute);
        assert_eq!(ra.checkpoint_restores, rb.checkpoint_restores);
        assert_eq!(ra.stall_time, rb.stall_time);
    }
    assert_eq!(log_a.events_sorted(), log_b.events_sorted());
}

/// Mid-superstep crashes compose with message-plane faults (drops,
/// duplicates) and boundary crashes on other workers.
#[test]
fn bsp_crash_composes_with_other_faults() {
    let el = gen::gnm(700, 4200, 19);
    let plan = Arc::new(
        FaultPlan::new(9)
            .with_drop_rate(0.05)
            .with_duplicates(0.05)
            .with_crash(3, 1)
            .with_mid_phase_crash(0, 1, 9),
    );
    let r = run_with_plan(&el, 4, plan, None);
    assert_eq!(r.msf, kruskal_msf(&el));
    assert!(r.rank_stats[0].replayed_compute > 0.0);
    assert_eq!(r.rank_stats[3].checkpoint_restores, 1);
    assert!(r.rank_stats.iter().any(|s| s.retries > 0), "drops fired");
}

/// `BspConfig::checkpoint_interval` controls the checkpoint cadence:
/// halving the interval at least doubles nothing but strictly increases
/// the number of checkpoint writes, and every cadence recovers correctly.
#[test]
fn checkpoint_interval_scales_write_count() {
    let el = gen::gnm(600, 3600, 29);
    let oracle = kruskal_msf(&el);
    let writes_at = |interval: u64| {
        let plan = Arc::new(FaultPlan::new(5).with_mid_phase_crash(1, 1, 5));
        let chaos = EngineChaos::from_plan(plan);
        let c = BspConfig {
            checkpoint_interval: interval,
            ..cfg()
        };
        let r = pregel_msf_chaos(&el, 4, &NodePlatform::amd_cluster(), &c, &chaos);
        assert_eq!(r.msf, oracle, "interval={interval}");
        r.rank_stats
            .iter()
            .map(|s| s.checkpoint_writes)
            .sum::<u64>()
    };
    let frequent = writes_at(2);
    let sparse = writes_at(8);
    assert!(
        frequent > sparse,
        "interval 2 wrote {frequent} checkpoints, interval 8 wrote {sparse}"
    );
}

/// The replay-horizon GC is semantically transparent: a plan wrapper that
/// hides its horizon (forcing the log to be kept for the whole run) yields
/// the exact same recovered run as the GC'd plan.
#[test]
fn replay_log_gc_is_transparent() {
    /// Delegates both fault planes to the inner plan but reports an
    /// unknown replay horizon, disabling the log GC.
    struct NoHorizon(Arc<FaultPlan>);
    impl FaultInjector for NoHorizon {
        fn fate(&self, src: usize, dst: usize, tag: Tag, seq: u64, bytes: u64) -> SendFate {
            self.0.fate(src, dst, tag, seq, bytes)
        }
    }
    impl ChaosControl for NoHorizon {
        fn stall_seconds(&self, rank: usize, boundary: u32) -> f64 {
            self.0.stall_seconds(rank, boundary)
        }
        fn crashes_at(&self, rank: usize, boundary: u32) -> bool {
            self.0.crashes_at(rank, boundary)
        }
        fn leader_down(&self, rank: usize, level: u32) -> bool {
            self.0.leader_down(rank, level)
        }
        fn mid_phase_crash(&self, rank: usize, epoch: u32) -> Option<u64> {
            self.0.mid_phase_crash(rank, epoch)
        }
        // replay_horizon: default None — keep the log forever.
    }

    let el = gen::gnm(700, 4200, 37);
    let plan = Arc::new(
        FaultPlan::new(21)
            .with_drop_rate(0.02)
            .with_mid_phase_crash(2, 1, 8),
    );
    let gc = run_with_plan(&el, 4, plan.clone(), None);
    let chaos = EngineChaos::from_plan(Arc::new(NoHorizon(plan)));
    let kept = pregel_msf_chaos(&el, 4, &NodePlatform::amd_cluster(), &cfg(), &chaos);

    assert_eq!(gc.msf, kept.msf);
    assert_eq!(gc.total_time, kept.total_time);
    for (a, b) in gc.rank_stats.iter().zip(&kept.rank_stats) {
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.bytes_received, b.bytes_received);
        assert_eq!(a.replayed_in_bytes, b.replayed_in_bytes);
        assert_eq!(a.replayed_compute, b.replayed_compute);
    }
}

/// The BFS vertex program recovers through the same machinery: distances
/// after a mid-superstep crash match the sequential oracle and the
/// fault-free run's fabric counters.
#[test]
fn bfs_mid_superstep_crash_recovers() {
    let el = gen::road_grid(30, 30, 0.02, 0.2, 7);
    let oracle = bfs_distances(&CsrGraph::from_edge_list(&el), 0);
    let plat = NodePlatform::amd_cluster();

    let clean = pregel_bfs(&el, 0, 4, &plat, &cfg());
    assert_eq!(clean.dist, oracle);

    for point in [
        CrashPoint::MidPhase { epoch: 0, op: 2 },
        CrashPoint::MidPhase { epoch: 2, op: 3 },
        CrashPoint::Boundary(1),
    ] {
        let plan = Arc::new(FaultPlan::new(15).with_crash_point(1, point));
        let chaos = EngineChaos::from_plan(plan);
        let r = pregel_bfs_chaos(&el, 0, 4, &plat, &cfg(), &chaos);
        assert_eq!(r.dist, oracle, "point={point:?}");
        for (rank, (s, c)) in r.rank_stats.iter().zip(&clean.rank_stats).enumerate() {
            assert_eq!(s.bytes_sent, c.bytes_sent, "rank {rank} point={point:?}");
            assert_eq!(
                s.messages_received, c.messages_received,
                "rank {rank} point={point:?}"
            );
        }
    }
}
