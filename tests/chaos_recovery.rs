//! Mid-phase crash recovery tests: a rank killed *inside* a phase rolls
//! back to the checkpoint before the interrupted epoch, replays its peers'
//! logged inbound messages without re-charging the fabric, and re-executes
//! the epoch deterministically (DESIGN.md §5f).
//!
//! Three properties are asserted throughout:
//!
//! 1. **Correctness** — whatever the crash point, the MSF equals the
//!    Kruskal oracle and is byte-identical to the fault-free run.
//! 2. **No double-charged traffic** — replayed inbound messages are served
//!    from the replay log, so the recovered run's fabric byte/message
//!    counters equal the fault-free run's on every rank.
//! 3. **Determinism** — the same plan seed yields the same recovery path,
//!    the same stats, and the same virtual makespan, run after run.

use std::sync::{Arc, Mutex};

use mnd::chaos::{ChaosLog, CrashPoint, FaultPlan};
use mnd::engine::EngineChaos;
use mnd::graph::{gen, EdgeList};
use mnd::hypar::{
    ChaosEvent, ChaosEventKind, HyParConfig, PhaseKind, PhaseObserver, PhaseSample, StepSample,
};
use mnd::kernels::kruskal_msf;
use mnd::kernels::policy::{kernel_threads, with_kernel_threads};
use mnd::mst::{MndMstReport, MndMstRunner};
use mnd::net::{Cluster, CostModel};

fn run_with_plan(
    el: &EdgeList,
    nranks: usize,
    plan: Arc<FaultPlan>,
    log: Option<Arc<ChaosLog>>,
) -> MndMstReport {
    run_with_plan_cfg(el, nranks, HyParConfig::default(), plan, log)
}

fn run_with_plan_cfg(
    el: &EdgeList,
    nranks: usize,
    mut cfg: HyParConfig,
    plan: Arc<FaultPlan>,
    log: Option<Arc<ChaosLog>>,
) -> MndMstReport {
    if let Some(log) = log {
        cfg = cfg.with_observer(log);
    }
    MndMstRunner::new(nranks)
        .with_config(cfg)
        .run_armed(el, &EngineChaos::from_plan(plan))
}

/// The acceptance scenario: rank 2 dies at fabric op 5 of epoch 1 (inside
/// the first independent-computation round), restores the
/// Partition→IndComp boundary checkpoint, replays, and finishes with a
/// forest byte-identical to the fault-free run.
#[test]
fn mid_ind_comp_crash_replays_from_partition_checkpoint() {
    let el = gen::gnm(800, 4800, 13);
    let oracle = kruskal_msf(&el);

    let clean = run_with_plan(&el, 4, Arc::new(FaultPlan::new(3)), None);
    let log = Arc::new(ChaosLog::new());
    let plan = Arc::new(FaultPlan::new(3).with_mid_phase_crash(2, 1, 5));
    let r = run_with_plan(&el, 4, plan, Some(log.clone()));

    assert_eq!(r.msf, oracle);
    assert_eq!(r.msf, clean.msf, "recovered forest must be byte-identical");
    assert_eq!(log.count(ChaosEventKind::MidPhaseCrash), 1);
    assert_eq!(log.count(ChaosEventKind::CheckpointRestore), 1);
    assert_eq!(r.rank_stats[2].checkpoint_restores, 1);

    // The crashed rank re-executed real compute ...
    assert!(
        r.rank_stats[2].replayed_compute > 0.0,
        "re-executed epoch must charge compute"
    );
    // ... and replayed inbound traffic out of its log ...
    assert!(
        r.rank_stats[2].replayed_in_bytes > 0,
        "rolled-back epoch must replay logged messages"
    );
    // ... but the fabric was not re-charged: every rank's byte and message
    // counters match the fault-free run exactly.
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

/// Crash every rank at every crash point (boundaries and mid-phase ops,
/// including epoch 0 where no checkpoint exists yet) across seeds: the MSF
/// always equals the oracle.
#[test]
fn crash_grid_over_points_and_seeds_matches_oracle() {
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

/// A crash in epoch 0 has no checkpoint to fall back to: the rank replays
/// the whole prefix live from scratch (no restore event) and still
/// converges.
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

/// Epoch 0 builds the level-0 holdings a block of ranks at a time, and a
/// rank that crashes there has no checkpoint: it re-executes `Partition`
/// from the top. Crash a rank that is not the first of its block (two
/// kernel threads cut four ranks into blocks {0, 1} and {2, 3}) at the
/// epoch's first fabric op — inside the degree allreduce, before it has
/// taken its holding — and at its last — inside the boundary exchange,
/// after: the second time round the rank finds its slot empty and rebuilds
/// its own range. Either way the forest is Kruskal's and the clean run's,
/// and every rank's logical traffic is the clean run's.
#[test]
fn epoch_zero_crashes_off_the_block_leader_rebuild_the_holding() {
    let el = gen::web_crawl(900, 7_000, gen::CrawlParams::default(), 29);
    let oracle = kruskal_msf(&el);
    let run = |plan: FaultPlan, log: Option<Arc<ChaosLog>>| {
        with_kernel_threads(2, || run_with_plan(&el, 4, Arc::new(plan), log))
    };
    let clean = run(FaultPlan::new(3), None);
    assert_eq!(clean.msf, oracle);
    // The bytes the degree allreduce delivers to each rank: the collective
    // run alone on the partition phase's partial degree vectors (rank `r`
    // counts edges `[r·m/4, (r+1)·m/4)`).
    let degree_allreduce_in: Vec<u64> = Cluster::new(4, CostModel::free())
        .run(|c| {
            let (m, me) = (el.len(), c.rank());
            let mut partial = vec![0u64; el.num_vertices() as usize];
            for e in &el.edges()[me * m / 4..(me + 1) * m / 4] {
                partial[e.u as usize] += 1;
                partial[e.v as usize] += 1;
            }
            c.allreduce_vec_u64(partial, |a, b| a + b);
            c.stats().bytes_received
        })
        .into_iter()
        .map(|o| o.result)
        .collect();
    for rank in [1, 3] {
        // The run, if the crash scheduled at `op` of epoch 0 fired.
        let crashed_at = |op: u64| {
            let log = Arc::new(ChaosLog::new());
            let plan = FaultPlan::new(3).with_mid_phase_crash(rank, 0, op);
            let r = run(plan, Some(log.clone()));
            (log.count(ChaosEventKind::MidPhaseCrash) == 1).then_some(r)
        };
        let in_allreduce = crashed_at(0).expect("op 0 of epoch 0 exists");
        let in_exchange = (1..96)
            .rev()
            .find_map(crashed_at)
            .expect("epoch 0 has more than one fabric op");
        for (what, r) in [("allreduce", &in_allreduce), ("exchange", &in_exchange)] {
            assert_eq!(r.msf, oracle, "rank {rank} crashed in the {what}");
            assert_eq!(r.msf, clean.msf, "rank {rank} crashed in the {what}");
            assert_eq!(
                r.rank_stats[rank].checkpoint_restores, 0,
                "no checkpoint yet"
            );
            for (peer, (s, c)) in r.rank_stats.iter().zip(&clean.rank_stats).enumerate() {
                let tag = format!("rank {rank} crashed in the {what}, peer {peer}");
                assert_eq!(s.bytes_sent, c.bytes_sent, "{tag}");
                assert_eq!(s.bytes_received, c.bytes_received, "{tag}");
                assert_eq!(s.messages_sent, c.messages_sent, "{tag}");
                assert_eq!(s.messages_received, c.messages_received, "{tag}");
            }
        }
        // Op 0 is the allreduce's first: nothing had arrived yet. By the
        // last op every partial of the degree allreduce had, and came back
        // out of the log.
        assert_eq!(in_allreduce.rank_stats[rank].replayed_in_bytes, 0);
        assert!(
            in_exchange.rank_stats[rank].replayed_in_bytes >= degree_allreduce_in[rank],
            "rank {rank}: the crash fell before the boundary exchange"
        );
    }
}

/// Every callback of a run, in the order each rank made them, with the
/// kernel threads the rank's thread had at that moment.
#[derive(Default)]
struct ThreadLog(Mutex<Vec<(u32, String, usize)>>);

impl ThreadLog {
    fn note(&self, rank: u32, what: String) {
        self.0.lock().unwrap().push((rank, what, kernel_threads()));
    }

    fn of_rank(&self, rank: u32) -> Vec<(String, usize)> {
        let all = self.0.lock().unwrap();
        let mine = all.iter().filter(|(r, ..)| *r == rank);
        mine.map(|(_, what, threads)| (what.clone(), *threads))
            .collect()
    }
}

impl PhaseObserver for ThreadLog {
    fn on_phase(&self, kind: PhaseKind, s: &PhaseSample) {
        self.note(s.rank, format!("phase:{}", kind.name()));
    }
    fn on_step(&self, s: &StepSample) {
        self.note(s.rank, format!("step:{}", s.name));
    }
    fn on_chaos(&self, e: &ChaosEvent) {
        self.note(e.rank, format!("chaos:{}", e.kind.name()));
    }
}

/// A rank the others wait for takes their kernel threads — also when it is
/// not rank 0, and also when it dies with them in hand. Eight threads, four
/// ranks: a share of two. Rank 0 is reported dead at level 1, so rank 1
/// leads the merge and is the final rank; it receives, merges and
/// post-processes on all eight threads and is back at two for every phase
/// boundary. Then the same run with rank 1 crashed *inside* the lent
/// stretch — at one of the leader's receives, the only fabric ops in there:
/// up to the crash its callbacks are the clean run's up to the receive
/// step. The unwind hands the threads back (the crash event, raised by the
/// recovery loop outside the phases, sees two), the re-execution borrows
/// them again, and forest, clean run and logical traffic agree.
#[test]
fn lent_threads_survive_a_failover_and_a_crash_inside_the_stretch() {
    let el = gen::web_crawl(900, 7_000, gen::CrawlParams::default(), 29);
    let oracle = kruskal_msf(&el);
    let run = |plan: FaultPlan| {
        let log = Arc::new(ThreadLog::default());
        let plan = Arc::new(plan.with_dead_leader(0, 1));
        let cfg = HyParConfig::default().with_observer(log.clone());
        let runner = MndMstRunner::new(4).with_config(cfg);
        let chaos = EngineChaos::from_plan(plan);
        let report = with_kernel_threads(8, || runner.run_armed(&el, &chaos));
        (report, log.of_rank(1))
    };
    let threads_of = |log: &[(String, usize)], what: &str| -> Vec<usize> {
        let hits = log.iter().filter(|(w, _)| w == what);
        hits.map(|&(_, threads)| threads).collect()
    };
    let assert_lent_and_returned = |log: &[(String, usize)], tag: &str| {
        for step in [
            "step:leader_recv",
            "step:absorb_all",
            "step:post_process_kernel",
        ] {
            let seen = threads_of(log, step);
            assert!(!seen.is_empty(), "{tag}: rank 1 never ran {step}");
            assert!(seen.iter().all(|&t| t == 8), "{tag}: {step} on {seen:?}");
        }
        for (what, threads) in log.iter().filter(|(w, _)| !w.starts_with("step:")) {
            assert_eq!(*threads, 2, "{tag}: {what} outside the rank's share");
        }
    };

    let (clean, clean_log) = run(FaultPlan::new(3));
    assert_eq!(clean.msf, oracle);
    assert_eq!(threads_of(&clean_log, "chaos:leader_failover"), [2]);
    assert_lent_and_returned(&clean_log, "clean");
    let before_recv = clean_log
        .iter()
        .position(|(w, _)| w == "step:leader_recv")
        .expect("asserted above");

    // The leader arm lies in rank 1's last epoch, near its end.
    let last_epoch = clean.rank_stats[1].checkpoint_writes as u32;
    let (crashed, log) = (0..96)
        .rev()
        .find_map(|op| {
            let (r, log) = run(FaultPlan::new(3).with_mid_phase_crash(1, last_epoch, op));
            let at = log.iter().position(|(w, _)| w == "chaos:mid_phase_crash")?;
            (log[..at] == clean_log[..before_recv]).then_some((r, log))
        })
        .expect("one of the last epoch's ops is a receive of the leader arm");
    assert_eq!(threads_of(&log, "chaos:mid_phase_crash"), [2]);
    assert_lent_and_returned(&log, "crashed");
    assert_eq!(crashed.msf, oracle);
    assert_eq!(crashed.msf, clean.msf);
    assert_eq!(crashed.rank_stats[1].checkpoint_restores, 1);
    for (rank, (s, c)) in crashed.rank_stats.iter().zip(&clean.rank_stats).enumerate() {
        assert_eq!(s.bytes_sent, c.bytes_sent, "rank {rank}");
        assert_eq!(s.bytes_received, c.bytes_received, "rank {rank}");
        assert_eq!(s.messages_sent, c.messages_sent, "rank {rank}");
        assert_eq!(s.messages_received, c.messages_received, "rank {rank}");
    }
}

/// The recovery path is deterministic: same plan, same graph → identical
/// forest, stats, event stream, and virtual makespan.
#[test]
fn mid_phase_recovery_path_is_deterministic() {
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
    for (ra, rb) in a.rank_stats.iter().zip(&b.rank_stats) {
        assert_eq!(ra.replayed_in_bytes, rb.replayed_in_bytes);
        assert_eq!(ra.replayed_compute, rb.replayed_compute);
        assert_eq!(ra.checkpoint_restores, rb.checkpoint_restores);
        assert_eq!(ra.stall_time, rb.stall_time);
    }
    assert_eq!(log_a.events_sorted(), log_b.events_sorted());
}

/// The default communication-engineering stack (compressed relabels, the
/// level-0 filter) recovers from a mid-phase crash with the forest *and*
/// the fabric counters byte-identical to its own fault-free run: replayed
/// packed payloads come out of the replay log, never re-charged.
#[test]
fn sparse_packed_filtered_recovery_matches_fault_free_counters() {
    let el = gen::web_crawl(1500, 11_000, gen::CrawlParams::default(), 37);
    let oracle = kruskal_msf(&el);
    let cfg = HyParConfig::default();
    assert!(cfg.level0_filter);

    let clean = run_with_plan_cfg(&el, 4, cfg.clone(), Arc::new(FaultPlan::new(5)), None);
    let log = Arc::new(ChaosLog::new());
    let plan = Arc::new(
        FaultPlan::new(5)
            .with_drop_rate(0.01)
            .with_mid_phase_crash(2, 1, 5),
    );
    let r = run_with_plan_cfg(&el, 4, cfg, plan, Some(log.clone()));

    assert_eq!(r.msf, oracle);
    assert_eq!(r.msf, clean.msf, "recovered forest must be byte-identical");
    assert_eq!(log.count(ChaosEventKind::MidPhaseCrash), 1);
    assert!(r.rank_stats[2].replayed_in_bytes > 0);
    for (rank, (s, c)) in r.rank_stats.iter().zip(&clean.rank_stats).enumerate() {
        assert_eq!(s.bytes_sent, c.bytes_sent, "rank {rank}");
        assert_eq!(s.bytes_received, c.bytes_received, "rank {rank}");
        assert_eq!(s.messages_sent, c.messages_sent, "rank {rank}");
        assert_eq!(s.messages_received, c.messages_received, "rank {rank}");
    }
}

/// Mid-phase crashes compose with message-plane faults and boundary
/// crashes on other ranks.
#[test]
fn mid_phase_crash_composes_with_other_faults() {
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
}
