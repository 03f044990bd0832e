//! Fault-injection tests: the full pipeline under seeded fault plans —
//! message drops, delays, duplicates, reorders, rank crashes with
//! checkpoint restart, and dead merge-group leaders.
//!
//! Two properties are asserted throughout:
//!
//! 1. **Correctness under chaos** — whatever the fault plan, the MSF must
//!    equal the Kruskal oracle (the transport stays reliable over the
//!    chaotic fabric; faults cost time, never results).
//! 2. **Replayability** — the same `FaultPlan` seed yields the identical
//!    fault schedule, the identical recovery path (same retries,
//!    redeliveries, checkpoint restores per rank), and the identical
//!    virtual makespan, run after run.

use std::sync::Arc;

use mnd::chaos::{ChaosLog, FaultPlan, FaultRule};
use mnd::engine::EngineChaos;
use mnd::graph::{gen, EdgeList};
use mnd::hypar::{ChaosEventKind, HyParConfig};
use mnd::kernels::kruskal_msf;
use mnd::mst::{MndMstReport, MndMstRunner};

/// Runs the distributed pipeline with `plan` wired into both fault layers
/// (message plane + phase plane), optionally logging chaos events.
fn run_with_plan(
    el: &EdgeList,
    nranks: usize,
    plan: Arc<FaultPlan>,
    log: Option<Arc<ChaosLog>>,
) -> MndMstReport {
    let mut cfg = HyParConfig::default();
    if let Some(log) = log {
        cfg = cfg.with_observer(log);
    }
    MndMstRunner::new(nranks)
        .with_config(cfg)
        .run_armed(el, &EngineChaos::from_plan(plan))
}

/// The grid's fault plans, from mild to hostile. Includes at least one
/// rank crash with checkpoint restart and one dead merge-group leader.
fn plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("armed-clean", FaultPlan::new(seed)),
        ("drop-heavy", FaultPlan::new(seed).with_drop_rate(0.15)),
        (
            "everything",
            FaultPlan::new(seed)
                .with_drop_rate(0.05)
                .with_delay(0.2, 1e-3)
                .with_duplicates(0.05)
                .with_reorder(0.05),
        ),
        (
            "crash-restart",
            FaultPlan::new(seed).with_drop_rate(0.02).with_crash(2, 1),
        ),
        (
            "dead-leader",
            FaultPlan::new(seed)
                .with_drop_rate(0.02)
                .with_dead_leader(0, 1),
        ),
    ]
}

#[test]
fn msf_matches_oracle_across_seeds_and_fault_plans() {
    for graph_seed in [5, 23] {
        let el = gen::gnm(700, 4200, graph_seed);
        let oracle = kruskal_msf(&el);
        for plan_seed in [1, 99] {
            for (name, plan) in plans(plan_seed) {
                let r = run_with_plan(&el, 4, Arc::new(plan), None);
                assert_eq!(
                    r.msf, oracle,
                    "graph_seed={graph_seed} plan_seed={plan_seed} plan={name}"
                );
            }
        }
    }
}

#[test]
fn fault_schedule_and_recovery_path_are_deterministic() {
    let el = gen::web_crawl(1500, 12_000, gen::CrawlParams::default(), 31);
    for (name, plan) in plans(42) {
        let plan = Arc::new(plan);
        let (log_a, log_b) = (Arc::new(ChaosLog::new()), Arc::new(ChaosLog::new()));
        let a = run_with_plan(&el, 4, plan.clone(), Some(log_a.clone()));
        let b = run_with_plan(&el, 4, plan, Some(log_b.clone()));

        assert_eq!(a.msf, b.msf, "plan={name}");
        assert_eq!(a.total_time, b.total_time, "plan={name}");
        for (ra, rb) in a.rank_stats.iter().zip(&b.rank_stats) {
            assert_eq!(ra.retries, rb.retries, "plan={name}");
            assert_eq!(ra.redeliveries, rb.redeliveries, "plan={name}");
            assert_eq!(ra.checkpoint_writes, rb.checkpoint_writes, "plan={name}");
            assert_eq!(
                ra.checkpoint_restores, rb.checkpoint_restores,
                "plan={name}"
            );
            assert_eq!(ra.stall_time, rb.stall_time, "plan={name}");
        }
        // The chaos event streams agree once put in a schedule-independent
        // order (cross-rank arrival order is thread scheduling).
        assert_eq!(log_a.events_sorted(), log_b.events_sorted(), "plan={name}");
    }
}

#[test]
fn drops_force_retries_but_payloads_arrive_once() {
    let el = gen::gnm(600, 3600, 9);
    let plan = Arc::new(FaultPlan::new(7).with_drop_rate(0.10).with_duplicates(0.10));
    let r = run_with_plan(&el, 4, plan, None);
    assert_eq!(r.msf, kruskal_msf(&el));
    let retries: u64 = r.rank_stats.iter().map(|s| s.retries).sum();
    let redeliveries: u64 = r.rank_stats.iter().map(|s| s.redeliveries).sum();
    assert!(retries > 0, "10% drops must force at least one retry");
    assert!(
        redeliveries > 0,
        "10% duplicates must be filtered somewhere"
    );
}

#[test]
fn crashed_rank_restarts_from_its_checkpoint() {
    let el = gen::gnm(800, 4800, 13);
    let plan = Arc::new(FaultPlan::new(3).with_drop_rate(0.01).with_crash(2, 1));
    let log = Arc::new(ChaosLog::new());
    let r = run_with_plan(&el, 4, plan, Some(log.clone()));

    assert_eq!(r.msf, kruskal_msf(&el));
    assert_eq!(log.count(ChaosEventKind::Crash), 1);
    assert_eq!(log.count(ChaosEventKind::CheckpointRestore), 1);
    assert_eq!(r.rank_stats[2].checkpoint_restores, 1);
    // Every rank checkpoints at every boundary while chaos is armed; only
    // the crashed rank pays a restore.
    for (rank, s) in r.rank_stats.iter().enumerate() {
        assert!(s.checkpoint_writes > 0, "rank {rank} never checkpointed");
        if rank != 2 {
            assert_eq!(s.checkpoint_restores, 0, "rank {rank}");
        }
    }
    // The restore is charged to the virtual clock: a restart costs at
    // least the modelled rank-restart latency over the clean-armed run.
    let clean = run_with_plan(&el, 4, Arc::new(FaultPlan::new(3)), None);
    assert!(r.total_time > clean.total_time, "restart must cost time");
}

#[test]
fn merge_group_reelects_a_leader_when_its_leader_dies() {
    let el = gen::watts_strogatz(500, 6, 0.2, 21);
    // 4 ranks, group_size 4 -> one merge group {0,1,2,3} led by rank 0.
    // Rank 0 is down for leader duty at level 1, so the group must elect
    // rank 1 and the final gather must come from the new leader.
    let plan = Arc::new(FaultPlan::new(11).with_dead_leader(0, 1));
    let log = Arc::new(ChaosLog::new());
    let r = run_with_plan(&el, 4, plan, Some(log.clone()));

    assert_eq!(r.msf, kruskal_msf(&el));
    assert!(
        log.count(ChaosEventKind::LeaderFailover) >= 1,
        "re-election must be reported"
    );
    let failover = log
        .events()
        .into_iter()
        .find(|e| e.kind == ChaosEventKind::LeaderFailover)
        .expect("failover event");
    assert_eq!(failover.detail, 1, "group {{0..3}} elects rank 1");
}

#[test]
fn stalls_cost_virtual_time_but_not_correctness() {
    let el = gen::gnm(500, 3000, 17);
    let oracle = kruskal_msf(&el);
    let clean = run_with_plan(&el, 4, Arc::new(FaultPlan::new(5)), None);
    let stalled = run_with_plan(
        &el,
        4,
        Arc::new(FaultPlan::new(5).with_stall(1, 0, 2.5)),
        None,
    );
    assert_eq!(clean.msf, oracle);
    assert_eq!(stalled.msf, oracle);
    assert!(stalled.rank_stats[1].stall_time >= 2.5);
    assert!(
        stalled.total_time > clean.total_time,
        "a 2.5s stall must show up in the makespan"
    );
}

#[test]
fn per_tag_rules_target_only_their_tag() {
    use mnd::net::Tag;
    let el = gen::gnm(600, 3600, 29);
    // Faults only on the leader-merge tag; everything else clean.
    let rule = FaultRule {
        drop_rate: 0.5,
        ..FaultRule::default()
    };
    let plan = Arc::new(FaultPlan::new(19).with_rule_for_tag(Tag::user(2), rule));
    let r = run_with_plan(&el, 4, plan, None);
    assert_eq!(r.msf, kruskal_msf(&el));
    for s in &r.rank_stats {
        for (tag, t) in &s.by_tag {
            if *tag != Tag::user(2) {
                assert_eq!(t.retries, 0, "clean tag {tag:?} saw retries");
            }
        }
    }
    let merge_retries: u64 = r
        .rank_stats
        .iter()
        .filter_map(|s| s.by_tag.get(&Tag::user(2)))
        .map(|t| t.retries)
        .sum();
    assert!(merge_retries > 0, "50% drops on the merge tag must retry");
}
