//! The simulated clock is a function of the inputs alone: every charge is
//! computed from row counts, work profiles and wire bytes, never from host
//! time. These goldens pin `MndMstReport::{total_time, comm_time}` and the
//! per-rank traffic of three fixed `mnd-mst` runs, the same plus the
//! round counters and the recovery bill of 34 `bsp`/`spmsf` runs, and every
//! number a serve plane reports for a scaled-down `serve-mix` in both
//! update modes (`SERVE_GOLDEN`), so a host-side optimisation (a faster lookup, a
//! different reduction algorithm, a reordered sweep) that silently moves
//! the simulated clock — by changing what is sent, in which chunks, or what
//! is charged — fails here instead of in a benchmark.
//!
//! A deliberate cost-model or algorithm change re-pins them: the failure
//! message prints the observed values in the form the tables below use,
//! and for a snapshot table first the moved lines as `old → new`, the
//! diff an announced re-pin quotes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mnd::chaos::FaultPlan;
use mnd::device::NodePlatform;
use mnd::engine::EngineChaos;
use mnd::graph::edgelist::splitmix64;
use mnd::graph::presets::{scramble_ids, Preset};
use mnd::graph::{gen, EdgeList, WEdge};
use mnd::hypar::observe::{PhaseKind, PhaseObserver, PhaseSample};
use mnd::hypar::{HyParConfig, RecursionThresholdSource};
use mnd::kernels::kruskal_msf;
use mnd::kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd::mst::MndMstRunner;
use mnd::net::RankStats;
use mnd::pregel::{pregel_msf_chaos, BspConfig};
use mnd::serve::{
    EngineBackend, JobKind, JobSpec, ServeConfig, ServePlane, TenantSpec, UpdateMode,
};
use mnd::spmsf::{spmsf_msf_chaos, SpmsfConfig};

struct Golden {
    total_time: f64,
    comm_time: f64,
    bytes_sent: &'static [u64],
    messages_sent: &'static [u64],
}

fn check(name: &str, runner: MndMstRunner, el: &EdgeList, expect: &Golden) {
    let report = runner.run(el);
    assert_eq!(report.msf, kruskal_msf(el), "{name}: wrong forest");
    let bytes: Vec<u64> = report.rank_stats.iter().map(|s| s.bytes_sent).collect();
    let msgs: Vec<u64> = report.rank_stats.iter().map(|s| s.messages_sent).collect();
    let observed = format!(
        "Golden {{\n    total_time: {:?},\n    comm_time: {:?},\n    bytes_sent: &{:?},\n    messages_sent: &{:?},\n}}",
        report.total_time, report.comm_time, bytes, msgs
    );
    // Bit-for-bit: the clock is deterministic, so there is no tolerance.
    assert!(
        report.total_time == expect.total_time
            && report.comm_time == expect.comm_time
            && bytes == expect.bytes_sent
            && msgs == expect.messages_sent,
        "{name}: the simulated clock moved; observed\n{observed}"
    );
}

/// A crawl with strong id locality on four CPU ranks — the kernel-bound
/// shape (big first `indComp`, few cut edges).
#[test]
fn crawl_on_four_cpu_ranks() {
    let el = Preset::Arabic2005.generate(8192, 42);
    let runner = MndMstRunner::new(4).with_config(HyParConfig::default().with_sim_scale(8192.0));
    check(
        "crawl x4",
        runner,
        &el,
        &Golden {
            total_time: 6.599858918349202,
            comm_time: 1.6625272365714234,
            bytes_sent: &[61118, 116510, 140161, 106443],
            messages_sent: &[35, 24, 37, 24],
        },
    );
}

/// A scrambled crawl on eight hybrid CPU+GPU ranks: device splits, the
/// intra-node merge and finishing pass, a two-level merge hierarchy with
/// ring exchanges.
#[test]
fn scrambled_crawl_on_eight_hybrid_ranks() {
    let el = Preset::Gsh2015Tpd.generate(32768, 7);
    let runner = MndMstRunner::new(8)
        .with_platform(NodePlatform::cray_xc40(true))
        .with_config(HyParConfig::default().with_sim_scale(32768.0));
    check(
        "scramble x8 hybrid",
        runner,
        &el,
        &Golden {
            total_time: 19.783204313651982,
            comm_time: 12.497752843085456,
            bytes_sent: &[
                51527, 114027, 129176, 110812, 259637, 113960, 129542, 113684,
            ],
            messages_sent: &[78, 37, 58, 37, 81, 37, 58, 37],
        },
    );
}

/// A road grid on three ranks with 32-item ghost phases: every ghost bucket
/// is cut into many chunks, so the *order* of the pairs inside a bucket
/// decides each chunk's dictionary and therefore its encoded size.
#[test]
fn road_grid_with_tiny_ghost_phases() {
    let el = gen::road_grid(80, 80, 0.02, 0.38, 3);
    let mut runner = MndMstRunner::new(3);
    runner.ghost_phase_size = 32;
    check(
        "road x3 phased",
        runner,
        &el,
        &Golden {
            total_time: 0.0036709457301587114,
            comm_time: 0.0035177368095237905,
            bytes_sent: &[112731, 86630, 85315],
            messages_sent: &[79, 76, 75],
        },
    );
}

/// One snapshot line of an `mnd-mst` run: the clock and per-rank traffic,
/// the hierarchy's shape, and the number of computation steps rank 0 ran
/// (one `MergeParts` sample per step — so a recursing run shows it).
fn mnd_mst_line(el: &EdgeList, runner: MndMstRunner) -> String {
    struct Steps(AtomicU64);
    impl PhaseObserver for Steps {
        fn on_phase(&self, kind: PhaseKind, sample: &PhaseSample) {
            if kind == PhaseKind::MergeParts && sample.rank == 0 {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let steps = Arc::new(Steps(AtomicU64::new(0)));
    let config = runner.config.clone().with_observer(steps.clone());
    let r = runner.with_config(config).run(el);
    assert_eq!(r.msf, kruskal_msf(el), "mnd-mst: wrong forest");
    format!(
        "{} | levels {} exchange_rounds {} max_holding_bytes {} steps {}",
        clock_line(r.total_time, r.comm_time, &r.rank_stats),
        r.levels,
        r.exchange_rounds,
        r.max_holding_bytes,
        steps.0.load(Ordering::Relaxed)
    )
}

/// `mnd-mst` in every arm its kernel and merge hierarchy branch on: both
/// non-default exception/freeze readings, the exhaustive stop and an eager
/// diminishing-benefit stop, a recursion threshold low enough that the
/// computation step actually recurses, a ring exchange, and pairs on eight
/// ranks (three levels; leaders run `indComp` on merged holdings).
#[test]
fn mnd_mst_kernel_and_hierarchy_goldens() {
    let eager = StopPolicy::DiminishingBenefit {
        min_improvement: 0.5,
    };
    let base = || HyParConfig::default().with_sim_scale(4096.0);
    let arms: Vec<(&str, usize, HyParConfig)> = vec![
        (
            "border-vertex",
            4,
            HyParConfig {
                excp: ExcpCond::BorderVertex,
                ..base()
            },
        ),
        (
            "recheck",
            4,
            HyParConfig {
                freeze: FreezePolicy::Recheck,
                ..base()
            },
        ),
        (
            "exhaustive",
            4,
            HyParConfig {
                stop: StopPolicy::Exhaustive,
                ..base()
            },
        ),
        (
            "eager-stop",
            4,
            HyParConfig {
                stop: eager,
                ..base()
            },
        ),
        (
            "recursing",
            4,
            HyParConfig {
                stop: eager,
                recursion_edge_threshold: 1,
                recursion_threshold_source: RecursionThresholdSource::Fixed,
                ..base()
            },
        ),
        (
            "ring x8",
            8,
            HyParConfig {
                group_size: 8,
                excp: ExcpCond::BorderVertex,
                merge_min_shrink: 0.0,
                group_edge_threshold: 16,
                max_exchange_rounds: 64,
                ..base()
            },
        ),
        (
            "pairs x8",
            8,
            HyParConfig {
                group_size: 2,
                ..base()
            },
        ),
    ];
    let mut observed = Vec::new();
    for (name, el) in round_loop_graphs() {
        for (arm, nranks, config) in &arms {
            let runner = MndMstRunner::new(*nranks).with_config(config.clone());
            observed.push(format!("{name} {arm} | {}", mnd_mst_line(&el, runner)));
        }
    }
    check_snapshot("MND_MST_GOLDEN", &observed, MND_MST_GOLDEN);
}

// ---------------------------------------------------------------------------
// The round-loop engines (`bsp`, `spmsf`).
//
// Their per-round working sets are host-side containers whose layout must
// never reach the clock: a run is pinned on its makespan, its communication
// time, every rank's logical traffic and the engine's own round counters,
// one line per run. The tables below are snapshots — on a mismatch the test
// prints the whole observed table, which is pasted over the constant to
// re-pin after a deliberate cost-model or algorithm change.
// ---------------------------------------------------------------------------

/// The three shapes every round-loop golden runs on: a road grid (long
/// hook chains, islands stranded by the deletions), a crawl with scrambled
/// ids (hubs, no locality) and a union of components with isolated
/// vertices in the middle and at the end of the id space.
fn round_loop_graphs() -> Vec<(&'static str, EdgeList)> {
    let crawl = gen::web_crawl(1500, 9000, gen::CrawlParams::default(), 7);
    vec![
        ("road", gen::road_grid(40, 30, 0.02, 0.38, 3)),
        ("scramble", scramble_ids(&crawl, 7)),
        (
            "islands",
            gen::disconnected_union(&[
                gen::gnm(300, 900, 5),
                EdgeList::new(17),
                gen::path(120, 6),
                gen::star(60, 8),
                EdgeList::new(5),
            ]),
        ),
    ]
}

fn per_rank(stats: &[RankStats], f: impl Fn(&RankStats) -> u64) -> Vec<u64> {
    stats.iter().map(f).collect()
}

/// The clock-and-traffic part of a snapshot line.
fn clock_line(total_time: f64, comm_time: f64, stats: &[RankStats]) -> String {
    format!(
        "total {total_time:?} comm {comm_time:?} | bytes {:?} | msgs {:?}",
        per_rank(stats, |s| s.bytes_sent),
        per_rank(stats, |s| s.messages_sent),
    )
}

/// The recovery part of a chaos snapshot line.
fn recovery_line(stats: &[RankStats], recovered_units: u64) -> String {
    format!(
        "ckpt_writes {:?} ckpt_bytes {:?} recovered {recovered_units}",
        per_rank(stats, |s| s.checkpoint_writes),
        per_rank(stats, |s| s.checkpoint_bytes),
    )
}

fn bsp_line(el: &EdgeList, nranks: usize, cfg: &BspConfig, chaos: &EngineChaos) -> String {
    let r = pregel_msf_chaos(el, nranks, &NodePlatform::amd_cluster(), cfg, chaos);
    assert_eq!(r.msf, kruskal_msf(el), "bsp: wrong forest");
    let mut line = format!(
        "{} | supersteps {} rounds {} messages {}",
        clock_line(r.total_time, r.comm_time, &r.rank_stats),
        r.supersteps,
        r.rounds,
        r.messages
    );
    if chaos.is_armed() {
        line += " | ";
        line += &recovery_line(&r.rank_stats, r.recovered_supersteps);
    }
    line
}

fn spmsf_line(el: &EdgeList, nranks: usize, cfg: &SpmsfConfig, chaos: &EngineChaos) -> String {
    let r = spmsf_msf_chaos(el, nranks, &NodePlatform::amd_cluster(), cfg, chaos);
    assert_eq!(r.msf, kruskal_msf(el), "spmsf: wrong forest");
    let mut line = format!(
        "{} | rounds {} steps {}",
        clock_line(r.total_time, r.comm_time, &r.rank_stats),
        r.rounds,
        r.steps
    );
    if chaos.is_armed() {
        line += " | ";
        line += &recovery_line(&r.rank_stats, r.recovered_steps);
    }
    line
}

/// Bit-for-bit (`{:?}` prints the shortest decimal that round-trips an
/// `f64`, so equal lines are equal bits): no tolerance anywhere. A failure
/// prints the change as a diff keyed by each line's run name (the text
/// before the first ` | `): every moved line as `old → new`, every added
/// line `+`, every missing one `-` — the part of a re-pin to review — and
/// then the observed table to paste over the constant.
fn check_snapshot(table: &str, observed: &[String], golden: &str) {
    let observed = observed.join("\n");
    let golden = golden.trim();
    if observed == golden {
        return;
    }
    fn run(line: &str) -> &str {
        line.split(" | ").next().unwrap_or(line)
    }
    let old: BTreeMap<&str, &str> = golden.lines().map(|l| (run(l), l)).collect();
    let new: BTreeMap<&str, &str> = observed.lines().map(|l| (run(l), l)).collect();
    let mut diff = String::new();
    for line in observed.lines() {
        match old.get(run(line)) {
            Some(&was) if was == line => {}
            Some(&was) => diff += &format!("  {was}\n→ {line}\n"),
            None => diff += &format!("+ {line}\n"),
        }
    }
    for line in golden.lines().filter(|l| !new.contains_key(run(l))) {
        diff += &format!("- {line}\n");
    }
    if diff.is_empty() {
        diff = "  (the same lines in another order)\n".to_owned();
    }
    panic!("{table}: the simulated clock moved, old → new:\n{diff}\nobserved table:\n{observed}\n");
}

/// `bsp` in every arm its round loop branches on: the sender-side combiner
/// on and off, LALP mirroring off and at a threshold low enough (4) that
/// hubs, star centres and grid crossings all mirror. Workers own vertices
/// by hash, which the lines name.
#[test]
fn bsp_round_loop_goldens() {
    let mut observed = Vec::new();
    for (name, el) in round_loop_graphs() {
        for nranks in [3, 4] {
            for combine in [true, false] {
                for mirror_threshold in [None, Some(4)] {
                    let cfg = BspConfig {
                        combine,
                        mirror_threshold,
                        ..BspConfig::default()
                    };
                    observed.push(format!(
                        "{name} p{nranks} Hash combine={combine} mirror={mirror_threshold:?} | {}",
                        bsp_line(&el, nranks, &cfg, &EngineChaos::none())
                    ));
                }
            }
        }
    }
    check_snapshot("BSP_GOLDEN", &observed, BSP_GOLDEN);
}

#[test]
fn spmsf_round_loop_goldens() {
    let mut observed = Vec::new();
    for (name, el) in round_loop_graphs() {
        for nranks in [3, 4] {
            observed.push(format!(
                "{name} p{nranks} | {}",
                spmsf_line(&el, nranks, &SpmsfConfig::default(), &EngineChaos::none())
            ));
        }
    }
    check_snapshot("SPMSF_GOLDEN", &observed, SPMSF_GOLDEN);
}

/// The recovery bill of both engines on the road grid, four ranks: an
/// armed plan that injects nothing (checkpoints are written and charged,
/// nothing is recovered) and a mid-phase crash of rank 2 in epoch 3 (the
/// interrupted epoch re-runs at recovery cost). Checkpoint sizes are the
/// `Wire` sizes of the engines' state, so these lines also pin that no
/// host-side scratch ever leaks into a checkpoint.
#[test]
fn round_loop_chaos_goldens() {
    let (_, el) = round_loop_graphs().swap_remove(0);
    let plans = [
        ("armed-clean", FaultPlan::new(9)),
        (
            "crash r2 e3 op11",
            FaultPlan::new(3).with_mid_phase_crash(2, 3, 11),
        ),
    ];
    let mut observed = Vec::new();
    for (name, plan) in plans {
        let chaos = EngineChaos::from_plan(Arc::new(plan));
        observed.push(format!(
            "bsp {name} | {}",
            bsp_line(&el, 4, &BspConfig::default(), &chaos)
        ));
        observed.push(format!(
            "spmsf {name} | {}",
            spmsf_line(&el, 4, &SpmsfConfig::default(), &chaos)
        ));
    }
    check_snapshot("CHAOS_GOLDEN", &observed, CHAOS_GOLDEN);
}

// ---------------------------------------------------------------------------
// The serve plane.
//
// Its clock is the scheduler's: queueing from the SFQ tags, execution from
// the backend's makespan, the frontend's CPU model over `IncrementalMsf`'s
// work units, or the constant cache-hit charge. When a cache key is
// computed, how a tree search keeps its scratch and how CC labels are
// derived are host matters and must never reach it.
// ---------------------------------------------------------------------------

/// A scaled-down `serve-mix`: an interactive tenant repeating {Mst, Cc,
/// Bfs} on one road grid (wave 1 cold, later waves cache hits), a batch
/// tenant bursting six distinct graphs past a queue bound of three, and an
/// updates tenant streaming eight insert/delete batches into a dense
/// session — plus two `Mst` queries on the session's *current* graph,
/// rebuilt from a mirror map, which are served from the cache entry the
/// update before them is owed.
fn serve_golden_jobs() -> Vec<JobSpec> {
    let road = Arc::new(gen::road_grid(30, 20, 0.02, 0.38, 3));
    let mut jobs = Vec::new();
    for wave in 0..6 {
        let t = wave as f64 * 0.5;
        for (dt, kind) in [
            (0.0, JobKind::Mst),
            (0.05, JobKind::Cc),
            (0.1, JobKind::Bfs { source: 0 }),
        ] {
            jobs.push(JobSpec {
                tenant: 0,
                kind,
                graph: road.clone(),
                submit: t + dt,
            });
        }
    }
    for i in 0..6 {
        jobs.push(JobSpec {
            tenant: 1,
            kind: JobKind::Mst,
            graph: Arc::new(gen::gnm(300, 900, 0xB0B0 + i)),
            submit: 0.0,
        });
    }
    let n = 300u32;
    let session = Arc::new(gen::gnm(n, n as u64 * 16, 0xD1CE));
    let mut mirror: BTreeMap<(u32, u32), u32> =
        session.edges().iter().map(|e| ((e.u, e.v), e.w)).collect();
    let mut z = 0x5EED_CAFEu64;
    let mut next = move |modulus: u64| {
        z = splitmix64(z);
        (z % modulus) as u32
    };
    for batch in 0..8 {
        let inserts: Vec<WEdge> = (0..6)
            .map(|_| WEdge::new(next(n as u64), next(n as u64), next(1_000_000)))
            .collect();
        for e in inserts.iter().filter(|e| e.u != e.v) {
            mirror.insert((e.u, e.v), e.w);
        }
        let deletes: Vec<(u32, u32)> = (0..3)
            .map(|_| {
                let key = *mirror
                    .keys()
                    .nth(next(mirror.len() as u64) as usize)
                    .unwrap();
                mirror.remove(&key);
                key
            })
            .collect();
        let t = 0.3 + 0.4 * batch as f64;
        jobs.push(JobSpec {
            tenant: 2,
            kind: JobKind::Update { inserts, deletes },
            graph: session.clone(),
            submit: t,
        });
        if batch == 3 || batch == 7 {
            let current = mirror
                .iter()
                .map(|(&(u, v), &w)| WEdge::new(u, v, w))
                .collect();
            jobs.push(JobSpec {
                tenant: 0,
                kind: JobKind::Mst,
                graph: Arc::new(EdgeList::from_raw(n, current)),
                submit: t + 0.2,
            });
        }
    }
    jobs
}

/// Every number the plane reports in both update modes: per completion
/// `(job, served_by, start, finish)`, then the makespan, the refusals, the
/// tenants' percentiles and the cache counters.
#[test]
fn serve_plane_goldens() {
    let mut observed = Vec::new();
    for mode in [UpdateMode::Incremental, UpdateMode::Recompute] {
        let mut plane = ServePlane::new(
            ServeConfig::new(4)
                .with_edges_per_rank(256)
                .with_update_mode(mode),
            Box::new(EngineBackend::mnd_mst(1024.0)),
            vec![
                TenantSpec::new("interactive", 4.0, 32),
                TenantSpec::new("batch", 1.0, 3),
                TenantSpec::new("updates", 2.0, 16),
            ],
        );
        let r = plane.run(serve_golden_jobs());
        for c in &r.completions {
            observed.push(format!(
                "{mode:?} job {} {:?} | start {:?} finish {:?}",
                c.job, c.served_by, c.start, c.finish
            ));
        }
        observed.push(format!(
            "{mode:?} plane | makespan {:?} rejected {} | hits {} misses {} saved {:?}",
            r.makespan, r.rejected, r.cache.hits, r.cache.misses, r.cache.saved_seconds
        ));
        for t in &r.tenants {
            observed.push(format!(
                "{mode:?} tenant {} | p50 {:?} p95 {:?} p99 {:?}",
                t.name, t.p50, t.p95, t.p99
            ));
        }
    }
    check_snapshot("SERVE_GOLDEN", &observed, SERVE_GOLDEN);
}

const MND_MST_GOLDEN: &str = "
road border-vertex | total 0.2383616398730162 comm 0.21041090793650824 | bytes [23611, 16749, 27656, 16122] | msgs [16, 13, 20, 11] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road recheck | total 0.23205114044444475 comm 0.2047743630476193 | bytes [23014, 16186, 26975, 15810] | msgs [16, 13, 20, 11] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road exhaustive | total 0.23205114044444475 comm 0.2047743630476193 | bytes [23014, 16186, 26975, 15810] | msgs [16, 13, 20, 11] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road eager-stop | total 0.23120099022222249 comm 0.205525169777778 | bytes [23284, 16150, 27168, 14940] | msgs [16, 13, 20, 11] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road recursing | total 0.24020920914285762 comm 0.21138030476190522 | bytes [23546, 16405, 27227, 15162] | msgs [29, 20, 34, 18] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 3
road ring x8 | total 0.38854125384126853 comm 0.3591728779682526 | bytes [46450, 17579, 32471, 17303, 47703, 17368, 31520, 15876] | msgs [41, 21, 32, 21, 45, 22, 33, 17] | levels 1 exchange_rounds 1 max_holding_bytes 46825472 steps 2
road pairs x8 | total 0.3786756599365065 comm 0.3615654977777763 | bytes [41937, 15718, 30073, 15643, 43457, 15802, 28950, 14986] | msgs [55, 23, 42, 23, 60, 23, 41, 21] | levels 3 exchange_rounds 0 max_holding_bytes 19922944 steps 3
scramble border-vertex | total 0.8706361286349202 comm 0.48727847936507857 | bytes [43579, 63172, 84093, 63419] | msgs [17, 12, 19, 12] | levels 1 exchange_rounds 0 max_holding_bytes 415744000 steps 1
scramble recheck | total 0.8241323367619044 comm 0.44654633853968206 | bytes [40060, 57752, 76375, 58011] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 1
scramble exhaustive | total 0.8584200858412696 comm 0.4470178336507932 | bytes [40060, 57752, 76375, 58015] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 1
scramble eager-stop | total 0.8241323367619044 comm 0.44654633853968206 | bytes [40060, 57752, 76375, 58011] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 1
scramble recursing | total 0.8890061119999995 comm 0.4503947169523801 | bytes [40348, 57896, 76663, 58159] | msgs [26, 18, 28, 18] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 2
scramble ring x8 | total 1.0648102989206345 comm 0.7013857607619042 | bytes [100676, 56136, 84432, 55686, 113383, 55943, 85004, 55824] | msgs [44, 22, 34, 22, 46, 22, 34, 22] | levels 1 exchange_rounds 1 max_holding_bytes 452689920 steps 2
scramble pairs x8 | total 1.5680446778412704 comm 1.3060237003174604 | bytes [81792, 40459, 87196, 40358, 132918, 40194, 87926, 40582] | msgs [69, 33, 53, 33, 71, 33, 53, 33] | levels 3 exchange_rounds 0 max_holding_bytes 294502400 steps 3
islands border-vertex | total 0.19938134692063506 comm 0.14942392393650805 | bytes [12596, 14272, 20222, 10759] | msgs [17, 15, 21, 12] | levels 1 exchange_rounds 0 max_holding_bytes 68042752 steps 1
islands recheck | total 0.19611882869841282 comm 0.14840913447619059 | bytes [12260, 14076, 19555, 10692] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 61865984 steps 1
islands exhaustive | total 0.19918234222222234 comm 0.1460282126984128 | bytes [12244, 14076, 19547, 10672] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 61767680 steps 1
islands eager-stop | total 0.19140738539682556 comm 0.14848806679365095 | bytes [12436, 14076, 19643, 10912] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 62947328 steps 1
islands recursing | total 0.2207931611428576 comm 0.16212893638095283 | bytes [12820, 14364, 20123, 10960] | msgs [32, 21, 34, 21] | levels 1 exchange_rounds 0 max_holding_bytes 61767680 steps 3
islands ring x8 | total 0.4059347282539681 comm 0.34609509701587293 | bytes [50194, 23714, 36661, 23165, 47506, 18997, 31116, 20202] | msgs [95, 39, 66, 39, 93, 39, 69, 35] | levels 1 exchange_rounds 4 max_holding_bytes 74432512 steps 5
islands pairs x8 | total 0.3993213417142858 comm 0.37001525104761906 | bytes [27632, 11886, 25259, 11785, 36168, 11899, 20000, 8102] | msgs [67, 31, 51, 31, 69, 31, 50, 21] | levels 3 exchange_rounds 0 max_holding_bytes 58032128 steps 3
";

const BSP_GOLDEN: &str = "
road p3 Hash combine=true mirror=None | total 0.014023951682539611 comm 0.013932717555555483 | bytes [105176, 106104, 96680] | msgs [246, 173, 174] | supersteps 51 rounds 5 messages 45494
road p3 Hash combine=true mirror=Some(4) | total 0.014014849714285644 comm 0.013923913206349137 | bytes [104576, 105592, 96112] | msgs [246, 173, 174] | supersteps 51 rounds 5 messages 45284
road p3 Hash combine=false mirror=None | total 0.014047613904761839 comm 0.013955617873015807 | bytes [107076, 107904, 99100] | msgs [246, 173, 174] | supersteps 51 rounds 5 messages 46006
road p3 Hash combine=false mirror=Some(4) | total 0.014038511936507871 comm 0.013946813523809458 | bytes [106476, 107392, 98532] | msgs [246, 173, 174] | supersteps 51 rounds 5 messages 45796
road p4 Hash combine=true mirror=None | total 0.019633653365079433 comm 0.01957108987301595 | bytes [69036, 73924, 64332, 76832] | msgs [283, 211, 276, 210] | supersteps 51 rounds 5 messages 45432
road p4 Hash combine=true mirror=Some(4) | total 0.019629578444444514 comm 0.019567122095238174 | bytes [69004, 73892, 64324, 76792] | msgs [283, 211, 276, 210] | supersteps 51 rounds 5 messages 45323
road p4 Hash combine=false mirror=None | total 0.019652613841269914 comm 0.01958945907936516 | bytes [70716, 74864, 65672, 78912] | msgs [283, 211, 276, 210] | supersteps 51 rounds 5 messages 46006
road p4 Hash combine=false mirror=Some(4) | total 0.019648538920634992 comm 0.019585491301587384 | bytes [70684, 74832, 65664, 78872] | msgs [283, 211, 276, 210] | supersteps 51 rounds 5 messages 45897
scramble p3 Hash combine=true mirror=None | total 0.015589483206349126 comm 0.015346753047618964 | bytes [138508, 144104, 141400] | msgs [247, 172, 172] | supersteps 51 rounds 5 messages 77836
scramble p3 Hash combine=true mirror=Some(4) | total 0.015048666063491983 comm 0.01482172161904754 | bytes [121196, 126176, 124504] | msgs [247, 172, 172] | supersteps 51 rounds 5 messages 65767
scramble p3 Hash combine=false mirror=None | total 0.015746001301587226 comm 0.015498612412698337 | bytes [150948, 156324, 155360] | msgs [247, 172, 172] | supersteps 51 rounds 5 messages 81116
scramble p3 Hash combine=false mirror=Some(4) | total 0.015205184158730078 comm 0.014973580984126902 | bytes [133636, 138396, 138464] | msgs [247, 172, 172] | supersteps 51 rounds 5 messages 69047
scramble p4 Hash combine=true mirror=None | total 0.021081120222222315 comm 0.020897953555555647 | bytes [122488, 119044, 146908, 115372] | msgs [288, 213, 291, 214] | supersteps 51 rounds 5 messages 78086
scramble p4 Hash combine=true mirror=Some(4) | total 0.020747771174603257 comm 0.020574560857142942 | bytes [108120, 104780, 132724, 100252] | msgs [288, 213, 291, 214] | supersteps 51 rounds 5 messages 68034
scramble p4 Hash combine=false mirror=None | total 0.021177245746031827 comm 0.020990904476190553 | bytes [132068, 130584, 154668, 126972] | msgs [288, 213, 291, 214] | supersteps 51 rounds 5 messages 81116
scramble p4 Hash combine=false mirror=Some(4) | total 0.020843896698412773 comm 0.02066751177777785 | bytes [117700, 116320, 140484, 111852] | msgs [288, 213, 291, 214] | supersteps 51 rounds 5 messages 71064
islands p3 Hash combine=true mirror=None | total 0.011287853206349147 comm 0.011248579396825345 | bytes [34688, 42420, 37180] | msgs [212, 147, 147] | supersteps 45 rounds 5 messages 18236
islands p3 Hash combine=true mirror=Some(4) | total 0.011228151968253912 comm 0.01119064799999995 | bytes [32256, 40004, 34732] | msgs [212, 147, 147] | supersteps 45 rounds 5 messages 16894
islands p3 Hash combine=false mirror=None | total 0.011315388603174542 comm 0.01127588463492058 | bytes [36808, 43080, 38980] | msgs [212, 147, 147] | supersteps 45 rounds 5 messages 18644
islands p3 Hash combine=false mirror=Some(4) | total 0.011255687365079307 comm 0.011217953238095185 | bytes [34376, 40664, 36532] | msgs [212, 147, 147] | supersteps 45 rounds 5 messages 17302
islands p4 Hash combine=true mirror=None | total 0.016386772412698432 comm 0.01635572082539684 | bytes [31048, 40732, 30676, 28752] | msgs [245, 180, 244, 171] | supersteps 45 rounds 5 messages 18276
islands p4 Hash combine=true mirror=Some(4) | total 0.01635328441269843 comm 0.016323395523809535 | bytes [29272, 39116, 28988, 27224] | msgs [245, 180, 244, 171] | supersteps 45 rounds 5 messages 17147
islands p4 Hash combine=false mirror=None | total 0.016397422571428587 comm 0.016365843206349213 | bytes [32028, 41612, 32076, 30112] | msgs [245, 180, 244, 171] | supersteps 45 rounds 5 messages 18644
islands p4 Hash combine=false mirror=Some(4) | total 0.016363934571428592 comm 0.016333517904761917 | bytes [30252, 39996, 30388, 28584] | msgs [245, 180, 244, 171] | supersteps 45 rounds 5 messages 17515
";

const SPMSF_GOLDEN: &str = "
road p3 | total 0.009862509365079337 comm 0.009811624444444412 | bytes [22432, 12176, 10612] | msgs [166, 131, 105] | rounds 5 steps 45
road p4 | total 0.0146656986031746 comm 0.014621357333333328 | bytes [23256, 10564, 21228, 8952] | msgs [174, 132, 200, 97] | rounds 5 steps 45
scramble p3 | total 0.01044932669841264 comm 0.010304731460317408 | bytes [52480, 37424, 34024] | msgs [203, 125, 124] | rounds 5 steps 51
scramble p4 | total 0.017131148285714323 comm 0.017014251460317497 | bytes [51192, 32600, 44984, 28240] | msgs [237, 156, 226, 145] | rounds 5 steps 51
islands p3 | total 0.008086951238095209 comm 0.008058300444444416 | bytes [14288, 8748, 8692] | msgs [156, 94, 86] | rounds 5 steps 41
islands p4 | total 0.013232323873015876 comm 0.013208383396825401 | bytes [15040, 8024, 12188, 7056] | msgs [163, 104, 159, 84] | rounds 5 steps 41
";

const CHAOS_GOLDEN: &str = "
bsp armed-clean | total 0.02079090536507945 comm 0.019570825873015976 | bytes [69036, 73924, 64332, 76832] | msgs [283, 211, 276, 210] | supersteps 51 rounds 5 messages 45432 | ckpt_writes [11, 11, 11, 11] ckpt_bytes [115032, 112272, 113372, 114504] recovered 0
spmsf armed-clean | total 0.01673976460317463 comm 0.014617523333333361 | bytes [23256, 10564, 21228, 8952] | msgs [174, 132, 200, 97] | rounds 5 steps 45 | ckpt_writes [20, 20, 20, 20] ckpt_bytes [155800, 148696, 151732, 148132] recovered 0
bsp crash r2 e3 op11 | total 1.0209471902539966 comm 1.0197271107619332 | bytes [69036, 73924, 64332, 76832] | msgs [283, 211, 276, 210] | supersteps 51 rounds 5 messages 45432 | ckpt_writes [11, 11, 11, 11] ckpt_bytes [115032, 112272, 113372, 114504] recovered 2
spmsf crash r2 e3 op11 | total 1.016845366603201 comm 1.01472312533336 | bytes [23256, 10564, 21228, 8952] | msgs [174, 132, 200, 97] | rounds 5 steps 45 | ckpt_writes [20, 20, 20, 20] ckpt_bytes [155800, 148696, 151732, 148132] recovered 2
";

const SERVE_GOLDEN: &str = "
Incremental job 0 Backend | start 0.0 finish 0.026484729269841294
Incremental job 18 Backend | start 0.026484729269841294 finish 0.06837872990476195
Incremental job 1 Cache | start 0.06837872990476195 finish 0.07326958704761909
Incremental job 19 Backend | start 0.07326958704761909 finish 0.11423067847619053
Incremental job 2 Backend | start 0.11423067847619053 finish 0.12716656482539687
Incremental job 20 Backend | start 0.12716656482539687 finish 0.16820344939682547
Incremental job 24 Incremental | start 0.3 finish 0.3578825742222222
Incremental job 3 Cache | start 0.5 finish 0.5001
Incremental job 4 Cache | start 0.55 finish 0.5548908571428572
Incremental job 5 Cache | start 0.6 finish 0.6001
Incremental job 25 Incremental | start 0.7 finish 0.7004835555555555
Incremental job 6 Cache | start 1.0 finish 1.0001
Incremental job 7 Cache | start 1.05 finish 1.0548908571428572
Incremental job 8 Cache | start 1.1 finish 1.1001
Incremental job 26 Incremental | start 1.1 finish 1.100552634920635
Incremental job 9 Cache | start 1.5 finish 1.5001
Incremental job 27 Incremental | start 1.5000000000000002 finish 1.5004713650793653
Incremental job 10 Cache | start 1.55 finish 1.5548908571428572
Incremental job 11 Cache | start 1.6 finish 1.6001
Incremental job 28 Cache | start 1.7000000000000002 finish 1.7001000000000002
Incremental job 29 Incremental | start 1.9000000000000001 finish 1.9004144761904764
Incremental job 12 Cache | start 2.0 finish 2.0001
Incremental job 13 Cache | start 2.05 finish 2.054890857142857
Incremental job 14 Cache | start 2.1 finish 2.1001000000000003
Incremental job 30 Incremental | start 2.3 finish 2.301536
Incremental job 15 Cache | start 2.5 finish 2.5001
Incremental job 16 Cache | start 2.55 finish 2.554890857142857
Incremental job 17 Cache | start 2.6 finish 2.6001000000000003
Incremental job 31 Incremental | start 2.7 finish 2.7010118095238096
Incremental job 32 Incremental | start 3.1 finish 3.1006379682539684
Incremental job 33 Cache | start 3.3000000000000003 finish 3.3001000000000005
Incremental plane | makespan 3.3001000000000005 rejected 3 | hits 18 misses 6 saved 0.3571207870476193
Incremental tenant interactive | p50 0.00010000000000021103 p95 0.026484729269841294 p99 0.027166564825396866
Incremental tenant batch | p50 0.11423067847619053 p95 0.16820344939682547 p99 0.16820344939682547
Incremental tenant updates | p50 0.0005526349206348424 p95 0.057882574222222205 p99 0.057882574222222205
Recompute job 0 Backend | start 0.0 finish 0.026484729269841294
Recompute job 18 Backend | start 0.026484729269841294 finish 0.06837872990476195
Recompute job 1 Cache | start 0.06837872990476195 finish 0.07326958704761909
Recompute job 19 Backend | start 0.07326958704761909 finish 0.11423067847619053
Recompute job 2 Backend | start 0.11423067847619053 finish 0.12716656482539687
Recompute job 20 Backend | start 0.12716656482539687 finish 0.16820344939682547
Recompute job 24 Recompute | start 0.3 finish 0.5593348472380952
Recompute job 3 Cache | start 0.5593348472380952 finish 0.5594348472380952
Recompute job 4 Cache | start 0.5594348472380952 finish 0.5643257043809524
Recompute job 5 Cache | start 0.6 finish 0.6001
Recompute job 25 Recompute | start 0.7 finish 0.8297488559999999
Recompute job 6 Cache | start 1.0 finish 1.0001
Recompute job 7 Cache | start 1.05 finish 1.0548908571428572
Recompute job 8 Cache | start 1.1 finish 1.1001
Recompute job 26 Recompute | start 1.1001 finish 1.229909970920635
Recompute job 9 Cache | start 1.5 finish 1.5001
Recompute job 27 Recompute | start 1.5001 finish 1.6299343518730158
Recompute job 10 Cache | start 1.6299343518730158 finish 1.634825209015873
Recompute job 11 Cache | start 1.634825209015873 finish 1.634925209015873
Recompute job 28 Cache | start 1.7000000000000002 finish 1.7001000000000002
Recompute job 29 Recompute | start 1.9000000000000001 finish 2.0298912407619047
Recompute job 12 Cache | start 2.0298912407619047 finish 2.029991240761905
Recompute job 13 Cache | start 2.05 finish 2.054890857142857
Recompute job 14 Cache | start 2.1 finish 2.1001000000000003
Recompute job 30 Recompute | start 2.3 finish 2.4298094238730155
Recompute job 15 Cache | start 2.5 finish 2.5001
Recompute job 16 Cache | start 2.55 finish 2.554890857142857
Recompute job 17 Cache | start 2.6 finish 2.6001000000000003
Recompute job 31 Recompute | start 2.7 finish 2.830058434666667
Recompute job 32 Recompute | start 3.1 finish 3.230066139047619
Recompute job 33 Cache | start 3.3000000000000003 finish 3.3001000000000005
Recompute plane | makespan 3.3001000000000005 rejected 3 | hits 18 misses 6 saved 0.6159119446349208
Recompute tenant interactive | p50 0.004890857142857197 p95 0.05943484723809522 p99 0.08482520901587298
Recompute tenant batch | p50 0.11423067847619053 p95 0.16820344939682547 p99 0.16820344939682547
Recompute tenant updates | p50 0.12990997092063483 p95 0.25933484723809525 p99 0.25933484723809525
";
