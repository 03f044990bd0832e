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
use mnd::hypar::HyParConfig;
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
            total_time: 4.12481943796825,
            comm_time: 0.3470481522539642,
            bytes_sent: &[14009, 24174, 37076, 35026],
            messages_sent: &[22, 20, 24, 20],
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
            total_time: 12.433357841326812,
            comm_time: 8.49329961490257,
            bytes_sent: &[4097, 25282, 28200, 31552, 34560, 24586, 27539, 31106],
            messages_sent: &[76, 58, 68, 58, 78, 58, 68, 58],
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
            total_time: 0.005087044555555548,
            comm_time: 0.00498307185714285,
            bytes_sent: &[19312, 37731, 38407],
            messages_sent: &[146, 142, 140],
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
road border-vertex | total 0.06332174336507931 comm 0.03537101142857138 | bytes [3193, 6079, 6200, 7009] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road recheck | total 0.06229598793650787 comm 0.03501921053968247 | bytes [3236, 6179, 6329, 7054] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road exhaustive | total 0.06229598793650787 comm 0.03501921053968247 | bytes [3236, 6179, 6329, 7054] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road eager-stop | total 0.05825318069841264 comm 0.032577360253968186 | bytes [3186, 6100, 5938, 6105] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road recursing | total 0.06802506361904748 comm 0.03919615923809508 | bytes [3290, 6160, 6102, 6168] | msgs [37, 29, 39, 29] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 3
road ring x8 | total 0.06018268799999989 comm 0.03824071377777766 | bytes [4079, 5865, 6190, 6260, 6152, 6301, 5892, 5800] | msgs [64, 52, 59, 52, 66, 52, 59, 52] | levels 1 exchange_rounds 1 max_holding_bytes 46825472 steps 2
road pairs x8 | total 0.06485344876190466 comm 0.04667151860317448 | bytes [3054, 4575, 5123, 4742, 5384, 4584, 4834, 4533] | msgs [82, 64, 74, 64, 84, 64, 74, 64] | levels 3 exchange_rounds 0 max_holding_bytes 19922944 steps 3
scramble border-vertex | total 0.29798820215873034 comm 0.04334555136507963 | bytes [3336, 9691, 9860, 9726] | msgs [19, 17, 21, 17] | levels 1 exchange_rounds 0 max_holding_bytes 415744000 steps 1
scramble recheck | total 0.3205148184126985 comm 0.05093392253968281 | bytes [4585, 11433, 11419, 11381] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 1
scramble exhaustive | total 0.35478618349206326 comm 0.05138903365079355 | bytes [4585, 11433, 11419, 11382] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 1
scramble eager-stop | total 0.3205148184126985 comm 0.05093392253968281 | bytes [4585, 11433, 11419, 11381] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 1
scramble recursing | total 0.3834061296507935 comm 0.052799836952381 | bytes [4633, 11457, 11467, 11406] | msgs [28, 23, 30, 23] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 2
scramble ring x8 | total 0.2926692874920638 comm 0.07335386933333389 | bytes [11802, 16321, 15932, 15970, 16413, 15941, 16507, 16270] | msgs [50, 38, 45, 38, 52, 38, 45, 38] | levels 1 exchange_rounds 1 max_holding_bytes 452689920 steps 2
scramble pairs x8 | total 0.5637854262857139 comm 0.37050933231745975 | bytes [5434, 12799, 16645, 12194, 14466, 12407, 16683, 12432] | msgs [82, 64, 74, 64, 84, 64, 74, 64] | levels 3 exchange_rounds 0 max_holding_bytes 294502400 steps 3
islands border-vertex | total 0.06607521295238092 comm 0.02970619149206344 | bytes [1033, 1802, 2346, 3478] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 68042752 steps 1
islands recheck | total 0.06793750590476189 comm 0.03326663403174599 | bytes [1254, 1987, 2732, 3557] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 61865984 steps 1
islands exhaustive | total 0.0705832274285714 comm 0.030422864253968198 | bytes [1254, 1987, 2732, 3560] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 61767680 steps 1
islands eager-stop | total 0.06272552406349204 comm 0.0334178176507936 | bytes [1254, 1987, 2732, 3523] | msgs [22, 20, 24, 20] | levels 1 exchange_rounds 0 max_holding_bytes 62947328 steps 1
islands recursing | total 0.07634558501587296 comm 0.038830268698412614 | bytes [1302, 2011, 2780, 3581] | msgs [28, 23, 30, 23] | levels 1 exchange_rounds 0 max_holding_bytes 61865984 steps 2
islands ring x8 | total 0.11691600025396855 comm 0.07604186819047648 | bytes [8166, 8525, 8689, 8734, 8095, 7210, 6729, 7749] | msgs [128, 98, 114, 98, 130, 98, 114, 98] | levels 1 exchange_rounds 4 max_holding_bytes 74432512 steps 5
islands pairs x8 | total 0.12468135060317473 comm 0.10896483796825406 | bytes [1797, 2595, 3189, 2697, 2836, 2690, 2760, 2895] | msgs [82, 64, 74, 64, 84, 64, 74, 64] | levels 3 exchange_rounds 0 max_holding_bytes 58032128 steps 3
";

const BSP_GOLDEN: &str = "
road p3 Hash combine=true mirror=None | total 0.008325577873015851 comm 0.008234343746031722 | bytes [102728, 104880, 95456] | msgs [150, 127, 127] | supersteps 51 rounds 5 messages 45494
road p3 Hash combine=true mirror=Some(4) | total 0.008316055904761883 comm 0.008225119396825374 | bytes [102128, 104368, 94888] | msgs [150, 127, 127] | supersteps 51 rounds 5 messages 45284
road p3 Hash combine=false mirror=None | total 0.008349259777777757 comm 0.008257263746031722 | bytes [104628, 106680, 97876] | msgs [150, 127, 127] | supersteps 51 rounds 5 messages 46006
road p3 Hash combine=false mirror=Some(4) | total 0.008339737809523788 comm 0.008248039396825373 | bytes [104028, 106168, 97308] | msgs [150, 127, 127] | supersteps 51 rounds 5 messages 45796
road p4 Hash combine=true mirror=None | total 0.010180412222222185 comm 0.010117848730158693 | bytes [65772, 72292, 61068, 75200] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 45432
road p4 Hash combine=true mirror=Some(4) | total 0.010176337301587264 comm 0.010113880952380914 | bytes [65740, 72260, 61060, 75160] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 45323
road p4 Hash combine=false mirror=None | total 0.010204054126984089 comm 0.010140899365079325 | bytes [67452, 73232, 62408, 77280] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 46006
road p4 Hash combine=false mirror=Some(4) | total 0.010199979206349168 comm 0.010136931587301546 | bytes [67420, 73200, 62400, 77240] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 45897
scramble p3 Hash combine=true mirror=None | total 0.0097965116190476 comm 0.009553781460317441 | bytes [136060, 142880, 140176] | msgs [150, 127, 127] | supersteps 51 rounds 5 messages 77836
scramble p3 Hash combine=true mirror=Some(4) | total 0.00927629339682537 comm 0.009049348952380925 | bytes [118748, 124952, 123280] | msgs [150, 127, 127] | supersteps 51 rounds 5 messages 65767
scramble p3 Hash combine=false mirror=None | total 0.009948810507936492 comm 0.0097014216190476 | bytes [148500, 155100, 154136] | msgs [150, 127, 127] | supersteps 51 rounds 5 messages 81116
scramble p3 Hash combine=false mirror=Some(4) | total 0.009428592285714263 comm 0.009196989111111087 | bytes [131188, 137172, 137240] | msgs [150, 127, 127] | supersteps 51 rounds 5 messages 69047
scramble p4 Hash combine=true mirror=None | total 0.01181349549206347 comm 0.011630328825396798 | bytes [119224, 117412, 143644, 113740] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 78086
scramble p4 Hash combine=true mirror=Some(4) | total 0.011480146444444422 comm 0.0113069361269841 | bytes [104856, 103148, 129460, 98620] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 68034
scramble p4 Hash combine=false mirror=None | total 0.011942975492063473 comm 0.0117566342222222 | bytes [128804, 128952, 151404, 125340] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 81116
scramble p4 Hash combine=false mirror=Some(4) | total 0.011609626444444429 comm 0.011433241523809501 | bytes [114436, 114688, 137220, 110220] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 71064
islands p3 Hash combine=true mirror=None | total 0.006201899047619019 comm 0.006162625238095207 | bytes [32528, 41340, 36100] | msgs [132, 112, 112] | supersteps 45 rounds 5 messages 18236
islands p3 Hash combine=true mirror=Some(4) | total 0.006144777809523782 comm 0.0061072738412698115 | bytes [30096, 38924, 33652] | msgs [132, 112, 112] | supersteps 45 rounds 5 messages 16894
islands p3 Hash combine=false mirror=None | total 0.006222115238095213 comm 0.006182611269841242 | bytes [34648, 42000, 37900] | msgs [132, 112, 112] | supersteps 45 rounds 5 messages 18644
islands p3 Hash combine=false mirror=Some(4) | total 0.006164993999999976 comm 0.006127259873015847 | bytes [32216, 39584, 35452] | msgs [132, 112, 112] | supersteps 45 rounds 5 messages 17302
islands p4 Hash combine=true mirror=None | total 0.008320044539682495 comm 0.00828899295238091 | bytes [28168, 39292, 27796, 27312] | msgs [177, 157, 178, 157] | supersteps 45 rounds 5 messages 18276
islands p4 Hash combine=true mirror=Some(4) | total 0.008286556539682495 comm 0.008256667650793609 | bytes [26392, 37676, 26108, 25784] | msgs [177, 157, 178, 157] | supersteps 45 rounds 5 messages 17147
islands p4 Hash combine=false mirror=None | total 0.008335748190476146 comm 0.008304168825396783 | bytes [29148, 40172, 29196, 28672] | msgs [177, 157, 178, 157] | supersteps 45 rounds 5 messages 18644
islands p4 Hash combine=false mirror=Some(4) | total 0.008302260190476146 comm 0.008271843523809481 | bytes [27372, 38556, 27508, 27144] | msgs [177, 157, 178, 157] | supersteps 45 rounds 5 messages 17515
";

const SPMSF_GOLDEN: &str = "
road p3 | total 0.005607588063492042 comm 0.0055567031428571225 | bytes [17416, 11216, 9652] | msgs [132, 107, 107] | rounds 5 steps 45
road p4 | total 0.007432398126984083 comm 0.007388056857142813 | bytes [9120, 13956, 13996, 12296] | msgs [172, 152, 173, 152] | rounds 5 steps 45
scramble p3 | total 0.006452526031745996 comm 0.006307930793650759 | bytes [46272, 36320, 32920] | msgs [150, 122, 122] | rounds 5 steps 51
scramble p4 | total 0.008582619269841227 comm 0.008465722444444402 | bytes [33256, 37136, 36032, 32752] | msgs [196, 173, 197, 173] | rounds 5 steps 51
islands p3 | total 0.005092353396825372 comm 0.005063702603174579 | bytes [11592, 7884, 7828] | msgs [120, 97, 97] | rounds 5 steps 41
islands p4 | total 0.006709268412698375 comm 0.0066853279365078995 | bytes [7192, 8288, 8468, 8304] | msgs [156, 138, 157, 138] | rounds 5 steps 41
";

const CHAOS_GOLDEN: &str = "
bsp armed-clean | total 0.011337306222222197 comm 0.010117226730158694 | bytes [65772, 72292, 61068, 75200] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 45432 | ckpt_writes [11, 11, 11, 11] ckpt_bytes [115032, 112272, 113372, 114504] recovered 0
spmsf armed-clean | total 0.009507379333333302 comm 0.0073851380634920175 | bytes [9120, 13956, 13996, 12296] | msgs [172, 152, 173, 152] | rounds 5 steps 45 | ckpt_writes [20, 20, 20, 20] ckpt_bytes [155800, 148696, 151732, 148132] recovered 0
bsp crash r2 e3 op11 | total 1.0114431831111221 comm 1.0102231036190588 | bytes [65772, 72292, 61068, 75200] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 45432 | ckpt_writes [11, 11, 11, 11] ckpt_bytes [115032, 112272, 113372, 114504] recovered 2
spmsf crash r2 e3 op11 | total 1.0095629017777925 comm 1.0074406605079513 | bytes [9120, 13956, 13996, 12296] | msgs [172, 152, 173, 152] | rounds 5 steps 45 | ckpt_writes [20, 20, 20, 20] ckpt_bytes [155800, 148696, 151732, 148132] recovered 2
";

const SERVE_GOLDEN: &str = "
Incremental job 0 Backend | start 0.0 finish 0.011591646349206347
Incremental job 18 Backend | start 0.011591646349206347 finish 0.027555944888888892
Incremental job 19 Backend | start 0.027555944888888892 finish 0.04272865625396825
Incremental job 20 Backend | start 0.04272865625396825 finish 0.05847883847619048
Incremental job 1 Cache | start 0.05847883847619048 finish 0.06336969561904762
Incremental job 2 Backend | start 0.1 finish 0.11173936634920635
Incremental job 24 Incremental | start 0.3 finish 0.35787457422222224
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
Incremental plane | makespan 3.3001000000000005 rejected 3 | hits 18 misses 6 saved 0.18731427492063488
Incremental tenant interactive | p50 0.00010000000000021103 p95 0.011739366349206345 p99 0.01336969561904762
Incremental tenant batch | p50 0.04272865625396825 p95 0.05847883847619048 p99 0.05847883847619048
Incremental tenant updates | p50 0.0005526349206348424 p95 0.05787457422222225 p99 0.05787457422222225
Recompute job 0 Backend | start 0.0 finish 0.011591646349206347
Recompute job 18 Backend | start 0.011591646349206347 finish 0.027555944888888892
Recompute job 19 Backend | start 0.027555944888888892 finish 0.04272865625396825
Recompute job 20 Backend | start 0.04272865625396825 finish 0.05847883847619048
Recompute job 1 Cache | start 0.05847883847619048 finish 0.06336969561904762
Recompute job 2 Backend | start 0.1 finish 0.11173936634920635
Recompute job 24 Recompute | start 0.3 finish 0.4229653274920634
Recompute job 3 Cache | start 0.5 finish 0.5001
Recompute job 4 Cache | start 0.55 finish 0.5548908571428572
Recompute job 5 Cache | start 0.6 finish 0.6001
Recompute job 25 Recompute | start 0.7 finish 0.7615121809523808
Recompute job 6 Cache | start 1.0 finish 1.0001
Recompute job 7 Cache | start 1.05 finish 1.0548908571428572
Recompute job 8 Cache | start 1.1 finish 1.1001
Recompute job 26 Recompute | start 1.1001 finish 1.1616508328888888
Recompute job 9 Cache | start 1.5 finish 1.5001
Recompute job 27 Recompute | start 1.5001 finish 1.5616650063492064
Recompute job 10 Cache | start 1.5616650063492064 finish 1.5665558634920635
Recompute job 11 Cache | start 1.6 finish 1.6001
Recompute job 28 Cache | start 1.7000000000000002 finish 1.7001000000000002
Recompute job 29 Recompute | start 1.9000000000000001 finish 1.9616015777777778
Recompute job 12 Cache | start 2.0 finish 2.0001
Recompute job 13 Cache | start 2.05 finish 2.054890857142857
Recompute job 14 Cache | start 2.1 finish 2.1001000000000003
Recompute job 30 Recompute | start 2.3 finish 2.3615934507936505
Recompute job 15 Cache | start 2.5 finish 2.5001
Recompute job 16 Cache | start 2.55 finish 2.554890857142857
Recompute job 17 Cache | start 2.6 finish 2.6001000000000003
Recompute job 31 Recompute | start 2.7 finish 2.761642082666667
Recompute job 32 Recompute | start 3.1 finish 3.1616532166349205
Recompute job 33 Cache | start 3.3000000000000003 finish 3.3001000000000005
Recompute plane | makespan 3.3001000000000005 rejected 3 | hits 18 misses 6 saved 0.30942316457142843
Recompute tenant interactive | p50 0.00010000000000021103 p95 0.01336969561904762 p99 0.016555863492063505
Recompute tenant batch | p50 0.04272865625396825 p95 0.05847883847619048 p99 0.05847883847619048
Recompute tenant updates | p50 0.06164208266666682 p95 0.1229653274920634 p99 0.1229653274920634
";
