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
            total_time: 5.999905491682536,
            comm_time: 1.5968066441904711,
            bytes_sent: &[60105, 116734, 141199, 108391],
            messages_sent: &[20, 15, 22, 15],
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
            total_time: 19.728600696173743,
            comm_time: 12.443149225607211,
            bytes_sent: &[
                42468, 111017, 123142, 107802, 250577, 110950, 123508, 110674,
            ],
            messages_sent: &[91, 51, 72, 51, 93, 51, 72, 51],
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
            total_time: 0.0051676407301587185,
            comm_time: 0.005014431809523798,
            bytes_sent: &[112542, 86567, 85253],
            messages_sent: &[146, 141, 141],
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
road border-vertex | total 0.23508058336507964 comm 0.20712985142857168 | bytes [23135, 16511, 27178, 15886] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road recheck | total 0.2287700839365082 comm 0.20149330653968275 | bytes [22538, 15948, 26497, 15574] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road exhaustive | total 0.2287700839365082 comm 0.20149330653968275 | bytes [22538, 15948, 26497, 15574] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road eager-stop | total 0.2284259646984129 comm 0.2027501442539684 | bytes [22808, 15912, 26690, 14704] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road recursing | total 0.23449915961904808 comm 0.20567025523809568 | bytes [22592, 15929, 26270, 14688] | msgs [35, 24, 37, 24] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 3
road ring x8 | total 0.35515258565079244 comm 0.3257842097777765 | bytes [41931, 16082, 29463, 15806, 43182, 15870, 28511, 14383] | msgs [58, 36, 48, 36, 60, 36, 48, 36] | levels 1 exchange_rounds 1 max_holding_bytes 46825472 steps 2
road pairs x8 | total 0.3390149561904744 comm 0.32190479403174427 | bytes [35913, 13726, 26063, 13651, 37430, 13810, 24941, 12996] | msgs [79, 47, 64, 47, 81, 47, 64, 47] | levels 3 exchange_rounds 0 max_holding_bytes 19922944 steps 3
scramble border-vertex | total 0.8667039686349205 comm 0.48334631936507894 | bytes [43099, 62932, 83613, 63179] | msgs [17, 12, 19, 12] | levels 1 exchange_rounds 0 max_holding_bytes 415744000 steps 1
scramble recheck | total 0.8202001767619047 comm 0.4426141785396823 | bytes [39580, 57512, 75895, 57771] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 1
scramble exhaustive | total 0.8544879258412699 comm 0.44308567365079343 | bytes [39580, 57512, 75895, 57775] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 1
scramble eager-stop | total 0.8202001767619047 comm 0.4426141785396823 | bytes [39580, 57512, 75895, 57771] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 1
scramble recursing | total 0.8831078719999998 comm 0.4444964769523806 | bytes [39628, 57536, 75943, 57799] | msgs [26, 18, 28, 18] | levels 1 exchange_rounds 0 max_holding_bytes 341344256 steps 2
scramble ring x8 | total 1.0276513869206343 comm 0.6642268487619039 | bytes [96140, 54624, 81408, 54174, 108847, 54431, 81980, 54312] | msgs [44, 22, 34, 22, 46, 22, 34, 22] | levels 1 exchange_rounds 1 max_holding_bytes 452689920 steps 2
scramble pairs x8 | total 1.5248248458412716 comm 1.2628038683174605 | bytes [75754, 38457, 83175, 38356, 126880, 38192, 83905, 38580] | msgs [79, 47, 64, 47, 81, 47, 64, 47] | levels 3 exchange_rounds 0 max_holding_bytes 294502400 steps 3
islands border-vertex | total 0.19603549447619056 comm 0.14607807149206353 | bytes [12119, 14032, 19743, 10522] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 68042752 steps 1
islands recheck | total 0.19326449625396835 comm 0.14555480203174612 | bytes [11780, 13836, 19075, 10452] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 61865984 steps 1
islands exhaustive | total 0.19583648977777787 comm 0.1426823602539683 | bytes [11764, 13836, 19067, 10432] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 61767680 steps 1
islands eager-stop | total 0.18894479225396835 comm 0.14602547365079374 | bytes [11956, 13836, 19163, 10672] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 62947328 steps 1
islands recursing | total 0.21538144800000028 comm 0.1567172232380955 | bytes [11860, 13884, 19163, 10480] | msgs [32, 21, 34, 21] | levels 1 exchange_rounds 0 max_holding_bytes 61767680 steps 3
islands ring x8 | total 0.34161773168254 comm 0.2817781004444449 | bytes [41140, 20712, 30635, 20163, 38456, 15995, 25087, 17204] | msgs [113, 61, 88, 61, 115, 61, 88, 61] | levels 1 exchange_rounds 4 max_holding_bytes 74432512 steps 5
islands pairs x8 | total 0.36474565282539667 comm 0.33543956215872994 | bytes [21596, 9886, 21240, 9785, 30132, 9899, 15982, 6112] | msgs [79, 47, 64, 47, 81, 47, 64, 47] | levels 3 exchange_rounds 0 max_holding_bytes 58032128 steps 3
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
road p3 | total 0.00566091806349204 comm 0.00561003314285712 | bytes [20512, 11216, 9652] | msgs [132, 107, 107] | rounds 5 steps 45
road p4 | total 0.008171366126984082 comm 0.008127024857142812 | bytes [20696, 9284, 18668, 7672] | msgs [172, 147, 173, 147] | rounds 5 steps 45
scramble p3 | total 0.00650797885714282 comm 0.0063633836190475825 | bytes [50272, 36320, 32920] | msgs [150, 122, 122] | rounds 5 steps 51
scramble p4 | total 0.009325619269841228 comm 0.009208722444444406 | bytes [48248, 31128, 42040, 26768] | msgs [196, 168, 197, 168] | rounds 5 steps 51
islands p3 | total 0.005145115555555529 comm 0.005116464761904736 | bytes [12560, 7884, 7828] | msgs [120, 97, 97] | rounds 5 steps 41
islands p4 | total 0.007439500412698372 comm 0.007415559936507896 | bytes [12736, 6872, 9884, 5904] | msgs [156, 133, 157, 133] | rounds 5 steps 41
";

const CHAOS_GOLDEN: &str = "
bsp armed-clean | total 0.011337306222222197 comm 0.010117226730158694 | bytes [65772, 72292, 61068, 75200] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 45432 | ckpt_writes [11, 11, 11, 11] ckpt_bytes [115032, 112272, 113372, 114504] recovered 0
spmsf armed-clean | total 0.010246347333333305 comm 0.00812410606349202 | bytes [20696, 9284, 18668, 7672] | msgs [172, 147, 173, 147] | rounds 5 steps 45 | ckpt_writes [20, 20, 20, 20] ckpt_bytes [155800, 148696, 151732, 148132] recovered 0
bsp crash r2 e3 op11 | total 1.0114431831111221 comm 1.0102231036190588 | bytes [65772, 72292, 61068, 75200] | msgs [201, 178, 202, 178] | supersteps 51 rounds 5 messages 45432 | ckpt_writes [11, 11, 11, 11] ckpt_bytes [115032, 112272, 113372, 114504] recovered 2
spmsf crash r2 e3 op11 | total 1.0103018697777932 comm 1.008179628507952 | bytes [20696, 9284, 18668, 7672] | msgs [172, 147, 173, 147] | rounds 5 steps 45 | ckpt_writes [20, 20, 20, 20] ckpt_bytes [155800, 148696, 151732, 148132] recovered 2
";

const SERVE_GOLDEN: &str = "
Incremental job 0 Backend | start 0.0 finish 0.026096817269841286
Incremental job 18 Backend | start 0.026096817269841286 finish 0.06704587161904764
Incremental job 1 Cache | start 0.06704587161904764 finish 0.07193672876190478
Incremental job 19 Backend | start 0.07193672876190478 finish 0.11191478019047621
Incremental job 2 Backend | start 0.11191478019047621 finish 0.12365414653968256
Incremental job 20 Backend | start 0.12365414653968256 finish 0.16395375111111113
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
Incremental plane | makespan 3.3001000000000005 rejected 3 | hits 18 misses 6 saved 0.34687115504761934
Incremental tenant interactive | p50 0.00010000000000021103 p95 0.02365414653968255 p99 0.026096817269841286
Incremental tenant batch | p50 0.11191478019047621 p95 0.16395375111111113 p99 0.16395375111111113
Incremental tenant updates | p50 0.0005526349206348424 p95 0.057882574222222205 p99 0.057882574222222205
Recompute job 0 Backend | start 0.0 finish 0.026096817269841286
Recompute job 18 Backend | start 0.026096817269841286 finish 0.06704587161904764
Recompute job 1 Cache | start 0.06704587161904764 finish 0.07193672876190478
Recompute job 19 Backend | start 0.07193672876190478 finish 0.11191478019047621
Recompute job 2 Backend | start 0.11191478019047621 finish 0.12365414653968256
Recompute job 20 Backend | start 0.12365414653968256 finish 0.16395375111111113
Recompute job 24 Recompute | start 0.3 finish 0.5578602872380952
Recompute job 3 Cache | start 0.5578602872380952 finish 0.5579602872380952
Recompute job 4 Cache | start 0.5579602872380952 finish 0.5628511443809524
Recompute job 5 Cache | start 0.6 finish 0.6001
Recompute job 25 Recompute | start 0.7 finish 0.829011576
Recompute job 6 Cache | start 1.0 finish 1.0001
Recompute job 7 Cache | start 1.05 finish 1.0548908571428572
Recompute job 8 Cache | start 1.1 finish 1.1001
Recompute job 26 Recompute | start 1.1001 finish 1.229172690920635
Recompute job 9 Cache | start 1.5 finish 1.5001
Recompute job 27 Recompute | start 1.5001 finish 1.6291970718730158
Recompute job 10 Cache | start 1.6291970718730158 finish 1.634087929015873
Recompute job 11 Cache | start 1.634087929015873 finish 1.634187929015873
Recompute job 28 Cache | start 1.7000000000000002 finish 1.7001000000000002
Recompute job 29 Recompute | start 1.9000000000000001 finish 2.0291539607619047
Recompute job 12 Cache | start 2.0291539607619047 finish 2.029253960761905
Recompute job 13 Cache | start 2.05 finish 2.054890857142857
Recompute job 14 Cache | start 2.1 finish 2.1001000000000003
Recompute job 30 Recompute | start 2.3 finish 2.4290686274285713
Recompute job 15 Cache | start 2.5 finish 2.5001
Recompute job 16 Cache | start 2.55 finish 2.554890857142857
Recompute job 17 Cache | start 2.6 finish 2.6001000000000003
Recompute job 31 Recompute | start 2.7 finish 2.8293176382222223
Recompute job 32 Recompute | start 3.1 finish 3.229317215619048
Recompute job 33 Cache | start 3.3000000000000003 finish 3.3001000000000005
Recompute plane | makespan 3.3001000000000005 rejected 3 | hits 18 misses 6 saved 0.6041761092063496
Recompute tenant interactive | p50 0.004890857142857197 p95 0.05796028723809521 p99 0.08408792901587292
Recompute tenant batch | p50 0.11191478019047621 p95 0.16395375111111113 p99 0.16395375111111113
Recompute tenant updates | p50 0.129172690920635 p95 0.25786028723809523 p99 0.25786028723809523
";
