//! The simulated clock is a function of the inputs alone: every charge is
//! computed from row counts, work profiles and wire bytes, never from host
//! time. These goldens pin `MndMstReport::{total_time, comm_time}` and the
//! per-rank traffic of three fixed `mnd-mst` runs, and the same plus the
//! round counters and the recovery bill of 58 `bsp`/`spmsf` runs (second
//! half of the file), so a host-side optimisation (a faster lookup, a
//! different reduction algorithm, a reordered sweep) that silently moves
//! the simulated clock — by changing what is sent, in which chunks, or what
//! is charged — fails here instead of in a benchmark.
//!
//! A deliberate cost-model or algorithm change re-pins them: the failure
//! message prints the observed values in the form the tables below use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mnd::chaos::FaultPlan;
use mnd::device::NodePlatform;
use mnd::engine::EngineChaos;
use mnd::graph::presets::{scramble_ids, Preset};
use mnd::graph::{gen, EdgeList};
use mnd::hypar::observe::{PhaseKind, PhaseObserver, PhaseSample};
use mnd::hypar::{HyParConfig, RecursionThresholdSource};
use mnd::kernels::kruskal_msf;
use mnd::kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd::mst::MndMstRunner;
use mnd::net::RankStats;
use mnd::pregel::framework::BspPartitioning;
use mnd::pregel::{pregel_msf_chaos, BspConfig};
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
            total_time: 9.852512158476186,
            comm_time: 2.2127061909841204,
            bytes_sent: &[61079, 174860, 193192, 154284],
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
            total_time: 23.69274574473364,
            comm_time: 15.199705721185945,
            bytes_sent: &[
                51527, 133027, 150776, 129852, 300717, 136540, 151642, 133224,
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
/// `f64`, so equal lines are equal bits): no tolerance anywhere.
fn check_snapshot(table: &str, observed: &[String], golden: &str) {
    let observed = observed.join("\n");
    let moved: Vec<&str> = observed
        .lines()
        .zip(golden.trim().lines())
        .filter(|(o, g)| o != g)
        .map(|(o, _)| o.split(" | ").next().unwrap_or(o))
        .collect();
    assert!(
        observed == golden.trim(),
        "{table}: the simulated clock moved on {moved:?} (or the run list changed); observed table\n{observed}\n"
    );
}

/// `bsp` in every arm its round loop branches on: both partitionings, the
/// sender-side combiner on and off, LALP mirroring off and at a threshold
/// low enough (4) that hubs, star centres and grid crossings all mirror.
#[test]
fn bsp_round_loop_goldens() {
    let mut observed = Vec::new();
    for (name, el) in round_loop_graphs() {
        for nranks in [3, 4] {
            for partitioning in [BspPartitioning::Hash, BspPartitioning::Range1D] {
                for combine in [true, false] {
                    for mirror_threshold in [None, Some(4)] {
                        let cfg = BspConfig {
                            partitioning,
                            combine,
                            mirror_threshold,
                            ..BspConfig::default()
                        };
                        observed.push(format!(
                            "{name} p{nranks} {partitioning:?} combine={combine} mirror={mirror_threshold:?} | {}",
                            bsp_line(&el, nranks, &cfg, &EngineChaos::none())
                        ));
                    }
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

const MND_MST_GOLDEN: &str = "
road border-vertex | total 0.2383616398730162 comm 0.21041090793650824 | bytes [23611, 16749, 27656, 16122] | msgs [16, 13, 20, 11] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road recheck | total 0.23205114044444475 comm 0.2047743630476193 | bytes [23014, 16186, 26975, 15810] | msgs [16, 13, 20, 11] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road exhaustive | total 0.23205114044444475 comm 0.2047743630476193 | bytes [23014, 16186, 26975, 15810] | msgs [16, 13, 20, 11] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road eager-stop | total 0.23120099022222249 comm 0.205525169777778 | bytes [23284, 16150, 27168, 14940] | msgs [16, 13, 20, 11] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 1
road recursing | total 0.24020920914285762 comm 0.21138030476190522 | bytes [23546, 16405, 27227, 15162] | msgs [29, 20, 34, 18] | levels 1 exchange_rounds 0 max_holding_bytes 37306368 steps 3
road ring x8 | total 0.38854125384126853 comm 0.3591728779682526 | bytes [46450, 17579, 32471, 17303, 47703, 17368, 31520, 15876] | msgs [41, 21, 32, 21, 45, 22, 33, 17] | levels 1 exchange_rounds 1 max_holding_bytes 46825472 steps 2
road pairs x8 | total 0.3786756599365065 comm 0.3615654977777763 | bytes [41937, 15718, 30073, 15643, 43457, 15802, 28950, 14986] | msgs [55, 23, 42, 23, 60, 23, 41, 21] | levels 3 exchange_rounds 0 max_holding_bytes 19922944 steps 3
scramble border-vertex | total 0.9279898810158727 comm 0.5122868349206344 | bytes [43579, 69572, 90773, 69719] | msgs [17, 12, 19, 12] | levels 1 exchange_rounds 0 max_holding_bytes 519864320 steps 1
scramble recheck | total 0.8651534516825394 comm 0.46582939631745973 | bytes [40060, 62612, 81555, 62891] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 421134336 steps 1
scramble exhaustive | total 0.904349899174603 comm 0.46608958984126925 | bytes [40060, 62612, 81555, 62895] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 421134336 steps 1
scramble eager-stop | total 0.8651534516825394 comm 0.46582939631745973 | bytes [40060, 62612, 81555, 62891] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 421134336 steps 1
scramble recursing | total 0.9379591634285709 comm 0.4694827271111102 | bytes [40348, 62756, 81843, 63039] | msgs [26, 18, 28, 18] | levels 1 exchange_rounds 0 max_holding_bytes 421134336 steps 2
scramble ring x8 | total 1.1120297954285712 comm 0.7223988763174599 | bytes [102612, 60624, 89684, 60534, 118591, 60951, 89776, 59876] | msgs [44, 22, 34, 22, 46, 22, 34, 22] | levels 1 exchange_rounds 1 max_holding_bytes 519864320 steps 2
scramble pairs x8 | total 1.6273111972063496 comm 1.3627397092063491 | bytes [81792, 41919, 90336, 42098, 137078, 41874, 90766, 42222] | msgs [69, 33, 53, 33, 71, 33, 53, 33] | levels 3 exchange_rounds 0 max_holding_bytes 328089600 steps 3
islands border-vertex | total 0.20140854184126997 comm 0.14607105536507947 | bytes [12596, 15132, 21142, 10759] | msgs [17, 15, 21, 12] | levels 1 exchange_rounds 0 max_holding_bytes 78118912 steps 1
islands recheck | total 0.1957158198095239 comm 0.14272358590476203 | bytes [12260, 14916, 20455, 10692] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 71778304 steps 1
islands exhaustive | total 0.2011601250793652 comm 0.14272345587301596 | bytes [12244, 14916, 20447, 10672] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 71680000 steps 1
islands eager-stop | total 0.19476675555555573 comm 0.14656489726984143 | bytes [12436, 14916, 20543, 10912] | msgs [20, 15, 22, 15] | levels 1 exchange_rounds 0 max_holding_bytes 72859648 steps 1
islands recursing | total 0.22688319796825435 comm 0.1629364335238099 | bytes [12820, 15204, 21023, 10960] | msgs [32, 21, 34, 21] | levels 1 exchange_rounds 0 max_holding_bytes 71680000 steps 3
islands ring x8 | total 0.2731275075555561 comm 0.23203631771428648 | bytes [29378, 14242, 23129, 14325, 31786, 13729, 19396, 10526] | msgs [43, 21, 33, 21, 45, 21, 36, 17] | levels 1 exchange_rounds 1 max_holding_bytes 78315520 steps 2
islands pairs x8 | total 0.40329534019047625 comm 0.37231509079365077 | bytes [27632, 11986, 25619, 11925, 36448, 12039, 20040, 8102] | msgs [67, 31, 51, 31, 69, 31, 50, 21] | levels 3 exchange_rounds 0 max_holding_bytes 61227008 steps 3
";

const BSP_GOLDEN: &str = "
road p3 Hash combine=true mirror=None | total 0.014023951682539611 comm 0.013932717555555483 | bytes [105176, 106104, 96680] | msgs [246, 173, 174] | supersteps 51 rounds 5 messages 45494
road p3 Hash combine=true mirror=Some(4) | total 0.014014849714285644 comm 0.013923913206349137 | bytes [104576, 105592, 96112] | msgs [246, 173, 174] | supersteps 51 rounds 5 messages 45284
road p3 Hash combine=false mirror=None | total 0.014047613904761839 comm 0.013955617873015807 | bytes [107076, 107904, 99100] | msgs [246, 173, 174] | supersteps 51 rounds 5 messages 46006
road p3 Hash combine=false mirror=Some(4) | total 0.014038511936507871 comm 0.013946813523809458 | bytes [106476, 107392, 98532] | msgs [246, 173, 174] | supersteps 51 rounds 5 messages 45796
road p3 Range1D combine=true mirror=None | total 0.013520876380952316 comm 0.013426733523809454 | bytes [29704, 36912, 20284] | msgs [196, 167, 130] | supersteps 51 rounds 5 messages 45023
road p3 Range1D combine=true mirror=Some(4) | total 0.013510218603174537 comm 0.013416563841269772 | bytes [29704, 36912, 20284] | msgs [196, 167, 130] | supersteps 51 rounds 5 messages 44727
road p3 Range1D combine=false mirror=None | total 0.013557907047618986 comm 0.01346223244444438 | bytes [29844, 37912, 20744] | msgs [196, 167, 130] | supersteps 51 rounds 5 messages 46006
road p3 Range1D combine=false mirror=Some(4) | total 0.013547249269841207 comm 0.013452062761904695 | bytes [29844, 37912, 20744] | msgs [196, 167, 130] | supersteps 51 rounds 5 messages 45710
road p4 Hash combine=true mirror=None | total 0.019633653365079433 comm 0.01957108987301595 | bytes [69036, 73924, 64332, 76832] | msgs [283, 211, 276, 210] | supersteps 51 rounds 5 messages 45432
road p4 Hash combine=true mirror=Some(4) | total 0.019629578444444514 comm 0.019567122095238174 | bytes [69004, 73892, 64324, 76792] | msgs [283, 211, 276, 210] | supersteps 51 rounds 5 messages 45323
road p4 Hash combine=false mirror=None | total 0.019652613841269914 comm 0.01958945907936516 | bytes [70716, 74864, 65672, 78912] | msgs [283, 211, 276, 210] | supersteps 51 rounds 5 messages 46006
road p4 Hash combine=false mirror=Some(4) | total 0.019648538920634992 comm 0.019585491301587384 | bytes [70684, 74832, 65664, 78872] | msgs [283, 211, 276, 210] | supersteps 51 rounds 5 messages 45897
road p4 Range1D combine=true mirror=None | total 0.018672380730158818 comm 0.018600714063492157 | bytes [29040, 30232, 38360, 24860] | msgs [210, 169, 258, 131] | supersteps 51 rounds 5 messages 45050
road p4 Range1D combine=true mirror=Some(4) | total 0.018667050095238183 comm 0.01859572866666676 | bytes [29040, 30224, 38344, 24860] | msgs [210, 169, 258, 131] | supersteps 51 rounds 5 messages 44760
road p4 Range1D combine=false mirror=None | total 0.0187012658095239 comm 0.018628626920635015 | bytes [29580, 30592, 39020, 25700] | msgs [210, 169, 258, 131] | supersteps 51 rounds 5 messages 46006
road p4 Range1D combine=false mirror=Some(4) | total 0.018695935174603266 comm 0.01862364152380962 | bytes [29580, 30584, 39004, 25700] | msgs [210, 169, 258, 131] | supersteps 51 rounds 5 messages 45716
scramble p3 Hash combine=true mirror=None | total 0.015589483206349126 comm 0.015346753047618964 | bytes [138508, 144104, 141400] | msgs [247, 172, 172] | supersteps 51 rounds 5 messages 77836
scramble p3 Hash combine=true mirror=Some(4) | total 0.015048666063491983 comm 0.01482172161904754 | bytes [121196, 126176, 124504] | msgs [247, 172, 172] | supersteps 51 rounds 5 messages 65767
scramble p3 Hash combine=false mirror=None | total 0.015746001301587226 comm 0.015498612412698337 | bytes [150948, 156324, 155360] | msgs [247, 172, 172] | supersteps 51 rounds 5 messages 81116
scramble p3 Hash combine=false mirror=Some(4) | total 0.015205184158730078 comm 0.014973580984126902 | bytes [133636, 138396, 138464] | msgs [247, 172, 172] | supersteps 51 rounds 5 messages 69047
scramble p3 Range1D combine=true mirror=None | total 0.015592754507936459 comm 0.015313901333333286 | bytes [165460, 130032, 129244] | msgs [226, 145, 145] | supersteps 51 rounds 5 messages 77841
scramble p3 Range1D combine=true mirror=Some(4) | total 0.015033453746031697 comm 0.014771505333333285 | bytes [150460, 111520, 109028] | msgs [226, 145, 145] | supersteps 51 rounds 5 messages 65788
scramble p3 Range1D combine=false mirror=None | total 0.015814734349206307 comm 0.015534591492063446 | bytes [167220, 148312, 148724] | msgs [226, 145, 145] | supersteps 51 rounds 5 messages 81116
scramble p3 Range1D combine=false mirror=Some(4) | total 0.015255433587301533 comm 0.014992195492063438 | bytes [152220, 129800, 128508] | msgs [226, 145, 145] | supersteps 51 rounds 5 messages 69063
scramble p4 Hash combine=true mirror=None | total 0.021081120222222315 comm 0.020897953555555647 | bytes [122488, 119044, 146908, 115372] | msgs [288, 213, 291, 214] | supersteps 51 rounds 5 messages 78086
scramble p4 Hash combine=true mirror=Some(4) | total 0.020747771174603257 comm 0.020574560857142942 | bytes [108120, 104780, 132724, 100252] | msgs [288, 213, 291, 214] | supersteps 51 rounds 5 messages 68034
scramble p4 Hash combine=false mirror=None | total 0.021177245746031827 comm 0.020990904476190553 | bytes [132068, 130584, 154668, 126972] | msgs [288, 213, 291, 214] | supersteps 51 rounds 5 messages 81116
scramble p4 Hash combine=false mirror=Some(4) | total 0.020843896698412773 comm 0.02066751177777785 | bytes [117700, 116320, 140484, 111852] | msgs [288, 213, 291, 214] | supersteps 51 rounds 5 messages 71064
scramble p4 Range1D combine=true mirror=None | total 0.02106102774603184 comm 0.020846249968254058 | bytes [163292, 108496, 108052, 104752] | msgs [269, 185, 254, 178] | supersteps 51 rounds 5 messages 78060
scramble p4 Range1D combine=true mirror=Some(4) | total 0.02070978333333342 comm 0.020506453968254054 | bytes [153564, 96248, 95420, 90456] | msgs [269, 185, 254, 178] | supersteps 51 rounds 5 messages 67886
scramble p4 Range1D combine=false mirror=None | total 0.021146139523809615 comm 0.02093095698412707 | bytes [165252, 120156, 121432, 118972] | msgs [269, 185, 254, 178] | supersteps 51 rounds 5 messages 81116
scramble p4 Range1D combine=false mirror=Some(4) | total 0.0207948951111112 comm 0.02059116098412707 | bytes [155524, 107908, 108800, 104676] | msgs [269, 185, 254, 178] | supersteps 51 rounds 5 messages 70942
islands p3 Hash combine=true mirror=None | total 0.011287853206349147 comm 0.011248579396825345 | bytes [34688, 42420, 37180] | msgs [212, 147, 147] | supersteps 45 rounds 5 messages 18236
islands p3 Hash combine=true mirror=Some(4) | total 0.011228151968253912 comm 0.01119064799999995 | bytes [32256, 40004, 34732] | msgs [212, 147, 147] | supersteps 45 rounds 5 messages 16894
islands p3 Hash combine=false mirror=None | total 0.011315388603174542 comm 0.01127588463492058 | bytes [36808, 43080, 38980] | msgs [212, 147, 147] | supersteps 45 rounds 5 messages 18644
islands p3 Hash combine=false mirror=Some(4) | total 0.011255687365079307 comm 0.011217953238095185 | bytes [34376, 40664, 36532] | msgs [212, 147, 147] | supersteps 45 rounds 5 messages 17302
islands p3 Range1D combine=true mirror=None | total 0.010350450190476139 comm 0.010302057333333284 | bytes [30112, 26868, 18588] | msgs [188, 117, 113] | supersteps 45 rounds 5 messages 18201
islands p3 Range1D combine=true mirror=Some(4) | total 0.010286830063492014 comm 0.01024050466666662 | bytes [27472, 24236, 16252] | msgs [188, 117, 113] | supersteps 45 rounds 5 messages 16816
islands p3 Range1D combine=false mirror=None | total 0.010366975587301536 comm 0.010317364476190428 | bytes [30592, 29268, 20028] | msgs [188, 117, 113] | supersteps 45 rounds 5 messages 18644
islands p3 Range1D combine=false mirror=Some(4) | total 0.01030335546031741 comm 0.01025581180952376 | bytes [27952, 26636, 17692] | msgs [188, 117, 113] | supersteps 45 rounds 5 messages 17259
islands p4 Hash combine=true mirror=None | total 0.016386772412698432 comm 0.01635572082539684 | bytes [31048, 40732, 30676, 28752] | msgs [245, 180, 244, 171] | supersteps 45 rounds 5 messages 18276
islands p4 Hash combine=true mirror=Some(4) | total 0.01635328441269843 comm 0.016323395523809535 | bytes [29272, 39116, 28988, 27224] | msgs [245, 180, 244, 171] | supersteps 45 rounds 5 messages 17147
islands p4 Hash combine=false mirror=None | total 0.016397422571428587 comm 0.016365843206349213 | bytes [32028, 41612, 32076, 30112] | msgs [245, 180, 244, 171] | supersteps 45 rounds 5 messages 18644
islands p4 Hash combine=false mirror=Some(4) | total 0.016363934571428592 comm 0.016333517904761917 | bytes [30252, 39996, 30388, 28584] | msgs [245, 180, 244, 171] | supersteps 45 rounds 5 messages 17515
islands p4 Range1D combine=true mirror=None | total 0.015951517174603178 comm 0.01591245765079366 | bytes [31884, 23304, 22912, 11616] | msgs [211, 134, 192, 119] | supersteps 45 rounds 5 messages 18224
islands p4 Range1D combine=true mirror=Some(4) | total 0.015937969841269845 comm 0.01590023968253969 | bytes [29780, 21472, 20912, 10472] | msgs [211, 134, 192, 119] | supersteps 45 rounds 5 messages 17030
islands p4 Range1D combine=false mirror=None | total 0.015961527269841274 comm 0.01592135663492065 | bytes [32304, 25204, 24972, 12176] | msgs [211, 134, 192, 119] | supersteps 45 rounds 5 messages 18644
islands p4 Range1D combine=false mirror=Some(4) | total 0.01594797993650794 comm 0.01590913866666668 | bytes [30200, 23372, 22972, 11032] | msgs [211, 134, 192, 119] | supersteps 45 rounds 5 messages 17450
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
