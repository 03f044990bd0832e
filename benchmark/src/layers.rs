//! The traced run: one workload with the observer attached and a probe
//! per layer, giving the per-layer ledger and the span trace.
//!
//! Every number is taken from outside: the probes time calls into the
//! crates' public functions, and the only code running inside the program
//! is the [`StampObserver`] callback. End-to-end numbers never come from
//! here — the observer and the spans cost something, which
//! `trace.overhead_frac` reports by pairing every traced pass with an
//! untraced one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mnd::engines::EngineParams;
use mnd_chaos::FaultPlan;
use mnd_device::{ExecDevice, NodePlatform};
use mnd_engine::{Engine, EngineChaos, EngineReport};
use mnd_graph::partition::{edge_imbalance, partition_1d};
use mnd_graph::{CsrGraph, EdgeList};
use mnd_hypar::PhaseKind;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd_kernels::reduce::reduce_holding;
use mnd_kernels::{kruskal_msf, local_boruvka, min_edge_scan, CGraph};
use mnd_mst::{MndMstReport, MndMstRunner};
use mnd_net::{Cluster, Comm, CostModel, Wire};
use mnd_serve::{IncrementalMsf, JobKind};
use mnd_wire::{PackedIds, PackedPairs};

use crate::measure::{probe_child, Outcome, RunArgs};
use crate::metrics::catalogue;
use crate::observer::{phase_index, PhaseTotals, StampObserver};
use crate::reference;
use crate::spans::Trace;
use crate::stats::median;
use crate::workloads::{self, engines_for, Inputs, Oracle, Pass, Size, Workload, NRANKS};

/// Repeats of each kernel-sized probe; the metric is their median.
const PROBE_REPS: usize = 3;

/// State shared by every step of one traced run: the span store, the
/// ledger under construction, and the tally of checked operations.
struct Traced<'a> {
    args: &'a RunArgs,
    trace: Arc<Trace>,
    observer: Arc<StampObserver>,
    ledger: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Traced<'_> {
    fn set(&mut self, metric: &'static str, value: f64) {
        self.ledger.insert(metric, value);
    }

    /// Books operations whose outputs were checked.
    fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// [`probe`] on this run's trace.
    fn probe<I, R>(
        &self,
        parent: u32,
        name: &str,
        prepare: impl FnMut() -> I,
        f: impl FnMut(I) -> R,
    ) -> (R, f64) {
        probe(&self.trace, parent, name, prepare, f)
    }
}

/// Runs `f` `PROBE_REPS` times inside spans named `name` under `parent`;
/// returns the last result and the median seconds. `prepare` builds each
/// repeat's input outside the span.
fn probe<I, R>(
    trace: &Trace,
    parent: u32,
    name: &str,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> R,
) -> (R, f64) {
    let mut secs = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let input = black_box(prepare());
        let (out, s) = trace.time(name, Some(parent), |_| black_box(f(input)));
        secs.push(s);
        last = Some(out);
    }
    (last.expect("PROBE_REPS >= 1"), median(&secs))
}

/// What one observed `mnd-mst` run adds to an [`EngineReport`]: host
/// seconds, the stamped phase totals, and the driver-only report fields.
struct CoreRun {
    wall_s: f64,
    phases: PhaseTotals,
    levels: usize,
    ring_rounds: usize,
    /// Largest holding on any rank, paper-scale bytes.
    peak_holding_bytes: u64,
    comm_frac: f64,
}

/// The figures every engine's report shares.
struct EngineFigures {
    wall_s: f64,
    sim_s: f64,
    sim_comm_s: f64,
    msgs: f64,
    wire_mb: f64,
}

/// Per-engine figures of every run a traced run made, plus the observed
/// detail of the `mnd-mst` ones.
#[derive(Default)]
struct EngineRuns {
    figures: BTreeMap<&'static str, Vec<EngineFigures>>,
    core: Vec<CoreRun>,
}

impl EngineRuns {
    fn book(&mut self, engine: &'static str, wall_s: f64, report: &EngineReport) {
        self.figures.entry(engine).or_default().push(EngineFigures {
            wall_s,
            sim_s: report.total_time,
            sim_comm_s: report.comm_time,
            msgs: report.sum_stat(|s| s.messages_sent) as f64,
            wire_mb: report.sum_stat(|s| s.bytes_sent) as f64 / 1e6,
        });
    }
}

/// The `mnd-mst` engine exactly as `registry` builds it from
/// `EngineParams::new(nranks).with_sim_scale(scale)`, with the stamping
/// observer attached.
fn observed_runner(inputs: &Inputs, observer: &Arc<StampObserver>) -> MndMstRunner {
    let params = EngineParams::new(NRANKS).with_sim_scale(inputs.sim_scale);
    MndMstRunner::new(params.nranks)
        .with_platform(params.platform)
        .with_config(params.hypar.with_observer(observer.clone()))
}

/// Runs `mnd-mst` once under a span with the observer armed for it;
/// returns the observed detail and the report in the engines' common shape
/// (fields moved, not copied).
fn observed_run(
    t: &Traced,
    parent: u32,
    runner: &MndMstRunner,
    el: &EdgeList,
) -> (CoreRun, EngineReport) {
    let span = t.trace.open("run.mnd-mst", Some(parent));
    t.observer.begin_run(span, runner.nranks);
    let start = Instant::now();
    let report: MndMstReport = runner.run(black_box(el));
    let wall_s = start.elapsed().as_secs_f64();
    t.trace.close(span);
    let run = CoreRun {
        wall_s,
        phases: t.observer.end_run(),
        levels: report.levels,
        ring_rounds: report.exchange_rounds,
        peak_holding_bytes: report.max_holding_bytes,
        comm_frac: report.comm_fraction(),
    };
    let report = EngineReport {
        msf: report.msf,
        total_time: report.total_time,
        comm_time: report.comm_time,
        rank_stats: report.rank_stats,
        recovered_units: 0,
    };
    (run, report)
}

/// One pass with the observer attached and a span per engine run (per
/// (rank, phase) below `mnd-mst`'s). `serve-mix` has no hook to attach an
/// observer to; its traced pass is the plane run inside a span.
fn traced_pass(
    t: &Traced,
    root: u32,
    inputs: &Inputs,
    oracle: &Oracle,
    engines: &[Box<dyn Engine>],
    runner: &MndMstRunner,
    core: &mut Vec<CoreRun>,
) -> Pass {
    let span = t.trace.open("pass.traced", Some(root));
    let pass = match inputs.workload {
        Workload::ServeMix => {
            let run = t.trace.time("run.serve-plane", Some(span), |_| {
                workloads::serve_pass(inputs, oracle)
            });
            run.0
        }
        _ => workloads::engine_pass(inputs, oracle, engines, |engine, el| {
            if engine.name() == "mnd-mst" {
                let (run, report) = observed_run(t, span, runner, el);
                core.push(run);
                report
            } else {
                let name = format!("run.{}", engine.name());
                t.trace.time(&name, Some(span), |_| engine.run(el)).0
            }
        }),
    };
    t.trace.close(span);
    pass
}

/// The traced run of one workload: every per-layer metric, and the span
/// trace written to `trace_path`.
pub fn run_traced(args: &RunArgs, trace_path: &std::path::Path) -> Outcome {
    let workload = args.workload;
    let trace = Arc::new(Trace::new(workload.name()));
    let mut t = Traced {
        args,
        observer: StampObserver::new(trace.clone()),
        trace,
        ledger: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let root = t.trace.open(workload.name(), None);

    // Set-up, once: graph.gen and kernels.oracle are its two children.
    let setup = t.trace.open("setup", Some(root));
    let (inputs, gen_s) = t.trace.time("graph.gen", Some(setup), |_| {
        workloads::generate(workload, args.seed, args.size.shrink())
    });
    let (mut oracle, oracle_s) = t.trace.time("kernels.oracle", Some(setup), |_| {
        workloads::oracle(&inputs)
    });
    if args.corrupt_oracle {
        oracle.corrupt();
    }
    t.trace.close(setup);
    t.set("graph.gen_s", gen_s);
    t.set("graph.gen_medges_s", inputs.gen_edges as f64 / 1e6 / gen_s);
    t.set("kernels.oracle_kruskal_s", oracle_s);

    let engines = engines_for(&inputs, NRANKS);
    let runner = observed_runner(&inputs, &t.observer);
    let mut runs = EngineRuns::default();
    let overhead = paired_passes(&mut t, root, &inputs, &oracle, &engines, &runner, &mut runs);
    t.set("trace.overhead_frac", overhead);

    let probes = t.trace.open("probes", Some(root));
    let el: &EdgeList = &inputs.graph;
    off_path_engine_probes(&mut t, probes, el, &oracle, &engines, &runner, &mut runs);
    engine_metrics(&mut t, &runs);
    scaling_probe(&mut t, probes, &inputs, &oracle);
    chaos_probe(&mut t, probes, el, &oracle, &engines);
    graph_probes(&mut t, probes, el);
    kernel_probes(&mut t, probes, el);
    wire_probes(&mut t, probes, el, &oracle);
    net_probes(&mut t, probes);
    device_probe(&mut t, probes, el, inputs.sim_scale);
    serve_probes(&mut t, probes, &inputs, &oracle);
    // Every figure of this ledger is raw host seconds; the reference says
    // how fast the host was while they were taken.
    let reference = reference::for_size(args.size);
    let refs: Vec<f64> = (0..PROBE_REPS)
        .map(|_| t.trace.time("trace.ref", Some(probes), |_| reference()).0)
        .collect();
    t.set("trace.ref_s", median(&refs));
    t.trace.close(probes);
    t.trace.close(root);

    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).expect("create the trace directory");
    }
    std::fs::write(trace_path, t.trace.to_json().to_pretty()).expect("write the trace");

    let metrics: Vec<(&'static str, f64)> = catalogue()
        .per_layer
        .iter()
        .map(|m| match t.ledger.get(m.name.as_str()) {
            Some(v) => (m.name.as_str(), *v),
            None => panic!("traced run did not measure {}", m.name),
        })
        .collect();
    Outcome {
        attempted: t.attempted,
        failed: t.failed,
        correct: t.failed == 0,
        metrics,
        // One value per metric: there is nothing behind them to pool.
        samples: Vec::new(),
    }
}

/// Untraced and traced passes in pairs, after one untimed warm-up; books
/// every engine run and returns `trace.overhead_frac`: median traced pass
/// wall ÷ median untraced pass wall − 1.
fn paired_passes(
    t: &mut Traced,
    root: u32,
    inputs: &Inputs,
    oracle: &Oracle,
    engines: &[Box<dyn Engine>],
    runner: &MndMstRunner,
    runs: &mut EngineRuns,
) -> f64 {
    workloads::pass(inputs, oracle, engines);
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let start = Instant::now();
    // At least two pairs, then until half the budget is spent; the other
    // half belongs to the probes.
    while plain_wall.len() < 2 || start.elapsed().as_secs_f64() < t.args.seconds / 2.0 {
        let untraced = |t: &Traced| {
            let pass = t.trace.time("pass.untraced", Some(root), |_| {
                workloads::pass(inputs, oracle, engines)
            });
            pass.0
        };
        // Alternate which side goes first, so neither always runs on the
        // other's warm caches.
        let (plain, traced) = if plain_wall.len() % 2 == 0 {
            let plain = untraced(t);
            let traced = traced_pass(t, root, inputs, oracle, engines, runner, &mut runs.core);
            (plain, traced)
        } else {
            let traced = traced_pass(t, root, inputs, oracle, engines, runner, &mut runs.core);
            (untraced(t), traced)
        };
        for pass in [&plain, &traced] {
            t.tally(pass.attempted, pass.failed);
            for r in &pass.runs {
                if let Some(report) = &r.report {
                    runs.book(r.engine, r.wall_s, report);
                }
            }
        }
        plain_wall.push(plain.wall_s);
        traced_wall.push(traced.wall_s);
    }
    median(&traced_wall) / median(&plain_wall) - 1.0
}

/// Engines the workload's pass does not run are probed on the workload
/// graph, so their rows exist here — and should not move.
fn off_path_engine_probes(
    t: &mut Traced,
    parent: u32,
    el: &EdgeList,
    oracle: &Oracle,
    engines: &[Box<dyn Engine>],
    runner: &MndMstRunner,
    runs: &mut EngineRuns,
) {
    for engine in engines {
        let name = engine.name();
        if runs.figures.contains_key(name) {
            continue;
        }
        if name == "mnd-mst" {
            for _ in 0..PROBE_REPS {
                let (run, report) = observed_run(t, parent, runner, el);
                t.tally(1, u64::from(report.msf != oracle.graph_msf));
                runs.book(name, run.wall_s, &report);
                runs.core.push(run);
            }
        } else {
            let span = format!("run.{name}");
            let (report, wall_s) = t.trace.time(&span, Some(parent), |_| engine.run(el));
            t.tally(1, u64::from(report.msf != oracle.graph_msf));
            runs.book(name, wall_s, &report);
        }
    }
}

/// `core.*`, the `net.*` counts, `pregel.*` and `spmsf.*` from the booked
/// runs: medians for host time, any run for the simulated figures (they
/// are equal in all of them).
fn engine_metrics(t: &mut Traced, runs: &EngineRuns) {
    let core = |f: &dyn Fn(&CoreRun) -> f64| median(&runs.core.iter().map(f).collect::<Vec<_>>());
    t.set("core.wall_s", core(&|r| r.wall_s));
    const WALL: [&str; 5] = [
        "core.partition_wall_s",
        "core.ind_comp_wall_s",
        "core.merge_parts_wall_s",
        "core.hier_merge_wall_s",
        "core.post_process_wall_s",
    ];
    const SIM: [&str; 5] = [
        "core.partition_sim_s",
        "core.ind_comp_sim_s",
        "core.merge_parts_sim_s",
        "core.hier_merge_sim_s",
        "core.post_process_sim_s",
    ];
    for p in 0..5 {
        t.set(WALL[p], core(&|r| r.phases.wall_s[p]));
        t.set(SIM[p], core(&|r| r.phases.sim_s[p]));
    }
    let ind_comp = phase_index(PhaseKind::IndComp);
    t.set(
        "core.ind_comp_calls",
        core(&|r| r.phases.calls[ind_comp] as f64),
    );
    t.set("core.levels", core(&|r| r.levels as f64));
    t.set("core.ring_rounds", core(&|r| r.ring_rounds as f64));
    t.set(
        "core.peak_holding_mb",
        core(&|r| r.peak_holding_bytes as f64 / 1e6),
    );
    t.set("net.comm_frac", core(&|r| r.comm_frac));

    let mnd = &runs.figures["mnd-mst"][0];
    t.set("core.sim_s", mnd.sim_s);
    t.set("net.msgs", mnd.msgs);
    t.set("net.wire_mb", mnd.wire_mb);
    t.set("net.sim_comm_s", mnd.sim_comm_s);
    for (engine, [wall, sim, msgs, wire]) in [
        (
            "bsp",
            [
                "pregel.wall_s",
                "pregel.sim_s",
                "pregel.msgs",
                "pregel.wire_mb",
            ],
        ),
        (
            "spmsf",
            ["spmsf.wall_s", "spmsf.sim_s", "spmsf.msgs", "spmsf.wire_mb"],
        ),
    ] {
        let figures = &runs.figures[engine];
        let walls: Vec<f64> = figures.iter().map(|r| r.wall_s).collect();
        t.set(wall, median(&walls));
        t.set(sim, figures[0].sim_s);
        t.set(msgs, figures[0].msgs);
        t.set(wire, figures[0].wire_mb);
    }
}

/// `core.sim_scaling_eff_16`: strong scaling on the simulated clock only
/// (16 rank threads on a 2-core host say nothing about wall time).
fn scaling_probe(t: &mut Traced, parent: u32, inputs: &Inputs, oracle: &Oracle) {
    const WIDE: usize = 16;
    let engine = engines_for(inputs, WIDE).swap_remove(0);
    assert_eq!(engine.name(), "mnd-mst", "registry lists mnd-mst first");
    let (report, _) = t.trace.time("run.mnd-mst@16", Some(parent), |_| {
        engine.run(&inputs.graph)
    });
    t.tally(1, u64::from(report.msf != oracle.graph_msf));
    t.set(
        "core.sim_scaling_eff_16",
        (NRANKS as f64 * t.ledger["core.sim_s"]) / (WIDE as f64 * report.total_time),
    );
}

/// `engine.*`: one extra `mnd-mst` run under a plan with a single
/// mid-phase crash, against the fault-free runs. The crash must be seen to
/// fire and the recovered result must still equal the oracle.
fn chaos_probe(
    t: &mut Traced,
    parent: u32,
    el: &EdgeList,
    oracle: &Oracle,
    engines: &[Box<dyn Engine>],
) {
    mnd_net::install_quiet_crash_hook();
    let engine = engines
        .iter()
        .find(|e| e.name() == "mnd-mst")
        .expect("mnd-mst is registered");
    let plan = FaultPlan::new(t.args.seed).with_mid_phase_crash(1, 1, 0);
    let chaos = EngineChaos::from_plan(Arc::new(plan));
    let (report, wall_s) = t.trace.time("run.mnd-mst+crash", Some(parent), |_| {
        engine.run_chaos(el, &chaos)
    });
    let fired = report.recovered_units >= 1;
    t.tally(1, u64::from(!fired || report.msf != oracle.graph_msf));
    t.set(
        "engine.ckpt_writes",
        report.sum_stat(|s| s.checkpoint_writes) as f64,
    );
    t.set(
        "engine.ckpt_mb",
        report.sum_stat(|s| s.checkpoint_bytes) as f64 / 1e6,
    );
    t.set("engine.recovery_wall_s", wall_s - t.ledger["core.wall_s"]);
    t.set(
        "engine.recovery_sim_s",
        report.total_time - t.ledger["core.sim_s"],
    );
}

/// `graph.*` probes on the workload graph.
fn graph_probes(t: &mut Traced, parent: u32, el: &EdgeList) {
    let (csr, s) = t.probe(
        parent,
        "graph.csr_build",
        || (),
        |()| CsrGraph::from_edge_list(el),
    );
    t.set("graph.csr_build_s", s);
    // alpha = 0: the cut the driver's Partition phase makes.
    let (ranges, s) = t.probe(
        parent,
        "graph.partition_1d",
        || (),
        |()| partition_1d(&csr, NRANKS, 0.0),
    );
    t.set("graph.partition_1d_s", s);
    t.set("graph.edge_imbalance", edge_imbalance(&csr, &ranges));
    let (_, s) = t.probe(parent, "graph.fingerprint", || (), |()| el.fingerprint());
    t.set("graph.fingerprint_s", s);
}

/// Whole-graph `local_boruvka` to completion; the median seconds. Shared
/// with the `t1-probe` child.
fn local_boruvka_seconds(trace: &Trace, parent: u32, cg: &CGraph) -> f64 {
    let run = |mut cg: CGraph| {
        let out = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        out.msf_edges.len()
    };
    probe(trace, parent, "kernels.local_boruvka", || cg.clone(), run).1
}

/// Body of the `t1-probe` subcommand: regenerates the workload graph and
/// prints the `local_boruvka` probe's seconds. The parent sets
/// `RAYON_NUM_THREADS=1` on this process.
pub fn t1_probe(args: &RunArgs) {
    let inputs = workloads::generate(args.workload, args.seed, args.size.shrink());
    let trace = Trace::new("t1");
    let root = trace.open("t1", None);
    let cg = CGraph::from_edge_list(&inputs.graph);
    println!("{}", local_boruvka_seconds(&trace, root, &cg));
}

/// `kernels.*` probes on `CGraph::from_edge_list` of the workload graph,
/// policy-free entry points only.
fn kernel_probes(t: &mut Traced, parent: u32, el: &EdgeList) {
    let (cg, s) = t.probe(
        parent,
        "kernels.cgraph_build",
        || (),
        |()| CGraph::from_edge_list(el),
    );
    t.set("kernels.cgraph_build_s", s);
    let s = local_boruvka_seconds(&t.trace, parent, &cg);
    t.set("kernels.local_boruvka_s", s);
    let (_, s) = t.probe(
        parent,
        "kernels.min_edge_scan",
        || (),
        |()| min_edge_scan(&cg).len(),
    );
    t.set("kernels.min_edge_scan_s", s);
    t.set("kernels.scan_mrows_s", cg.num_edges() as f64 / 1e6 / s);
    let (_, s) = t.probe(
        parent,
        "kernels.incident_counts",
        || cg.clone(),
        |mut cg| cg.incident_counts().len(),
    );
    t.set("kernels.incident_counts_s", s);
    let (_, s) = t.probe(
        parent,
        "kernels.reduce_holding",
        || cg.clone(),
        |mut cg| reduce_holding(&mut cg).edges_after,
    );
    t.set("kernels.reduce_holding_s", s);

    // The same boruvka probe on one rayon thread, in a child: a thread
    // pool is sized once per process.
    let (t1, _) = t.trace.time("kernels.local_boruvka_t1", Some(parent), |_| {
        probe_child("t1-probe", t.args, ("RAYON_NUM_THREADS", "1"))
    });
    t.set("kernels.local_boruvka_t1_s", t1);
}

/// `wire.*`: `PackedIds` over the graph's sorted distinct endpoints and
/// `PackedPairs` over the forest's `(u, v)` pairs (the shape of a rename
/// message). Decode is a move in this codec; it is timed as it stands.
fn wire_probes(t: &mut Traced, parent: u32, el: &EdgeList, oracle: &Oracle) {
    let mut used = vec![false; el.num_vertices() as usize];
    for e in el.edges() {
        used[e.u as usize] = true;
        used[e.v as usize] = true;
    }
    let ids: Vec<u32> = (0..el.num_vertices())
        .filter(|v| used[*v as usize])
        .collect();
    let pairs: Vec<(u32, u32)> = oracle.graph_msf.edges.iter().map(|e| (e.u, e.v)).collect();

    let (packed, s) = t.probe(parent, "wire.ids_encode", || ids.clone(), PackedIds::encode);
    t.set("wire.ids_encode_s", s);
    t.set(
        "wire.ids_ratio",
        packed.wire_bytes() as f64 / (4 * ids.len()).max(1) as f64,
    );
    let (_, s) = t.probe(
        parent,
        "wire.ids_decode",
        || packed.clone(),
        |p| p.into_ids().len(),
    );
    t.set("wire.ids_decode_s", s);
    let (packed, s) = t.probe(
        parent,
        "wire.pairs_encode",
        || pairs.clone(),
        PackedPairs::encode,
    );
    t.set("wire.pairs_encode_s", s);
    t.set(
        "wire.pairs_ratio",
        packed.wire_bytes() as f64 / (8 * pairs.len()).max(1) as f64,
    );
}

/// `net.*` probes on a 4-rank fabric with a zero-cost model: what the
/// thread fabric itself costs the host per collective.
fn net_probes(t: &mut Traced, parent: u32) {
    const SMALL_ELEMS: usize = 64;
    const SMALL_CALLS: usize = 2000;
    const LARGE_ELEMS: usize = (1 << 20) / 8;
    const LARGE_CALLS: usize = 8;
    const BARRIERS: usize = 2000;

    // Seconds for `calls` collectives on the slowest rank; spawning the
    // rank threads is outside the stopwatch.
    let timed = |name: &str, calls: usize, body: &(dyn Fn(&Comm) + Sync)| -> f64 {
        let (outcomes, _) = t.trace.time(name, Some(parent), |_| {
            Cluster::new(NRANKS, CostModel::free()).run(|comm| {
                comm.barrier();
                let start = Instant::now();
                for _ in 0..calls {
                    body(comm);
                }
                start.elapsed().as_secs_f64()
            })
        });
        outcomes.iter().map(|o| o.result).fold(0.0, f64::max)
    };
    let alltoallv = |elems: usize| {
        move |comm: &Comm| {
            black_box(comm.alltoallv(vec![vec![comm.rank() as u64; elems]; NRANKS]));
        }
    };
    let small_s = timed("net.alltoallv_small", SMALL_CALLS, &alltoallv(SMALL_ELEMS));
    let large_s = timed("net.alltoallv_large", LARGE_CALLS, &alltoallv(LARGE_ELEMS));
    let barrier_s = timed("net.barrier", BARRIERS, &|comm| comm.barrier());
    let off_rank_mb = (NRANKS * (NRANKS - 1) * LARGE_CALLS) as f64 * (LARGE_ELEMS * 8) as f64 / 1e6;
    t.set("net.alltoallv_small_us", small_s / SMALL_CALLS as f64 * 1e6);
    t.set("net.alltoallv_large_mb_s", off_rank_mb / large_s);
    t.set("net.barrier_us", barrier_s / BARRIERS as f64 * 1e6);
}

/// `device.*`: host seconds against the CPU model's charge for the same
/// `run_ind_comp` call on the whole-graph holding.
fn device_probe(t: &mut Traced, parent: u32, el: &EdgeList, sim_scale: f64) {
    let cg = CGraph::from_edge_list(el);
    let model = NodePlatform::amd_cluster().cpu.scaled(sim_scale);
    let (run, wall_s) = t.probe(
        parent,
        "device.ind_comp",
        || cg.clone(),
        |mut cg| {
            ExecDevice::new(model.clone()).run_ind_comp(
                &mut cg,
                ExcpCond::None,
                FreezePolicy::Sticky,
                StopPolicy::Exhaustive,
            )
        },
    );
    t.set("device.ind_comp_wall_s", wall_s);
    t.set("device.ind_comp_sim_s", run.kernel_time);
    t.set("device.sim_over_wall", run.kernel_time / wall_s);
}

/// `serve.*`: the plane on the whole mix, on its query jobs alone and on
/// its update jobs alone, plus `IncrementalMsf` driven directly with the
/// mix's own mutations. On `serve-mix` the mix is the workload's. An engine
/// workload submits nothing to the plane, but a traced run owes the
/// acceptance contract every per-layer metric as a measured number: there
/// the rows come from the smoke-size mix, cheap and the same in every
/// engine workload's ledger — read `serve.*` on `serve-mix` only.
fn serve_probes(t: &mut Traced, parent: u32, inputs: &Inputs, oracle: &Oracle) {
    let off_path = inputs.serve.is_none().then(|| {
        let shrink = Size::Smoke.shrink();
        let inputs = workloads::generate(Workload::ServeMix, t.args.seed, shrink);
        let oracle = workloads::oracle(&inputs);
        (inputs, oracle)
    });
    let (inputs, oracle) = off_path.as_ref().map_or((inputs, oracle), |(i, o)| (i, o));
    let mix = inputs.serve.as_ref().expect("a serve mix");

    let (whole, _) = t.trace.time("serve.plane", Some(parent), |_| {
        workloads::serve_pass(inputs, oracle)
    });
    t.tally(whole.attempted, whole.failed);
    t.set("serve.plane_wall_s", whole.wall_s);
    for (metric, span, updates) in [
        ("serve.query_wall_s", "serve.queries", false),
        ("serve.update_wall_s", "serve.updates", true),
    ] {
        let jobs = mix.only(updates);
        let ((_, wall_s), _) = t.trace.time(span, Some(parent), |_| {
            workloads::serve_run(mix, jobs, inputs.sim_scale)
        });
        t.set(metric, wall_s);
    }

    let report = whole.serve.as_ref().expect("the serve plane completed");
    let lookups = report.cache.hits + report.cache.misses;
    t.set("serve.jobs_completed", report.completed() as f64);
    t.set("serve.jobs_rejected", report.rejected as f64);
    t.set(
        "serve.cache_hit_ratio",
        report.cache.hits as f64 / lookups.max(1) as f64,
    );
    t.set("serve.sim_p95_interactive_s", report.tenants[0].p95);
    t.set("serve.sim_p95_batch_s", report.tenants[1].p95);
    t.set("serve.sim_p95_updates_s", report.tenants[2].p95);
    let update_exec = report.completions.iter().filter(|c| c.kind == "update");
    t.set(
        "serve.sim_update_exec_s",
        update_exec.map(|c| c.exec_seconds).sum(),
    );
    t.set("serve.utilisation", report.utilisation);

    // IncrementalMsf directly, with the update stream's own mutations.
    let updates = mix.only(true);
    let session = &updates[0].graph;
    let forest = kruskal_msf(session);
    let (mut inc, build_s) = t.trace.time("serve.incr_build", Some(parent), |_| {
        IncrementalMsf::new(session, &forest)
    });
    t.set("serve.incr_build_s", build_s);
    let (mut insert_s, mut delete_s, mut inserted, mut deleted) = (0.0, 0.0, 0usize, 0usize);
    let span = t.trace.open("serve.incr_ops", Some(parent));
    for job in &updates {
        let JobKind::Update { inserts, deletes } = &job.kind else {
            unreachable!("only(true) keeps updates")
        };
        let start = Instant::now();
        for e in inserts {
            inc.insert(e.u, e.v, e.w);
        }
        insert_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        for &(u, v) in deletes {
            inc.delete(u, v);
        }
        delete_s += start.elapsed().as_secs_f64();
        inserted += inserts.len();
        deleted += deletes.len();
    }
    t.trace.close(span);
    t.set(
        "serve.incr_insert_us",
        insert_s / inserted.max(1) as f64 * 1e6,
    );
    t.set(
        "serve.incr_delete_us",
        delete_s / deleted.max(1) as f64 * 1e6,
    );
    t.tally(
        1,
        u64::from(oracle.session_msf.as_ref() != Some(&inc.msf())),
    );
}
