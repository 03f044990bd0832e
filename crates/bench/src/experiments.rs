//! One function per paper table/figure (and per ablation and sweep). Each
//! returns its finished [`Table`]s, cells formatted where the row is
//! computed; the `repro` binary prints them and writes their CSVs.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mnd::engines::{registry, EngineParams};
use mnd_chaos::FaultPlan;
use mnd_device::{calibrate_split, DeviceModel, NodePlatform};
use mnd_engine::{Engine, EngineChaos, EngineReport};
use mnd_graph::gen::GeoPreset;
use mnd_graph::presets::Preset;
use mnd_graph::stats::graph_stats;
use mnd_graph::types::{VertexId, WEdge, Weight};
use mnd_graph::{CsrGraph, EdgeList};
use mnd_hypar::api::{CALIBRATION_FRAC, CALIBRATION_SAMPLES, CALIBRATION_SEED};
use mnd_hypar::observe::ObserverHook;
use mnd_hypar::runtime::should_recurse;
use mnd_hypar::HyParConfig;
use mnd_kernels::msf::MsfResult;
use mnd_kernels::oracle::kruskal_msf;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd_mst::{MndMstReport, MndMstRunner};
use mnd_net::{RankStats, Tag};
use mnd_pregel::{pregel_msf, BspConfig};
use mnd_serve::{
    EngineBackend, JobKind, JobResult, JobSpec, ServeConfig, ServePlane, ServeReport, TenantSpec,
    UpdateMode,
};

use crate::fmt::{cells, pct, secs, Table};

/// Shared experiment parameters.
#[derive(Clone, Debug)]
pub struct ExpContext {
    /// Scale divisor: stand-ins are `1/scale` of the paper's graphs, and
    /// simulated costs are scaled back up by the same factor.
    pub scale: u64,
    /// Generator seed.
    pub seed: u64,
    /// Seeds the chaos and resilience sweeps repeat over, one block of rows
    /// each (`repro --seed-grid`); empty runs them once, at `seed`.
    pub seed_grid: Vec<u64>,
    /// Cluster size of the experiments that take one (`repro --nodes`).
    pub nodes: usize,
    /// Verify every distributed MSF against the Kruskal oracle (on by
    /// default; the harness refuses to time incorrect runs).
    pub verify: bool,
    /// Optional observer attached to every MND run's config — the
    /// `--trace` plumbing (see [`crate::trace`]). Unset by default.
    pub observer: ObserverHook,
    /// The Kruskal forests verification has computed, shared by clones.
    pub oracles: Oracles,
}

/// Kruskal forests keyed by their graph's content: the experiments run
/// each graph many times, and every check would otherwise sort all of its
/// edges again. A graph's forest is computed on its first check; a later
/// check finds it by comparing the stored graph with the checked one, so
/// it stays exact. Holds the graphs checked last, up to `Oracles::EDGES`
/// edges in all: `repro all` at the default scale checks 21 graphs of
/// 8.1 M edges, so each is sorted once.
#[derive(Clone, Default)]
pub struct Oracles(Arc<Mutex<Vec<Oracle>>>);

/// A checked graph and its forest.
type Oracle = (EdgeList, Arc<MsfResult>);

impl Oracles {
    /// Edges of the graphs kept, in all (12 bytes each).
    const EDGES: usize = 1 << 24;

    /// `el`'s Kruskal forest.
    fn forest(&self, el: &EdgeList) -> Arc<MsfResult> {
        let mut seen = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let entry = match seen.iter().position(|(g, _)| g == el) {
            Some(at) => seen.remove(at),
            None => (el.clone(), Arc::new(kruskal_msf(el))),
        };
        let mut held = entry.0.len() + seen.iter().map(|(g, _)| g.len()).sum::<usize>();
        while held > Self::EDGES && !seen.is_empty() {
            held -= seen.remove(0).0.len();
        }
        let forest = entry.1.clone();
        seen.push(entry);
        forest
    }

    /// Graphs held.
    fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl std::fmt::Debug for Oracles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Oracles({} graphs)", self.len())
    }
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            scale: crate::DEFAULT_SCALE,
            seed: 42,
            seed_grid: Vec::new(),
            nodes: 16,
            verify: true,
            observer: ObserverHook::none(),
            oracles: Oracles::default(),
        }
    }
}

impl ExpContext {
    /// Generates the scaled stand-in for a preset.
    pub fn graph(&self, p: Preset) -> EdgeList {
        p.generate(self.scale, self.seed)
    }

    /// HyPar config carrying the simulation scale (and the context's
    /// observer, when one is attached), running the paper's algorithm: the
    /// level-0 filter is off, so every table reproduces §5 unfiltered.
    pub fn hypar(&self) -> HyParConfig {
        let mut cfg = HyParConfig::default().with_sim_scale(self.scale as f64);
        cfg.observer = self.observer.clone();
        cfg.level0_filter = false;
        cfg
    }

    /// BSP config carrying the simulation scale.
    pub fn bsp(&self) -> BspConfig {
        BspConfig::default().with_sim_scale(self.scale as f64)
    }

    /// The context once per seed of [`ExpContext::seed_grid`] (itself,
    /// without a grid).
    fn per_seed(&self) -> Vec<ExpContext> {
        if self.seed_grid.is_empty() {
            return vec![self.clone()];
        }
        let at = |seed| ExpContext {
            seed,
            ..self.clone()
        };
        self.seed_grid.iter().map(|&seed| at(seed)).collect()
    }

    /// The registry's parameters on `nranks` AMD-cluster nodes at the
    /// context's scale, the D&C engine running [`ExpContext::hypar`].
    fn params(&self, nranks: usize) -> EngineParams {
        let mut params = EngineParams::new(nranks).with_sim_scale(self.scale as f64);
        params.hypar = self.hypar();
        params
    }

    /// Every registered engine on `nranks` nodes (see
    /// [`mnd::engines::registry`]).
    pub fn engines(&self, nranks: usize) -> Vec<Box<dyn Engine>> {
        registry(&self.params(nranks))
    }

    /// The registered engine called `name` on `nranks` nodes.
    pub fn engine(&self, name: &str, nranks: usize) -> Box<dyn Engine> {
        let engine = self.engines(nranks).into_iter().find(|e| e.name() == name);
        engine.unwrap_or_else(|| panic!("no engine {name:?} is registered"))
    }

    /// The paper's algorithm ([`ExpContext::hypar`]) on `nranks`
    /// AMD-cluster nodes.
    pub fn mnd(&self, nranks: usize) -> MndMstRunner {
        MndMstRunner::new(nranks).with_config(self.hypar())
    }

    /// Runs `runner` on `el`, both fault layers armed with `plan` when one
    /// is given, and checks the forest against Kruskal.
    pub fn run_mnd(
        &self,
        runner: &MndMstRunner,
        el: &EdgeList,
        plan: Option<FaultPlan>,
    ) -> MndMstReport {
        let r = runner.run_armed(el, &armed(plan));
        self.check(el, &r.msf, "mnd-mst");
        r
    }

    /// [`ExpContext::run_mnd`] for any engine; an armed run reports its
    /// chaos events to the context's observer.
    pub fn run_engine(
        &self,
        engine: &dyn Engine,
        el: &EdgeList,
        plan: Option<FaultPlan>,
    ) -> EngineReport {
        let mut chaos = armed(plan);
        if chaos.is_armed() {
            chaos = chaos.with_observer(self.observer.clone());
        }
        let r = engine.run_chaos(el, &chaos);
        self.check(el, &r.msf, engine.name());
        r
    }

    /// Asserts that `msf` is `el`'s Kruskal forest, when verifying.
    fn check(&self, el: &EdgeList, msf: &MsfResult, what: &str) {
        if self.verify {
            assert_eq!(msf, &*self.oracles.forest(el), "{what}: result != oracle");
        }
    }
}

/// Both fault layers armed with `plan`, or nothing armed.
fn armed(plan: Option<FaultPlan>) -> EngineChaos {
    plan.map_or_else(EngineChaos::none, |p| EngineChaos::from_plan(Arc::new(p)))
}

/// A per-rank counter or time summed over ranks.
fn sum<T: std::iter::Sum>(stats: &[RankStats], f: impl Fn(&RankStats) -> T) -> T {
    stats.iter().map(f).sum()
}

// --------------------------------------------------------------------- //
// The paper's tables and figures (§5)
// --------------------------------------------------------------------- //

/// The node counts the paper sweeps.
pub const NODE_COUNTS: [usize; 4] = [1, 4, 8, 16];

/// One row per graph of `presets` and node count of [`NODE_COUNTS`]: the
/// graph, the node count, then `cell(graph, nodes)`. With `cray_memory`
/// a node count is skipped where the paper-scale graph (≈ 20 bytes an
/// edge) does not fit in the Cray nodes' memory, as the paper "could not
/// accommodate the last two graphs in a single node".
fn node_sweep(
    ctx: &ExpContext,
    presets: &[Preset],
    cray_memory: bool,
    mut cell: impl FnMut(&EdgeList, usize) -> Vec<String>,
) -> Vec<Vec<String>> {
    let mem = NodePlatform::cray_xc40(false).cpu.mem_bytes;
    let mut rows = Vec::new();
    for &p in presets {
        let el = ctx.graph(p);
        let paper_bytes = el.len() as u64 * 20 * ctx.scale;
        for nodes in NODE_COUNTS {
            if cray_memory && paper_bytes / nodes as u64 > mem {
                continue;
            }
            let mut row = cells![p.name(), nodes];
            row.extend(cell(&el, nodes));
            rows.push(row);
        }
    }
    rows
}

/// The paper's algorithm on `nodes` Cray nodes, with their GPUs if `gpu`.
fn cray_run(ctx: &ExpContext, el: &EdgeList, nodes: usize, gpu: bool) -> MndMstReport {
    let runner = ctx.mnd(nodes).with_platform(NodePlatform::cray_xc40(gpu));
    ctx.run_mnd(&runner, el, None)
}

/// Table 2: the scaled stand-ins' graph specifications.
pub fn table2(ctx: &ExpContext) -> Vec<Table> {
    let rows = Preset::ALL.iter().map(|&p| {
        let s = graph_stats(&CsrGraph::from_edge_list(&ctx.graph(p)), 2, ctx.seed);
        cells![
            p.name(),
            s.num_vertices,
            s.num_edges,
            format!("{:.2}", s.avg_degree),
            s.max_degree,
            s.approx_diameter,
            format!("{:.2}", p.paper_row().avg_degree),
        ]
    });
    vec![Table::new(
        "table2",
        "Table 2: graph stand-ins (scaled 1/N of the paper's graphs)",
        &[
            "graph",
            "|V|",
            "|E|",
            "avg deg",
            "max deg",
            "diam",
            "paper avg deg",
        ],
        rows.collect(),
    )]
}

/// Table 3: Pregel+ vs MND-MST on `ctx.nodes` (paper: 16) AMD nodes, with
/// MND-MST's improvement (paper: 24–88 %) and communication reduction
/// (paper: 40–92 %).
pub fn table3(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.nodes;
    let rows = Preset::ALL.iter().map(|&p| {
        let el = ctx.graph(p);
        let bsp = ctx.run_engine(&*ctx.engine("bsp", n), &el, None);
        let mnd = ctx.run_mnd(&ctx.mnd(n), &el, None);
        cells![
            p.name(),
            secs(bsp.total_time),
            secs(bsp.comm_time),
            secs(mnd.total_time),
            secs(mnd.comm_time),
            pct(1.0 - mnd.total_time / bsp.total_time),
            pct(1.0 - mnd.comm_time / bsp.comm_time),
        ]
    });
    vec![Table::new(
        "table3",
        format!("Table 3: Pregel+ vs MND-MST ({n} nodes, CPU only)"),
        &[
            "graph",
            "Pregel+ exe",
            "Pregel+ comm",
            "MND exe",
            "MND comm",
            "improv",
            "comm red",
        ],
        rows.collect(),
    )]
}

/// The graphs of Table 4 and Figures 4–5.
const SCALING_GRAPHS: [Preset; 2] = [Preset::Arabic2005, Preset::It2004];

/// Table 4: MND-MST at 1/4/8/16 AMD nodes on arabic-2005 and it-2004.
pub fn table4(ctx: &ExpContext) -> Vec<Table> {
    let rows = node_sweep(ctx, &SCALING_GRAPHS, false, |el, n| {
        cells![secs(ctx.run_mnd(&ctx.mnd(n), el, None).total_time)]
    });
    vec![Table::new(
        "table4",
        "Table 4: MND-MST with increasing node counts (AMD cluster)",
        &["graph", "nodes", "exe time"],
        rows,
    )]
}

/// Figure 4: Table 4's runs next to Pregel+'s.
pub fn fig4(ctx: &ExpContext) -> Vec<Table> {
    let rows = node_sweep(ctx, &SCALING_GRAPHS, false, |el, n| {
        let mnd = ctx.run_mnd(&ctx.mnd(n), el, None);
        let bsp = ctx.run_engine(&*ctx.engine("bsp", n), el, None);
        cells![secs(bsp.total_time), secs(mnd.total_time)]
    });
    vec![Table::new(
        "fig4",
        "Figure 4: inter-node scalability, Pregel+ vs MND-MST",
        &["graph", "nodes", "Pregel+ exe", "MND exe"],
        rows,
    )]
}

/// Figure 5: each system's computation and communication time (max over
/// ranks) at 4/8/16 AMD nodes.
pub fn fig5(ctx: &ExpContext) -> Vec<Table> {
    let split = |graph: &str, nodes: usize, system: &str, stats: &[RankStats], comm: f64| {
        let comp = stats.iter().map(|s| s.compute_time).fold(0.0, f64::max);
        let frac = if comp + comm == 0.0 {
            0.0
        } else {
            comm / (comp + comm)
        };
        cells![graph, nodes, system, secs(comp), secs(comm), pct(frac)]
    };
    let mut rows = Vec::new();
    for p in SCALING_GRAPHS {
        let el = ctx.graph(p);
        for nodes in [4usize, 8, 16] {
            let bsp = ctx.run_engine(&*ctx.engine("bsp", nodes), &el, None);
            rows.push(split(
                p.name(),
                nodes,
                "pregel+",
                &bsp.rank_stats,
                bsp.comm_time,
            ));
            let mnd = ctx.run_mnd(&ctx.mnd(nodes), &el, None);
            rows.push(split(
                p.name(),
                nodes,
                "mnd-mst",
                &mnd.rank_stats,
                mnd.comm_time,
            ));
        }
    }
    vec![Table::new(
        "fig5",
        "Figure 5: computation vs communication",
        &["graph", "nodes", "system", "comp", "comm", "comm frac"],
        rows,
    )]
}

/// Figure 6: CPU-only MND-MST on all six graphs at 1/4/8/16 Cray nodes.
pub fn fig6(ctx: &ExpContext) -> Vec<Table> {
    let rows = node_sweep(ctx, &Preset::ALL, true, |el, n| {
        cells![secs(cray_run(ctx, el, n, false).total_time)]
    });
    vec![Table::new(
        "fig6",
        "Figure 6: CPU-only MND-MST scalability (Cray)",
        &["graph", "nodes", "exe time"],
        rows,
    )]
}

/// Figure 7: phase times (max over ranks) for the paper's three featured
/// graphs, road_usa, gsh-2015-tpd and uk-2007.
pub fn fig7(ctx: &ExpContext) -> Vec<Table> {
    let graphs = [Preset::RoadUsa, Preset::Gsh2015Tpd, Preset::Uk2007];
    let rows = node_sweep(ctx, &graphs, true, |el, n| {
        let pm = cray_run(ctx, el, n, false).phase_max();
        let times = [pm.ind_comp, pm.merge, pm.post_process, pm.comm];
        times.map(secs).to_vec()
    });
    vec![Table::new(
        "fig7",
        "Figure 7: execution time per phase (Cray, CPU only)",
        &["graph", "nodes", "indComp", "merge", "postProcess", "comm"],
        rows,
    )]
}

/// Figure 8: CPU-only vs CPU+GPU on it-2004, sk-2005 and uk-2007 (Cray),
/// with the GPU's benefit (paper: up to 23 %, 9 % on average).
pub fn fig8(ctx: &ExpContext) -> Vec<Table> {
    let graphs = [Preset::It2004, Preset::Sk2005, Preset::Uk2007];
    let rows = node_sweep(ctx, &graphs, true, |el, n| {
        let cpu = cray_run(ctx, el, n, false).total_time;
        let gpu = cray_run(ctx, el, n, true).total_time;
        cells![secs(cpu), secs(gpu), pct(1.0 - gpu / cpu)]
    });
    vec![Table::new(
        "fig8",
        "Figure 8: MND-MST CPU-only vs CPU-GPU (Cray)",
        &["graph", "nodes", "CPU-only", "CPU+GPU", "GPU benefit"],
        rows,
    )]
}

/// §4.3.1 calibration: the sampled CPU/GPU split per graph.
pub fn calibration(ctx: &ExpContext) -> Vec<Table> {
    let plat = NodePlatform::cray_xc40(true);
    let scale = ctx.scale as f64;
    let cpu = plat.cpu.clone().scaled(scale);
    let gpu = plat.gpu.clone().expect("cray gpu").scaled(scale);
    let rows = Preset::ALL.iter().map(|&p| {
        let g = CsrGraph::from_edge_list(&ctx.graph(p));
        let split = calibrate_split(
            &g,
            &cpu,
            &gpu,
            CALIBRATION_SAMPLES,
            CALIBRATION_FRAC,
            CALIBRATION_SEED,
        );
        cells![
            p.name(),
            format!("{:.2}x", split.gpu_speedup),
            format!("{:.2}", split.cpu_fraction),
            split.memory_limited,
        ]
    });
    vec![Table::new(
        "calibration",
        "Calibration (§4.3.1): CPU/GPU split per graph",
        &["graph", "gpu speedup", "cpu fraction", "memory limited"],
        rows.collect(),
    )]
}

// --------------------------------------------------------------------- //
// Ablations: one variant per row, on arabic-2005 at `ctx.nodes` AMD nodes
// --------------------------------------------------------------------- //

/// An ablation's table: one `[variant, exe, comm, rounds]` row per variant.
fn ablation(name: &'static str, rows: Vec<Vec<String>>) -> Vec<Table> {
    let header = ["variant", "exe", "comm", "rounds"];
    vec![Table::new(name, format!("Ablation: {name}"), &header, rows)]
}

/// An ablation row of one MND-MST run.
fn variant(label: impl ToString, r: &MndMstReport) -> Vec<String> {
    let (exe, comm) = (secs(r.total_time), secs(r.comm_time));
    cells![label, exe, comm, r.exchange_rounds]
}

/// An ablation row of the paper's algorithm with `cfg` on `el`.
fn cfg_variant(ctx: &ExpContext, el: &EdgeList, label: &str, cfg: HyParConfig) -> Vec<String> {
    variant(
        label,
        &ctx.run_mnd(&ctx.mnd(ctx.nodes).with_config(cfg), el, None),
    )
}

/// §3.4 group-size study (the paper tried 2/4/8/16 and chose 4).
pub fn ablation_group(ctx: &ExpContext) -> Vec<Table> {
    let el = ctx.graph(Preset::Arabic2005);
    let rows = [2usize, 4, 8, 16].map(|group_size| {
        let cfg = HyParConfig {
            group_size,
            ..ctx.hypar()
        };
        cfg_variant(ctx, &el, &format!("group_size={group_size}"), cfg)
    });
    ablation("ablation-group", rows.into())
}

/// §4.1.2 exception-condition study: border-edge vs border-vertex, sticky
/// vs recheck freezing.
pub fn ablation_excp(ctx: &ExpContext) -> Vec<Table> {
    let el = ctx.graph(Preset::Arabic2005);
    let rows = [
        (
            "border-edge/sticky",
            ExcpCond::BorderEdge,
            FreezePolicy::Sticky,
        ),
        (
            "border-edge/recheck",
            ExcpCond::BorderEdge,
            FreezePolicy::Recheck,
        ),
        (
            "border-vertex/sticky",
            ExcpCond::BorderVertex,
            FreezePolicy::Sticky,
        ),
    ]
    .map(|(label, excp, freeze)| {
        let cfg = HyParConfig {
            excp,
            freeze,
            ..ctx.hypar()
        };
        cfg_variant(ctx, &el, label, cfg)
    });
    ablation("ablation-excp", rows.into())
}

/// §4.3.2/§4.3.3 runtime-threshold study: diminishing-benefit stop on/off
/// and recursion on/off, plus the BSP baseline's own optimisation toggles.
pub fn ablation_thresh(ctx: &ExpContext) -> Vec<Table> {
    let el = ctx.graph(Preset::Arabic2005);
    let mut rows = Vec::new();
    let diminishing = StopPolicy::DiminishingBenefit {
        min_improvement: 0.05,
    };
    for (label, stop) in [
        ("stop=diminishing(5%)", diminishing),
        ("stop=exhaustive", StopPolicy::Exhaustive),
    ] {
        let cfg = HyParConfig {
            stop,
            ..ctx.hypar()
        };
        rows.push(cfg_variant(ctx, &el, label, cfg));
    }
    for (label, recursion_edge_threshold) in [
        ("recursion=on (100M edges, §4.3.3)", 100_000_000u64),
        ("recursion=off", u64::MAX),
        ("recursion=always", 1),
    ] {
        let cfg = HyParConfig {
            recursion_edge_threshold,
            ..ctx.hypar()
        };
        rows.push(cfg_variant(ctx, &el, label, cfg));
    }
    for (label, combine, mirror_threshold) in [
        ("bsp full (combine+mirror)", true, Some(128)),
        ("bsp no-mirror", true, None),
        ("bsp no-combine", false, Some(128)),
    ] {
        let cfg = BspConfig {
            combine,
            mirror_threshold,
            ..ctx.bsp()
        };
        // The superstep count is the BSP report's own, so this arm runs
        // the baseline directly.
        let r = pregel_msf(&el, ctx.nodes, &NodePlatform::amd_cluster(), &cfg);
        ctx.check(&el, &r.msf, label);
        let (exe, comm) = (secs(r.total_time), secs(r.comm_time));
        rows.push(cells![label, exe, comm, r.supersteps]);
    }
    ablation("ablation-thresh", rows)
}

/// Weight-distribution robustness: does the MND-MST vs BSP comparison
/// (and correctness) survive skewed, tied, and degree-correlated weights?
/// The paper assigns unspecified "random weights"; this shows the choice
/// does not drive the result.
pub fn ablation_weights(ctx: &ExpContext) -> Vec<Table> {
    use mnd_graph::weights::{assign_weights, ALL_DISTRIBUTIONS};
    let base = ctx.graph(Preset::Arabic2005);
    let rows = ALL_DISTRIBUTIONS.iter().map(|&(name, dist)| {
        let mut el = base.clone();
        assign_weights(&mut el, dist, ctx.seed);
        let mnd = ctx.run_mnd(&ctx.mnd(ctx.nodes), &el, None);
        let bsp = ctx.run_engine(&*ctx.engine("bsp", ctx.nodes), &el, None);
        let faster = 100.0 * (1.0 - mnd.total_time / bsp.total_time);
        variant(format!("{name} (vs BSP: {faster:.0}% faster)"), &mnd)
    });
    ablation("ablation-weights", rows.collect())
}

/// §3.1 locality ablation: the same graph with (a) its natural vertex
/// order, (b) scrambled ids (locality destroyed), and (c) scrambled then
/// BFS-relabelled (locality partially restored). Demonstrates *causally*
/// that MND-MST's advantage rides on 1D locality, the paper's premise for
/// contiguous partitioning.
pub fn ablation_locality(ctx: &ExpContext) -> Vec<Table> {
    use mnd_graph::presets::scramble_ids;
    use mnd_graph::transform::bfs_relabel;
    let n = ctx.nodes;
    let base = ctx.graph(Preset::Arabic2005);
    let scrambled = scramble_ids(&base, ctx.seed ^ 0xBEEF);
    let restored = bfs_relabel(&scrambled);
    let rows = [
        ("natural order", &base),
        ("scrambled ids", &scrambled),
        ("bfs-relabelled", &restored),
    ]
    .map(|(name, el)| {
        let cut = 100.0 * mnd_graph::gen::cut_fraction(el, n as u32);
        let r = ctx.run_mnd(&ctx.mnd(n), el, None);
        variant(format!("{name} (cut@{n}: {cut:.0}%)"), &r)
    });
    ablation("ablation-locality", rows.into())
}

/// Interconnect sensitivity: the same MND-MST run over Ethernet, Aries,
/// and a 10x-degraded network — how much of the divide-and-conquer win
/// survives a slow fabric (all of it should: the design minimises rounds).
pub fn ablation_network(ctx: &ExpContext) -> Vec<Table> {
    use mnd_net::CostModel;
    let el = ctx.graph(Preset::Arabic2005);
    let slow = CostModel {
        latency: 500e-6,
        bandwidth: 0.1e9,
        overhead: 50e-6,
        byte_scale: 1.0,
    };
    let rows = [
        (
            "gigabit ethernet (AMD cluster)",
            CostModel::default_cluster(),
        ),
        ("cray aries", CostModel::cray_aries()),
        ("10x degraded network", slow),
    ]
    .map(|(label, network)| {
        let mut platform = NodePlatform::amd_cluster();
        platform.network = network;
        let runner = ctx.mnd(ctx.nodes).with_platform(platform);
        variant(label, &ctx.run_mnd(&runner, &el, None))
    });
    ablation("ablation-network", rows.into())
}

// --------------------------------------------------------------------- //
// Chaos, resilience and checkpoint cadence (DESIGN.md §5f/§5g/§6)
// --------------------------------------------------------------------- //

/// The chaos sweep: the same run under increasingly hostile fault plans,
/// reporting recovery overhead over the fault-free baseline, once per
/// seed. Every run — drops, delays, duplicates, a boundary crash, a
/// mid-phase crash replayed from the previous checkpoint, a dead merge
/// leader — still produces the oracle MSF.
pub fn chaos(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.nodes;
    let crash_rank = 1 % n;
    let mut rows = Vec::new();
    for ctx in ctx.per_seed() {
        let el = ctx.graph(Preset::RoadUsa);
        let base = ctx.run_mnd(&ctx.mnd(n), &el, None);
        let plan = || FaultPlan::new(ctx.seed);
        let plans = [
            ("fault-free (chaos armed)", plan()),
            ("drop 1%", plan().with_drop_rate(0.01)),
            ("drop 10%", plan().with_drop_rate(0.10)),
            ("delay 20% <=1ms", plan().with_delay(0.2, 1e-3)),
            (
                "dup+reorder 5%",
                plan().with_duplicates(0.05).with_reorder(0.05),
            ),
            (
                "crash+restart, drop 1%",
                plan().with_drop_rate(0.01).with_crash(crash_rank, 1),
            ),
            (
                "mid-phase crash @indComp",
                plan().with_mid_phase_crash(crash_rank, 1, 3),
            ),
            (
                "dead leader @L1, drop 1%",
                plan().with_drop_rate(0.01).with_dead_leader(0, 1),
            ),
        ];
        let mut row = |label: &str, r: &MndMstReport| {
            let s = &r.rank_stats;
            rows.push(cells![
                ctx.seed,
                label,
                secs(r.total_time),
                pct(r.total_time / base.total_time - 1.0),
                sum(s, |s| s.retries),
                sum(s, |s| s.redeliveries),
                sum(s, |s| s.checkpoint_restores),
                secs(sum(s, |s| s.stall_time)),
                secs(sum(s, |s| s.replayed_compute)),
                sum(s, |s| s.replayed_in_bytes),
            ]);
        };
        row("no fault plane", &base);
        for (label, plan) in plans {
            row(label, &ctx.run_mnd(&ctx.mnd(n), &el, Some(plan)));
        }
    }
    vec![Table::new(
        "chaos",
        format!("Chaos: fault-plane overhead sweep ({n} nodes, oracle-verified)"),
        &[
            "seed",
            "fault plan",
            "exe",
            "overhead",
            "retries",
            "redeliveries",
            "restores",
            "stall",
            "replayed comp",
            "replayed bytes",
        ],
        rows,
    )]
}

/// The resilience comparison (DESIGN.md §5g/§6): every registered engine
/// runs the same graph under the *same* fault plans, once per seed — the
/// apples-to-apples counterpart of the performance comparison, measuring
/// what a fault costs each execution model. Every run must produce the
/// oracle MSF, and because suppressed re-sends and replayed receives
/// bypass the fabric counters, each faulted run's logical traffic must
/// equal its engine's chaos-armed fault-free run on every rank (asserted
/// when `ctx.verify`).
pub fn resilience(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.nodes;
    let traffic = |stats: &[RankStats]| -> Vec<[u64; 4]> {
        let logical = |s: &RankStats| {
            [
                s.bytes_sent,
                s.messages_sent,
                s.bytes_received,
                s.messages_received,
            ]
        };
        stats.iter().map(logical).collect()
    };
    let mut rows = Vec::new();
    for ctx in ctx.per_seed() {
        let el = ctx.graph(Preset::RoadUsa);
        for engine in ctx.engines(n) {
            let name = engine.name();
            let base = ctx.run_engine(&*engine, &el, None);
            // Logical-traffic baseline: the chaos-*armed* fault-free run
            // (the first plan). Arming the plane adds a little real
            // coordination traffic at recovery points, so the byte-match
            // contract is against the armed run — faults and recovery on
            // top of it must add nothing.
            let mut armed_traffic = None;
            for (label, plan) in [
                ("fault-free (chaos armed)", FaultPlan::new(ctx.seed)),
                ("drop 2%", FaultPlan::new(ctx.seed).with_drop_rate(0.02)),
                (
                    "dup+reorder 5%",
                    FaultPlan::new(ctx.seed)
                        .with_duplicates(0.05)
                        .with_reorder(0.05),
                ),
                (
                    "mid-phase crash @epoch 1",
                    FaultPlan::new(ctx.seed).with_mid_phase_crash(1 % n, 1, 3),
                ),
            ] {
                let r = ctx.run_engine(&*engine, &el, Some(plan));
                let armed = armed_traffic.get_or_insert_with(|| traffic(&r.rank_stats));
                if ctx.verify {
                    assert_eq!(
                        &traffic(&r.rank_stats),
                        armed,
                        "{name} under '{label}': logical traffic diverged from fault-free"
                    );
                }
                let s = &r.rank_stats;
                rows.push(cells![
                    ctx.seed,
                    name,
                    label,
                    secs(r.total_time),
                    secs(r.total_time - base.total_time),
                    pct(r.total_time / base.total_time - 1.0),
                    r.sum_stat(|s| s.checkpoint_restores),
                    secs(sum(s, |s| s.stall_time)),
                    secs(sum(s, |s| s.replayed_compute)),
                    r.sum_stat(|s| s.replayed_in_bytes),
                    r.recovered_units,
                ]);
            }
        }
    }
    vec![Table::new(
        "resilience",
        format!(
            "Resilience: every registered engine under the same fault plans ({n} nodes, oracle-verified)"
        ),
        &[
            "seed",
            "engine",
            "fault plan",
            "exe",
            "recovery",
            "overhead",
            "restores",
            "stall",
            "replayed comp",
            "replayed bytes",
            "reexec",
        ],
        rows,
    )]
}

/// The checkpoint-cadence sweep: every registered engine, chaos-armed, at
/// increasing checkpoint intervals — fault-free (isolating checkpoint
/// overhead) and under the same mid-phase crash (measuring how much
/// re-execution a sparser cadence buys back). `restores` reads 0 where the
/// plan's crash window never opened at that cadence.
pub fn checkpoint_sweep(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.nodes;
    let el = ctx.graph(Preset::RoadUsa);
    let mut rows = Vec::new();
    for interval in [1u64, 2, 4, 8] {
        for engine in registry(&ctx.params(n).with_checkpoint_interval(interval)) {
            let clean = ctx.run_engine(&*engine, &el, Some(FaultPlan::new(ctx.seed)));
            let crash = FaultPlan::new(ctx.seed).with_mid_phase_crash(1 % n, 1, 3);
            let crash = ctx.run_engine(&*engine, &el, Some(crash));
            rows.push(cells![
                engine.name(),
                interval,
                secs(clean.total_time),
                clean.sum_stat(|s| s.checkpoint_writes),
                clean.sum_stat(|s| s.checkpoint_bytes),
                secs(crash.total_time),
                secs(crash.total_time - clean.total_time),
                crash.sum_stat(|s| s.checkpoint_restores),
                crash.recovered_units,
                secs(sum(&crash.rank_stats, |s| s.replayed_compute)),
            ]);
        }
    }
    vec![Table::new(
        "checkpoint_sweep",
        format!(
            "Checkpoint sweep: overhead vs recovery cost per cadence ({n} nodes, oracle-verified)"
        ),
        &[
            "engine",
            "interval",
            "clean exe",
            "writes",
            "ckpt bytes",
            "crash exe",
            "recovery",
            "restores",
            "reexec",
            "replayed comp",
        ],
        rows,
    )]
}

/// Every registered engine with its one-line description.
pub fn engine_list(ctx: &ExpContext) -> Vec<Table> {
    let engines = ctx.engines(ctx.nodes);
    let rows = engines.iter().map(|e| cells![e.name(), e.description()]);
    vec![Table::new(
        "engines",
        "Registered engines (mnd::engines::registry)",
        &["engine", "description"],
        rows.collect(),
    )]
}

// --------------------------------------------------------------------- //
// Traffic and the communication sweep (DESIGN.md §8)
// --------------------------------------------------------------------- //

/// Labels a tag for the traffic table: collectives by name, plus the
/// driver's two user tags (ring segments / leader merges).
fn tag_label(tag: Tag) -> String {
    match tag.name().as_str() {
        "user(1)" => "segments (user 1)".into(),
        "user(2)" => "leader merge (user 2)".into(),
        other => other.into(),
    }
}

/// Per-tag traffic of one MND run under a lightly faulty fabric (2% drop,
/// 2% duplicates — so the retry/redelivery columns are exercised), summed
/// over ranks and sorted by bytes sent.
pub fn traffic(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.nodes;
    let el = ctx.graph(Preset::RoadUsa);
    let plan = FaultPlan::new(ctx.seed)
        .with_drop_rate(0.02)
        .with_duplicates(0.02);
    // Force real ring exchanges even on scaled-down graphs: the per-tag
    // table should cover the segment tag, not just the leader merge.
    let cfg = HyParConfig {
        group_edge_threshold: 1,
        ..ctx.hypar()
    };
    let r = ctx.run_mnd(&ctx.mnd(n).with_config(cfg), &el, Some(plan));
    let mut by_tag: BTreeMap<Tag, [u64; 4]> = BTreeMap::new();
    for (tag, t) in r.rank_stats.iter().flat_map(|s| &s.by_tag) {
        let sums = by_tag.entry(*tag).or_default();
        let counts = [t.bytes_sent, t.messages_sent, t.retries, t.redeliveries];
        for (sum, count) in sums.iter_mut().zip(counts) {
            *sum += count;
        }
    }
    let mut by_tag: Vec<_> = by_tag.into_iter().collect();
    by_tag.sort_by_key(|(_, sums)| Reverse(sums[0]));
    let rows = by_tag
        .into_iter()
        .map(|(tag, [bytes, msgs, retries, dups])| {
            cells![tag_label(tag), bytes, msgs, retries, dups]
        });
    vec![Table::new(
        "traffic",
        format!("Per-tag traffic ({n} nodes, 2% drop + 2% duplicates)"),
        &["tag", "bytes sent", "messages", "retries", "redeliveries"],
        rows.collect(),
    )]
}

/// The communication-engineering sweep: the same skewed web-crawl runs
/// without and with the level-0 filter (the library default the
/// paper-algorithm context turns off) — plus the filtered stack under a
/// hostile fault plan (drops and a mid-phase crash replayed from
/// checkpoint). Every run ships packed relabels over the dense exchange
/// schedule and is verified against the Kruskal oracle, so the table shows
/// the bytes/messages the filter sheds at **unchanged** output.
pub fn comm_sweep(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.nodes;
    let filtered = HyParConfig {
        level0_filter: true,
        ..ctx.hypar()
    };
    let mut rows = Vec::new();
    for preset in [Preset::Gsh2015Tpd, Preset::Sk2005] {
        let el = ctx.graph(preset);
        // The full stack must survive chaos with the oracle MSF intact:
        // drops force retries over the exchange schedule and a mid-phase
        // crash replays an exchange from the checkpointed replay log.
        let hostile = FaultPlan::new(ctx.seed)
            .with_drop_rate(0.01)
            .with_mid_phase_crash(1 % n, 1, 3);
        for (label, cfg, plan) in [
            ("dense+pack", ctx.hypar(), None),
            ("dense+pack+filter", filtered.clone(), None),
            ("dense+pack+filter chaos", filtered.clone(), Some(hostile)),
        ] {
            let r = ctx.run_mnd(&ctx.mnd(n).with_config(cfg), &el, plan);
            let s = &r.rank_stats;
            let payload = s.iter().flat_map(|s| &s.by_tag);
            let payload = payload.filter(|(tag, _)| tag.name() == "alltoall");
            rows.push(cells![
                preset.name(),
                label,
                sum(s, |s| s.messages_sent),
                format!("{:.3}", sum(s, |s| s.bytes_sent) as f64 / 1e6),
                payload.map(|(_, t)| t.messages_sent).sum::<u64>(),
                secs(r.total_time),
            ]);
        }
    }
    vec![Table::new(
        "comm_sweep",
        format!("Comm sweep: packed dense exchanges, filter-Boruvka ({n} nodes, oracle-verified)"),
        &[
            "preset",
            "variant",
            "messages",
            "wire MB",
            "alltoall msgs",
            "exe",
        ],
        rows,
    )]
}

// --------------------------------------------------------------------- //
// The serving plane
// --------------------------------------------------------------------- //

/// The deterministic mixed workload `serve_sweep` drives through the
/// serving plane.
struct ServeWorkload {
    /// Tenant table: `interactive` (weight 4, deep queue), `batch`
    /// (weight 1, queue bound 3), `updates` (weight 2).
    tenants: Vec<TenantSpec>,
    /// Timed submissions.
    jobs: Vec<JobSpec>,
    /// The updates tenant's session graph after every mutation batch —
    /// the oracle input for the final incremental forest.
    final_graph: EdgeList,
}

/// Builds the mixed workload: an interactive tenant re-submitting the
/// same road-network MST/CC/BFS queries (cache fodder — wave one is
/// cold, everything after hits the fingerprint cache), a batch tenant
/// bursting six distinct ad-hoc graphs at `t = 0` past its admission
/// bound of three (three rejections, on the record), and an updates
/// tenant streaming six insert/delete batches into its incremental-MSF
/// session. A mirror edge map tracks the session's final graph so
/// `serve_sweep` can oracle-check the last update's forest against a
/// full Kruskal recompute.
///
/// The update session runs over a *dense* graph (`E = 32·V`) on
/// purpose: incremental maintenance touches a root path per insert and
/// one side of the cut per forest delete, at most `O(V)`, while a
/// recompute reads all `E` edges over several rounds plus the cluster's
/// communication constants, so density is what separates the two
/// honestly. (On a road-like graph with `E ≈ 1.2·V` and a huge diameter
/// the root paths are long and a recompute reads little, so the sweep
/// does not claim the gap there.)
fn serve_workload(ctx: &ExpContext) -> ServeWorkload {
    let road = Arc::new(ctx.graph(Preset::RoadUsa));
    let n = road.num_vertices();
    let tenants = vec![
        TenantSpec::new("interactive", 4.0, 16),
        TenantSpec::new("batch", 1.0, 3),
        TenantSpec::new("updates", 2.0, 16),
    ];
    let mut jobs = Vec::new();
    for wave in 0..4 {
        let t = wave as f64 * 0.5;
        for (dt, kind) in [
            (0.0, JobKind::Mst),
            (0.1, JobKind::Cc),
            (0.2, JobKind::Bfs { source: 0 }),
        ] {
            jobs.push(JobSpec {
                tenant: 0,
                kind,
                graph: road.clone(),
                submit: t + dt,
            });
        }
    }
    let bn = (n / 2).max(64);
    for i in 0..6u64 {
        let g = mnd_graph::gen::gnm(bn, bn as u64 * 3, ctx.seed ^ (0xB0B0 + i));
        jobs.push(JobSpec {
            tenant: 1,
            kind: JobKind::Mst,
            graph: Arc::new(g),
            submit: 0.0,
        });
    }
    // Update batches: 4 inserts + 2 deletes each, drawn from a
    // splitmix64 stream seeded by the context. Inserts are applied
    // before deletes in a batch, exactly as the session executes them.
    let sn = (n / 2).max(64);
    let session = Arc::new(mnd_graph::gen::gnm(sn, sn as u64 * 32, ctx.seed ^ 0xD1CE));
    let mut mirror: BTreeMap<(VertexId, VertexId), Weight> =
        session.edges().iter().map(|e| ((e.u, e.v), e.w)).collect();
    let mut z = ctx.seed ^ 0x5EED_CAFE;
    let mut next = move || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mnd_graph::edgelist::splitmix64(z)
    };
    for batch in 0..6 {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for _ in 0..4 {
            let u = (next() % sn as u64) as VertexId;
            let mut v = (next() % sn as u64) as VertexId;
            if v == u {
                v = (v + 1) % sn;
            }
            let w = (next() % 1_000_000) as Weight;
            let (a, b) = (u.min(v), u.max(v));
            inserts.push(WEdge::new(a, b, w));
            mirror.insert((a, b), w);
        }
        for _ in 0..2 {
            if mirror.is_empty() {
                break;
            }
            let keys: Vec<(VertexId, VertexId)> = mirror.keys().copied().collect();
            let k = keys[(next() % keys.len() as u64) as usize];
            deletes.push(k);
            mirror.remove(&k);
        }
        jobs.push(JobSpec {
            tenant: 2,
            kind: JobKind::Update { inserts, deletes },
            graph: session.clone(),
            submit: 1.0 + batch as f64,
        });
    }
    ServeWorkload {
        tenants,
        jobs,
        final_graph: graph_of(sn, &mirror),
    }
}

/// The edge list of a mirror edge map.
fn graph_of(n: VertexId, mirror: &BTreeMap<(VertexId, VertexId), Weight>) -> EdgeList {
    let edges = mirror.iter().map(|(&(u, v), &w)| WEdge::new(u, v, w));
    EdgeList::from_raw(n, edges.collect())
}

/// Runs `jobs` for `tenants` through a serving plane of `nranks` ranks
/// over the registered engine `engine`.
fn serve(
    ctx: &ExpContext,
    engine: &'static str,
    mode: UpdateMode,
    tenants: Vec<TenantSpec>,
    jobs: Vec<JobSpec>,
) -> ServeReport {
    let factory = ctx.clone();
    let backend = EngineBackend::new(
        engine,
        NodePlatform::amd_cluster(),
        ctx.scale as f64,
        move |ranks| factory.engine(engine, ranks),
    );
    let cfg = ServeConfig::new(ctx.nodes).with_update_mode(mode);
    ServePlane::new(cfg, Box::new(backend), tenants).run(jobs)
}

/// The update jobs' completions of a serving run.
fn updates(r: &ServeReport) -> impl Iterator<Item = &mnd_serve::Completion> {
    r.completions.iter().filter(|c| c.kind == "update")
}

/// The forest an update job returned.
fn forest(c: &mnd_serve::Completion) -> &MsfResult {
    match &c.result {
        JobResult::Msf(m) => m,
        _ => unreachable!("update jobs return forests"),
    }
}

/// Total execution seconds of a serving run's update jobs.
fn update_exec(r: &ServeReport) -> f64 {
    updates(r).map(|c| c.exec_seconds).sum()
}

/// The forest of a serving run's last update job.
fn last_forest(r: &ServeReport) -> &MsfResult {
    forest(
        updates(r)
            .max_by_key(|c| c.job)
            .expect("update jobs completed"),
    )
}

/// The serve sweep: the mixed three-tenant workload through every
/// registered backend engine with incremental update sessions, plus a
/// recompute-mode arm on the default engine as the comparison baseline.
/// Returns the per-tenant table, the per-plane one and the host-clock
/// ledger of where each plane's wall clock went. When `ctx.verify`, every
/// run's final session forest must byte-match a full Kruskal recompute of
/// the mutated graph, the incremental and recompute arms must agree
/// job-for-job on every update result, incremental updates must cost less
/// than recomputes, and the cache-hit/rejection counts implied by the
/// workload shape are asserted.
pub fn serve_sweep(ctx: &ExpContext) -> Vec<Table> {
    let wl = serve_workload(ctx);
    let run = |engine, mode| serve(ctx, engine, mode, wl.tenants.clone(), wl.jobs.clone());
    let mut runs: Vec<(String, ServeReport)> = Vec::new();
    for engine in ctx.engines(ctx.nodes) {
        let r = run(engine.name(), UpdateMode::Incremental);
        runs.push((format!("{}/incremental", engine.name()), r));
    }
    let recompute = run("mnd-mst", UpdateMode::Recompute);
    runs.push(("mnd-mst/recompute".into(), recompute));

    if ctx.verify {
        let oracle = kruskal_msf(&wl.final_graph);
        for (plane, report) in &runs {
            let all = report.completed() + report.rejected;
            assert_eq!(all, wl.jobs.len(), "{plane}: jobs lost");
            assert!(
                report.cache.hits > 0,
                "{plane}: the repeat-heavy workload must produce cache hits"
            );
            assert_eq!(
                report.rejected, 3,
                "{plane}: the batch burst must overflow its admission bound"
            );
            assert_eq!(
                last_forest(report),
                &oracle,
                "{plane}: final session forest != full-recompute oracle"
            );
        }
        // Incremental maintenance must agree with recompute job-for-job
        // and beat it on cost.
        let (inc, rec) = (&runs[0].1, &runs.last().unwrap().1);
        let by_job = |r| -> BTreeMap<usize, MsfResult> {
            updates(r).map(|c| (c.job, forest(c).clone())).collect()
        };
        assert_eq!(
            by_job(inc),
            by_job(rec),
            "incremental vs recompute: update forests diverge"
        );
        assert!(
            update_exec(inc) < update_exec(rec),
            "incremental updates must cost less than full recomputes"
        );
    }

    let (mut tenants, mut planes, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    for (plane, report) in &runs {
        for w in report.wall_ledger() {
            let ms = w.wall_ns as f64 * 1e-6;
            let served_by = format!("{:?}", w.served_by);
            let per_job = format!("{:.3}", ms / w.jobs as f64);
            wall.push(cells![
                plane,
                w.kind,
                served_by,
                w.jobs,
                format!("{ms:.2}"),
                per_job
            ]);
        }
        for (spec, t) in wl.tenants.iter().zip(&report.tenants) {
            tenants.push(cells![
                plane,
                t.name,
                format!("{:.0}", spec.weight),
                t.submitted,
                t.completed,
                t.rejected,
                t.cache_hits,
                secs(t.p50),
                secs(t.p95),
                secs(t.p99),
                format!("{:.4}", t.throughput),
            ]);
        }
        planes.push(cells![
            plane,
            report.completed(),
            report.rejected,
            report.cache.hits,
            report.cache.misses,
            secs(report.cache.saved_seconds),
            secs(update_exec(report)),
            secs(report.makespan),
            format!("{:.1}%", report.utilisation * 100.0),
        ]);
    }
    let mut wall = Table::new(
        "serve_wall",
        "Serve sweep: where each plane's wall clock went (host ms, not reproducible)",
        &["plane", "kind", "served by", "jobs", "wall ms", "ms/job"],
        wall,
    );
    wall.host_clock = true;
    vec![
        Table::new(
            "serve_tenants",
            format!(
                "Serve sweep: per-tenant latency/throughput ({} ranks, mixed MST/CC/BFS/update workload, oracle-verified)",
                ctx.nodes
            ),
            &[
                "plane", "tenant", "weight", "jobs", "done", "rej", "hits", "p50", "p95", "p99",
                "jobs/s",
            ],
            tenants,
        ),
        Table::new(
            "serve_planes",
            "Serve sweep: cache + update-path summary per plane",
            &[
                "plane",
                "done",
                "rej",
                "hits",
                "miss",
                "saved",
                "update exec",
                "makespan",
                "util",
            ],
            planes,
        ),
        wall,
    ]
}

// --------------------------------------------------------------------- //
// Euclidean MST: the geometric workload family (DESIGN.md §9)
// --------------------------------------------------------------------- //

/// The EMST inclusion threshold k* of a cloud: for each brute-force EMST
/// edge `(u, v)`, the edge appears in the mirrored k-NN graph iff `v` is
/// within `u`'s first k neighbours *or* vice versa; k* is the max over
/// EMST edges of that minimum rank. For k ≥ k* the k-NN graph contains
/// the whole EMST, so (weights being exact squared distances) its MSF
/// *is* the EMST.
fn emst_inclusion_threshold(cloud: &mnd_graph::gen::PointCloud, emst: &[WEdge]) -> usize {
    let n = cloud.len() as VertexId;
    let rank = |from: VertexId, to: VertexId| -> usize {
        let d = (cloud.sq_dist(from, to), to);
        (0..n)
            .filter(|&j| j != from)
            .filter(|&j| (cloud.sq_dist(from, j), j) < d)
            .count()
            + 1
    };
    emst.iter()
        .map(|e| rank(e.u, e.v).min(rank(e.v, e.u)))
        .max()
        .unwrap_or(0)
}

/// The small-n EMST-correctness oracle for one preset: brute-force the
/// true EMST from the complete squared-distance graph, derive k*, and
/// assert (a) the k-NN MST matches the EMST exactly once k clears k*,
/// and (b) every registry engine run on the k-NN graph returns it too.
/// Returns k*.
fn emst_oracle_check(ctx: &ExpContext, preset: GeoPreset, n: u32) -> usize {
    let cloud = preset.points(n, ctx.seed);
    let brute = kruskal_msf(&cloud.complete_graph());
    assert_eq!(
        brute.num_components,
        1,
        "{}: complete graph must be connected",
        preset.name()
    );
    let kstar = emst_inclusion_threshold(&cloud, &brute.edges);
    let k = kstar.max(preset.base_k());
    let knn = cloud.knn_graph(k);
    assert_eq!(
        kruskal_msf(&knn),
        brute,
        "{}: k-NN MST (k = {k} ≥ k* = {kstar}) != brute-force EMST",
        preset.name()
    );
    for engine in ctx.engines(4) {
        ctx.run_engine(&*engine, &knn, None);
    }
    kstar
}

/// The emst sweep: every registry engine over every geometric preset at
/// the context's scale, oracle-verified two ways — brute-force EMST
/// equality on small instances (when `ctx.verify`, recorded in the
/// table's note), Kruskal + cross-engine forest equality on the large
/// ones — then the device-calibration table answering the motivating
/// question: where do the occupancy model, the §4.3.1 split, and the
/// paper's recursion threshold land on bounded-degree inputs vs the
/// crawls? Last comes the incremental serve session over a growing cloud.
pub fn emst_sweep(ctx: &ExpContext) -> Vec<Table> {
    // Small-n oracle arm: cheap (complete graphs on ORACLE_N points), so
    // it runs whenever verification is on.
    const ORACLE_N: u32 = 160;
    let kstar = ctx.verify.then(|| {
        let kstars = GeoPreset::ALL.map(|p| emst_oracle_check(ctx, p, ORACLE_N));
        kstars.into_iter().max().unwrap_or(0)
    });

    let hypar = ctx.hypar();
    let cpu = DeviceModel::cpu_xeon_ivybridge();
    let (gpu, gpu_unbinned) = (DeviceModel::gpu_k40(), DeviceModel::gpu_k40_unbinned());
    let device_row = |name: &str, el: &EdgeList| {
        let g = CsrGraph::from_edge_list(el);
        let skew = mnd_kernels::binning::bin_graph(&g).skew_fraction();
        let split = calibrate_split(&g, &cpu, &gpu, 3, 0.25, ctx.seed);
        cells![
            name,
            format!("{skew:.3}"),
            format!("{:.3}", gpu.occupancy(skew)),
            format!("{:.3}", gpu_unbinned.occupancy(skew)),
            format!("{:.2}x", split.gpu_speedup),
            format!("{:.2}", split.cpu_fraction),
            el.len() as u64 * ctx.scale,
            hypar.scaled_recursion_threshold(),
            should_recurse(&hypar, el.len() as u64),
        ]
    };

    let (mut rows, mut devices) = (Vec::new(), Vec::new());
    for p in GeoPreset::ALL {
        let (el, k) = p.generate_with_k(ctx.scale, ctx.seed);
        let s = graph_stats(&CsrGraph::from_edge_list(&el), 1, ctx.seed);
        let mut first: Option<(&str, MsfResult)> = None;
        for engine in ctx.engines(ctx.nodes) {
            let r = ctx.run_engine(&*engine, &el, None);
            match &first {
                None => first = Some((engine.name(), r.msf.clone())),
                Some((name, msf)) => assert_eq!(
                    &r.msf,
                    msf,
                    "{}: engines {name} and {} disagree",
                    p.name(),
                    engine.name()
                ),
            }
            rows.push(cells![
                p.name(),
                engine.name(),
                s.num_vertices,
                s.num_edges,
                format!("{:.2}", s.avg_degree),
                s.max_degree,
                k,
                secs(r.total_time),
                secs(r.comm_time),
            ]);
        }
        devices.push(device_row(p.name(), &el));
    }
    // Crawl reference rows: the skewed regime the paper measured.
    for p in [Preset::Arabic2005, Preset::Gsh2015Tpd] {
        devices.push(device_row(p.name(), &ctx.graph(p)));
    }
    let mut sweep = Table::new(
        "emst_sweep",
        format!(
            "EMST sweep: every engine over the geometric presets ({} nodes, oracle-verified)",
            ctx.nodes
        ),
        &[
            "preset", "engine", "|V|", "|E|", "avg deg", "max deg", "k", "exe", "comm",
        ],
        rows,
    );
    sweep.note = kstar.map(|kstar| {
        format!(
            "(EMST oracle: brute-force EMST on {ORACLE_N} points per preset matched the k-NN MST \
             and every engine; max inclusion threshold k* = {kstar})"
        )
    });
    let devices = Table::new(
        "emst_devices",
        "EMST device calibration: occupancy/split/recursion on bounded-degree inputs vs crawls",
        &[
            "graph",
            "skew",
            "occ binned",
            "occ unbinned",
            "gpu speedup",
            "cpu frac",
            "paper |E|",
            "rec. thresh (scaled)",
            "recurses",
        ],
        devices,
    );
    vec![sweep, devices, emst_serve_session(ctx)]
}

/// Streams point insertions through `mnd-serve`'s incremental sessions
/// on a geometric preset: the session opens on the k-NN graph over the
/// first `5/8` of a cloud, then each batch appends points by inserting
/// edges to their k nearest *already-present* neighbours. A new point's
/// first edge attaches a fresh component; each further edge closes a
/// cycle, so the batch exercises cycle-max replacement on a low-degree
/// graph (the crawls exercise it on hubs). When `ctx.verify`, the final
/// session forest must byte-match a Kruskal recompute of the mirrored
/// edge map.
fn emst_serve_session(ctx: &ExpContext) -> Table {
    let preset = GeoPreset::Uniform2d;
    let n: u32 = 512;
    let n0: u32 = n * 5 / 8;
    let k = preset.base_k();
    let cloud = preset.points(n, ctx.seed);

    // Initial graph: k-NN restricted to the first n0 points, carried on
    // the full n-vertex id space (later points start isolated).
    let knn = |j: VertexId, present: VertexId| -> Vec<WEdge> {
        let mut cands: Vec<(u64, VertexId)> = (0..present)
            .filter(|&i| i != j)
            .map(|i| (cloud.sq_dist(j, i), i))
            .collect();
        cands.sort_unstable();
        cands
            .iter()
            .take(k)
            .map(|&(d, i)| WEdge::new(j.min(i), j.max(i), d as Weight))
            .collect()
    };
    let mut initial = EdgeList::new(n);
    for j in 0..n0 {
        for e in knn(j, n0) {
            initial.push(e.u, e.v, e.w);
        }
    }
    initial.canonicalize();
    let mut mirror: BTreeMap<(VertexId, VertexId), Weight> =
        initial.edges().iter().map(|e| ((e.u, e.v), e.w)).collect();
    let session = Arc::new(initial);

    // One update batch per 16 appended points; each point's edges go to
    // its k nearest among the points already present.
    let mut jobs = Vec::new();
    let mut total_inserts = 0usize;
    let batch_pts = 16u32;
    for (batch, first) in (n0..n).step_by(batch_pts as usize).enumerate() {
        let mut inserts = Vec::new();
        for j in first..(first + batch_pts).min(n) {
            for e in knn(j, j) {
                mirror.insert((e.u, e.v), e.w);
                inserts.push(e);
            }
        }
        total_inserts += inserts.len();
        jobs.push(JobSpec {
            tenant: 0,
            kind: JobKind::Update {
                inserts,
                deletes: Vec::new(),
            },
            graph: session.clone(),
            submit: batch as f64,
        });
    }
    let batches = jobs.len();
    let tenants = vec![TenantSpec::new("geo", 1.0, batches.max(1))];
    let report = serve(ctx, "mnd-mst", UpdateMode::Incremental, tenants, jobs);
    let msf = last_forest(&report);
    if ctx.verify {
        assert_eq!(report.completed(), batches, "geo session: jobs lost");
        let oracle = kruskal_msf(&graph_of(n, &mirror));
        assert_eq!(
            msf, &oracle,
            "geo session: final forest != full-recompute oracle"
        );
        // All n points present and the cloud connected ⇒ a spanning tree.
        assert_eq!(oracle.num_components, 1, "geo session must end connected");
    }
    Table::new(
        "emst_serve",
        "EMST serve session: point insertions through the incremental plane (oracle-verified)",
        &[
            "preset",
            "points",
            "batches",
            "inserts",
            "forest edges",
            "update exec",
        ],
        vec![cells![
            preset.name(),
            n,
            batches,
            total_inserts,
            msf.edges.len(),
            secs(update_exec(&report)),
        ]],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Experiments at a heavy scale divisor finish quickly and stay
    /// oracle-correct (full-scale runs are exercised by the repro binary).
    fn tiny() -> ExpContext {
        ExpContext {
            scale: 65536,
            seed: 7,
            nodes: 4,
            ..Default::default()
        }
    }

    /// Verification sorts each graph once: a repeated graph finds its
    /// forest, a graph one weight away does not.
    #[test]
    fn oracle_is_computed_once_per_graph() {
        let ctx = tiny();
        let el = ctx.graph(Preset::RoadUsa);
        let msf = kruskal_msf(&el);
        ctx.check(&el, &msf, "first");
        ctx.check(&el.clone(), &msf, "repeat");
        assert_eq!(ctx.oracles.len(), 1);
        let mut edges = el.edges().to_vec();
        edges[0].w += 1;
        let heavier = EdgeList::from_raw(el.num_vertices(), edges);
        ctx.check(&heavier, &kruskal_msf(&heavier), "one weight heavier");
        assert_eq!(ctx.oracles.len(), 2);
    }

    /// A stored forest still fails a wrong result.
    #[test]
    #[should_panic(expected = "result != oracle")]
    fn oracle_hit_still_rejects_a_wrong_forest() {
        let ctx = tiny();
        let el = ctx.graph(Preset::RoadUsa);
        let mut msf = kruskal_msf(&el);
        ctx.check(&el, &msf, "first");
        msf.edges.pop();
        ctx.check(&el, &msf, "short");
    }

    /// The one table an experiment returns.
    fn only(mut tables: Vec<Table>) -> Table {
        assert_eq!(tables.len(), 1, "{tables:?}");
        tables.remove(0)
    }

    /// The row indices of a table.
    fn rows(t: &Table) -> std::ops::Range<usize> {
        0..t.rows.len()
    }

    #[test]
    fn table2_has_six_rows() {
        let t = only(table2(&tiny()));
        assert_eq!(t.rows.len(), 6);
        assert!(rows(&t).any(|r| t.cell(r, "graph") == "uk-2007"));
    }

    #[test]
    fn table3_rows_have_positive_times() {
        let t = only(table3(&tiny()));
        assert_eq!(t.rows.len(), 6);
        for r in rows(&t) {
            let row = &t.rows[r];
            assert!(
                t.num(r, "Pregel+ exe") > 0.0 && t.num(r, "MND exe") > 0.0,
                "{row:?}"
            );
            assert!(
                t.num(r, "Pregel+ comm") > 0.0 && t.num(r, "MND comm") > 0.0,
                "{row:?}"
            );
        }
    }

    #[test]
    fn fig8_gpu_rows_cover_node_counts() {
        let t = only(fig8(&tiny()));
        assert!(!t.rows.is_empty());
        for r in rows(&t) {
            assert!(t.num(r, "CPU-only") > 0.0 && t.num(r, "CPU+GPU") > 0.0);
        }
    }

    #[test]
    fn ablations_run() {
        let ctx = tiny();
        let eight = ExpContext { nodes: 8, ..tiny() };
        assert_eq!(only(ablation_group(&eight)).rows.len(), 4);
        assert_eq!(only(ablation_excp(&ctx)).rows.len(), 3);
        let thresh = only(ablation_thresh(&ctx));
        let recursion: Vec<f64> = rows(&thresh)
            .filter(|&r| thresh.cell(r, "variant").starts_with("recursion="))
            .map(|r| thresh.num(r, "exe"))
            .collect();
        assert_eq!(recursion.len(), 3);
        assert!(
            recursion.iter().any(|&t| t != recursion[0]),
            "the recursion rows vary nothing: {recursion:?}"
        );
    }

    #[test]
    fn chaos_sweep_verifies_and_counts_faults() {
        let t = only(chaos(&tiny()));
        // Baseline + armed-but-clean + 7 fault plans.
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.num(0, "overhead"), 0.0);
        // The 10% drop plan must force retries somewhere.
        let drops = t.find("fault plan", |p| p == "drop 10%");
        assert!(t.num(drops, "retries") > 0.0, "{:?}", t.rows[drops]);
        // The crash plan must restore from checkpoint.
        let crash = t.find("fault plan", |p| p.starts_with("crash"));
        assert_eq!(t.num(crash, "restores"), 1.0, "{:?}", t.rows[crash]);
        // The mid-phase crash must roll back and re-execute: nonzero
        // replayed compute, replayed bytes served from logs for free.
        let mid = t.find("fault plan", |p| p.starts_with("mid-phase"));
        assert_eq!(t.num(mid, "restores"), 1.0, "{:?}", t.rows[mid]);
        assert!(t.num(mid, "replayed comp") > 0.0, "{:?}", t.rows[mid]);
        assert!(t.num(mid, "replayed bytes") > 0.0, "{:?}", t.rows[mid]);
        // Boundary crashes re-read a checkpoint; only mid-phase crashes
        // re-execute work.
        assert_eq!(t.num(crash, "replayed comp"), 0.0, "{:?}", t.rows[crash]);
    }

    #[test]
    fn traffic_covers_driver_tags_under_faults() {
        let t = only(traffic(&tiny()));
        assert!(!t.rows.is_empty());
        let tags: Vec<&str> = rows(&t).map(|r| t.cell(r, "tag")).collect();
        assert!(tags.contains(&"segments (user 1)"), "{tags:?}");
        assert!(tags.contains(&"leader merge (user 2)"), "{tags:?}");
        // 2% drops over the whole run should force at least one retry.
        assert!(rows(&t).map(|r| t.num(r, "retries")).sum::<f64>() > 0.0);
    }

    #[test]
    fn checkpoint_sweep_covers_every_engine_and_cadence() {
        // Every run inside is oracle-verified (tiny() keeps verify on).
        let t = only(checkpoint_sweep(&tiny()));
        // 3 registry engines, 4 cadences.
        assert_eq!(t.rows.len(), 12);
        for r in rows(&t) {
            let (writes, bytes) = (t.num(r, "writes"), t.num(r, "ckpt bytes"));
            assert!(writes == 0.0 || bytes > 0.0, "{:?}", t.rows[r]);
        }
    }

    #[test]
    fn engine_list_names_and_describes_every_engine() {
        let t = only(engine_list(&tiny()));
        let names: Vec<&str> = rows(&t).map(|r| t.cell(r, "engine")).collect();
        assert_eq!(names, ["mnd-mst", "bsp", "spmsf"]);
        for r in rows(&t) {
            assert!(!t.cell(r, "description").is_empty(), "{:?}", t.rows[r]);
        }
    }

    #[test]
    fn serve_sweep_is_deterministic_and_favors_incremental() {
        let ctx = tiny();
        let a = serve_sweep(&ctx);
        let (tenants, planes, wall) = (&a[0], &a[1], &a[2]);
        assert!(wall.host_clock && !tenants.host_clock && !planes.host_clock);
        // 3 incremental planes + the recompute arm, 3 tenants each.
        assert_eq!(planes.rows.len(), 4);
        assert_eq!(tenants.rows.len(), 12);
        let inc = planes.find("plane", |p| p == "mnd-mst/incremental");
        let rec = planes.find("plane", |p| p == "mnd-mst/recompute");
        // Update-heavy streams: maintaining the forest beats recomputing
        // it by a wide margin, not a hair.
        let (inc_exec, rec_exec) = (
            planes.num(inc, "update exec"),
            planes.num(rec, "update exec"),
        );
        assert!(
            inc_exec < rec_exec / 2.0,
            "incremental {inc_exec} vs recompute {rec_exec}"
        );
        let inc_row = &planes.rows[inc];
        assert!(
            planes.num(inc, "hits") > 0.0 && planes.num(inc, "saved") > 0.0,
            "{inc_row:?}"
        );
        assert_eq!(planes.num(inc, "rej"), 3.0, "{inc_row:?}");
        // The interactive tenant's repeats land in the cache.
        let t = rows(tenants)
            .find(|&r| {
                tenants.cell(r, "plane") == "mnd-mst/incremental"
                    && tenants.cell(r, "tenant") == "interactive"
            })
            .unwrap();
        let row = &tenants.rows[t];
        let jobs = (tenants.num(t, "jobs"), tenants.num(t, "done"));
        assert_eq!(jobs, (12.0, 12.0), "{row:?}");
        assert!(tenants.num(t, "hits") >= 8.0, "{row:?}");
        let (p50, p95, p99) = (
            tenants.num(t, "p50"),
            tenants.num(t, "p95"),
            tenants.num(t, "p99"),
        );
        assert!(p50 > 0.0 && p95 >= p50 && p99 >= p95, "{row:?}");
        // Determinism: a second sweep reproduces every number.
        let b = serve_sweep(&ctx);
        assert_eq!(a[..2], b[..2]);
    }

    #[test]
    fn calibration_reports_all_graphs() {
        let t = only(calibration(&tiny()));
        assert_eq!(t.rows.len(), 6);
        for r in rows(&t) {
            let cpu = t.num(r, "cpu fraction");
            assert!((0.0..=1.0).contains(&cpu), "{:?}", t.rows[r]);
        }
    }

    #[test]
    fn comm_sweep_sheds_messages_and_bytes_on_skewed_presets() {
        // Every run inside is oracle-verified (tiny() keeps verify on),
        // including the chaos arm over the full dense+pack+filter stack.
        let t = only(comm_sweep(&ExpContext { nodes: 8, ..tiny() }));
        // 2 presets x (2 variants + chaos arm).
        assert_eq!(t.rows.len(), 6);
        let mut filter_won_somewhere = false;
        for preset in ["gsh-2015-tpd", "sk-2005"] {
            let get = |v: &str| {
                let row =
                    rows(&t).find(|&r| t.cell(r, "preset") == preset && t.cell(r, "variant") == v);
                row.unwrap()
            };
            let unfiltered = get("dense+pack");
            let filtered = get("dense+pack+filter");
            // The dense schedule ships every bucket and nothing else.
            assert!(t.num(unfiltered, "alltoall msgs") > 0.0, "{preset}");
            // Filtering carries fewer edges, but fewer edges also shift the
            // ring-exchange monitor's decisions, so the total can wobble on
            // a given preset; it must win on at least one (checked below)
            // and never cost more than a small factor on any.
            let (f, u) = (t.num(filtered, "wire MB"), t.num(unfiltered, "wire MB"));
            filter_won_somewhere |= f < u;
            assert!(f < u * 1.10, "{preset}: filtered {f} !<~ unfiltered {u}");
            // The chaos arm completed (it is oracle-verified inside).
            assert!(t.num(get("dense+pack+filter chaos"), "exe") > 0.0);
        }
        assert!(filter_won_somewhere, "filter never shed wire bytes: {t:?}");
    }

    #[test]
    fn emst_sweep_runs_every_engine_over_every_preset() {
        let ctx = tiny(); // 2^24/65536 = 256 points per preset
        let tables = emst_sweep(&ctx);
        let (sweep, devices) = (&tables[0], &tables[1]);
        // 4 geo presets × 3 registry engines; the sweep itself asserted
        // the brute-force oracle (small n) and cross-engine equality.
        assert_eq!(sweep.rows.len(), 12);
        let note = sweep.note.as_deref().expect("the oracle ran");
        let kstar: usize = note
            .rsplit("k* = ")
            .next()
            .unwrap()
            .trim_end_matches(')')
            .parse()
            .unwrap();
        assert!(kstar >= 1);
        for r in rows(sweep) {
            let row = &sweep.rows[r];
            assert!(
                sweep.num(r, "exe") > 0.0 && sweep.num(r, "comm") > 0.0,
                "{row:?}"
            );
            let k = sweep.num(r, "k");
            assert!(k >= 8.0, "{row:?}");
            // Bounded degree: no hubs on any geometric preset.
            assert!(sweep.num(r, "max deg") <= 8.0 * k, "{row:?}");
        }
        // Device table: 4 geo rows + 2 crawl references. Geometric inputs
        // must land in the no-skew regime (full GPU occupancy, binned or
        // not); the crawls must not.
        assert_eq!(devices.rows.len(), 6);
        let crawl = devices.find("graph", |g| g == "gsh-2015-tpd");
        let crawl_skew = devices.num(crawl, "skew");
        for d in rows(devices) {
            let (graph, row) = (devices.cell(d, "graph"), &devices.rows[d]);
            let (skew, binned, unbinned) = (
                devices.num(d, "skew"),
                devices.num(d, "occ binned"),
                devices.num(d, "occ unbinned"),
            );
            assert!((0.0..=1.0).contains(&devices.num(d, "cpu frac")), "{row:?}");
            assert!(devices.num(d, "gpu speedup") > 0.0, "{row:?}");
            if graph.starts_with("geo-uniform") {
                // The pure bounded-degree regime: every vertex lands in
                // the thread-sized bin, occupancy is full, binned or not.
                assert!(skew < 0.05, "{row:?}");
                assert!(binned > 0.99 && unbinned > 0.95, "{row:?}");
            } else if graph.starts_with("geo-cluster") {
                // Clustered clouds may push some vertices warp-sized at
                // tiny scales (k doubles to bridge blobs), but stay far
                // below the crawls and keep near-full binned occupancy.
                assert!(skew < crawl_skew, "{row:?} vs crawl {crawl_skew}");
                assert!(binned > 0.9, "{row:?}");
            }
        }
        let crawl_row = &devices.rows[crawl];
        assert!(crawl_skew > 0.3, "{crawl_row:?}");
        assert!(
            devices.num(crawl, "occ unbinned") < devices.num(crawl, "occ binned"),
            "{crawl_row:?}"
        );
    }

    #[test]
    fn emst_serve_session_replaces_cycle_max_edges() {
        let t = emst_serve_session(&tiny());
        // 512 - 320 = 192 appended points in batches of 16.
        assert_eq!(t.num(0, "batches"), 12.0);
        // Each appended point inserts k = 8 edges; only one can attach
        // the new component, so the rest exercised cycle-max replacement.
        assert_eq!(t.num(0, "inserts"), (192 * 8) as f64);
        // Connected at the end (asserted against the oracle inside).
        assert_eq!(t.num(0, "forest edges"), 511.0);
        assert!(t.num(0, "update exec") > 0.0);
    }

    #[test]
    fn emst_oracle_rejects_corrupted_forest() {
        // The oracle machinery must actually discriminate: corrupt the
        // correct EMST two ways and watch both checks fire.
        let cloud = GeoPreset::Uniform2d.points(96, 7);
        let el = cloud.complete_graph();
        let good = kruskal_msf(&el);
        assert!(mnd_kernels::msf::verify_msf(&el, &good).is_ok());
        // (a) Swap a forest edge for a non-graph edge: foreign.
        let mut forged = good.clone();
        forged.edges[0].w = forged.edges[0].w.wrapping_add(1);
        assert!(mnd_kernels::msf::verify_msf(&el, &forged).is_err());
        // (b) Keep membership but break minimality: replace the lightest
        // forest edge with the heaviest graph edge (weight changes, and
        // equality against the oracle must fail too).
        let mut heavier = good.clone();
        let heavy = *el.edges().iter().max_by_key(|e| (e.w, e.u, e.v)).unwrap();
        assert!(!heavier.edges.contains(&heavy), "degenerate fixture");
        heavier.edges[0] = heavy;
        assert!(mnd_kernels::msf::verify_msf(&el, &heavier).is_err());
        assert_ne!(heavier, good);
    }
}
