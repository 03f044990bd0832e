//! CPU/GPU partition-ratio calibration — §4.3.1 of the paper.
//!
//! "We form a small number of different induced subgraphs (for our study,
//! we used 5-10 subgraphs), execute each subgraph on both CPU and GPU, find
//! the performance ratio, and obtain an average of the ratios … In addition
//! to performance, we also take into account the GPU memory requirements."
//!
//! The same measure-then-decide idea drives [`calibrate_kernel_policy`]:
//! the profitable seq/par crossover and chunk size of the holding-plane
//! kernels are platform-dependent, so they are timed on synthetic holdings
//! at startup (wall clock, not the simulated device models) and packaged as
//! a [`mnd_kernels::policy::KernelPolicy`] for the whole run.

use std::time::Instant;

use mnd_graph::edgelist::splitmix64;
use mnd_graph::gen;
use mnd_graph::{CsrGraph, VertexId};
use mnd_kernels::boruvka::local_boruvka;
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, KernelPolicy, ParVariant, StopPolicy};
use mnd_kernels::reduce::reduce_holding_with;
use mnd_kernels::scan::{min_edge_scan_lockfree, min_edge_scan_par, min_edge_scan_seq};

use crate::exec::ExecDevice;
use crate::model::DeviceModel;
use crate::platform::NodePlatform;

/// The calibrated intra-node split.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceSplit {
    /// Fraction of the node's edges assigned to the CPU partition
    /// (`1 - cpu_fraction` goes to the GPU).
    pub cpu_fraction: f64,
    /// Average of the per-sample GPU:CPU speed ratios.
    pub gpu_speedup: f64,
    /// True if the GPU share was clipped by its memory capacity.
    pub memory_limited: bool,
}

impl DeviceSplit {
    /// A CPU-only split (no GPU present).
    pub fn cpu_only() -> Self {
        DeviceSplit {
            cpu_fraction: 1.0,
            gpu_speedup: 0.0,
            memory_limited: false,
        }
    }
}

/// Calibrates the CPU/GPU split for `graph` following §4.3.1: `samples`
/// induced subgraphs of `sample_frac` of the vertices each (the paper uses
/// 5–10 samples at 5%), executed on both device models; the split is the
/// average performance ratio, clipped so the GPU partition fits GPU memory.
pub fn calibrate_split(
    graph: &CsrGraph,
    cpu: &DeviceModel,
    gpu: &DeviceModel,
    samples: u32,
    sample_frac: f64,
    seed: u64,
) -> DeviceSplit {
    assert!(samples >= 1);
    assert!((0.0..=1.0).contains(&sample_frac));
    let n = graph.num_vertices();
    if n == 0 {
        return DeviceSplit::cpu_only();
    }
    let keep_count = ((n as f64 * sample_frac).ceil() as usize).clamp(1, n as usize);

    let mut ratios = Vec::with_capacity(samples as usize);
    for s in 0..samples {
        let keep = sample_vertices(n, keep_count, splitmix64(seed ^ (s as u64) << 32));
        let sub = graph.induced_subgraph(&keep);
        let el = sub.to_edge_list();
        if el.is_empty() {
            continue; // degenerate sample: no information
        }
        let mut cg = CGraph::from_edge_list(&el);
        let out = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let skew = {
            let mut cg = CGraph::from_edge_list(&el);
            ExecDevice::holding_skew(&mut cg)
        };
        let t_cpu = cpu.kernel_time(&out.work, skew);
        // The GPU pays its transfers in real use; include them so tiny
        // graphs correctly favour the CPU.
        let bytes = el.len() as u64 * std::mem::size_of::<mnd_graph::WEdge>() as u64;
        let t_gpu = gpu.kernel_time(&out.work, skew) + gpu.transfer_time(bytes);
        if t_gpu > 0.0 && t_cpu > 0.0 {
            ratios.push(t_cpu / t_gpu);
        }
    }
    if ratios.is_empty() {
        return DeviceSplit::cpu_only();
    }
    let gpu_speedup: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;

    // Split proportional to speed: CPU keeps 1/(1+speedup).
    let mut cpu_fraction = 1.0 / (1.0 + gpu_speedup);

    // Memory constraint: the GPU partition (plus working structures, ~2x)
    // must fit device memory. Bytes are judged at simulation scale so a
    // scaled-down stand-in for a billion-edge crawl still exercises the cap.
    let total_bytes = graph.approx_bytes() as f64 * 2.0 * gpu.work_scale;
    let gpu_budget = gpu.mem_bytes as f64;
    let mut memory_limited = false;
    let gpu_share = 1.0 - cpu_fraction;
    if total_bytes * gpu_share > gpu_budget {
        cpu_fraction = 1.0 - (gpu_budget / total_bytes).min(1.0);
        memory_limited = true;
    }
    DeviceSplit {
        cpu_fraction,
        gpu_speedup,
        memory_limited,
    }
}

/// One measured row of the kernel-policy calibration: wall-clock kernel
/// times on a holding of `rows` edges — sequential, chunk-and-merge per
/// candidate chunk, and (for classes that have one) the lock-free variant.
#[derive(Clone, Debug)]
pub struct CrossoverRow {
    /// Holding size (edge rows).
    pub rows: usize,
    /// Best-of-k sequential kernel time, nanoseconds.
    pub seq_ns: u64,
    /// Best-of-k chunk-merge time per `(chunk_rows, ns)` candidate.
    pub par_ns: Vec<(usize, u64)>,
    /// Best-of-k lock-free time (at [`LOCKFREE_CHUNK`]); `None` for classes
    /// without a lock-free implementation (reduce, relabel).
    pub lockfree_ns: Option<u64>,
}

impl CrossoverRow {
    /// The fastest chunk-merge candidate of this row, if any was measured.
    pub fn best_par(&self) -> Option<(usize, u64)> {
        self.par_ns.iter().copied().min_by_key(|&(_, ns)| ns)
    }
}

/// Output of [`calibrate_kernel_policy`]: the chosen policy plus the raw
/// measurements (the crossover tables `repro` prints and BENCH snapshots
/// record).
#[derive(Clone, Debug)]
pub struct KernelCalibration {
    /// The policy the run should use.
    pub policy: KernelPolicy,
    /// Election-kernel rows, one per measured holding size, ascending.
    pub table: Vec<CrossoverRow>,
    /// Reduction-kernel rows (compaction + sorts), same sizes.
    pub reduce_table: Vec<CrossoverRow>,
    /// Incident-count rows, same sizes.
    pub count_table: Vec<CrossoverRow>,
    /// Relabel-kernel rows, same sizes.
    pub relabel_table: Vec<CrossoverRow>,
}

/// Holding sizes (edge rows) the calibration times.
pub const CALIBRATION_SIZES: [usize; 5] = [1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16];
/// Candidate chunk sizes (rows per parallel chunk).
pub const CALIBRATION_CHUNKS: [usize; 3] = [1024, 4096, 16384];
/// Chunk the lock-free variants are timed at. With no partial tables and no
/// merge phase, chunking only load-balances the sweep, so one mid-range
/// candidate is representative (unlike chunk-merge, where chunk count
/// multiplies the merge cost).
pub const LOCKFREE_CHUNK: usize = 4096;

/// Measures the seq / chunk-merge / lock-free crossover of the four
/// holding-plane kernel classes — the min-edge election every `indComp`
/// iteration runs, the reduction pass (self/multi-edge compaction with its
/// sorts), the incident-count tally, and the ghost relabel — on synthetic
/// G(n,m) holdings, and derives a [`KernelPolicy`]: `chunk_rows` is the
/// chunk-merge candidate that wins the election at the largest size; each
/// class picks the parallel variant that is fastest at the largest measured
/// size among variants that beat sequential somewhere, with the crossover
/// just below that variant's smallest winning size.
///
/// **Clamp rule:** if no parallel variant of a class ever beats sequential
/// in the measured table, that class's crossover is clamped to
/// `usize::MAX` — calibration must never select a parallel variant whose
/// measured speedup is below 1.0 (an `incident_counts` path measured at
/// 0.58× of sequential came from the old "largest measured size"
/// fallback, which kept routing unmeasured giant holdings down a losing
/// path).
///
/// Wall-clock timing, best of 3 — noisy by nature, which is fine: the
/// determinism contract guarantees the *result* is policy-independent, so a
/// mis-calibrated policy costs only time.
pub fn calibrate_kernel_policy(seed: u64) -> KernelCalibration {
    let mut table = Vec::with_capacity(CALIBRATION_SIZES.len());
    let mut reduce_table = Vec::with_capacity(CALIBRATION_SIZES.len());
    let mut count_table = Vec::with_capacity(CALIBRATION_SIZES.len());
    let mut relabel_table = Vec::with_capacity(CALIBRATION_SIZES.len());
    for &rows in &CALIBRATION_SIZES {
        // Components ~ rows/4 keeps the winner tables a realistic fraction
        // of the sweep (degree ~8).
        let n = (rows / 4).max(16) as VertexId;
        let mut cg =
            CGraph::from_edge_list(&gen::gnm(n, rows as u64, splitmix64(seed ^ rows as u64)));
        let mut row = measure_row(rows, |chunk| {
            let t = Instant::now();
            match chunk {
                None => std::hint::black_box(min_edge_scan_seq(&cg)),
                Some(c) => std::hint::black_box(min_edge_scan_par(&cg, c)),
            };
            t.elapsed().as_nanos() as u64
        });
        row.lockfree_ns = Some(best_of(3, || {
            let t = Instant::now();
            std::hint::black_box(min_edge_scan_lockfree(&cg, LOCKFREE_CHUNK));
            t.elapsed().as_nanos() as u64
        }));
        table.push(row);
        reduce_table.push(measure_row(rows, |chunk| {
            // The reduction mutates; clone outside the timed region.
            let mut c = cg.clone();
            let pol = policy_for(chunk);
            let t = Instant::now();
            std::hint::black_box(reduce_holding_with(&mut c, &pol));
            t.elapsed().as_nanos() as u64
        }));
        let mut row = measure_row(rows, |chunk| {
            let pol = policy_for(chunk);
            let t = Instant::now();
            std::hint::black_box(cg.incident_counts_with(&pol));
            t.elapsed().as_nanos() as u64
        });
        row.lockfree_ns = Some(best_of(3, || {
            let pol = KernelPolicy::force_lockfree(LOCKFREE_CHUNK);
            let t = Instant::now();
            std::hint::black_box(cg.incident_counts_with(&pol));
            t.elapsed().as_nanos() as u64
        }));
        count_table.push(row);
        relabel_table.push(measure_row(rows, |chunk| {
            // Identity relabel: full sweep cost, idempotent, no clone.
            let mut c = cg.clone();
            let pol = policy_for(chunk);
            let t = Instant::now();
            c.relabel_with(&pol, |id| id);
            std::hint::black_box(&c);
            t.elapsed().as_nanos() as u64
        }));
    }

    // Winning chunk: fastest chunk-merge election candidate at the largest
    // size (elections run far more often than the other classes, so the
    // shared chunk granularity follows them; the lock-free plane is
    // chunk-insensitive, see [`LOCKFREE_CHUNK`]).
    let chunk_rows = table
        .last()
        .and_then(|r| r.best_par())
        .map(|(chunk, _)| chunk)
        .unwrap_or(KernelPolicy::default().chunk_rows);
    let (election_variant, par_threshold) = class_selection(&table, chunk_rows);
    let (count_variant, count_par_threshold) = class_selection(&count_table, chunk_rows);
    // Reduce/relabel have no lock-free variant; selection degenerates to
    // the chunk-merge crossover (with the same clamp rule).
    let (_, reduce_par_threshold) = class_selection(&reduce_table, chunk_rows);
    let (_, relabel_par_threshold) = class_selection(&relabel_table, chunk_rows);
    let policy = KernelPolicy {
        par_threshold,
        reduce_par_threshold,
        count_par_threshold,
        relabel_par_threshold,
        election_variant,
        count_variant,
        chunk_rows,
    };
    KernelCalibration {
        policy,
        table,
        reduce_table,
        count_table,
        relabel_table,
    }
}

/// Times one holding size: sequential (`None`) plus every candidate chunk
/// smaller than the holding.
fn measure_row(rows: usize, mut run: impl FnMut(Option<usize>) -> u64) -> CrossoverRow {
    let seq_ns = best_of(3, || run(None));
    let par_ns = CALIBRATION_CHUNKS
        .iter()
        .filter(|&&chunk| chunk < rows)
        .map(|&chunk| (chunk, best_of(3, || run(Some(chunk)))))
        .collect();
    CrossoverRow {
        rows,
        seq_ns,
        par_ns,
        lockfree_ns: None,
    }
}

/// The policy that forces a measurement down one path: sequential for
/// `None`, all-parallel chunk-merge with the given chunk otherwise.
fn policy_for(chunk: Option<usize>) -> KernelPolicy {
    match chunk {
        None => KernelPolicy::seq(),
        Some(c) => KernelPolicy::force_par(c),
    }
}

/// A parallel time is a *decisive* win over sequential when it is at
/// least 5% faster. Noise-level wins matter: on a loaded or single-core
/// host, a losing variant's measurements hover in a 0.95–1.05× band, and
/// one lucky sample used to unclamp the class — calibration would then
/// select a variant the kernel sweep measures below 1.0× (the
/// reduce_holding 0.97× flake the emst CI plane caught), tripping the
/// committed-baseline gate at random.
fn decisive(par_ns: u64, seq_ns: u64) -> bool {
    par_ns.saturating_mul(20) < seq_ns.saturating_mul(19)
}

/// Variant + crossover for one class's table. A variant is eligible only
/// if it *decisively* beats sequential at the largest measured size (see
/// [`decisive`] — routing unmeasured giant holdings down a path that
/// loses, or noise-ties, at the top of the table is exactly how a 0.58×
/// `incident_counts` path was once selected). Per eligible variant, the
/// crossover is one below the smallest measured size where it beats
/// sequential; the class routes
/// through whichever eligible variant is fastest at the largest measured
/// size. If **no** variant is eligible, the crossover clamps to
/// `usize::MAX`.
fn class_selection(table: &[CrossoverRow], chunk_rows: usize) -> (ParVariant, usize) {
    let chunk_ok = table.last().is_some_and(|r| {
        r.par_ns
            .iter()
            .any(|&(c, ns)| c == chunk_rows && decisive(ns, r.seq_ns))
    });
    let lf_ok = table
        .last()
        .is_some_and(|r| r.lockfree_ns.is_some_and(|ns| decisive(ns, r.seq_ns)));
    let chunk_win = table
        .iter()
        .find(|r| {
            chunk_ok
                && r.par_ns
                    .iter()
                    .any(|&(c, ns)| c == chunk_rows && ns < r.seq_ns)
        })
        .map(|r| r.rows - 1);
    let lf_win = table
        .iter()
        .find(|r| lf_ok && r.lockfree_ns.is_some_and(|ns| ns < r.seq_ns))
        .map(|r| r.rows - 1);
    let chunk_last = table
        .last()
        .and_then(|r| r.par_ns.iter().find(|&&(c, _)| c == chunk_rows))
        .map_or(u64::MAX, |&(_, ns)| ns);
    let lf_last = table.last().and_then(|r| r.lockfree_ns).unwrap_or(u64::MAX);
    match (chunk_win, lf_win) {
        (None, None) => (ParVariant::LockFree, usize::MAX), // clamp: nothing wins
        (Some(t), None) => (ParVariant::ChunkMerge, t),
        (None, Some(t)) => (ParVariant::LockFree, t),
        (Some(tc), Some(tl)) => {
            if lf_last <= chunk_last {
                (ParVariant::LockFree, tl)
            } else {
                (ParVariant::ChunkMerge, tc)
            }
        }
    }
}

/// [`calibrate_kernel_policy`] behind an on-disk cache: the measured
/// thresholds depend only on the machine, not the run, so repeated harness
/// invocations (every `repro` subcommand, every benchmark) reuse the first
/// run's numbers instead of re-timing ~60 kernel sweeps. The cache key is
/// hostname + available parallelism; the file is a `key=value` snapshot of
/// the seven policy fields in the system temp directory. Any IO or parse
/// problem — including stale pre-lock-free snapshots missing the variant
/// fields — falls back to measuring (and best-effort rewrites the file), so
/// the cache can never fail a run, only speed it up.
pub fn calibrate_kernel_policy_cached(seed: u64) -> KernelPolicy {
    let path = kernel_policy_cache_path();
    if let Some(policy) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse_policy_cache(&text))
    {
        return policy;
    }
    let policy = calibrate_kernel_policy(seed).policy;
    let _ = std::fs::write(&path, render_policy_cache(&policy));
    policy
}

/// The `key=value` snapshot [`calibrate_kernel_policy_cached`] writes.
fn render_policy_cache(policy: &KernelPolicy) -> String {
    format!(
        "par_threshold={}\nreduce_par_threshold={}\ncount_par_threshold={}\n\
         relabel_par_threshold={}\nchunk_rows={}\nelection_variant={}\ncount_variant={}\n",
        policy.par_threshold,
        policy.reduce_par_threshold,
        policy.count_par_threshold,
        policy.relabel_par_threshold,
        policy.chunk_rows,
        variant_name(policy.election_variant),
        variant_name(policy.count_variant),
    )
}

/// Stable cache/snapshot spelling of a parallel-variant choice.
pub fn variant_name(v: ParVariant) -> &'static str {
    match v {
        ParVariant::ChunkMerge => "chunk-merge",
        ParVariant::LockFree => "lockfree",
    }
}

fn parse_variant(s: &str) -> Option<ParVariant> {
    match s {
        "chunk-merge" => Some(ParVariant::ChunkMerge),
        "lockfree" => Some(ParVariant::LockFree),
        _ => None,
    }
}

/// Where the kernel-policy cache for this host/thread-count lives.
fn kernel_policy_cache_path() -> std::path::PathBuf {
    let host = std::fs::read_to_string("/etc/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown".to_string());
    let host: String = host
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::temp_dir().join(format!("mnd-kernel-policy-{host}-t{threads}.txt"))
}

/// Parses a cache snapshot; `None` unless all seven fields parse (a
/// pre-lock-free four-field snapshot therefore self-heals by re-measuring).
fn parse_policy_cache(text: &str) -> Option<KernelPolicy> {
    let mut policy = KernelPolicy::default();
    let mut seen = 0u8;
    for line in text.lines() {
        let (key, value) = line.split_once('=')?;
        let value = value.trim();
        match key.trim() {
            "par_threshold" => policy.par_threshold = value.parse().ok()?,
            "reduce_par_threshold" => policy.reduce_par_threshold = value.parse().ok()?,
            "count_par_threshold" => policy.count_par_threshold = value.parse().ok()?,
            "relabel_par_threshold" => policy.relabel_par_threshold = value.parse().ok()?,
            "chunk_rows" => policy.chunk_rows = value.parse().ok()?,
            "election_variant" => policy.election_variant = parse_variant(value)?,
            "count_variant" => policy.count_variant = parse_variant(value)?,
            _ => continue,
        }
        seen += 1;
    }
    (seen == 7).then_some(policy)
}

/// Smallest of `k` samples of `f` (classic micro-benchmark noise floor).
fn best_of(k: usize, mut f: impl FnMut() -> u64) -> u64 {
    (0..k).map(|_| f()).min().unwrap_or(u64::MAX)
}

/// How many rounds of local work a recursion round's fixed cost must be
/// amortised over before recursing pays (empirically, a distributed round
/// removes only a fraction of the edges, so the collective overheads are
/// paid many times before the holding is gone).
const RECURSION_AMORTIZATION_ROUNDS: f64 = 128.0;

/// The recursion-stop threshold in **paper-scale** edges, derived from the
/// platform model instead of the paper's static 100M constant (§4.3.3).
///
/// One more recursion round costs at least an alltoallv (ghost exchange:
/// `p - 1` sequential peer messages under LogGP `o`) plus two tree
/// allreduces (`2⌈log₂ p⌉` hops) of fixed per-message cost
/// `latency + overhead`. The threshold is the edge volume the node's CPU
/// chews through in that collective time, scaled by
/// [`RECURSION_AMORTIZATION_ROUNDS`] because the fixed cost recurs every
/// round of the recursion it triggers. On the AMD cluster at 16 ranks this
/// lands at ~4×10⁷ edges — the paper's order of magnitude — and shrinks on
/// the low-latency Cray Aries fabric, where recursing is cheaper.
pub fn calibrated_recursion_threshold(platform: &NodePlatform, nranks: usize) -> u64 {
    recursion_threshold_for_round_msgs(platform, assumed_round_msgs(nranks))
}

/// The per-rank fixed-cost message count one recursion round is assumed to
/// pay: a dense alltoallv (`p − 1` peer messages) plus two tree allreduces
/// (`2⌈log₂ p⌉` hops). `repro comm-sweep`'s calibration arm validates this
/// against the *measured* per-round message count of the sparse exchange —
/// see `mnd_bench::comm_calibration`, which retired the standing
/// alltoall-sweep item by confirming the assumption is an upper bound once
/// empty buckets stop shipping.
pub fn assumed_round_msgs(nranks: usize) -> f64 {
    let p = nranks.max(2) as f64;
    (p - 1.0) + 2.0 * p.log2().ceil()
}

/// [`calibrated_recursion_threshold`] with an explicit per-round message
/// count, so the threshold can be re-derived from *measured* exchange
/// traffic (the sparse schedule ships fewer messages per round than the
/// dense assumption, lowering the break-even edge volume).
pub fn recursion_threshold_for_round_msgs(platform: &NodePlatform, round_msgs: f64) -> u64 {
    let round_seconds = round_msgs * (platform.network.latency + platform.network.overhead);
    let edges_per_second = platform.cpu.edge_throughput * platform.cpu.efficiency;
    let threshold = round_seconds * edges_per_second * RECURSION_AMORTIZATION_ROUNDS;
    (threshold.ceil() as u64).max(1)
}

/// Deterministic pseudo-random sorted sample of `k` distinct vertices.
fn sample_vertices(n: VertexId, k: usize, seed: u64) -> Vec<VertexId> {
    // Floyd's algorithm over a hash-permuted id space is overkill here;
    // reservoir-free selection: walk ids, keep those whose hash lands under
    // the acceptance threshold, top up deterministically if short.
    let mut keep = Vec::with_capacity(k);
    let threshold = (k as f64 / n as f64 * u64::MAX as f64) as u64;
    for v in 0..n {
        if splitmix64(seed ^ v as u64).wrapping_sub(1) < threshold {
            keep.push(v);
            if keep.len() == k {
                break;
            }
        }
    }
    let mut v = 0;
    while keep.len() < k && v < n {
        if keep.binary_search(&v).is_err() {
            keep.push(v);
            keep.sort_unstable();
        }
        v += 1;
    }
    keep.sort_unstable();
    keep.dedup();
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;

    #[test]
    fn sample_is_sorted_distinct_and_sized() {
        let s = sample_vertices(1000, 50, 7);
        assert_eq!(s.len(), 50);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&v| v < 1000));
    }

    #[test]
    fn split_favours_gpu_on_big_graphs() {
        // At simulation scale 4096 this 200K-edge graph stands in for an
        // ~800M-edge crawl; 5% samples are then big enough that GPU
        // throughput beats its launch + transfer overheads.
        let g = CsrGraph::from_edge_list(&gen::gnm(20_000, 200_000, 3));
        let split = calibrate_split(
            &g,
            &DeviceModel::cpu_xeon_ivybridge().scaled(4096.0),
            &DeviceModel::gpu_k40().scaled(4096.0),
            5,
            0.05,
            1,
        );
        assert!(split.gpu_speedup > 1.0, "speedup {}", split.gpu_speedup);
        // Pure speed would hand the GPU ~2/3 of the edges, but an
        // ~800M-edge partition exceeds K40 memory, so the cap trims the
        // GPU share (exactly the "GPU memory requirements" clause of
        // §4.3.1) while still keeping the GPU well-used.
        assert!(split.memory_limited);
        assert!(
            split.cpu_fraction < 0.6,
            "cpu_fraction {}",
            split.cpu_fraction
        );
        assert!(split.cpu_fraction > 0.0);
    }

    #[test]
    fn split_uncapped_when_partition_fits() {
        // A 16-node run divides the same crawl: per-node partitions fit the
        // K40 and the split follows speed alone.
        let g = CsrGraph::from_edge_list(&gen::gnm(4_000, 12_000, 3));
        let split = calibrate_split(
            &g,
            &DeviceModel::cpu_xeon_ivybridge().scaled(4096.0),
            &DeviceModel::gpu_k40().scaled(4096.0),
            5,
            0.05,
            1,
        );
        assert!(!split.memory_limited);
        assert!(
            split.cpu_fraction < 0.5,
            "cpu_fraction {}",
            split.cpu_fraction
        );
    }

    #[test]
    fn split_is_deterministic() {
        let g = CsrGraph::from_edge_list(&gen::gnm(5000, 40_000, 9));
        let args = (DeviceModel::cpu_amd_opteron(), DeviceModel::gpu_k40());
        let a = calibrate_split(&g, &args.0, &args.1, 6, 0.05, 42);
        let b = calibrate_split(&g, &args.0, &args.1, 6, 0.05, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_graphs_favour_cpu() {
        // Transfer + launch overheads dominate on a 200-edge graph.
        let g = CsrGraph::from_edge_list(&gen::gnm(100, 200, 5));
        let split = calibrate_split(
            &g,
            &DeviceModel::cpu_xeon_ivybridge(),
            &DeviceModel::gpu_k40(),
            5,
            0.2,
            3,
        );
        assert!(
            split.cpu_fraction > 0.5,
            "cpu_fraction {}",
            split.cpu_fraction
        );
    }

    #[test]
    fn kernel_policy_calibration_is_well_formed() {
        let cal = calibrate_kernel_policy(7);
        for (table, has_lockfree) in [
            (&cal.table, true),
            (&cal.reduce_table, false),
            (&cal.count_table, true),
            (&cal.relabel_table, false),
        ] {
            assert_eq!(table.len(), CALIBRATION_SIZES.len());
            for (row, &rows) in table.iter().zip(&CALIBRATION_SIZES) {
                assert_eq!(row.rows, rows);
                assert!(row.seq_ns > 0);
                // Every candidate chunk below the holding was measured.
                let expect = CALIBRATION_CHUNKS.iter().filter(|&&c| c < rows).count();
                assert_eq!(row.par_ns.len(), expect);
                assert_eq!(row.lockfree_ns.is_some(), has_lockfree);
            }
        }
        // The chosen chunk is one of the candidates, and every class
        // threshold is either just below a measured size or clamped all
        // the way out (never the old "largest measured size" fallback,
        // which extrapolated a losing variant onto unmeasured holdings).
        assert!(CALIBRATION_CHUNKS.contains(&cal.policy.chunk_rows));
        for threshold in [
            cal.policy.par_threshold,
            cal.policy.reduce_par_threshold,
            cal.policy.count_par_threshold,
            cal.policy.relabel_par_threshold,
        ] {
            assert!(
                threshold == usize::MAX || CALIBRATION_SIZES.contains(&(threshold + 1)),
                "threshold {threshold}"
            );
        }
    }

    /// A synthetic crossover row: `lockfree_ns: None` unless provided.
    fn row(
        rows: usize,
        seq_ns: u64,
        par_ns: Vec<(usize, u64)>,
        lockfree_ns: Option<u64>,
    ) -> CrossoverRow {
        CrossoverRow {
            rows,
            seq_ns,
            par_ns,
            lockfree_ns,
        }
    }

    /// Satellite-1 regression: a class whose parallel variants lose at
    /// every measured size must be clamped to `usize::MAX`, not handed the
    /// old "largest measured size" threshold that still routed unmeasured
    /// giant holdings down the losing path (a 0.58× `incident_counts` row
    /// once did).
    #[test]
    fn class_selection_clamps_when_parallel_never_wins() {
        let table = vec![
            row(4096, 100, vec![(1024, 180)], Some(150)),
            row(65536, 1000, vec![(1024, 1700)], Some(1200)),
        ];
        assert_eq!(
            class_selection(&table, 1024),
            (ParVariant::LockFree, usize::MAX)
        );
        // Same clamp for a class with no lock-free variant at all.
        let table = vec![row(4096, 100, vec![(1024, 180)], None)];
        assert_eq!(
            class_selection(&table, 1024),
            (ParVariant::LockFree, usize::MAX)
        );
    }

    /// A noise-level "win" (within 5% of sequential) at the largest size
    /// must not unclamp a class: losing variants measure in a 0.95–1.05×
    /// band on loaded hosts, and one lucky sample used to hand them a
    /// crossover — then the kernel sweep measured them below 1.0× and the
    /// bench gate failed at random.
    #[test]
    fn class_selection_ignores_noise_level_wins() {
        // Chunk-merge "wins" 990 vs 1000 at the top — a 1% hair, clamp.
        let table = vec![
            row(4096, 100, vec![(1024, 99)], None),
            row(65536, 1000, vec![(1024, 990)], None),
        ];
        assert_eq!(
            class_selection(&table, 1024),
            (ParVariant::LockFree, usize::MAX)
        );
        // A decisive 20% win at the top keeps the early crossover.
        let table = vec![
            row(4096, 100, vec![(1024, 99)], None),
            row(65536, 1000, vec![(1024, 800)], None),
        ];
        assert_eq!(
            class_selection(&table, 1024),
            (ParVariant::ChunkMerge, 4095)
        );
        // Same rule for the lock-free variant.
        let table = vec![
            row(4096, 100, vec![(1024, 150)], Some(99)),
            row(65536, 1000, vec![(1024, 1500)], Some(980)),
        ];
        assert_eq!(
            class_selection(&table, 1024),
            (ParVariant::LockFree, usize::MAX)
        );
    }

    #[test]
    fn class_selection_picks_the_winning_variant_and_crossover() {
        // Lock-free starts winning at 8192; chunk-merge never does.
        let table = vec![
            row(4096, 100, vec![(1024, 180)], Some(150)),
            row(8192, 300, vec![(1024, 400)], Some(200)),
        ];
        assert_eq!(class_selection(&table, 1024), (ParVariant::LockFree, 8191));
        // Chunk-merge wins earlier but lock-free is faster at the largest
        // size, so lock-free is chosen with *its own* crossover.
        let table = vec![
            row(4096, 100, vec![(1024, 80)], Some(150)),
            row(8192, 300, vec![(1024, 250)], Some(200)),
        ];
        assert_eq!(class_selection(&table, 1024), (ParVariant::LockFree, 8191));
        // ... and chunk-merge is kept when it stays fastest at the top.
        let table = vec![
            row(4096, 100, vec![(1024, 80)], Some(150)),
            row(8192, 300, vec![(1024, 250)], Some(280)),
        ];
        assert_eq!(
            class_selection(&table, 1024),
            (ParVariant::ChunkMerge, 4095)
        );
    }

    #[test]
    fn policy_cache_round_trips_and_rejects_partial_snapshots() {
        let p = KernelPolicy {
            par_threshold: 8191,
            reduce_par_threshold: 16383,
            count_par_threshold: usize::MAX, // the clamp must survive the cache
            relabel_par_threshold: 65536,
            election_variant: ParVariant::LockFree,
            count_variant: ParVariant::ChunkMerge,
            chunk_rows: 4096,
        };
        assert_eq!(parse_policy_cache(&render_policy_cache(&p)), Some(p));
        assert_eq!(parse_policy_cache("par_threshold=1\n"), None);
        assert_eq!(parse_policy_cache("par_threshold=banana\n"), None);
        assert_eq!(parse_policy_cache("election_variant=spinlock\n"), None);
        assert_eq!(parse_policy_cache(""), None);
        // A stale pre-lock-free four-field snapshot self-heals (re-measures).
        let stale =
            "par_threshold=1\nreduce_par_threshold=2\nrelabel_par_threshold=3\nchunk_rows=4\n";
        assert_eq!(parse_policy_cache(stale), None);
    }

    #[test]
    fn policy_cache_path_is_host_and_thread_keyed() {
        let path = kernel_policy_cache_path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("mnd-kernel-policy-"), "{name}");
        assert!(name.contains("-t"), "{name}");
    }

    #[test]
    fn calibrated_threshold_tracks_network_latency() {
        let amd = calibrated_recursion_threshold(&NodePlatform::amd_cluster(), 16);
        let cray = calibrated_recursion_threshold(&NodePlatform::cray_xc40(false), 16);
        // Same order of magnitude as the paper's 100M constant on the
        // commodity cluster ...
        assert!(
            (1_000_000..1_000_000_000).contains(&amd),
            "amd threshold {amd}"
        );
        // ... and smaller on the low-latency Aries fabric (recursing is
        // cheaper there, even with the faster Xeon raising the local rate).
        assert!(cray < amd, "cray {cray} >= amd {amd}");
        // More ranks -> more collective cost -> higher break-even.
        let amd4 = calibrated_recursion_threshold(&NodePlatform::amd_cluster(), 4);
        assert!(amd4 < amd, "amd4 {amd4} >= amd16 {amd}");
        assert!(calibrated_recursion_threshold(&NodePlatform::amd_cluster(), 0) >= 1);
    }

    #[test]
    fn empty_graph_is_cpu_only() {
        let g = CsrGraph::from_edges(0, &[]);
        let split = calibrate_split(
            &g,
            &DeviceModel::cpu_xeon_ivybridge(),
            &DeviceModel::gpu_k40(),
            5,
            0.05,
            1,
        );
        assert_eq!(split, DeviceSplit::cpu_only());
    }
}
