//! The driver pipeline, decomposed into phases.
//!
//! `rank_main` used to be one 500-line function; it is now a sequence of
//! [`Phase`] objects sharing a [`RankCtx`]:
//!
//! ```text
//! Partition -> IndComp -> HierMerge -> PostProcess
//!                 |           |
//!                 +-- MergeParts (ghost exchange + reduction; also run
//!                     by HierMerge's collaborative-merging rounds)
//! ```
//!
//! Every phase boundary reports a [`PhaseSample`] (simulated time and
//! traffic deltas, host wall time, holding rows in and out) through two
//! sinks: the driver's own [`PhaseTimesRecorder`] — which produces the
//! `PhaseTimes` in [`crate::result::MndMstReport`] — and the user hook
//! configured on [`mnd_hypar::HyParConfig::observer`]. Both see identical
//! samples, so an external observer can rebuild the report's breakdown (or
//! a finer one: samples carry the merge level). Inside a phase, the
//! kernel calls, exchanges and merges are timed one by one
//! ([`RankCtx::step`]) for the user hook alone.

mod hier_merge;
mod ind_comp;
mod merge_parts;
mod partition;
mod post_process;

pub use hier_merge::HierMerge;
pub use ind_comp::IndComp;
pub use merge_parts::MergeParts;
pub use partition::{Level0, Partition};
pub use post_process::PostProcess;

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mnd_device::DeviceSplit;
use mnd_engine::{Recoverable, Recovery};
use mnd_graph::types::WEdge;
use mnd_graph::EdgeList;
use mnd_hypar::chaos::{ChaosEvent, ChaosEventKind, ChaosHook};
use mnd_hypar::observe::{thread_cpu_ns, PhaseKind, PhaseObserver, PhaseSample, StepSample};
use mnd_hypar::HyParConfig;
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::msf::MsfResult;
use mnd_kernels::policy::with_kernel_threads;
use mnd_net::Comm;

use crate::checkpoint::RankCheckpoint;
use crate::ghost::GhostDirectory;
use crate::result::PhaseTimes;
use crate::runner::{MndMstRunner, RankResult};

/// The shared recovery driver specialised to the D&C driver's checkpoint
/// payload. Phases call [`mnd_engine::Recovery::step`] with the context at
/// their recovery points (after partitioning and after every mergeParts
/// pass); everything else — stalls, checkpoint cost, replay-log epochs,
/// mid-phase crash arming, fast-forward resume — lives in [`mnd_engine`].
pub type RankRecovery<'a> = Recovery<'a, RankCheckpoint>;

/// One stage of the per-rank pipeline. Phases mutate the shared [`RankCtx`]
/// and report their cost through [`RankCtx::observed`].
pub trait Phase {
    /// The observation kind this phase reports under.
    fn kind(&self) -> PhaseKind;
    /// Executes the phase (in lockstep across ranks — every phase runs on
    /// every rank, with empty holdings making the work a no-op). `rec` is
    /// the shared recovery driver; phases with recovery points call
    /// [`mnd_engine::Recovery::step`] on it.
    fn run(&mut self, cx: &mut RankCtx<'_>, rec: &mut RankRecovery<'_>);
}

/// Folds phase samples into the report's four-bucket [`PhaseTimes`]:
/// `indComp` compute stands alone, partition/merge/hierarchy compute is
/// merge-side work, post-processing stands alone. (Communication time is
/// taken from the rank's total stats by the report assembler, matching the
/// paper's Figure 7 where "comm" is the fourth bar segment.)
pub struct PhaseTimesRecorder(Mutex<PhaseTimes>);

impl PhaseTimesRecorder {
    pub(crate) fn new() -> Self {
        PhaseTimesRecorder(Mutex::new(PhaseTimes::default()))
    }

    pub(crate) fn snapshot(&self) -> PhaseTimes {
        *self.0.lock().expect("recorder poisoned")
    }
}

impl PhaseObserver for PhaseTimesRecorder {
    fn on_phase(&self, kind: PhaseKind, sample: &PhaseSample) {
        let mut t = self.0.lock().expect("recorder poisoned");
        match kind {
            PhaseKind::IndComp => t.ind_comp += sample.compute_time,
            PhaseKind::Partition | PhaseKind::MergeParts | PhaseKind::HierMerge => {
                t.merge += sample.compute_time
            }
            PhaseKind::PostProcess => t.post_process += sample.compute_time,
        }
    }
}

/// Everything a rank's phases share: the immutable run inputs, the evolving
/// holding + ghost directory, accumulated outputs, and the observation
/// plumbing.
pub struct RankCtx<'a> {
    /// The runner (configuration, platform, cost helpers).
    pub runner: &'a MndMstRunner,
    /// Kernel threads of the host the ranks share.
    host_threads: usize,
    /// This rank's communicator.
    pub comm: &'a Comm,
    /// The input edge list (shared, read-only).
    pub el: &'a EdgeList,
    /// The run's level-0 holdings ([`Partition`] takes this rank's).
    pub level0: &'a Level0,
    /// The run's phase-level chaos schedule (unset on fault-free runs).
    pub chaos: &'a ChaosHook,
    /// The rank's current holding.
    pub cg: CGraph,
    /// Component → owner directory.
    pub dir: GhostDirectory,
    /// Calibrated intra-node device split.
    pub split: DeviceSplit,
    /// MSF edges contracted by this rank so far.
    pub msf_local: Vec<WEdge>,
    /// The final forest (set on the gathering rank by [`PostProcess`]).
    pub msf: Option<MsfResult>,
    /// Hierarchical-merge levels completed (= current level for samples).
    pub levels: usize,
    /// Ring-exchange rounds executed.
    pub exchange_rounds: usize,
    /// Largest paper-scale holding seen.
    pub max_holding_bytes: u64,
    /// The rank that holds the fully merged data after [`HierMerge`] —
    /// rank 0 unless chaos forced a leader failover along the way.
    pub final_rank: usize,
    recorder: Arc<PhaseTimesRecorder>,
}

impl<'a> RankCtx<'a> {
    /// Fresh context at rank start; [`Partition`] populates the holding.
    /// `recorder` is owned by the caller so it survives a mid-phase crash
    /// unwind and carries over into the next re-execution attempt (the
    /// checkpoint slot and fired-crash set live in the shared recovery
    /// driver, [`mnd_engine::run_recoverable`]).
    pub fn new(
        runner: &'a MndMstRunner,
        host_threads: usize,
        comm: &'a Comm,
        el: &'a EdgeList,
        level0: &'a Level0,
        chaos: &'a ChaosHook,
        recorder: Arc<PhaseTimesRecorder>,
    ) -> Self {
        RankCtx {
            runner,
            host_threads,
            comm,
            el,
            level0,
            chaos,
            cg: CGraph::new(),
            dir: GhostDirectory::default(),
            split: DeviceSplit::cpu_only(),
            msf_local: Vec::new(),
            msf: None,
            levels: 0,
            exchange_rounds: 0,
            max_holding_bytes: 0,
            final_rank: 0,
            recorder,
        }
    }

    /// The HyPar configuration.
    #[inline]
    pub fn cfg(&self) -> &'a HyParConfig {
        &self.runner.config
    }

    /// Runs `f` and attributes its simulated time/traffic delta to `kind`:
    /// the rank's stats are snapshotted around the call and the difference
    /// is emitted to the internal recorder and the configured observer.
    pub fn observed<R>(&mut self, kind: PhaseKind, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.comm.fast_forward() {
            // Zero-cost re-execution of an already-observed stretch: the
            // stats cannot move, so neither sink gets a (spurious, empty)
            // sample.
            return f(self);
        }
        let before = self.comm.stats();
        let (rows_in, cut_in) = (self.cg.num_edges(), self.cg.known_cut_rows());
        let started = Instant::now();
        let out = f(self);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let delta = self.comm.stats().delta_since(&before);
        let sample = PhaseSample {
            rank: self.comm.rank() as u32,
            level: self.levels as u32,
            compute_time: delta.compute_time,
            comm_time: delta.comm_time,
            bytes_sent: delta.bytes_sent,
            messages_sent: delta.messages_sent,
            wall_ns,
            rows_in: rows_in as u64,
            rows_out: self.cg.num_edges() as u64,
            cut_rows: self.cg.known_cut_rows().or(cut_in).unwrap_or(0) as u64,
        };
        self.recorder.on_phase(kind, &sample);
        self.runner.config.observer.emit(kind, &sample);
        out
    }

    /// Runs `f` as the named step of phase `phase` and, if an observer is
    /// attached, reports what it cost the host: wall time, the rank
    /// thread's CPU time, holding rows in and out. Clocks are read only
    /// then, and never on a fast-forward re-execution.
    pub fn step<R>(
        &mut self,
        phase: PhaseKind,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let observer = &self.runner.config.observer;
        if !observer.is_set() || self.comm.fast_forward() {
            return f(self);
        }
        let rows_in = self.cg.num_edges() as u64;
        let (started, cpu_before) = (Instant::now(), thread_cpu_ns());
        let out = f(self);
        observer.emit_step(&StepSample {
            rank: self.comm.rank() as u32,
            level: self.levels as u32,
            phase,
            name,
            wall_ns: started.elapsed().as_nanos() as u64,
            cpu_ns: thread_cpu_ns()
                .zip(cpu_before)
                .map(|(after, before)| after - before),
            rows_in,
            rows_out: self.cg.num_edges() as u64,
        });
        out
    }

    /// Runs `f` on a rank the others wait for: while only `workers` ranks
    /// have work (the leaders of a merge level, the final rank), each of
    /// them takes the kernel threads of the ranks blocked on it — its
    /// share of the host becomes `host / workers` threads. Any thread count
    /// gives the same bytes (the kernels' determinism contract), so only
    /// the wall clock can tell. The thread cap is the rank's own share
    /// again when `f` returns or unwinds.
    pub fn alone<R>(&mut self, workers: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let threads = (self.host_threads / workers.max(1)).max(1);
        with_kernel_threads(threads, || f(self))
    }

    /// Emits a chaos event (stamped with this rank, the current merge
    /// level, and the virtual clock) to the configured observer.
    pub(crate) fn emit_chaos(&self, kind: ChaosEventKind, boundary: u32, detail: u64) {
        if self.comm.fast_forward() {
            // Fast-forward re-traverses boundaries whose events were
            // already reported before the crash; don't report them twice.
            return;
        }
        let event = ChaosEvent {
            rank: self.comm.rank() as u32,
            kind,
            level: self.levels as u32,
            boundary,
            time: self.comm.now(),
            detail,
        };
        self.runner.config.observer.emit_chaos(&event);
    }

    /// Updates the high-water mark of holding memory.
    pub fn note_holding(&mut self) {
        self.max_holding_bytes = self
            .max_holding_bytes
            .max(self.runner.paper_bytes(&self.cg));
    }

    /// Finishes the rank: packages outputs plus the recorded phase times.
    pub(crate) fn into_result(self) -> RankResult {
        RankResult {
            msf: self.msf,
            phases: self.recorder.snapshot(),
            levels: self.levels,
            exchange_rounds: self.exchange_rounds,
            max_holding_bytes: self.max_holding_bytes,
        }
    }
}

/// The D&C driver's side of the shared recovery contract: checkpoints are
/// [`RankCheckpoint`]s captured from the context, and chaos events carry
/// the merge level the rank is at.
impl Recoverable for RankCtx<'_> {
    type State = RankCheckpoint;

    fn capture(&self) -> RankCheckpoint {
        RankCheckpoint::capture(self)
    }

    fn restore(&mut self, snapshot: RankCheckpoint) {
        snapshot.restore(self);
    }

    fn chaos_level(&self) -> u32 {
        self.levels as u32
    }
}
