//! The engine contract shared by every MSF engine in the workspace.
//!
//! Three engines compute minimum spanning forests over the simulated
//! cluster — the paper's D&C driver (`mnd-mst`), the Pregel+-style BSP
//! baseline (`mnd-pregel`), and the min-plus sparse-matrix engine
//! (`mnd-spmsf`). This crate is the piece they share:
//!
//! * [`Engine`]: the run contract — take an `EdgeList`, run on the
//!   simulated cluster (optionally armed with an [`EngineChaos`]), return
//!   an [`EngineReport`] with the forest, simulated times, per-rank
//!   traffic, and recovery counters. Benches iterate a registry of
//!   `Box<dyn Engine>` instead of hardcoding per-engine arms.
//! * [`EngineChaos`]: the bundle of hooks a chaos-armed run needs — the
//!   fabric-level [`mnd_net::FaultInjector`], the phase-level
//!   [`mnd_hypar::ChaosControl`] schedule, and an observer for
//!   [`ChaosEvent`]s. One seeded `FaultPlan` from `mnd-chaos` implements
//!   both fault traits, so [`EngineChaos::from_plan`] arms a whole run
//!   from a single plan — identically for every engine.
//! * [`run_recoverable`] + [`Recovery`]: the checkpoint/rollback recovery
//!   driver (DESIGN.md §5f/§6). This used to exist twice — as `rank_main`'s
//!   re-execution loop in `mnd-mst` and as `run_recoverable` in
//!   `mnd-pregel` — with near-identical boundary protocols; it is hoisted
//!   here once. Engines expose their mutable state through [`Recoverable`]
//!   and call [`Recovery::boundary`] (or [`Recovery::step`]) at their
//!   recovery points; everything else — stalls, checkpoint cost,
//!   replay-log epochs, mid-phase crash arming, fast-forward resume — is
//!   the driver's business.
//!
//! * [`election`]: the dense per-round candidate table the two round-loop
//!   engines (`bsp`, `spmsf`) min-reduce into — slot columns allocated
//!   once per run and reset through each round's touched list.
//!
//! The invariant carried over from the per-engine copies: *recovery never
//! perturbs the logical fabric accounting*. Suppressed re-sends and
//! replayed receives are tracked separately (`RankStats::replayed_*`), so
//! a recovered run's `bytes_sent`/`messages_sent`/`bytes_received`/
//! `messages_received` byte-match the fault-free run.

pub mod election;

use std::cell::RefCell;
use std::collections::BTreeSet;

use mnd_graph::EdgeList;
use mnd_hypar::{ChaosEvent, ChaosEventKind, ChaosHook, ObserverHook};
use mnd_kernels::msf::MsfResult;
use mnd_net::{Comm, InjectorHook, MidPhaseCrash, RankStats, Wire};

/// Everything that arms a run against the chaos plane. The empty value
/// ([`EngineChaos::none`]) is a fault-free run with zero overhead: no
/// checkpoints are written, no replay log is kept, and the simulated
/// numbers are byte-identical to a build without this crate.
#[derive(Clone, Debug, Default)]
pub struct EngineChaos {
    /// Fabric-level fault injector (drops/delays/duplicates/reorders),
    /// handed to the cluster.
    pub faults: InjectorHook,
    /// Phase-level schedule (stalls, crashes, mid-phase crashes),
    /// consulted at recovery boundaries.
    pub control: ChaosHook,
    /// Sink for [`ChaosEvent`]s on the recovery path.
    pub observer: ObserverHook,
}

impl EngineChaos {
    /// The unarmed (fault-free) value.
    pub fn none() -> Self {
        EngineChaos::default()
    }

    /// Arms both fault layers from one seeded plan — typically an
    /// `Arc<mnd_chaos::FaultPlan>`, which implements both traits, so every
    /// engine armed with the same plan sees the same fault schedule.
    pub fn from_plan<P>(plan: std::sync::Arc<P>) -> Self
    where
        P: mnd_net::FaultInjector + mnd_hypar::ChaosControl + 'static,
    {
        EngineChaos {
            faults: InjectorHook::new(plan.clone()),
            control: ChaosHook::new(plan),
            observer: ObserverHook::none(),
        }
    }

    /// Attaches an observer for chaos events.
    pub fn with_observer(mut self, observer: ObserverHook) -> Self {
        self.observer = observer;
        self
    }

    /// Whether a phase-level schedule is armed (the recovery machinery is
    /// skipped entirely when not).
    pub fn is_armed(&self) -> bool {
        self.control.is_set()
    }
}

/// What every engine reports back from a run: the forest, the simulated
/// cost, and the recovery bill.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// The global minimum spanning forest (unique under the workspace's
    /// `(w, u, v)` edge order, so engines are comparable edge-for-edge).
    pub msf: MsfResult,
    /// Simulated makespan (max final virtual clock over ranks).
    pub total_time: f64,
    /// Max communication time across ranks.
    pub comm_time: f64,
    /// Per-rank raw statistics (traffic, checkpoint writes/restores,
    /// replayed compute/bytes — see [`RankStats`]).
    pub rank_stats: Vec<RankStats>,
    /// Engine-specific count of re-executed work units after injected
    /// crashes (D&C: checkpoint restores; BSP: recovered supersteps;
    /// spmsf: recovered steps). 0 on fault-free runs.
    pub recovered_units: u64,
}

impl EngineReport {
    /// Sum of a per-rank counter over all ranks.
    pub fn sum_stat(&self, f: impl Fn(&RankStats) -> u64) -> u64 {
        self.rank_stats.iter().map(f).sum()
    }
}

/// An MSF engine runnable on the simulated cluster. Implementations carry
/// their own configuration (rank count, platform, algorithm knobs); the
/// trait is the part benches and agreement tests interact with.
pub trait Engine {
    /// Short stable name for tables and traces (e.g. `"mnd-mst"`).
    fn name(&self) -> &'static str;

    /// One-line human description for `repro engines` and the serving
    /// plane's catalogue. Keep it to what distinguishes the execution
    /// model, not marketing.
    fn description(&self) -> &'static str {
        ""
    }

    /// Runs the engine with the chaos plane armed. With
    /// [`EngineChaos::none`] this must be exactly the fault-free run.
    fn run_chaos(&self, el: &EdgeList, chaos: &EngineChaos) -> EngineReport;

    /// Fault-free run.
    fn run(&self, el: &EdgeList) -> EngineReport {
        self.run_chaos(el, &EngineChaos::none())
    }
}

/// A long-lived serving handle around an [`Engine`]: the same run
/// contract, plus cumulative utilisation accounting — how many jobs this
/// backend has served and how many simulated seconds it has been busy.
/// `mnd-serve` schedules `Service` values (one per granted rank-set size)
/// instead of raw engines so multi-tenant reports can show backend
/// utilisation next to per-tenant latency.
pub struct Service {
    engine: Box<dyn Engine>,
    runs: std::cell::Cell<u64>,
    busy: std::cell::Cell<f64>,
}

impl Service {
    /// Wraps an engine into a serving handle with zeroed counters.
    pub fn new(engine: Box<dyn Engine>) -> Self {
        Service {
            engine,
            runs: std::cell::Cell::new(0),
            busy: std::cell::Cell::new(0.0),
        }
    }

    /// The wrapped engine's stable name.
    pub fn name(&self) -> &'static str {
        self.engine.name()
    }

    /// The wrapped engine's one-line description.
    pub fn description(&self) -> &'static str {
        self.engine.description()
    }

    /// Fault-free run, booked into the utilisation counters.
    pub fn run(&self, el: &EdgeList) -> EngineReport {
        let r = self.engine.run(el);
        self.runs.set(self.runs.get() + 1);
        self.busy.set(self.busy.get() + r.total_time);
        r
    }

    /// Chaos-armed run, booked into the utilisation counters.
    pub fn run_chaos(&self, el: &EdgeList, chaos: &EngineChaos) -> EngineReport {
        let r = self.engine.run_chaos(el, chaos);
        self.runs.set(self.runs.get() + 1);
        self.busy.set(self.busy.get() + r.total_time);
        r
    }

    /// Jobs served so far.
    pub fn runs(&self) -> u64 {
        self.runs.get()
    }

    /// Cumulative simulated seconds the backend spent executing jobs.
    pub fn busy_seconds(&self) -> f64 {
        self.busy.get()
    }
}

/// Virtual seconds to write a checkpoint of `bytes` wire bytes: a fixed
/// metadata sync plus streaming the state to node-local storage at 2 GB/s
/// (paper-scale bytes). One storage model for every engine, so they pay
/// identical recovery costs.
pub fn checkpoint_seconds(bytes: u64, sim_scale: f64) -> f64 {
    1e-4 + bytes as f64 * sim_scale / 2e9
}

/// Virtual seconds a crashed rank spends restarting: a one-second process
/// respawn penalty plus re-reading its checkpoint.
pub fn restart_seconds(bytes: u64, sim_scale: f64) -> f64 {
    1.0 + checkpoint_seconds(bytes, sim_scale)
}

/// State an engine can checkpoint at a recovery boundary. `capture` clones
/// the recoverable state into its wire form; `restore` swaps a committed
/// checkpoint back in. Engines whose state struct *is* the checkpoint
/// (BSP, spmsf) implement this with `State = Self`; the D&C driver
/// captures a `RankCheckpoint` out of its richer context.
pub trait Recoverable {
    /// The checkpoint payload; its [`Wire`] size is what the storage model
    /// charges per write.
    type State: Clone + Wire;
    /// Snapshots the recoverable state.
    fn capture(&self) -> Self::State;
    /// Rebuilds the recoverable state from a checkpoint.
    fn restore(&mut self, snapshot: Self::State);
    /// The hierarchy level chaos events should be stamped with (the D&C
    /// driver reports its merge level; flat engines leave the default 0).
    fn chaos_level(&self) -> u32 {
        0
    }
}

/// Per-execution recovery state a chaos-armed engine threads through its
/// run. Created by [`run_recoverable`]; the engine body only calls
/// [`Recovery::boundary`] (progress-gated, BSP-style) or
/// [`Recovery::step`] (every call is a boundary candidate, D&C-style).
pub struct Recovery<'a, S> {
    comm: &'a Comm,
    control: &'a ChaosHook,
    observer: &'a ObserverHook,
    interval: u64,
    sim_scale: f64,
    /// Boundary ordinal (advances at every *taken* boundary, identically
    /// on every rank — recovery points sit at lockstep points).
    boundary: u32,
    /// Progress count at the last taken boundary.
    last_ckpt: u64,
    /// Calls to [`Recovery::step`] so far (its progress counter).
    steps: u64,
    /// Level reported at the last taken boundary — stamps the
    /// mid-phase-crash event raised between boundaries.
    level: u32,
    /// Boundary whose checkpoint this re-execution resumes from.
    resume_boundary: Option<u32>,
    /// Last committed checkpoint `(boundary, state)` — owned by
    /// [`run_recoverable`] so it survives the crash unwind.
    checkpoint: &'a RefCell<Option<(u32, S)>>,
    /// Mid-phase crash points that already fired (never re-armed).
    fired: &'a RefCell<BTreeSet<(u32, u64)>>,
}

impl<S: Clone + Wire> Recovery<'_, S> {
    /// A recovery point. No-op unless a chaos schedule is armed and
    /// `progress` has advanced past the checkpoint interval; engines call
    /// it unconditionally at their loop heads with a monotone progress
    /// counter (the BSP engines pass their superstep count).
    ///
    /// With the boundary taken the rank, in order: serves any scheduled
    /// stall, captures a checkpoint (charged at the shared storage rate),
    /// commits it — garbage-collecting the send-side replay log, advancing
    /// the epoch, and retiring the whole log once past the plan's replay
    /// horizon — arms the next scheduled mid-phase crash, and, if the
    /// schedule crashes it *at* this boundary, pays the restart penalty
    /// and restores the checkpoint it just wrote.
    ///
    /// During post-crash fast-forward the boundary is only traversed; at
    /// the resume boundary the stored checkpoint is swapped into the
    /// target and the rank switches to live replay of the interrupted
    /// epoch.
    pub fn boundary<T: Recoverable<State = S>>(&mut self, target: &mut T, progress: u64) {
        if !self.control.is_set() || progress.saturating_sub(self.last_ckpt) < self.interval {
            return;
        }
        self.last_ckpt = progress;
        self.level = target.chaos_level();
        let b = self.boundary;
        self.boundary += 1;
        let rank = self.comm.rank();

        if self.comm.fast_forward() {
            self.comm.advance_epoch();
            if Some(b) == self.resume_boundary {
                let (cb, snap) = self
                    .checkpoint
                    .borrow()
                    .clone()
                    .expect("resume boundary must have a committed checkpoint");
                debug_assert_eq!(cb, b, "stale checkpoint in the slot");
                let bytes = snap.wire_bytes();
                target.restore(snap);
                self.comm.set_fast_forward(false);
                self.comm.set_replay_live(true);
                self.comm.note_checkpoint_restore();
                self.emit(ChaosEventKind::CheckpointRestore, b, bytes);
                self.arm_crash_for_current_epoch();
            }
            return;
        }
        // Replay normally goes live inside send/recv when it catches up
        // with the crash point; an epoch tail without fabric ops ends
        // here at the latest.
        self.comm.set_replay_live(false);

        let stall = self.control.stall_seconds(rank, b);
        if stall > 0.0 {
            self.comm.stall(stall);
            self.emit(ChaosEventKind::Stall, b, (stall * 1e6) as u64);
        }

        let snap = target.capture();
        let bytes = snap.wire_bytes();
        self.comm.compute(checkpoint_seconds(bytes, self.sim_scale));
        self.comm.note_checkpoint_write(bytes);
        self.emit(ChaosEventKind::CheckpointWrite, b, bytes);
        *self.checkpoint.borrow_mut() = Some((b, snap));
        // Commit: rollback can never re-enter epochs at or before this
        // boundary.
        self.comm.gc_replay_sends(self.comm.epoch());
        self.comm.advance_epoch();
        // Past the plan's replay horizon no mid-phase crash can fire on
        // this rank again: retire the log (replay-log GC).
        if let Some(h) = self.control.replay_horizon(rank) {
            if self.comm.epoch() >= h {
                self.comm.retire_replay_log();
            }
        }
        self.arm_crash_for_current_epoch();

        if self.control.crashes_at(rank, b) {
            self.emit(ChaosEventKind::Crash, b, 0);
            // The crash wipes the rank's in-memory state; the restart pays
            // respawn + checkpoint re-read, then the state comes back from
            // stable storage (the slot keeps its copy: a later mid-phase
            // crash may need it again).
            self.comm.stall(restart_seconds(bytes, self.sim_scale));
            let (_, snap) = self
                .checkpoint
                .borrow()
                .clone()
                .expect("checkpoint written above");
            target.restore(snap);
            self.comm.note_checkpoint_restore();
            self.emit(ChaosEventKind::CheckpointRestore, b, bytes);
        }
    }

    /// A recovery point with an internal progress counter: the Nth call is
    /// progress N, so with the default interval of 1 every call is a taken
    /// boundary — the D&C driver's phase-boundary cadence.
    pub fn step<T: Recoverable<State = S>>(&mut self, target: &mut T) {
        self.steps += 1;
        let p = self.steps;
        self.boundary(target, p);
    }

    /// Arms the plan's mid-phase crash for the epoch the rank is in,
    /// unless that crash already fired (a fired crash must not loop).
    fn arm_crash_for_current_epoch(&self) {
        if self.comm.fast_forward() {
            return;
        }
        let epoch = self.comm.epoch();
        if let Some(op) = self.control.mid_phase_crash(self.comm.rank(), epoch) {
            if !self.fired.borrow().contains(&(epoch, op)) {
                self.comm.arm_mid_phase_crash(op);
            }
        }
    }

    /// Emits a chaos event to the configured observer (suppressed during
    /// fast-forward: those boundaries' events were reported before the
    /// crash).
    fn emit(&self, kind: ChaosEventKind, boundary: u32, detail: u64) {
        if self.comm.fast_forward() {
            return;
        }
        self.observer.emit_chaos(&ChaosEvent {
            rank: self.comm.rank() as u32,
            kind,
            level: self.level,
            boundary,
            time: self.comm.now(),
            detail,
        });
    }
}

/// Runs an engine body under the rollback-recovery loop. `body` must be a
/// deterministic from-the-top execution of the whole per-rank program
/// (state initialisation included) that calls [`Recovery::boundary`] or
/// [`Recovery::step`] at its recovery points; a [`MidPhaseCrash`] raised
/// by the fabric unwinds it, and the loop re-runs it with the recovery
/// mode flags set: already-charged epochs fast-forward at zero cost
/// against the replay log, the checkpoint written before the interrupted
/// epoch is swapped in at the resume boundary, and the interrupted epoch
/// replays live (its inbound messages served from the log for free, its
/// compute charged as real recovery work). Unarmed, the body runs exactly
/// once with every boundary a no-op.
pub fn run_recoverable<S, R>(
    comm: &Comm,
    control: &ChaosHook,
    observer: &ObserverHook,
    interval: u64,
    sim_scale: f64,
    body: impl Fn(&mut Recovery<'_, S>) -> R,
) -> R
where
    S: Clone + Wire,
{
    if control.is_set() {
        mnd_net::install_quiet_crash_hook();
        // A horizon of 0 means the plan never crashes this rank mid-phase:
        // no rollback can ever read the log, so don't build one.
        if control.replay_horizon(comm.rank()) != Some(0) {
            comm.enable_replay_log();
        }
    }
    let checkpoint: RefCell<Option<(u32, S)>> = RefCell::new(None);
    let fired: RefCell<BTreeSet<(u32, u64)>> = RefCell::new(BTreeSet::new());
    // `None` = first execution; `Some(rb)` = re-execution resuming from
    // checkpoint boundary `rb` (`Some(None)` = crash in epoch 0, no
    // checkpoint exists: replay the whole prefix live from scratch).
    let mut resume: Option<Option<u32>> = None;
    loop {
        let mut rp = Recovery {
            comm,
            control,
            observer,
            interval: interval.max(1),
            sim_scale,
            boundary: 0,
            last_ckpt: 0,
            steps: 0,
            level: 0,
            resume_boundary: resume.flatten(),
            checkpoint: &checkpoint,
            fired: &fired,
        };
        if let Some(rb) = resume {
            match rb {
                Some(_) => comm.set_fast_forward(true),
                None => comm.set_replay_live(true),
            }
        }
        rp.arm_crash_for_current_epoch();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rp)));
        match result {
            Ok(r) => {
                comm.clear_replay_log();
                return r;
            }
            Err(payload) => match payload.downcast::<MidPhaseCrash>() {
                Ok(crash) => {
                    let crash = *crash;
                    fired.borrow_mut().insert((crash.epoch, crash.op));
                    comm.set_fast_forward(false);
                    comm.set_replay_live(false);
                    rp.emit(ChaosEventKind::MidPhaseCrash, crash.epoch, crash.op);
                    // The restart pays respawn + re-reading whatever
                    // checkpoint exists; replayed bytes are free but
                    // re-executed compute is charged as it re-runs.
                    let ckpt_bytes = checkpoint
                        .borrow()
                        .as_ref()
                        .map_or(0, |(_, s)| s.wire_bytes());
                    comm.stall(restart_seconds(ckpt_bytes, sim_scale));
                    comm.reset_sequences();
                    resume = Some(if crash.epoch == 0 {
                        None
                    } else {
                        Some(crash.epoch - 1)
                    });
                }
                Err(other) => std::panic::resume_unwind(other),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_net::{Cluster, CostModel};

    #[derive(Clone)]
    struct Counter(Vec<u64>);

    impl Wire for Counter {
        fn wire_bytes(&self) -> u64 {
            self.0.wire_bytes()
        }
    }

    impl Recoverable for Counter {
        type State = Counter;
        fn capture(&self) -> Counter {
            self.clone()
        }
        fn restore(&mut self, s: Counter) {
            *self = s;
        }
    }

    /// Unarmed, boundaries are no-ops and the body runs exactly once.
    #[test]
    fn unarmed_runs_once_with_noop_boundaries() {
        let out = Cluster::new(2, CostModel::free()).run(|c| {
            run_recoverable(c, &ChaosHook::none(), &ObserverHook::none(), 1, 1.0, |rp| {
                let mut st = Counter(vec![0]);
                for _ in 0..5 {
                    rp.step(&mut st);
                    st.0[0] += 1;
                }
                st.0[0]
            })
        });
        for o in &out {
            assert_eq!(o.result, 5);
            assert_eq!(o.stats.checkpoint_writes, 0);
            assert_eq!(o.stats.checkpoint_restores, 0);
        }
    }

    #[test]
    fn shared_cost_model_is_the_historic_one() {
        assert_eq!(checkpoint_seconds(0, 1.0), 1e-4);
        assert_eq!(checkpoint_seconds(2_000_000_000, 1.0), 1.0001);
        assert_eq!(restart_seconds(0, 1.0), 1.0001);
    }
}
