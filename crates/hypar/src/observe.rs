//! Phase observation: a hook the driver fires as each HyPar phase
//! completes on a rank.
//!
//! The paper's evaluation (Figures 5 and 7) needs per-phase time and
//! traffic breakdowns. Instead of hard-wiring that bookkeeping into the
//! driver, every phase boundary emits a [`PhaseSample`] through an
//! [`ObserverHook`] configured on [`crate::HyParConfig`]; the driver's own
//! report recorder and any user-supplied observer (tracing, live
//! dashboards, experiment harnesses) receive identical samples.

use std::sync::Arc;

/// The five driver phases (Algorithm 1 / Table 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// `partGraph`: degree exchange, 1D cuts, device calibration, holding
    /// construction, ghost-information exchange.
    Partition,
    /// `indComp`: device kernel invocations of one computation step.
    IndComp,
    /// `mergeParts`: ghost-parent exchange plus self/multi-edge reduction.
    MergeParts,
    /// Hierarchical merging: ring segment exchanges and leader merges.
    HierMerge,
    /// `postProcess`: the final whole-holding contraction and MSF gather.
    PostProcess,
}

impl PhaseKind {
    /// All kinds, in pipeline order.
    pub const ALL: [PhaseKind; 5] = [
        PhaseKind::Partition,
        PhaseKind::IndComp,
        PhaseKind::MergeParts,
        PhaseKind::HierMerge,
        PhaseKind::PostProcess,
    ];

    /// Stable lower-case name (log/CSV friendly).
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Partition => "partition",
            PhaseKind::IndComp => "ind_comp",
            PhaseKind::MergeParts => "merge_parts",
            PhaseKind::HierMerge => "hier_merge",
            PhaseKind::PostProcess => "post_process",
        }
    }
}

/// One observed phase execution on one rank: the simulated time and traffic
/// the phase consumed (deltas against the rank's stats at phase entry), and
/// what it cost the host — wall time and the holding rows it was handed and
/// left behind.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseSample {
    /// The rank that executed the phase.
    pub rank: u32,
    /// Hierarchical-merge level the phase ran at (0 before merging starts).
    pub level: u32,
    /// Simulated compute seconds spent in the phase.
    pub compute_time: f64,
    /// Simulated communication seconds spent in the phase.
    pub comm_time: f64,
    /// Bytes sent during the phase.
    pub bytes_sent: u64,
    /// Messages sent during the phase.
    pub messages_sent: u64,
    /// Host wall-clock nanoseconds the phase took on this rank's thread
    /// (waits for other ranks included). Not deterministic.
    pub wall_ns: u64,
    /// Rows of the rank's holding at phase entry.
    pub rows_in: u64,
    /// Rows of the rank's holding at phase exit.
    pub rows_out: u64,
    /// Rows with a non-resident end: of the holding the phase left if it
    /// knows without a sweep, else of the one it was handed, else 0.
    pub cut_rows: u64,
}

/// One timed step *inside* a phase on one rank — a kernel call, an
/// exchange, a merge — as the host paid for it. Steps nest inside the
/// phase sample that covers them and carry no simulated quantities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepSample {
    /// The rank that executed the step.
    pub rank: u32,
    /// Hierarchical-merge level the step ran at.
    pub level: u32,
    /// The phase the step belongs to.
    pub phase: PhaseKind,
    /// Stable lower-case step name (`"absorb_all"`, `"ghost_exchange"`…).
    pub name: &'static str,
    /// Host wall-clock nanoseconds (waits for other ranks included).
    pub wall_ns: u64,
    /// CPU nanoseconds of the rank's own thread ([`thread_cpu_ns`]): what
    /// the step cost when ranks outnumber cores and wall time counts the
    /// neighbours. Kernel threads a step opens are not in it.
    pub cpu_ns: Option<u64>,
    /// Rows of the rank's holding at step entry.
    pub rows_in: u64,
    /// Rows of the rank's holding at step exit.
    pub rows_out: u64,
}

/// CPU time the calling thread has consumed, in nanoseconds; `None` where
/// the platform has no per-thread CPU clock this crate knows how to read.
pub fn thread_cpu_ns() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` of a 64-bit Linux: `time_t` and `long` are
        /// both 64 bits.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `struct timespec` through the
        // pointer, which is valid for writes and laid out as the C struct
        // is on this target (the `cfg` above); it keeps no reference.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    None
}

/// Receives phase samples. Implementations must be thread-safe: every
/// simulated rank runs on its own thread and fires the hook concurrently.
pub trait PhaseObserver: Send + Sync {
    /// Called once per completed phase execution per rank.
    fn on_phase(&self, kind: PhaseKind, sample: &PhaseSample);

    /// Called when a fault fires or recovery machinery runs on a rank
    /// (see [`crate::chaos`]); defaults to ignoring the event so existing
    /// observers are unaffected.
    fn on_chaos(&self, event: &crate::chaos::ChaosEvent) {
        let _ = event;
    }

    /// Called once per timed step inside a phase per rank, before the
    /// phase's own sample; defaults to ignoring it.
    fn on_step(&self, step: &StepSample) {
        let _ = step;
    }
}

/// An optional, shareable observer slot carried by the config.
///
/// Equality (needed because `HyParConfig` is `PartialEq`) is identity:
/// two hooks are equal when both are unset or both point at the same
/// observer object.
#[derive(Clone, Default)]
pub struct ObserverHook(Option<Arc<dyn PhaseObserver>>);

impl ObserverHook {
    /// The empty hook (emission is a no-op).
    pub fn none() -> Self {
        ObserverHook(None)
    }

    /// Wraps an observer.
    pub fn new(observer: Arc<dyn PhaseObserver>) -> Self {
        ObserverHook(Some(observer))
    }

    /// True if an observer is attached.
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    /// Fires the hook, if set.
    #[inline]
    pub fn emit(&self, kind: PhaseKind, sample: &PhaseSample) {
        if let Some(obs) = &self.0 {
            obs.on_phase(kind, sample);
        }
    }

    /// Forwards a chaos event to the observer, if set.
    #[inline]
    pub fn emit_chaos(&self, event: &crate::chaos::ChaosEvent) {
        if let Some(obs) = &self.0 {
            obs.on_chaos(event);
        }
    }

    /// Forwards a step sample to the observer, if set.
    #[inline]
    pub fn emit_step(&self, step: &StepSample) {
        if let Some(obs) = &self.0 {
            obs.on_step(step);
        }
    }
}

impl std::fmt::Debug for ObserverHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_set() {
            "ObserverHook(set)"
        } else {
            "ObserverHook(none)"
        })
    }
}

impl PartialEq for ObserverHook {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Collect(Mutex<Vec<(PhaseKind, u32)>>);

    impl PhaseObserver for Collect {
        fn on_phase(&self, kind: PhaseKind, sample: &PhaseSample) {
            self.0.lock().unwrap().push((kind, sample.rank));
        }
    }

    #[test]
    fn hook_emits_to_attached_observer() {
        let obs = Arc::new(Collect(Mutex::new(Vec::new())));
        let hook = ObserverHook::new(obs.clone());
        assert!(hook.is_set());
        hook.emit(
            PhaseKind::IndComp,
            &PhaseSample {
                rank: 3,
                ..Default::default()
            },
        );
        hook.emit(
            PhaseKind::HierMerge,
            &PhaseSample {
                rank: 1,
                ..Default::default()
            },
        );
        let got = obs.0.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![(PhaseKind::IndComp, 3), (PhaseKind::HierMerge, 1)]
        );
    }

    #[test]
    fn chaos_events_forward_to_observer() {
        use crate::chaos::{ChaosEvent, ChaosEventKind};
        use std::sync::atomic::{AtomicU32, Ordering};

        #[derive(Default)]
        struct CountChaos(AtomicU32);
        impl PhaseObserver for CountChaos {
            fn on_phase(&self, _: PhaseKind, _: &PhaseSample) {}
            fn on_chaos(&self, event: &ChaosEvent) {
                assert_eq!(event.kind, ChaosEventKind::Crash);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let obs = Arc::new(CountChaos::default());
        let hook = ObserverHook::new(obs.clone());
        let ev = ChaosEvent {
            rank: 1,
            kind: ChaosEventKind::Crash,
            level: 0,
            boundary: 2,
            time: 1.5,
            detail: 0,
        };
        hook.emit_chaos(&ev);
        hook.emit_chaos(&ev);
        ObserverHook::none().emit_chaos(&ev); // no-op
        assert_eq!(obs.0.load(Ordering::Relaxed), 2);
        // Observers that don't override on_chaos ignore events.
        let plain = ObserverHook::new(Arc::new(Collect(Mutex::new(Vec::new()))));
        plain.emit_chaos(&ev);
    }

    #[test]
    fn steps_forward_to_observers_that_ask_and_thread_cpu_time_advances() {
        #[derive(Default)]
        struct Steps(Mutex<Vec<StepSample>>);
        impl PhaseObserver for Steps {
            fn on_phase(&self, _: PhaseKind, _: &PhaseSample) {}
            fn on_step(&self, step: &StepSample) {
                self.0.lock().unwrap().push(*step);
            }
        }
        let step = StepSample {
            rank: 1,
            level: 2,
            phase: PhaseKind::HierMerge,
            name: "absorb_all",
            wall_ns: 9,
            cpu_ns: thread_cpu_ns(),
            rows_in: 4,
            rows_out: 3,
        };
        let obs = Arc::new(Steps::default());
        ObserverHook::new(obs.clone()).emit_step(&step);
        ObserverHook::none().emit_step(&step); // no-op
        assert_eq!(*obs.0.lock().unwrap(), vec![step]);
        // Observers that don't override on_step ignore steps.
        ObserverHook::new(Arc::new(Collect(Mutex::new(Vec::new())))).emit_step(&step);

        // The clock is this thread's and never runs backwards; burning
        // cycles moves it.
        if let Some(before) = thread_cpu_ns() {
            let mut x = 1u64;
            while thread_cpu_ns().expect("read once, read again") == before {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        }
        assert_eq!(
            thread_cpu_ns().is_some(),
            cfg!(all(target_os = "linux", target_pointer_width = "64"))
        );
    }

    #[test]
    fn empty_hook_is_a_noop_and_equal_to_itself() {
        let hook = ObserverHook::none();
        assert!(!hook.is_set());
        hook.emit(PhaseKind::Partition, &PhaseSample::default());
        assert_eq!(hook, ObserverHook::none());
        assert_eq!(hook, ObserverHook::default());
    }

    #[test]
    fn equality_is_identity() {
        let a = ObserverHook::new(Arc::new(Collect(Mutex::new(Vec::new()))));
        let b = ObserverHook::new(Arc::new(Collect(Mutex::new(Vec::new()))));
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_ne!(a, ObserverHook::none());
    }

    #[test]
    fn names_are_stable_and_unique() {
        let names: std::collections::HashSet<&str> =
            PhaseKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), PhaseKind::ALL.len());
        assert_eq!(PhaseKind::IndComp.name(), "ind_comp");
    }
}
