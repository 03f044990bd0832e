//! The probe for `core`: a `PhaseObserver` that stamps host time at every
//! phase boundary of an `mnd-mst` run.
//!
//! The driver fires the hook on each rank's own thread when a phase
//! completes. A phase's wall time on a rank is the time since that rank's
//! previous callback (waits included), so the five phases of a rank add up
//! to its run; the per-run figure is the mean over ranks.

use std::sync::{Arc, Mutex};

use mnd_hypar::{PhaseKind, PhaseObserver, PhaseSample};

use crate::spans::Trace;

/// Per-phase totals of one observed run, indexed like [`PhaseKind::ALL`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseTotals {
    /// Host seconds per phase, mean over ranks.
    pub wall_s: [f64; 5],
    /// Simulated seconds (compute + comm) per phase, mean over ranks.
    pub sim_s: [f64; 5],
    /// Callbacks per phase, max over ranks.
    pub calls: [u64; 5],
    /// Highest hierarchical-merge level any sample carried.
    pub max_level: u32,
}

/// Index of a phase in [`PhaseKind::ALL`] order.
pub fn phase_index(kind: PhaseKind) -> usize {
    PhaseKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("PhaseKind::ALL lists every kind")
}

#[derive(Clone, Default)]
struct RankLedger {
    last_ns: u64,
    wall_ns: [u64; 5],
    sim_s: [f64; 5],
    calls: [u64; 5],
    max_level: u32,
}

struct RunState {
    parent_span: Option<u32>,
    ranks: Vec<RankLedger>,
}

/// Stamps `Instant`s per (rank, phase) and files one span per callback
/// under the current run's span.
pub struct StampObserver {
    trace: Arc<Trace>,
    state: Mutex<RunState>,
}

impl StampObserver {
    pub fn new(trace: Arc<Trace>) -> Arc<Self> {
        Arc::new(StampObserver {
            trace,
            state: Mutex::new(RunState {
                parent_span: None,
                ranks: Vec::new(),
            }),
        })
    }

    /// Arms the observer for one run of `nranks` ranks whose span is
    /// `parent_span`; every rank's first phase is measured from now.
    pub fn begin_run(&self, parent_span: u32, nranks: usize) {
        let now = self.trace.now_ns();
        let mut st = self.lock();
        st.parent_span = Some(parent_span);
        st.ranks = vec![
            RankLedger {
                last_ns: now,
                ..Default::default()
            };
            nranks
        ];
    }

    /// Totals of the run armed by the last [`StampObserver::begin_run`].
    pub fn end_run(&self) -> PhaseTotals {
        let st = self.lock();
        let n = st.ranks.len().max(1) as f64;
        let mut out = PhaseTotals::default();
        for r in &st.ranks {
            for p in 0..5 {
                out.wall_s[p] += r.wall_ns[p] as f64 * 1e-9 / n;
                out.sim_s[p] += r.sim_s[p] / n;
                out.calls[p] = out.calls[p].max(r.calls[p]);
            }
            out.max_level = out.max_level.max(r.max_level);
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RunState> {
        // Ledgers are plain accumulators, valid at every step; see
        // `Trace::lock` for why poisoning is tolerated.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl PhaseObserver for StampObserver {
    fn on_phase(&self, kind: PhaseKind, sample: &PhaseSample) {
        let now = self.trace.now_ns();
        let p = phase_index(kind);
        let (parent, start) = {
            let mut st = self.lock();
            let parent = st.parent_span;
            let Some(r) = st.ranks.get_mut(sample.rank as usize) else {
                return;
            };
            let start = r.last_ns;
            r.last_ns = now;
            r.wall_ns[p] += now - start;
            r.sim_s[p] += sample.compute_time + sample.comm_time;
            r.calls[p] += 1;
            r.max_level = r.max_level.max(sample.level);
            (parent, start)
        };
        self.trace.record(
            &format!("core.{}#r{}", kind.name(), sample.rank),
            parent,
            start,
            now,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_of_a_rank_add_up_to_its_run() {
        let trace = Arc::new(Trace::new("t"));
        let obs = StampObserver::new(trace.clone());
        let run = trace.open("run", None);
        obs.begin_run(run, 2);
        let sample = |rank, level| PhaseSample {
            rank,
            level,
            compute_time: 1.0,
            comm_time: 0.5,
            ..Default::default()
        };
        obs.on_phase(PhaseKind::Partition, &sample(0, 0));
        obs.on_phase(PhaseKind::IndComp, &sample(0, 0));
        obs.on_phase(PhaseKind::IndComp, &sample(0, 0));
        obs.on_phase(PhaseKind::Partition, &sample(1, 0));
        obs.on_phase(PhaseKind::PostProcess, &sample(1, 2));
        // A rank the run was not armed for is ignored, not a panic.
        obs.on_phase(PhaseKind::Partition, &sample(9, 0));
        trace.close(run);
        let t = obs.end_run();
        assert_eq!(t.calls, [1, 2, 0, 0, 1]);
        assert_eq!(t.max_level, 2);
        // Mean over the two ranks of 1.5 simulated seconds per callback.
        assert_eq!(t.sim_s, [1.5, 1.5, 0.0, 0.0, 0.75]);

        let spans = trace.spans();
        assert_eq!(spans.len(), 6);
        let total: f64 = t.wall_s.iter().sum();
        let run_s = (spans[0].end_ns - spans[0].start_ns) as f64 * 1e-9;
        assert!(total <= run_s + 1e-9, "{total} vs {run_s}");
        // Rank 0's spans tile: each starts where the previous ended.
        let r0: Vec<_> = spans.iter().filter(|s| s.name.ends_with("#r0")).collect();
        assert_eq!(r0.len(), 3);
        assert!(r0.windows(2).all(|w| w[0].end_ns == w[1].start_ns));
        assert!(r0.iter().all(|s| s.parent == Some(run)));
    }
}
