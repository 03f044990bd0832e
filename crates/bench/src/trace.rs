//! `--trace` support: streams phase samples, step samples and chaos
//! events as JSON lines.
//!
//! [`JsonlTrace`] is a [`PhaseObserver`] that serializes every
//! [`PhaseSample`], [`StepSample`] and chaos event to one JSON object per line —
//! grep/`jq`-friendly, ingestible by any log pipeline. Attach it through
//! [`crate::ExpContext::observer`] (the `repro --trace PATH` flag does
//! exactly that; `-` streams to stdout).
//!
//! Serialization is hand-rolled: every field is a number or a
//! `[a-z_()0-9]` string, so no escaping is needed and the workspace stays
//! dependency-free.
//!
//! The sink also keeps a per-phase [`PhaseLedger`] and a per-step
//! [`StepLedger`] of what the samples say the host paid — wall and CPU
//! time, holding rows — which `repro --trace` prints when the experiments
//! are done ([`JsonlTrace::tables`]; host clock, so no CSV).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

use mnd_hypar::chaos::ChaosEvent;
use mnd_hypar::observe::{PhaseKind, PhaseObserver, PhaseSample, StepSample};

use crate::fmt::{cells, Table};

/// What the samples of one [`PhaseKind`] add up to on the host's side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseLedger {
    /// Samples seen (one per phase execution per rank).
    pub samples: u64,
    /// Sum of [`PhaseSample::wall_ns`].
    pub wall_ns: u64,
    /// Sum of [`PhaseSample::rows_in`].
    pub rows_in: u64,
    /// Sum of [`PhaseSample::rows_out`].
    pub rows_out: u64,
    /// Sum of [`PhaseSample::cut_rows`].
    pub cut_rows: u64,
}

/// What the samples of one step of one phase add up to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepLedger {
    /// Samples seen (one per step execution per rank).
    pub samples: u64,
    /// Sum of [`StepSample::wall_ns`].
    pub wall_ns: u64,
    /// Sum of [`StepSample::cpu_ns`] (0 where the platform gives none).
    pub cpu_ns: u64,
    /// Sum of [`StepSample::rows_in`].
    pub rows_in: u64,
    /// Sum of [`StepSample::rows_out`].
    pub rows_out: u64,
}

/// A line-oriented JSON trace sink. Writes are locked per line, so
/// concurrent rank threads interleave whole records, never bytes.
pub struct JsonlTrace {
    out: Mutex<Box<dyn Write + Send>>,
    ledger: Mutex<[PhaseLedger; PhaseKind::ALL.len()]>,
    steps: Mutex<BTreeMap<(usize, &'static str), StepLedger>>,
}

impl JsonlTrace {
    /// Traces to any writer (file, stdout, a test buffer).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlTrace {
            out: Mutex::new(out),
            ledger: Mutex::default(),
            steps: Mutex::default(),
        }
    }

    /// Traces to stdout.
    pub fn stdout() -> Self {
        JsonlTrace::new(Box::new(std::io::stdout()))
    }

    /// Traces to a file at `path` (created/truncated).
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlTrace::new(Box::new(std::fs::File::create(path)?)))
    }

    /// The per-phase ledger of every sample seen so far, in pipeline order.
    pub fn ledger(&self) -> [(PhaseKind, PhaseLedger); PhaseKind::ALL.len()] {
        let ledger = *self.ledger.lock().expect("trace ledger poisoned");
        std::array::from_fn(|i| (PhaseKind::ALL[i], ledger[i]))
    }

    /// The per-step ledger of every step sample seen so far: phases in
    /// pipeline order, a phase's steps by name.
    pub fn step_ledger(&self) -> Vec<(PhaseKind, &'static str, StepLedger)> {
        let steps = self.steps.lock().expect("trace ledger poisoned");
        steps
            .iter()
            .map(|(&(phase, name), &l)| (PhaseKind::ALL[phase], name, l))
            .collect()
    }

    /// The two ledgers as host-clock tables: per phase, then per step.
    pub fn tables(&self) -> Vec<Table> {
        let ms = |ns: u64| ns as f64 * 1e-6;
        let mean = |sum: u64, samples: u64| format!("{:.0}", sum as f64 / samples.max(1) as f64);
        let phases = self.ledger().into_iter().map(|(kind, l)| {
            cells![
                kind.name(),
                l.samples,
                format!("{:.1}", ms(l.wall_ns)),
                format!("{:.2}", ms(l.wall_ns) / l.samples.max(1) as f64),
                mean(l.rows_in, l.samples),
                mean(l.rows_out, l.samples),
                mean(l.cut_rows, l.samples),
            ]
        });
        let steps = self.step_ledger().into_iter().map(|(phase, name, l)| {
            cells![
                phase.name(),
                name,
                l.samples,
                format!("{:.1}", ms(l.wall_ns)),
                format!("{:.1}", ms(l.cpu_ns)),
                mean(l.rows_in, l.samples),
                mean(l.rows_out, l.samples),
            ]
        });
        let mut tables = vec![
            Table::new(
                "trace_phases",
                "Trace: host wall time and holding rows per mnd-mst phase (means are per sample = per rank per execution)",
                &[
                    "phase",
                    "samples",
                    "wall ms (sum)",
                    "wall ms (mean)",
                    "rows in (mean)",
                    "rows out (mean)",
                    "cut rows (mean)",
                ],
                phases.collect(),
            ),
            Table::new(
                "trace_steps",
                "Trace: the steps inside the mnd-mst phases (wall includes waits for other ranks; CPU is the rank thread's own, kernel threads it opens excluded)",
                &[
                    "phase",
                    "step",
                    "samples",
                    "wall ms (sum)",
                    "cpu ms (sum)",
                    "rows in (mean)",
                    "rows out (mean)",
                ],
                steps.collect(),
            ),
        ];
        for t in &mut tables {
            t.host_clock = true;
        }
        tables
    }

    fn write_line(&self, line: String) {
        let mut out = self.out.lock().expect("trace sink poisoned");
        // A broken pipe mid-sweep shouldn't abort the experiment.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

impl PhaseObserver for JsonlTrace {
    fn on_phase(&self, kind: PhaseKind, s: &PhaseSample) {
        {
            let mut ledger = self.ledger.lock().expect("trace ledger poisoned");
            let l = &mut ledger[phase_index(kind)];
            l.samples += 1;
            l.wall_ns += s.wall_ns;
            l.rows_in += s.rows_in;
            l.rows_out += s.rows_out;
            l.cut_rows += s.cut_rows;
        }
        self.write_line(format!(
            concat!(
                "{{\"type\":\"phase\",\"kind\":\"{}\",\"rank\":{},\"level\":{},",
                "\"compute_time\":{},\"comm_time\":{},\"bytes_sent\":{},",
                "\"messages_sent\":{},\"wall_ns\":{},\"rows_in\":{},",
                "\"rows_out\":{},\"cut_rows\":{}}}"
            ),
            kind.name(),
            s.rank,
            s.level,
            s.compute_time,
            s.comm_time,
            s.bytes_sent,
            s.messages_sent,
            s.wall_ns,
            s.rows_in,
            s.rows_out,
            s.cut_rows,
        ));
    }

    fn on_step(&self, s: &StepSample) {
        {
            let mut steps = self.steps.lock().expect("trace ledger poisoned");
            let l = steps.entry((phase_index(s.phase), s.name)).or_default();
            l.samples += 1;
            l.wall_ns += s.wall_ns;
            l.cpu_ns += s.cpu_ns.unwrap_or(0);
            l.rows_in += s.rows_in;
            l.rows_out += s.rows_out;
        }
        let cpu_ns = s.cpu_ns.map_or("null".into(), |ns| ns.to_string());
        self.write_line(format!(
            concat!(
                "{{\"type\":\"step\",\"phase\":\"{}\",\"name\":\"{}\",\"rank\":{},",
                "\"level\":{},\"wall_ns\":{},\"cpu_ns\":{},\"rows_in\":{},\"rows_out\":{}}}"
            ),
            s.phase.name(),
            s.name,
            s.rank,
            s.level,
            s.wall_ns,
            cpu_ns,
            s.rows_in,
            s.rows_out,
        ));
    }

    fn on_chaos(&self, e: &ChaosEvent) {
        self.write_line(format!(
            concat!(
                "{{\"type\":\"chaos\",\"kind\":\"{}\",\"rank\":{},\"level\":{},",
                "\"boundary\":{},\"time\":{},\"detail\":{}}}"
            ),
            e.kind.name(),
            e.rank,
            e.level,
            e.boundary,
            e.time,
            e.detail,
        ));
    }
}

/// Index of a phase in [`PhaseKind::ALL`] (pipeline) order.
fn phase_index(kind: PhaseKind) -> usize {
    PhaseKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("ALL lists every kind")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_hypar::chaos::ChaosEventKind;
    use std::sync::Arc;

    /// A shared in-memory sink the trace can write into.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emits_one_json_object_per_line() {
        let buf = Buf::default();
        let trace = JsonlTrace::new(Box::new(buf.clone()));
        trace.on_phase(
            PhaseKind::IndComp,
            &PhaseSample {
                rank: 2,
                level: 1,
                compute_time: 0.5,
                comm_time: 0.25,
                bytes_sent: 640,
                messages_sent: 3,
                wall_ns: 7_000,
                rows_in: 90,
                rows_out: 40,
                cut_rows: 5,
            },
        );
        let step = StepSample {
            rank: 2,
            level: 1,
            phase: PhaseKind::HierMerge,
            name: "absorb_all",
            wall_ns: 900,
            cpu_ns: Some(800),
            rows_in: 10,
            rows_out: 25,
        };
        trace.on_step(&step);
        trace.on_step(&StepSample {
            cpu_ns: None,
            ..step
        });
        trace.on_chaos(&ChaosEvent {
            rank: 1,
            kind: ChaosEventKind::CheckpointWrite,
            level: 0,
            boundary: 4,
            time: 1.5,
            detail: 1024,
        });
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"type\":\"phase\",\"kind\":\"ind_comp\""));
        assert!(lines[0].contains("\"rank\":2") && lines[0].contains("\"bytes_sent\":640"));
        assert!(
            lines[0].ends_with("\"wall_ns\":7000,\"rows_in\":90,\"rows_out\":40,\"cut_rows\":5}")
        );
        let ledger = trace.ledger();
        assert_eq!(ledger[1].0, PhaseKind::IndComp);
        let expect = PhaseLedger {
            samples: 1,
            wall_ns: 7_000,
            rows_in: 90,
            rows_out: 40,
            cut_rows: 5,
        };
        assert_eq!(ledger[1].1, expect);
        assert_eq!(ledger[0].1, PhaseLedger::default());
        assert_eq!(
            lines[1],
            concat!(
                "{\"type\":\"step\",\"phase\":\"hier_merge\",\"name\":\"absorb_all\",\"rank\":2,",
                "\"level\":1,\"wall_ns\":900,\"cpu_ns\":800,\"rows_in\":10,\"rows_out\":25}"
            )
        );
        assert!(lines[2].contains("\"cpu_ns\":null"));
        let expect = StepLedger {
            samples: 2,
            wall_ns: 1_800,
            cpu_ns: 800,
            rows_in: 20,
            rows_out: 50,
        };
        assert_eq!(
            trace.step_ledger(),
            vec![(PhaseKind::HierMerge, "absorb_all", expect)]
        );
        assert!(lines[3].starts_with("{\"type\":\"chaos\",\"kind\":\"checkpoint_write\""));
        assert!(lines[3].contains("\"boundary\":4") && lines[3].contains("\"detail\":1024"));
        // Minimal well-formedness: balanced braces, no raw newlines inside.
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
    }
}
