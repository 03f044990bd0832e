//! The multi-workload commands: `run`, `trace` and `smoke`.
//!
//! `run` and `trace` are single-threaded drivers that spawn one child
//! process per workload run (`current_exe() --workload W ...`), one after
//! another, so each run has its own address space (`VmHWM`) and a burst of
//! host contention is spread over all workloads by interleaving rounds
//! instead of sinking one.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::{self, Value};
use crate::layers;
use crate::measure::{self, RunArgs};
use crate::metrics::{catalogue, SIM_UNIT};
use crate::out_dir;
use crate::stats::{median, quartiles};
use crate::workloads::{Size, Workload};

/// Rounds of `run`: every workload once per round.
const ROUNDS: usize = 3;
/// Seconds each `run` child measures. Three rounds pool three children's
/// passes, so a child can be shorter than a lone contract run. Run length
/// belongs to the benchmark, not to its caller: `compare` refuses two
/// files measured with different ones.
const RUN_CHILD_SECONDS: f64 = 6.0;

/// `schema` of `result.json`; `compare` accepts nothing else.
pub const RESULT_SCHEMA: &str = "mnd-benchmark/result/1";

/// One child's parsed output.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Raw samples per metric (`samples` line).
    samples: Vec<(String, Vec<f64>)>,
    /// Reported value per metric (result line).
    values: Vec<(String, f64)>,
}

/// Spawns `current_exe() --workload W --seed S --seconds T --trace N`,
/// waits for it, echoes nothing, and parses its last two lines.
fn spawn_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_child(&stdout).map_err(|e| {
        format!(
            "{} child ({}): {e}\n--- stdout ---\n{stdout}--- stderr ---\n{}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

fn parse_child(stdout: &str) -> Result<ChildResult, String> {
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().ok_or("no output")?)?;
    let samples = lines
        .next()
        .and_then(|l| l.strip_prefix("samples "))
        .ok_or("no samples line")?;
    let samples = json::parse(samples)?;
    let field = |k: &str| result.get(k).ok_or(format!("result line lacks {k:?}"));
    Ok(ChildResult {
        correct: field("correct")?.as_bool().ok_or("correct: not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted: not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed: not a number")? as u64,
        samples: samples
            .as_obj()
            .ok_or("samples: not an object")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_f64_vec().ok_or("samples: not numbers")?)))
            .collect::<Result<_, String>>()?,
        values: field("metrics")?
            .as_obj()
            .ok_or("metrics: not an object")?
            .iter()
            .map(|(k, v)| {
                let value = v.get("value").and_then(Value::as_f64);
                Ok((k.clone(), value.ok_or(format!("{k}: no numeric value"))?))
            })
            .collect::<Result<_, String>>()?,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment block of `result.json` and `trace.json`.
fn environment(seed: u64, rounds: usize, seconds: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj()
        .with("nproc", nproc)
        .with("rustc", command_line("rustc", &["-V"]))
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("seed", seed)
        .with("rounds", rounds)
        .with("child_seconds", seconds)
}

/// One metric's entry in `result.json`: the pooled summary and the raw
/// samples of every round.
fn metric_entry(name: &str, rounds: &[Vec<f64>]) -> Value {
    let pooled: Vec<f64> = rounds.iter().flatten().copied().collect();
    let (q1, q3) = quartiles(&pooled);
    Value::obj()
        // What the catalogue does not name is the host clock as measured.
        .with("unit", catalogue().unit_of(name).unwrap_or("s"))
        .with("median", median(&pooled))
        .with("q1", q1)
        .with("q3", q3)
        .with("n", pooled.len())
        .with(
            "rounds",
            rounds.iter().cloned().map(Value::from).collect::<Vec<_>>(),
        )
}

/// One workload's entry in `result.json` from its children, and whether
/// it is correct: every child correct and the simulated clock bit-equal
/// across rounds.
fn workload_entry(children: &[ChildResult]) -> (Value, bool) {
    let attempted: u64 = children.iter().map(|c| c.attempted).sum();
    let failed: u64 = children.iter().map(|c| c.failed).sum();
    let mut metrics = Value::obj();
    let mut deterministic = true;
    let rounds_of = |name: &str| -> Vec<Vec<f64>> {
        children
            .iter()
            .map(|c| {
                c.samples
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default()
            })
            .collect()
    };
    for m in &catalogue().end_to_end {
        let rounds = rounds_of(&m.name);
        if m.unit == SIM_UNIT {
            let first = rounds[0].first().map(|v| v.to_bits());
            deterministic &= rounds.iter().flatten().all(|v| Some(v.to_bits()) == first);
        }
        metrics = metrics.with(&m.name, metric_entry(&m.name, &rounds));
    }
    // The seconds `setup_s` and `wall_s` were corrected from, and the
    // reference samples they were corrected with.
    let mut as_measured = Value::obj();
    for name in ["setup_raw_s", "wall_raw_s", "ref_s"] {
        as_measured = as_measured.with(name, metric_entry(name, &rounds_of(name)));
    }
    let correct = failed == 0 && deterministic && children.iter().all(|c| c.correct);
    let entry = Value::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("failed_frac", failed as f64 / attempted.max(1) as f64)
        .with("metrics", metrics)
        .with("as_measured", as_measured);
    (entry, correct)
}

fn print_end_to_end(results: &Value) {
    println!(
        "{:<13} {:<20} {:>12} {:<6} {:>12} {:>12} {:>4}",
        "workload", "metric", "median", "unit", "q1", "q3", "n"
    );
    for (workload, entry) in results.as_obj().unwrap_or(&[]) {
        for (name, m) in entry.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            let num = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "{workload:<13} {name:<20} {:>12.6} {:<6} {:>12.6} {:>12.6} {:>4}",
                num("median"),
                m.get("unit").and_then(Value::as_str).unwrap_or(""),
                num("q1"),
                num("q3"),
                num("n")
            );
        }
        let num = |k: &str| entry.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
        println!(
            "{workload:<13} {:<20} {:>12.6} {:<6} ({} failed of {} attempted)",
            "failed_frac",
            num("failed_frac"),
            "ratio",
            num("failed"),
            num("attempted")
        );
    }
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `result.json` from every workload's children, and whether every
/// workload is correct.
fn result_doc(seed: u64, children: &[(Workload, Vec<ChildResult>)]) -> (Value, bool) {
    let mut results = Value::obj();
    let mut all_correct = true;
    for (w, c) in children {
        let (entry, correct) = workload_entry(c);
        all_correct &= correct;
        results = results.with(w.name(), entry);
    }
    let doc = Value::obj()
        .with("schema", RESULT_SCHEMA)
        .with("env", environment(seed, ROUNDS, RUN_CHILD_SECONDS))
        .with("workloads", results);
    (doc, all_correct)
}

/// `run`: every workload, `ROUNDS` times round-robin, untraced. Prints
/// every end-to-end metric by name with its unit, writes
/// `benchmark/out/result.json`, exits 1 if any output failed its oracle.
pub fn run(seed: u64) -> Result<ExitCode, String> {
    let mut children: Vec<_> = Workload::ALL.map(|w| (w, Vec::new())).into();
    for round in 1..=ROUNDS {
        for (w, results) in &mut children {
            eprintln!("round {round}/{ROUNDS}: {}", w.name());
            results.push(spawn_child(*w, seed, RUN_CHILD_SECONDS, false)?);
        }
    }
    let (doc, all_correct) = result_doc(seed, &children);
    print_end_to_end(doc.get("workloads").expect("result_doc writes workloads"));
    let path = out_dir().join("result.json");
    write_json(&path, &doc)?;
    println!("result written to {}", path.display());
    if !all_correct {
        println!("FAILED: an output failed its check or the simulated clock did not repeat");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `trace`: every workload once, traced. Prints the per-layer ledger
/// (one column per workload) and writes `benchmark/out/trace.json` — the
/// ledger plus every workload's spans.
pub fn trace(seed: u64) -> Result<ExitCode, String> {
    let seconds = catalogue().run_seconds;
    let mut all_correct = true;
    let mut ledger: Vec<Vec<(String, f64)>> = Vec::new();
    let mut workloads = Value::obj();
    for w in Workload::ALL {
        eprintln!("tracing {}", w.name());
        let child = spawn_child(w, seed, seconds, true)?;
        all_correct &= child.correct;
        let spans_path = out_dir().join(format!("trace-{}.json", w.name()));
        let spans = std::fs::read_to_string(&spans_path)
            .map_err(|e| format!("read {}: {e}", spans_path.display()))
            .and_then(|text| json::parse(&text))?;
        let metrics = Value::Obj(
            child
                .values
                .iter()
                .map(|(k, v)| (k.clone(), Value::from(*v)))
                .collect(),
        );
        workloads = workloads.with(
            w.name(),
            Value::obj()
                .with("correct", child.correct)
                .with("metrics", metrics)
                .with(
                    "spans",
                    spans.get("spans").cloned().unwrap_or(Value::Arr(vec![])),
                ),
        );
        ledger.push(child.values);
    }
    print!("{:<30} {:<9}", "metric", "unit");
    for w in Workload::ALL {
        print!(" {:>14}", w.name());
    }
    println!();
    for m in &catalogue().per_layer {
        print!("{:<30} {:<9}", m.name, m.unit);
        for column in &ledger {
            let v = column
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(f64::NAN, |m| m.1);
            print!(" {v:>14.6}");
        }
        println!();
    }
    let doc = Value::obj()
        .with("schema", "mnd-benchmark/trace/1")
        .with("env", environment(seed, 1, seconds))
        .with("workloads", workloads);
    let path = out_dir().join("trace.json");
    write_json(&path, &doc)?;
    println!("trace written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `smoke`: walks every workload, every probe and the trace writer in
/// this process at 1/64 size, one pass each. The numbers say nothing about
/// performance and are labelled so.
pub fn smoke(seed: u64) -> Result<ExitCode, String> {
    println!("NON-COMPARABLE: smoke size (inputs 64x smaller, one pass); this walks the harness, it measures nothing");
    let mut all_correct = true;
    for workload in Workload::ALL {
        let args = RunArgs {
            workload,
            seed,
            seconds: 0.0,
            size: Size::Smoke,
            corrupt_oracle: false,
        };
        let plain = measure::run_end_to_end(&args);
        plain.print_table(workload);
        let path = out_dir().join(format!("smoke-trace-{}.json", workload.name()));
        let traced = layers::run_traced(&args, &path);
        traced.print_table(workload);
        all_correct &= plain.correct && traced.correct;
    }
    println!(
        "NON-COMPARABLE: smoke size; traces under {}",
        out_dir().display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: an output failed its check");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(wall: &[f64], sim: f64, failed: u64) -> ChildResult {
        ChildResult {
            correct: failed == 0,
            attempted: 4,
            failed,
            samples: vec![
                ("setup_s".into(), vec![0.5, 0.6, 0.7]),
                ("setup_raw_s".into(), vec![0.6, 0.7, 0.8]),
                ("wall_s".into(), wall.to_vec()),
                ("wall_raw_s".into(), wall.to_vec()),
                ("ref_s".into(), vec![0.2; 4]),
                ("sim_time_s".into(), vec![sim]),
                ("sim_latency_p90_s".into(), vec![sim]),
                ("peak_rss_mb".into(), vec![100.0]),
            ],
            values: Vec::new(),
        }
    }

    #[test]
    fn parses_a_child_and_rejects_a_truncated_one() {
        let text = "table line\nsamples {\"wall_s\":[1.5,2.5]}\n{\"correct\":true,\"attempted\":2,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":2,\"unit\":\"s\"}}}\n";
        let c = parse_child(text).unwrap();
        assert!(c.correct);
        assert_eq!((c.attempted, c.failed), (2, 0));
        assert_eq!(c.samples, vec![("wall_s".to_string(), vec![1.5, 2.5])]);
        assert_eq!(c.values, vec![("wall_s".to_string(), 2.0)]);
        assert!(parse_child("").is_err());
        assert!(parse_child("{\"correct\":true}\n").is_err());
        assert!(parse_child("samples {}\n{\"correct\":true}\n").is_err());
    }

    /// A panic inside the program is an operation with infinite latency.
    /// It must come out as `failed_frac` > 0 in `result.json`, not as a
    /// child the driver cannot read: pass → result line → `parse_child` →
    /// `result_doc` → the file's text → `compare`.
    #[test]
    fn a_panicked_run_reaches_result_json_as_a_failure() {
        use crate::workloads::{self, NRANKS};
        let w = Workload::RoadRounds;
        let inputs = workloads::generate(w, 42, Size::Smoke.shrink());
        let oracle = workloads::oracle(&inputs);
        let engines = workloads::engines_for(&inputs, NRANKS);
        let doc_of = |panicking: bool| {
            let pass = workloads::engine_pass(&inputs, &oracle, &engines, |engine, el| {
                assert!(!(panicking && engine.name() == "spmsf"), "injected panic");
                engine.run(el)
            });
            let timed = |seconds: f64| crate::reference::Referenced {
                raw: vec![seconds],
                refs: vec![crate::reference::NOMINAL_S; 2],
            };
            let outcome = measure::summarise(&timed(0.5), &timed(pass.wall_s), &[pass], 100.0);
            let child = parse_child(&outcome.machine_lines()).expect("a failed child parses");
            let (doc, correct) = result_doc(42, &[(w, vec![child])]);
            (
                json::parse(&doc.to_pretty()).expect("result.json parses"),
                correct,
            )
        };
        let ((clean, clean_ok), (failed, failed_ok)) = (doc_of(false), doc_of(true));
        assert!(clean_ok && !failed_ok, "run exits 1 on the failed set");

        let entry = failed.get("workloads").unwrap().get(w.name()).unwrap();
        assert_eq!(entry.get("failed").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            entry.get("failed_frac").and_then(Value::as_f64),
            Some(1.0 / 3.0)
        );
        let p90 = entry
            .get("metrics")
            .unwrap()
            .get("sim_latency_p90_s")
            .unwrap();
        assert_eq!(
            p90.get("median").and_then(Value::as_f64),
            Some(f64::INFINITY)
        );

        let (report, regressed) = crate::compare::compare(&clean, &failed).unwrap();
        assert!(regressed, "{report}");
        for metric in ["sim_latency_p90_s", "failed_frac"] {
            let line = report.lines().find(|l| l.contains(metric)).unwrap();
            assert!(line.ends_with("regressed"), "{line}");
        }
    }

    #[test]
    fn pools_rounds_and_keeps_them_apart() {
        let (entry, correct) = workload_entry(&[
            child(&[1.0, 2.0], 5.0, 0),
            child(&[3.0, 4.0], 5.0, 0),
            child(&[5.0], 5.0, 0),
        ]);
        assert!(correct);
        let wall = entry.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("median").and_then(Value::as_f64), Some(3.0));
        assert_eq!(wall.get("n").and_then(Value::as_f64), Some(5.0));
        assert_eq!(wall.get("rounds").and_then(Value::as_arr).unwrap().len(), 3);
        assert_eq!(entry.get("failed_frac").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn a_failed_output_or_a_drifting_clock_is_incorrect() {
        let (entry, correct) = workload_entry(&[child(&[1.0], 5.0, 0), child(&[1.0], 5.0, 4)]);
        assert!(!correct);
        assert_eq!(entry.get("failed_frac").and_then(Value::as_f64), Some(0.5));
        let (_, correct) = workload_entry(&[child(&[1.0], 5.0, 0), child(&[1.0], 5.000001, 0)]);
        assert!(!correct, "simulated time must be bit-equal across rounds");
    }
}
