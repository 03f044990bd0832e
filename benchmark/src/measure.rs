//! One workload run, untraced: set-up, a warm-up pass, timed passes for
//! the requested number of seconds, and the end-to-end metrics.
//!
//! This is what `--workload W --seed S --seconds T --trace 0` executes.

use std::process::Command;
use std::time::Instant;

use crate::json::Value;
use crate::metrics::catalogue;
use crate::reference::{self, Referenced};
use crate::stats::{median, percentile_nearest_rank, quartiles};
use crate::workloads::{self, Inputs, Oracle, Pass, Size, Workload, NRANKS};

/// Set-ups per run: at least this many, and more until
/// `SETUP_MIN_SECONDS` have been spent on them; `setup_s` is their median.
/// The cheap set-ups (70–170 ms) are the noisy ones, and they are the ones
/// that can afford a dozen repeats.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.5;

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    /// Corrupt the oracle after set-up (`--corrupt-oracle`): every checked
    /// output must then fail and the exit code be non-zero.
    pub corrupt_oracle: bool,
}

/// What a workload run hands back: the contract's result line plus the
/// raw samples behind each metric.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when an output failed its check or the simulated clock was
    /// not bit-equal across passes.
    pub correct: bool,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Samples per metric name, for `result.json` and `compare`; after
    /// the catalogue's metrics, the host clock as measured (`*_raw_s`) and
    /// the reference samples (`ref_s`) it was corrected with.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = Value::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let unit = catalogue()
                        .unit_of(name)
                        .expect("reported metrics are catalogued");
                    (
                        name.to_string(),
                        Value::obj().with("value", *value).with("unit", unit),
                    )
                })
                .collect(),
        );
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_compact()
    }

    /// The raw samples as one JSON object (`{metric: [samples]}`).
    fn samples_json(&self) -> Value {
        Value::Obj(
            self.samples
                .iter()
                .map(|(name, v)| (name.to_string(), Value::from(v.clone())))
                .collect(),
        )
    }

    /// The last two lines a workload run prints, the ones `run` and
    /// `trace` read back: `samples {...}` and the result line.
    pub fn machine_lines(&self) -> String {
        format!(
            "samples {}\n{}",
            self.samples_json().to_compact(),
            self.result_line()
        )
    }

    /// Every metric by name with its unit, quartiles and sample count.
    pub fn print_table(&self, workload: Workload) {
        for (name, value) in &self.metrics {
            let unit = catalogue().unit_of(name).unwrap_or("");
            let detail = self
                .samples
                .iter()
                .find(|(n, v)| n == name && v.len() > 1)
                .map(|(_, v)| {
                    let (q1, q3) = quartiles(v);
                    format!("  (q1 {q1:.6}, q3 {q3:.6}, n {})", v.len())
                })
                .unwrap_or_default();
            println!(
                "{:<13} {name:<28} {value:>14.6} {unit}{detail}",
                workload.name()
            );
        }
        // The host clock as measured, beside the corrected figures above.
        for (name, v) in &self.samples {
            if self.metrics.iter().all(|(metric, _)| metric != name) {
                let (q1, q3) = quartiles(v);
                println!(
                    "{:<13} {name:<28} {:>14.6} s  (q1 {q1:.6}, q3 {q3:.6}, n {})",
                    workload.name(),
                    median(v),
                    v.len()
                );
            }
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<13} {:<28} {frac:>14.6} ratio  ({} failed of {} attempted)",
            workload.name(),
            "failed_frac",
            self.failed,
            self.attempted
        );
    }
}

/// Generates inputs and their oracle repeatedly, timing each set-up
/// (compile time is never part of it) between samples of `reference`, until
/// `min_repeats` are done and `min_seconds` spent; returns the last set
/// with the samples.
pub fn timed_setup(
    args: &RunArgs,
    reference: fn() -> f64,
    min_repeats: usize,
    min_seconds: f64,
) -> (Inputs, Oracle, Referenced) {
    let mut last = None;
    let (_, timed) = Referenced::measure(reference, min_repeats, min_seconds, || {
        // Free the previous set first, so peak memory is one set's.
        drop(last.take());
        let start = Instant::now();
        let inputs = workloads::generate(args.workload, args.seed, args.size.shrink());
        let oracle = workloads::oracle(&inputs);
        let seconds = start.elapsed().as_secs_f64();
        last = Some((inputs, oracle));
        ((), seconds)
    });
    let (inputs, mut oracle) = last.expect("at least one set-up ran");
    if args.corrupt_oracle {
        oracle.corrupt();
    }
    (inputs, oracle, timed)
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where
/// `/proc/self/status` does not exist.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Body of the `rss-probe` subcommand: one set-up, one pass, and the
/// process's `VmHWM`. See [`peak_rss_mb`] for why this is a process of its
/// own.
pub fn rss_probe(args: &RunArgs) {
    let unreferenced = reference::for_size(Size::Smoke);
    let (inputs, oracle, _) = timed_setup(args, unreferenced, 1, 0.0);
    let engines = workloads::engines_for(&inputs, NRANKS);
    std::hint::black_box(workloads::pass(&inputs, &oracle, &engines));
    println!("{}", vm_hwm_mb());
}

/// `peak_rss_mb`: the `VmHWM` of a child that sets the workload up and runs
/// one pass with glibc's `MALLOC_ARENA_MAX=1`.
///
/// With the default per-thread arenas the same run's `VmHWM` reads
/// anywhere from 200 to 390 MB on `geo-knn` (which threads land in which
/// arena decides how much freed memory is reusable), far outside any
/// usable bound; with one arena it repeats within a few percent (what is
/// left is how high the concurrent rank threads' holdings happen to stack,
/// which more passes do not average away — a peak is a maximum). The
/// setting is confined to this child so that the timed passes keep the
/// allocator a user would run with.
fn peak_rss_mb(args: &RunArgs) -> f64 {
    probe_child("rss-probe", args, ("MALLOC_ARENA_MAX", "1"))
}

/// Runs `current_exe() <subcommand> --workload W --seed S [--smoke]` with
/// one environment variable set — a setting that only takes effect at
/// process start — and returns the single number the child prints.
pub fn probe_child(subcommand: &str, args: &RunArgs, env: (&str, &str)) -> f64 {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.arg(subcommand)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .env(env.0, env.1);
    if args.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawn a probe child");
    assert!(out.status.success(), "{subcommand} child failed: {out:?}");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{subcommand} prints one number: {out:?}"))
}

/// True when every pass read the same simulated clock, bit for bit.
pub fn sim_clock_repeats(passes: &[Pass]) -> bool {
    passes.windows(2).all(|w| {
        w[0].sim_time_s.to_bits() == w[1].sim_time_s.to_bits()
            && w[0].sim_latencies.len() == w[1].sim_latencies.len()
            && w[0]
                .sim_latencies
                .iter()
                .zip(&w[1].sim_latencies)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_end_to_end(args: &RunArgs) -> Outcome {
    // A smoke walk measures nothing; it takes the minimum.
    let setup_seconds = match args.size {
        Size::Full => SETUP_MIN_SECONDS,
        Size::Smoke => 0.0,
    };
    let reference = reference::for_size(args.size);
    let (inputs, oracle, setup) = timed_setup(args, reference, SETUP_MIN_REPEATS, setup_seconds);
    let engines = workloads::engines_for(&inputs, NRANKS);
    // One untimed pass lets caches fill and lazy set-up finish.
    workloads::pass(&inputs, &oracle, &engines);
    // Timed passes until `--seconds` have been spent inside them.
    let (passes, wall) = Referenced::measure(reference, 1, args.seconds, || {
        let pass = workloads::pass(&inputs, &oracle, &engines);
        let seconds = pass.wall_s;
        (pass, seconds)
    });
    summarise(&setup, &wall, &passes, peak_rss_mb(args))
}

/// Every end-to-end metric from what a run measured: `setup_s` and
/// `wall_s` in corrected seconds (see [`crate::reference`]). A pass with a
/// refused or panicked operation carries `+∞` latencies, and
/// `sim_latency_p90_s` follows them.
pub fn summarise(setup: &Referenced, wall: &Referenced, passes: &[Pass], rss: f64) -> Outcome {
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum::<u64>();
    let correct = failed == 0 && sim_clock_repeats(passes);
    let first = &passes[0];
    let p90 = percentile_nearest_rank(&first.sim_latencies, 90.0);
    let (setup_s, wall_s) = (setup.corrected(), wall.corrected());
    let values = [
        ("setup_s", median(&setup_s), setup_s),
        ("wall_s", median(&wall_s), wall_s),
        ("sim_time_s", first.sim_time_s, vec![first.sim_time_s]),
        ("sim_latency_p90_s", p90, vec![p90]),
        ("peak_rss_mb", rss, vec![rss]),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(catalogue().end_to_end.iter().map(|m| m.name.as_str())));
    let refs = [&setup.refs[..], &wall.refs[..]].concat();
    let as_measured = [
        ("setup_raw_s", setup.raw.clone()),
        ("wall_raw_s", wall.raw.clone()),
        ("ref_s", refs),
    ];
    Outcome {
        attempted,
        failed,
        correct,
        metrics: values.iter().map(|(n, v, _)| (*n, *v)).collect(),
        samples: values
            .into_iter()
            .map(|(n, _, s)| (n, s))
            .chain(as_measured)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 4,
            failed: 1,
            correct: false,
            metrics: vec![("wall_s", 1.25), ("sim_time_s", 0.1 + 0.2)],
            samples: vec![("wall_s", vec![1.0, 1.5])],
        };
        let line = crate::json::parse(&out.result_line()).unwrap();
        let keys: Vec<_> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        let metrics = line.get("metrics").unwrap();
        let wall = metrics.get("wall_s").unwrap();
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        // Every digit as measured.
        let sim = metrics.get("sim_time_s").unwrap();
        assert_eq!(sim.get("value").and_then(Value::as_f64), Some(0.1 + 0.2));
        assert_eq!(sim.get("unit").and_then(Value::as_str), Some("sim_s"));
        assert_eq!(
            out.samples_json().get("wall_s").and_then(Value::as_f64_vec),
            Some(vec![1.0, 1.5])
        );
    }

    #[test]
    fn a_drifting_simulated_clock_is_not_correct() {
        let pass = |sim: f64| Pass {
            wall_s: 1.0,
            sim_time_s: sim,
            sim_latencies: vec![sim],
            attempted: 1,
            failed: 0,
            runs: Vec::new(),
            serve: None,
        };
        assert!(sim_clock_repeats(&[pass(2.5), pass(2.5), pass(2.5)]));
        assert!(!sim_clock_repeats(&[pass(2.5), pass(2.5 + 1e-15)]));
        assert!(sim_clock_repeats(&[pass(2.5)]));
    }

    #[test]
    fn host_clock_metrics_are_corrected_and_the_raw_seconds_kept() {
        let pass = Pass {
            wall_s: 3.0,
            sim_time_s: 2.5,
            sim_latencies: vec![2.5],
            attempted: 1,
            failed: 0,
            runs: Vec::new(),
            serve: None,
        };
        // A host running at half speed throughout.
        let slow = 2.0 * reference::NOMINAL_S;
        let setup = Referenced {
            raw: vec![1.0],
            refs: vec![slow; 2],
        };
        let wall = Referenced {
            raw: vec![3.0],
            refs: vec![slow; 2],
        };
        let out = summarise(&setup, &wall, &[pass], 100.0);
        assert_eq!(out.metrics[0], ("setup_s", 0.5));
        assert_eq!(out.metrics[1], ("wall_s", 1.5));
        let raw = |name| out.samples.iter().find(|(n, _)| *n == name).unwrap();
        assert_eq!(raw("wall_raw_s").1, vec![3.0]);
        assert_eq!(raw("setup_raw_s").1, vec![1.0]);
        assert_eq!(raw("ref_s").1, vec![slow; 4]);
    }
}
