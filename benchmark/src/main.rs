//! `mnd-benchmark` — the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! mnd-benchmark --workload W --seed S --seconds T --trace 0|1   one workload run
//!               [--smoke] [--corrupt-oracle]                    (1/64 size; force every check to fail)
//! mnd-benchmark run     [--seed S]                              every workload, untraced
//! mnd-benchmark trace   [--seed S]                              every workload, traced
//! mnd-benchmark smoke   [--seed S]                              walk the harness at 1/64 size
//! mnd-benchmark compare A.json B.json                           two result files
//! ```

mod compare;
mod driver;
mod json;
mod layers;
mod measure;
mod metrics;
mod observer;
mod reference;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use measure::RunArgs;
use workloads::{Size, Workload};

/// Parsed command line: positional words and `--flag value` pairs
/// (`--smoke` and `--corrupt-oracle` take no value).
struct Cli {
    words: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            words: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(switch @ ("smoke" | "corrupt-oracle")) => {
                    cli.flags.insert(switch.to_string(), "1".into());
                }
                Some(flag) => {
                    let value = args.next().ok_or(format!("--{flag} needs a value"))?;
                    cli.flags.insert(flag.to_string(), value);
                }
                None => cli.words.push(arg),
            }
        }
        Ok(cli)
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: cannot read {v:?}")),
        }
    }

    /// Refuses any flag the invoked form does not take, so that a flag
    /// that is not read is never silently accepted.
    fn takes(&self, flags: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|f| !flags.contains(&f.as_str())) {
            None => Ok(()),
            Some(f) => Err(format!("--{f} is not a flag of this command")),
        }
    }

    fn run_args(&self, default_seconds: f64) -> Result<RunArgs, String> {
        let name = self.flags.get("workload").ok_or("--workload is required")?;
        let workload = Workload::from_name(name).ok_or_else(|| {
            let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })?;
        Ok(RunArgs {
            workload,
            seed: self.num("seed", 42)?,
            seconds: self.num("seconds", default_seconds)?,
            size: if self.flags.contains_key("smoke") {
                Size::Smoke
            } else {
                Size::Full
            },
            corrupt_oracle: self.flags.contains_key("corrupt-oracle"),
        })
    }
}

/// `benchmark/out`, wherever the package sits now (cargo exports the
/// manifest directory to the processes it runs) or sat when compiled.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// One workload run under the acceptance contract: a table for people,
/// the raw samples, and the result object as the last line. Exit code 1
/// if any output failed its check.
fn contract_run(cli: &Cli) -> Result<ExitCode, String> {
    cli.takes(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "smoke",
        "corrupt-oracle",
    ])?;
    let args = cli.run_args(metrics::catalogue().run_seconds)?;
    let outcome = match cli.num("trace", 0u8)? {
        0 => measure::run_end_to_end(&args),
        1 => {
            let path = out_dir().join(format!("trace-{}.json", args.workload.name()));
            let outcome = layers::run_traced(&args, &path);
            println!("trace written to {}", path.display());
            outcome
        }
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if args.size == Size::Smoke {
        println!("NON-COMPARABLE: smoke size (inputs 64x smaller)");
    }
    outcome.print_table(args.workload);
    println!("{}", outcome.machine_lines());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(cli: &Cli) -> Result<ExitCode, String> {
    let Some(command) = cli.words.first() else {
        return contract_run(cli);
    };
    // Run length and round count belong to the benchmark: the
    // all-workload commands take a seed and nothing else.
    cli.takes(match command.as_str() {
        "run" | "trace" | "smoke" => &["seed"],
        "rss-probe" | "t1-probe" => &["workload", "seed", "smoke"],
        _ => &[],
    })?;
    match command.as_str() {
        "run" => driver::run(cli.num("seed", 42)?),
        "trace" => driver::trace(cli.num("seed", 42)?),
        "smoke" => driver::smoke(cli.num("seed", 42)?),
        "compare" => match &cli.words[1..] {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare A.json B.json".into()),
        },
        "rss-probe" => {
            measure::rss_probe(&cli.run_args(0.0)?);
            Ok(ExitCode::SUCCESS)
        }
        "t1-probe" => {
            layers::t1_probe(&cli.run_args(0.0)?);
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    match Cli::parse(std::env::args().skip(1)).and_then(|cli| dispatch(&cli)) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mnd-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_contract_invocation() {
        let c = cli(&[
            "--workload",
            "geo-knn",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(c.words.is_empty());
        let args = c.run_args(12.0).unwrap();
        assert_eq!(args.workload, Workload::GeoKnn);
        assert_eq!((args.seed, args.seconds, args.size), (7, 3.0, Size::Full));
        assert_eq!(c.num("trace", 0u8), Ok(1));
    }

    #[test]
    fn rejects_bad_input_with_a_message() {
        assert!(cli(&["--seed"]).is_err());
        let c = cli(&["--workload", "nope"]).unwrap();
        assert!(c.run_args(1.0).unwrap_err().contains("crawl-dnc"));
        let c = cli(&["--workload", "geo-knn", "--seed", "x"]).unwrap();
        assert!(c.run_args(1.0).is_err());
        // Run length and rounds are the benchmark's, not the caller's.
        for flag in ["--seconds", "--rounds"] {
            let err = dispatch(&cli(&["run", flag, "1"]).unwrap()).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        assert!(dispatch(&cli(&["trace", "--seconds", "1"]).unwrap()).is_err());
        assert!(dispatch(&cli(&["--workload", "geo-knn", "--rounds", "2"]).unwrap()).is_err());
        assert!(dispatch(&cli(&["frobnicate"]).unwrap()).is_err());
        assert!(dispatch(&cli(&["compare", "only-one.json"]).unwrap()).is_err());
    }
}
