//! `repro` — regenerates every table and figure of the MND-MST paper.
//!
//! ```text
//! repro [--scale N] [--seed S] [--no-verify] [--nodes N] [--trace PATH] <experiment>...
//! repro all            # everything (slow)
//! repro table3 fig8    # selected experiments
//! repro --trace - chaos   # chaos sweep, JSONL events to stdout
//! repro chaos --seed-grid 7,11   # chaos sweep repeated per seed
//! ```
//!
//! The experiments are the names in `EXPERIMENTS` below; `repro --help`
//! prints them. An unknown name prints the list and exits with status 2
//! before anything runs.
//!
//! `--trace PATH` streams every phase sample, step sample and chaos event
//! as JSON lines to PATH (`-` = stdout) while the experiments run, and
//! prints a per-phase table of host wall time and holding rows, and under
//! it a per-step one with the rank threads' CPU time, when they are done.

use std::sync::Arc;

use mnd_bench::fmt::Table;
use mnd_bench::trace::JsonlTrace;
use mnd_bench::*;

/// An experiment: its tables, computed from the shared context.
type Experiment = fn(&ExpContext) -> Vec<Table>;

/// Every experiment, in the order `all` runs them: the one list that the
/// usage text prints, the arguments are checked against and the run loop
/// walks.
const EXPERIMENTS: [(&str, Experiment); 23] = [
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("ablation-group", ablation_group),
    ("ablation-excp", ablation_excp),
    ("ablation-thresh", ablation_thresh),
    ("ablation-locality", ablation_locality),
    ("ablation-weights", ablation_weights),
    ("ablation-network", ablation_network),
    ("chaos", chaos),
    ("resilience", resilience),
    ("checkpoint-sweep", checkpoint_sweep),
    ("engines", engine_list),
    ("serve-sweep", serve_sweep),
    ("traffic", traffic),
    ("calibration", calibration),
    ("emst-sweep", emst_sweep),
    ("comm-sweep", comm_sweep),
];

/// `all` and every experiment name, a few to a line.
fn experiment_list() -> String {
    let names: Vec<&str> = std::iter::once("all")
        .chain(EXPERIMENTS.iter().map(|(name, _)| *name))
        .collect();
    let lines: Vec<String> = names.chunks(6).map(|c| c.join(" ")).collect();
    format!("experiments: {}", lines.join("\n             "))
}

/// The value following a flag, parsed.
fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, what: &str) -> T {
    let v = it.next().unwrap_or_else(|| panic!("{what}"));
    v.parse().unwrap_or_else(|_| panic!("{what}: {v:?}"))
}

fn main() {
    let mut ctx = ExpContext::default();
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut names: Vec<String> = Vec::new();
    let mut trace: Option<Arc<JsonlTrace>> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv_dir = Some(it.next().expect("--csv DIR").into()),
            "--scale" => ctx.scale = value(&mut it, "--scale N"),
            "--seed" => ctx.seed = value(&mut it, "--seed S"),
            "--seed-grid" => {
                let grid = it.next().expect("--seed-grid S1,S2,...");
                let seed = |s: &str| s.trim().parse().expect("numeric seed in --seed-grid");
                ctx.seed_grid = grid.split(',').map(seed).collect();
            }
            "--nodes" => ctx.nodes = value(&mut it, "--nodes N"),
            "--no-verify" => ctx.verify = false,
            "--trace" => {
                let path = it.next().expect("--trace PATH");
                let sink = Arc::new(if path == "-" {
                    JsonlTrace::stdout()
                } else {
                    JsonlTrace::create(std::path::Path::new(&path))
                        .unwrap_or_else(|e| panic!("--trace {path}: {e}"))
                });
                ctx.observer = mnd_hypar::observe::ObserverHook::new(sink.clone());
                trace = Some(sink);
            }
            "--help" | "-h" => {
                println!("usage: repro [--scale N] [--seed S] [--seed-grid S1,S2,...] [--nodes N] [--no-verify] [--csv DIR] [--trace PATH] <exp>...");
                println!("{}", experiment_list());
                println!(
                    "--trace PATH streams phase/step samples + chaos events as JSON lines (- = stdout)"
                );
                println!("--seed-grid S1,S2,... repeats the chaos/resilience sweeps once per seed");
                return;
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        names.push("all".into());
    }
    let known = |name: &str| name == "all" || EXPERIMENTS.iter().any(|(e, _)| *e == name);
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|n| !known(n))
        .collect();
    if !unknown.is_empty() {
        eprintln!("repro: unknown experiment: {}", unknown.join(" "));
        eprintln!("{}", experiment_list());
        std::process::exit(2);
    }
    let all = names.iter().any(|n| n == "all");

    println!(
        "# MND-MST reproduction — scale 1/{}, seed {}, verify {}",
        ctx.scale, ctx.seed, ctx.verify
    );
    println!("(times are simulated seconds at paper scale; see DESIGN.md)");

    // A table whose CSV could not be written fails the run once every
    // table has printed: a lost file must not pass for a written one.
    let mut csv_failures = 0usize;
    let mut emit = |table: Table| {
        table.print();
        let Some(dir) = csv_dir.as_deref().filter(|_| !table.host_clock) else {
            return;
        };
        match table.write_csv(dir) {
            Ok(p) => println!("(csv: {})", p.display()),
            Err(e) => {
                eprintln!("csv write failed: {}: {e}", table.name);
                csv_failures += 1;
            }
        }
    };
    for (name, run) in EXPERIMENTS {
        if all || names.iter().any(|n| n == name) {
            run(&ctx).into_iter().for_each(&mut emit);
        }
    }
    if let Some(trace) = trace {
        trace.tables().into_iter().for_each(&mut emit);
    }
    if csv_failures > 0 {
        eprintln!("repro: {csv_failures} CSV file(s) not written");
        std::process::exit(1);
    }
}
