//! Drives the built binary the way the acceptance driver does, at smoke
//! size: result-line shape, the per-layer ledger and trace file of a
//! traced run, and the exit code when an output fails its check.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_mnd-benchmark");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn mnd-benchmark")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .expect("some output")
        .to_string()
}

/// Names listed under `section` of the committed BENCHMARK.json, in order.
fn manifest_names(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = start + text[start..].find(']').expect("section is an array");
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

/// Metric names of a result line, in order of appearance.
fn result_metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\":{").expect("metrics object") + 11..];
    metrics
        .split("\":{\"value\":")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(str::to_string)
        .collect()
}

#[test]
fn untraced_run_prints_the_contract_result_line() {
    let out = run(&[
        "--workload",
        "road-rounds",
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(out.status.success(), "{out:?}");
    let line = last_line(&out);
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"),
        "{line}"
    );
    assert_eq!(result_metric_names(&line), manifest_names("end_to_end"));
    // No end-to-end metric may read 0 (or fail to be a number).
    assert!(
        !line.contains("\"value\":0,") && !line.contains("null"),
        "{line}"
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("NON-COMPARABLE"),
        "smoke output must be labelled"
    );
    for name in manifest_names("end_to_end") {
        assert!(text.contains(&format!(" {name} ")), "table lacks {name}");
    }
}

#[test]
fn traced_run_emits_the_whole_ledger_and_a_nested_trace() {
    let out = run(&[
        "--workload",
        "scramble-dnc",
        "--seed",
        "42",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--smoke",
    ]);
    assert!(out.status.success(), "{out:?}");
    let line = last_line(&out);
    assert!(line.starts_with("{\"correct\":true,"), "{line}");
    assert!(
        !line.contains("null"),
        "every per-layer value is a finite number: {line}"
    );
    assert_eq!(result_metric_names(&line), manifest_names("per_layer"));

    let trace: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-scramble-dnc.json");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    for span in [
        "\"setup\"",
        "\"graph.gen\"",
        "\"kernels.oracle\"",
        "\"pass.untraced\"",
        "\"pass.traced\"",
        "\"run.mnd-mst\"",
        "\"core.ind_comp#r0\"",
        "\"core.hier_merge#r3\"",
        "\"probes\"",
        "\"kernels.local_boruvka_t1\"",
        "\"net.barrier\"",
        "\"serve.plane\"",
        "\"self_ns\"",
    ] {
        assert!(text.contains(span), "trace lacks {span}");
    }
}

#[test]
fn a_corrupted_oracle_fails_every_operation_and_the_exit_code() {
    for trace in ["0", "1"] {
        let out = run(&[
            "--workload",
            "geo-knn",
            "--seed",
            "42",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
            "--corrupt-oracle",
        ]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let line = last_line(&out);
        assert!(line.starts_with("{\"correct\":false,"), "{line}");
        if trace == "0" {
            // failed_frac = 2 of 2: both engine runs of the pass.
            assert!(line.contains("\"attempted\":2,\"failed\":2,"), "{line}");
        }
    }
}

#[test]
fn bad_invocations_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "geo-knn",
            "--trace",
            "2",
            "--seconds",
            "0",
            "--smoke",
        ][..],
        &["compare", "missing-a.json", "missing-b.json"][..],
        // Run length is the benchmark's: `run` takes a seed only.
        &["run", "--seconds", "1"][..],
        &["frobnicate"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
