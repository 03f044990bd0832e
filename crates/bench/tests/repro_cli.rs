//! The `repro` binary's argument check: a misspelt experiment name must
//! fail the run, not pass for an experiment that printed nothing.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_without_running_anything() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "65536", "tabel3"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "nothing ran, nothing printed: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tabel3"), "{stderr}");
    for name in ["table3", "ablation-locality", "comm-sweep"] {
        assert!(stderr.contains(name), "the list names {name}: {stderr}");
    }
}
