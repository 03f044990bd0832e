//! The documents name files; the files must exist. Every back-ticked token
//! of README.md, DESIGN.md, EXPERIMENTS.md and `benchmark/README.md` that
//! looks like a source path — contains a `/`, ends in `.rs`, `.sh`, `.toml`
//! or `.json` — resolves against the repository root or the document's own
//! directory. Paths only: what the prose says about a file is a reader's to
//! check.

use std::path::Path;

/// The back-ticked spans of one line (code spans never cross lines here).
fn code_spans(line: &str) -> impl Iterator<Item = &str> {
    line.split('`').skip(1).step_by(2)
}

/// A token that claims to be a checked-in file: a path with a source
/// suffix, no blanks (a command line), no placeholder (`<workload>`, `*`),
/// and not below `out/` or `target/`, where runs and builds write.
fn is_source_path(token: &str) -> bool {
    let suffix = [".rs", ".sh", ".toml", ".json"]
        .iter()
        .any(|s| token.ends_with(s));
    suffix
        && token.contains('/')
        && !token.contains(|c: char| c.is_whitespace() || "<>*{}".contains(c))
        && !token
            .split('/')
            .any(|part| part == "out" || part == "target")
}

#[test]
fn documents_name_files_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "benchmark/README.md",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let beside = root.join(doc).parent().expect("a file").to_path_buf();
        for (n, line) in text.lines().enumerate() {
            for token in code_spans(line).filter(|t| is_source_path(t)) {
                checked += 1;
                if !root.join(token).is_file() && !beside.join(token).is_file() {
                    missing.push(format!("{doc}:{}: `{token}`", n + 1));
                }
            }
        }
    }
    assert!(checked > 20, "the scan found only {checked} paths");
    assert!(
        missing.is_empty(),
        "documents name files that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_scan_tells_paths_from_commands_and_outputs() {
    let spans: Vec<&str> = code_spans("see `a/b.rs` and `x` or ``, not c/d.rs").collect();
    assert_eq!(spans, ["a/b.rs", "x", ""]);
    assert!(is_source_path("crates/core/src/runner.rs"));
    assert!(is_source_path("../BENCHMARK.json"));
    assert!(!is_source_path("cgraph.rs"), "no directory: not checked");
    assert!(!is_source_path(
        "cargo test --manifest-path benchmark/Cargo.toml"
    ));
    assert!(!is_source_path("benchmark/out/trace-W.json"));
    assert!(!is_source_path("out/trace-<workload>.json"));
    assert!(!is_source_path("crates/core/src/phases/"));
}
