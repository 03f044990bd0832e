//! The documents name files; the files must exist. Every back-ticked token
//! of README.md, DESIGN.md, EXPERIMENTS.md and `benchmark/README.md` that
//! looks like a source path — contains a `/`, ends in `.rs`, `.sh`, `.toml`
//! or `.json` — resolves against the repository root or the document's own
//! directory. A bare output or script name (`*.txt`, `*.sh`, no directory)
//! must be the base name of a file in the tree. Paths only: what the prose
//! says about a file is a reader's to check.

use std::collections::HashSet;
use std::path::Path;

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "benchmark/README.md",
];

/// Files that are gone but that the benchmark's README, which cannot be
/// edited, still names as history. They are accepted there and nowhere
/// else, and they must stay gone, so the list can never hide a live file.
const RETIRED: [&str; 2] = ["crates/bench/src/bin/perfsnap.rs", "scripts/bench_check.sh"];
const RETIRED_NAMED_IN: &str = "benchmark/README.md";

/// The back-ticked spans of one line (code spans never cross lines here).
fn code_spans(line: &str) -> impl Iterator<Item = &str> {
    line.split('`').skip(1).step_by(2)
}

/// No blanks (a command line) and no placeholder (`<workload>`, `*`).
fn is_literal(token: &str) -> bool {
    !token.contains(|c: char| c.is_whitespace() || "<>*{}".contains(c))
}

/// A token that claims to be a checked-in file: a path with a source
/// suffix, literal, and not below `out/` or `target/`, where runs and
/// builds write.
fn is_source_path(token: &str) -> bool {
    let suffix = [".rs", ".sh", ".toml", ".json"]
        .iter()
        .any(|s| token.ends_with(s));
    suffix
        && token.contains('/')
        && is_literal(token)
        && !token
            .split('/')
            .any(|part| part == "out" || part == "target")
}

/// A token that names an output or a script without its directory:
/// `verify.sh`, `repro_output.txt`.
fn is_bare_name(token: &str) -> bool {
    let suffix = [".txt", ".sh"]
        .iter()
        .any(|s| token.len() > s.len() && token.ends_with(s));
    suffix && !token.contains('/') && is_literal(token)
}

/// Base names of the files below `dir`, outside `target/`, `out/` and
/// `.git/`.
fn tree_names(dir: &Path, names: &mut HashSet<String>) {
    for entry in std::fs::read_dir(dir).expect("a readable directory") {
        let entry = entry.expect("a directory entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type().expect("a file type").is_dir() {
            if !matches!(name.as_str(), "target" | "out" | ".git") {
                tree_names(&entry.path(), names);
            }
        } else {
            names.insert(name);
        }
    }
}

/// Why a back-ticked token of `doc` names nothing, if it does not.
fn dangling(root: &Path, doc: &str, token: &str, names: &HashSet<String>) -> Option<&'static str> {
    if is_source_path(token) {
        if RETIRED.contains(&token) {
            return (doc != RETIRED_NAMED_IN).then_some("a retired file");
        }
        let beside = root.join(doc).parent().expect("a file").join(token);
        (!root.join(token).is_file() && !beside.is_file()).then_some("no such file")
    } else if is_bare_name(token) {
        (!names.contains(token)).then_some("no file of that name in the tree")
    } else {
        None
    }
}

#[test]
fn documents_name_files_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for path in RETIRED {
        assert!(!root.join(path).exists(), "`{path}` is retired but exists");
    }
    let mut names = HashSet::new();
    tree_names(root, &mut names);
    let mut checked = 0;
    let mut dangle = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for (n, line) in text.lines().enumerate() {
            for token in code_spans(line) {
                checked += usize::from(is_source_path(token) || is_bare_name(token));
                if let Some(why) = dangling(root, doc, token, &names) {
                    dangle.push(format!("{doc}:{}: `{token}`: {why}", n + 1));
                }
            }
        }
    }
    assert!(checked > 20, "the scan found only {checked} names");
    assert!(
        dangle.is_empty(),
        "documents name files that do not exist:\n{}",
        dangle.join("\n")
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
    // Bare names: an output or a script without its directory.
    assert!(is_bare_name("repro_output.txt"));
    assert!(is_bare_name("verify.sh"));
    assert!(!is_bare_name("scripts/verify.sh"), "a path: checked as one");
    assert!(!is_bare_name("repro all > out.txt"));
    assert!(!is_bare_name("*.txt"));
    assert!(!is_bare_name(".sh"));
    assert!(!is_bare_name("cgraph.rs"));
    // What each kind resolves against, and where a retired path may stand.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let names = HashSet::from(["verify.sh".to_string()]);
    let check = |doc, token| dangling(root, doc, token, &names);
    assert_eq!(check("README.md", "verify.sh"), None);
    assert_eq!(check("README.md", "scripts/verify.sh"), None);
    assert_eq!(check("benchmark/README.md", "../BENCHMARK.json"), None);
    let absent = Some("no file of that name in the tree");
    assert_eq!(check("README.md", "repro_output.txt"), absent);
    assert_eq!(check("EXPERIMENTS.md", "bench_output.txt"), absent);
    assert_eq!(
        check("README.md", "crates/core/src/nowhere.rs"),
        Some("no such file")
    );
    for retired in RETIRED {
        assert_eq!(check("README.md", retired), Some("a retired file"));
        assert_eq!(check(RETIRED_NAMED_IN, retired), None);
    }
}
