//! The documents name files and items; they must exist. Every back-ticked
//! token of README.md, DESIGN.md, EXPERIMENTS.md and `benchmark/README.md`
//! that looks like a source path — contains a `/`, ends in `.rs`, `.sh`,
//! `.toml` or `.json` — resolves against the repository root or the
//! document's own directory. A bare output or script name (`*.txt`, `*.sh`,
//! no directory) must be the base name of a file in the tree. A literal
//! crate path (`mnd_<crate>::a::b`, optionally ending in `()`) names
//! something: every segment after the crate occurs as an identifier on a
//! non-comment line of that crate's `src/`; `mnd::<m>::…` resolves through
//! the crate the root re-exports as `<m>`. A function or method token
//! (`name()`, `Type::method`, `Type::method()`) names something too: each
//! of its identifiers occurs on a non-comment line of the workspace's
//! `src/` trees. Names only: what the prose says about a file or an item is
//! a reader's to check.
//!
//! CHANGES.md stays a list a reader can scan: the first line of each entry
//! from the 27th on holds at most 150 words.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

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

/// The first CHANGES.md entry held to the word limit; earlier ones
/// predate it.
const FIRST_SHORT_ENTRY: u32 = 27;
/// Words on the first line of a CHANGES.md entry, at most.
const ENTRY_MAX_WORDS: usize = 150;

/// How a CHANGES.md entry opens; its number follows.
const ENTRY_OPENING: &str = "- PR ";

/// The number and the word count of a CHANGES.md entry's first line
/// (`- PR <n>: …` → `(n, words after the dash)`), or `None` for any
/// other line.
fn entry_words(line: &str) -> Option<(u32, usize)> {
    let text = line.strip_prefix("- ")?;
    let number = line
        .strip_prefix(ENTRY_OPENING)?
        .split(|c: char| !c.is_ascii_digit())
        .next()?;
    Some((number.parse().ok()?, text.split_whitespace().count()))
}

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

/// A Rust identifier.
fn is_ident(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The segments of a literal crate path — `["mnd_core", "a", "b"]` for
/// `mnd_core::a::b()` — or `None` if `token` is not one.
fn crate_path(token: &str) -> Option<Vec<&str>> {
    let path = token.strip_suffix("()").unwrap_or(token);
    let segments: Vec<&str> = path.split("::").collect();
    let krate = segments[0];
    let ours = krate == "mnd" || krate.starts_with("mnd_");
    (ours && segments.len() > 1 && segments.iter().all(|s| is_ident(s))).then_some(segments)
}

/// The identifiers of a function or method token — `["f"]` for `f()`,
/// `["Type", "m"]` for `Type::m` or `Type::m()` — or `None` if `token` is
/// not one (a bare word, a module path, a call with arguments).
fn item_call(token: &str) -> Option<Vec<&str>> {
    let (path, call) = match token.strip_suffix("()") {
        Some(path) => (path, true),
        None => (token, false),
    };
    let segments: Vec<&str> = path.split("::").collect();
    let named = match segments[..] {
        [name] => call && is_ident(name),
        [ty, method] => {
            ty.starts_with(|c: char| c.is_ascii_uppercase()) && is_ident(ty) && is_ident(method)
        }
        _ => false,
    };
    named.then_some(segments)
}

/// Where the workspace's crate paths resolve: each crate's `src/` by its
/// Rust name (from `crates/*/Cargo.toml`), and the root's re-exports
/// (`pub use mnd_x as m;` in `src/lib.rs`) by alias. Function and method
/// tokens resolve against every `src/` tree, the shims' included.
struct Crates {
    src: HashMap<String, PathBuf>,
    aliases: HashMap<String, String>,
    trees: Vec<PathBuf>,
    idents: HashMap<PathBuf, HashSet<String>>,
}

impl Crates {
    fn scan(root: &Path) -> Self {
        let mut src = HashMap::from([("mnd".to_string(), root.join("src"))]);
        for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
            let dir = entry.expect("a directory entry").path();
            let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            let name = manifest
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = \""))
                .and_then(|l| l.strip_suffix('"'))
                .expect("a package name");
            src.insert(name.replace('-', "_"), dir.join("src"));
        }
        let lib = std::fs::read_to_string(root.join("src/lib.rs")).expect("src/lib.rs");
        let aliases = lib
            .lines()
            .filter_map(|l| l.trim().strip_prefix("pub use ")?.strip_suffix(';'))
            .filter_map(|l| l.split_once(" as "))
            .map(|(krate, alias)| (alias.to_string(), krate.to_string()))
            .collect();
        let shims = std::fs::read_dir(root.join("shims"))
            .expect("shims/")
            .map(|entry| entry.expect("a directory entry").path().join("src"))
            .filter(|dir| dir.is_dir());
        let trees = src.values().cloned().chain(shims).collect();
        Crates {
            src,
            aliases,
            trees,
            idents: HashMap::new(),
        }
    }

    /// The identifiers on the non-comment lines of the `.rs` files below
    /// `dir`.
    fn idents(&mut self, dir: &Path) -> &HashSet<String> {
        fn walk(dir: &Path, out: &mut HashSet<String>) {
            for entry in std::fs::read_dir(dir).expect("a readable directory") {
                let path = entry.expect("a directory entry").path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = std::fs::read_to_string(&path).expect("a source file");
                    let code = text.lines().filter(|l| !l.trim_start().starts_with("//"));
                    for line in code {
                        out.extend(
                            line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                                .filter(|w| !w.is_empty())
                                .map(str::to_string),
                        );
                    }
                }
            }
        }
        self.idents.entry(dir.to_path_buf()).or_insert_with(|| {
            let mut out = HashSet::new();
            walk(dir, &mut out);
            out
        })
    }

    /// Why the crate path `segments` names nothing, if it does not.
    fn dangling(&mut self, segments: &[&str]) -> Option<&'static str> {
        let (krate, mut rest) = (segments[0], &segments[1..]);
        let krate = match self.aliases.get(rest[0]) {
            Some(target) if krate == "mnd" => {
                rest = &rest[1..];
                target.clone()
            }
            _ => krate.to_string(),
        };
        let Some(dir) = self.src.get(&krate).cloned() else {
            return Some("no such crate");
        };
        let idents = self.idents(&dir);
        (!rest.iter().all(|s| idents.contains(*s))).then_some("no such item in the crate")
    }

    /// Why the function or method `segments` names nothing, if it does not.
    fn dangling_item(&mut self, segments: &[&str]) -> Option<&'static str> {
        let trees = self.trees.clone();
        let named = segments
            .iter()
            .all(|s| trees.iter().any(|dir| self.idents(dir).contains(*s)));
        (!named).then_some("no such item in the workspace")
    }
}

/// Why a back-ticked token of `doc` names nothing, if it does not.
fn dangling(
    root: &Path,
    doc: &str,
    token: &str,
    names: &HashSet<String>,
    crates: &mut Crates,
) -> Option<&'static str> {
    if let Some(segments) = crate_path(token) {
        crates.dangling(&segments)
    } else if let Some(segments) = item_call(token) {
        crates.dangling_item(&segments)
    } else if is_source_path(token) {
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
    let mut crates = Crates::scan(root);
    let mut checked = 0;
    let mut dangle = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for (n, line) in text.lines().enumerate() {
            for token in code_spans(line) {
                checked += usize::from(
                    is_source_path(token)
                        || is_bare_name(token)
                        || crate_path(token).is_some()
                        || item_call(token).is_some(),
                );
                if let Some(why) = dangling(root, doc, token, &names, &mut crates) {
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
    let mut crates = Crates::scan(root);
    let mut check = |doc, token| dangling(root, doc, token, &names, &mut crates);
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
    // Crate paths: segments resolve in the named crate's code, or in the
    // crate the root re-exports under the alias.
    assert_eq!(check("DESIGN.md", "mnd_engine::run_recoverable()"), None);
    assert_eq!(check("README.md", "mnd::mst::distributed_components"), None);
    assert_eq!(check("README.md", "mnd::engines::registry"), None);
    assert_eq!(
        check("DESIGN.md", "mnd_device::no_such_calibration"),
        Some("no such item in the crate")
    );
    assert_eq!(check("DESIGN.md", "mnd_nowhere::x"), Some("no such crate"));
    assert_eq!(
        crate_path("mnd_kernels::policy"),
        Some(vec!["mnd_kernels", "policy"])
    );
    assert_eq!(crate_path("mnd_kernels"), None, "a bare crate name");
    assert_eq!(crate_path("mnd::engines::{registry, EngineParams}"), None);
    assert_eq!(crate_path("std::sync::Arc"), None, "not ours");
    // Functions and methods: every identifier occurs in the workspace's
    // code, the shims' included.
    assert_eq!(check("DESIGN.md", "KernelPolicy::current()"), None);
    assert_eq!(check("DESIGN.md", "CGraph::incident_counts"), None);
    assert_eq!(check("README.md", "with_kernel_policy()"), None);
    assert_eq!(check("DESIGN.md", "ThreadPool::install"), None);
    let gone = Some("no such item in the workspace");
    assert_eq!(check("DESIGN.md", "RankCtx::recovery_point()"), gone);
    assert_eq!(check("DESIGN.md", "CGraph::incident_counts_with"), gone);
    assert_eq!(check("README.md", "no_such_function()"), gone);
    assert_eq!(item_call("sort_edges()"), Some(vec!["sort_edges"]));
    assert_eq!(
        item_call("ExecDevice::run_ind_comp()"),
        Some(vec!["ExecDevice", "run_ind_comp"])
    );
    assert_eq!(item_call("sort_edges"), None, "a bare word");
    assert_eq!(item_call("policy::current"), None, "a module path");
    assert_eq!(item_call("with_kernel_threads(1, f)"), None, "a call");
    assert_eq!(item_call("a::B::c()"), None);
    assert_eq!(item_call("()"), None);
}

#[test]
fn changes_entries_open_with_a_short_line() {
    let entry = |rest: &str| format!("{ENTRY_OPENING}{rest}");
    assert_eq!(entry_words(&entry("30: One kernel path")), Some((30, 5)));
    assert_eq!(entry_words(&entry("7 (review fixes): a")), Some((7, 5)));
    assert_eq!(entry_words(&format!("  {}", entry("30: nested"))), None);
    assert_eq!(entry_words("- PRs 22, 23"), None);
    assert_eq!(entry_words("One line per PR"), None);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("CHANGES.md")).expect("CHANGES.md");
    let entries: Vec<(u32, usize)> = text
        .lines()
        .filter_map(entry_words)
        .filter(|&(number, _)| number >= FIRST_SHORT_ENTRY)
        .collect();
    assert!(entries.len() >= 4, "only {} entries checked", entries.len());
    let long: Vec<String> = entries
        .iter()
        .filter(|&&(_, words)| words > ENTRY_MAX_WORDS)
        .map(|(number, words)| format!("PR {number}: {words} words"))
        .collect();
    assert!(
        long.is_empty(),
        "CHANGES.md entries open with more than {ENTRY_MAX_WORDS} words:\n{}",
        long.join("\n")
    );
}
