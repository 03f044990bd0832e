//! The paper's claims as shape checks over the committed tables, and the
//! tables' own well-formedness.
//!
//! `scripts/repin.sh --check` proves `results/*.csv` to be what `repro`
//! computes today, byte for byte; these tests read those files and hold
//! them to the paper's qualitative claims (ROADMAP item 12), so a re-pin
//! that breaks a claim fails tier-1. Each check reports every violation it
//! finds, and each is shown to fire on a planted one.

use std::collections::BTreeSet;
use std::path::Path;

/// A parsed CSV table: its header and its rows of fields.
struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// The fields of one CSV record, RFC 4180 quoting undone (no cell of
/// ours holds a line break).
fn fields(line: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    let (mut quoted, mut chars) = (false, line.chars().peekable());
    while let Some(c) = chars.next() {
        let cell = out.last_mut().expect("one cell at least");
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                cell.push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => out.push(String::new()),
            c => cell.push(c),
        }
    }
    out
}

impl Csv {
    fn parse(text: &str) -> Csv {
        let mut lines = text.lines().map(fields);
        let header = lines.next().expect("a header line");
        Csv {
            header,
            rows: lines.collect(),
        }
    }

    /// The cell of row `row` under the column named `col`.
    fn cell(&self, row: usize, col: &str) -> &str {
        let i = self.header.iter().position(|h| h == col);
        &self.rows[row][i.unwrap_or_else(|| panic!("no column {col:?}"))]
    }

    /// The number in that cell, a trailing `%` dropped.
    fn num(&self, row: usize, col: &str) -> f64 {
        let cell = self.cell(row, col);
        let n = cell.trim_end_matches('%').parse();
        n.unwrap_or_else(|_| panic!("{col} = {cell:?} is no number"))
    }

    /// Back to CSV text (the planted tables need no quoting).
    fn text(&self) -> String {
        let lines = std::iter::once(&self.header).chain(&self.rows);
        lines.map(|fields| fields.join(",") + "\n").collect()
    }
}

/// A committed table, as text.
fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `text` with the cell of row `row` under `col` replaced by `value`.
fn plant(text: &str, row: usize, col: &str, value: &str) -> String {
    let mut t = Csv::parse(text);
    let i = t.header.iter().position(|h| h == col).expect("column");
    t.rows[row][i] = value.into();
    t.text()
}

/// The rows (1-based line numbers) whose field count differs from the
/// header's.
fn ragged_rows(text: &str) -> Vec<usize> {
    let t = Csv::parse(text);
    let width = t.header.len();
    let ragged = t.rows.iter().enumerate().filter(|(_, r)| r.len() != width);
    ragged.map(|(i, _)| i + 2).collect()
}

/// Figure 8 (§5.5): the GPU helps every graph at up to 8 nodes (parity
/// at 16 nodes is allowed), over the paper's three graphs.
fn fig8_violations(text: &str) -> Vec<String> {
    let t = Csv::parse(text);
    let mut bad = Vec::new();
    let mut graphs = BTreeSet::new();
    for r in 0..t.rows.len() {
        let (graph, nodes) = (t.cell(r, "graph"), t.num(r, "nodes"));
        if nodes > 8.0 {
            continue;
        }
        graphs.insert(graph.to_string());
        if t.num(r, "GPU benefit") <= 0.0 {
            let benefit = t.cell(r, "GPU benefit");
            bad.push(format!(
                "no GPU benefit on {graph} at {nodes} nodes ({benefit})"
            ));
        }
    }
    if graphs.len() != 3 {
        bad.push(format!("expected 3 graphs, found {}", graphs.len()));
    }
    bad
}

/// Figure 5 (§5.2): Pregel+ spends most of its time communicating and
/// MND-MST most of its time computing, at every node count (2 graphs × 3
/// node counts × 2 systems).
fn fig5_violations(text: &str) -> Vec<String> {
    let t = Csv::parse(text);
    let mut bad = Vec::new();
    for r in 0..t.rows.len() {
        let (comp, comm) = (t.num(r, "comp"), t.num(r, "comm"));
        let share = comm / (comp + comm);
        let system = t.cell(r, "system");
        let wrong = match system {
            "pregel+" => share <= 0.5,
            "mnd-mst" => share >= 0.5,
            _ => true,
        };
        if wrong {
            let (graph, nodes) = (t.cell(r, "graph"), t.cell(r, "nodes"));
            bad.push(format!(
                "{system} comm share {share:.3} on {graph} at {nodes} nodes"
            ));
        }
    }
    if t.rows.len() != 12 {
        bad.push(format!("expected 12 rows, found {}", t.rows.len()));
    }
    bad
}

/// Table 3 (§5.2): MND-MST improves on Pregel+ for every graph, and
/// gsh-2015-tpd — the graph with the least locality — is its weakest case.
fn table3_violations(text: &str) -> Vec<String> {
    let t = Csv::parse(text);
    let mut bad = Vec::new();
    let mut weakest: Option<(f64, &str)> = None;
    for r in 0..t.rows.len() {
        let graph = t.cell(r, "graph");
        let improvement = 1.0 - t.num(r, "MND exe") / t.num(r, "Pregel+ exe");
        if improvement <= 0.0 {
            bad.push(format!("MND-MST does not improve on Pregel+ on {graph}"));
        }
        if weakest.is_none_or(|(least, _)| improvement < least) {
            weakest = Some((improvement, graph));
        }
    }
    match weakest {
        Some((_, "gsh-2015-tpd")) => {}
        other => bad.push(format!("weakest case is {other:?}, not gsh-2015-tpd")),
    }
    bad
}

#[test]
fn every_committed_table_row_has_its_header_width() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut tables = 0;
    for entry in std::fs::read_dir(&dir).expect("results/") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|e| e == "csv") {
            let text = std::fs::read_to_string(&path).expect("a readable table");
            let ragged = ragged_rows(&text);
            assert!(ragged.is_empty(), "{}: lines {ragged:?}", path.display());
            tables += 1;
        }
    }
    assert!(tables > 0, "no tables under {}", dir.display());
    // A cell with an unquoted comma splits its row; a quoted one does not.
    assert_eq!(ragged_rows("plan,exe\ncrash, drop 1%,1.21\n"), [2]);
    assert!(ragged_rows("plan,exe\n\"crash, drop 1%\",1.21\n").is_empty());
    assert!(ragged_rows("say\n\"a \"\"b\"\"\"\n").is_empty());
}

#[test]
fn fig8_gpu_benefit_at_up_to_eight_nodes() {
    assert_eq!(
        fig8_violations(&committed("fig8.csv")),
        Vec::<String>::new()
    );
}

#[test]
fn fig5_comm_share_splits_the_systems() {
    assert_eq!(
        fig5_violations(&committed("fig5.csv")),
        Vec::<String>::new()
    );
}

#[test]
fn table3_mnd_mst_wins_everywhere_and_least_on_gsh() {
    assert_eq!(
        table3_violations(&committed("table3.csv")),
        Vec::<String>::new()
    );
}

#[test]
fn shape_checks_fire_on_planted_violations() {
    let fig8 = committed("fig8.csv");
    let at_four = Csv::parse(&fig8).rows.iter().position(|r| r[1] == "4");
    let planted = plant(&fig8, at_four.expect("a 4-node row"), "GPU benefit", "-1%");
    assert_eq!(fig8_violations(&planted).len(), 1, "{planted}");
    let two_graphs: String = fig8
        .lines()
        .filter(|l| !l.starts_with("uk-2007"))
        .map(|l| l.to_string() + "\n")
        .collect();
    assert_eq!(fig8_violations(&two_graphs).len(), 1);

    let fig5 = committed("fig5.csv");
    let t = Csv::parse(&fig5);
    let system = |s: &str| {
        (0..t.rows.len())
            .find(|&r| t.cell(r, "system") == s)
            .unwrap()
    };
    let mnd = plant(&fig5, system("mnd-mst"), "comm", "1000.00");
    assert_eq!(fig5_violations(&mnd).len(), 1, "{mnd}");
    let pregel = plant(&fig5, system("pregel+"), "comm", "0.01");
    assert_eq!(fig5_violations(&pregel).len(), 1, "{pregel}");
    let short: String = fig5
        .lines()
        .take(12)
        .map(|l| l.to_string() + "\n")
        .collect();
    assert_eq!(fig5_violations(&short).len(), 1);

    let table3 = committed("table3.csv");
    let t = Csv::parse(&table3);
    let graph = |g: &str| {
        (0..t.rows.len())
            .find(|&r| t.cell(r, "graph") == g)
            .unwrap()
    };
    let loses = plant(&table3, graph("uk-2007"), "MND exe", "500.00");
    // uk-2007 now loses, and so is the weakest case instead of gsh.
    assert_eq!(table3_violations(&loses).len(), 2, "{loses}");
    let road = plant(&table3, graph("road_usa"), "MND exe", "19.00");
    assert_eq!(table3_violations(&road).len(), 1, "{road}");
}
