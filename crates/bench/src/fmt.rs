//! The harness's one table type: what every experiment returns, printed by
//! `repro` as an aligned ASCII table and written as CSV.

use std::path::{Path, PathBuf};

/// One finished table of an experiment, its cells formatted where the row
/// was computed.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// File stem of the table's CSV (`results/<name>.csv`).
    pub name: &'static str,
    /// The printed heading.
    pub title: String,
    /// Column names.
    pub header: Vec<&'static str>,
    /// One `Vec` of cells per row.
    pub rows: Vec<Vec<String>>,
    /// A line printed above the table.
    pub note: Option<String>,
    /// Host-clock readings: printed, never written as CSV (they would not
    /// reproduce).
    pub host_clock: bool,
}

/// A row of cells, each formatted with `to_string`.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => {
        vec![$($cell.to_string()),*]
    };
}
pub(crate) use cells;

impl Table {
    /// A reproducible table (see [`Table::host_clock`]).
    pub fn new(
        name: &'static str,
        title: impl Into<String>,
        header: &[&'static str],
        rows: Vec<Vec<String>>,
    ) -> Self {
        Table {
            name,
            title: title.into(),
            header: header.to_vec(),
            rows,
            note: None,
            host_clock: false,
        }
    }

    /// Prints the note, if any, then the header and rows, aligned.
    pub fn print(&self) {
        if let Some(note) = &self.note {
            println!("{note}");
        }
        println!("\n## {}\n", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("| ");
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{c:>w$} | "));
            }
            s
        };
        let header: Vec<String> = self.header.iter().map(|h| h.to_string()).collect();
        println!("{}", line(&header));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", line(&sep));
        for row in &self.rows {
            println!("{}", line(row));
        }
    }

    /// Writes the table as `<dir>/<name>.csv`, a cell holding `,` or `"`
    /// quoted as RFC 4180 says. Returns the path written.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut out = csv_record(self.header.iter().copied());
        for row in &self.rows {
            out.push_str(&csv_record(row.iter().map(String::as_str)));
        }
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// One CSV line. A cell holding a `,` or a `"` is put in quotes, its
/// quotes doubled.
fn csv_record<'a>(cells: impl Iterator<Item = &'a str>) -> String {
    let field = |cell: &str| {
        if cell.contains([',', '"']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    cells.map(field).collect::<Vec<_>>().join(",") + "\n"
}

/// Formats seconds with 2 decimals (the paper's tables use seconds).
pub fn secs(t: f64) -> String {
    format!("{t:.2}")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Reading tables back by column name, for the tests.
#[cfg(test)]
impl Table {
    /// The cell of row `row` under the column named `col`.
    pub fn cell(&self, row: usize, col: &str) -> &str {
        let i = self.header.iter().position(|h| *h == col);
        let i = i.unwrap_or_else(|| panic!("{}: no column {col:?}", self.name));
        &self.rows[row][i]
    }

    /// The number in that cell, a trailing `%` or `x` dropped.
    pub fn num(&self, row: usize, col: &str) -> f64 {
        let cell = self.cell(row, col);
        let number = cell.trim_end_matches(['%', 'x']).parse();
        number.unwrap_or_else(|_| panic!("{}: {col} = {cell:?} is no number", self.name))
    }

    /// The first row whose cell under `col` satisfies `pred`.
    pub fn find(&self, col: &str, pred: impl Fn(&str) -> bool) -> usize {
        let row = (0..self.rows.len()).find(|&r| pred(self.cell(r, col)));
        row.unwrap_or_else(|| panic!("{}: no such row under {col:?}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        Table::new(
            "demo",
            "demo",
            &["a", "bb"],
            vec![cells!["1", "x"], cells![2, "y"]],
        )
    }

    #[test]
    fn formats() {
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(pct(0.42), "42%");
    }

    #[test]
    fn csv_writes_and_round_trips() {
        let dir = std::env::temp_dir().join("mnd_csv_test");
        let p = demo().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&p).unwrap();
        assert_eq!(content, "a,bb\n1,x\n2,y\n");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn csv_quotes_cells_holding_commas_or_quotes() {
        let dir = std::env::temp_dir().join("mnd_csv_quote_test");
        let t = Table::new(
            "quoted",
            "quoted",
            &["plan", "say"],
            vec![cells!["crash+restart, drop 1%", r#"a "b""#]],
        );
        let p = t.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&p).unwrap();
        assert_eq!(
            content,
            "plan,say\n\"crash+restart, drop 1%\",\"a \"\"b\"\"\"\n"
        );
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn table_prints_without_panicking() {
        let mut t = demo();
        t.note = Some("a note".into());
        t.rows.push(cells!["333", "4"]);
        t.print();
    }

    #[test]
    fn cells_read_back_by_column_name() {
        let t = demo();
        assert_eq!(t.cell(1, "bb"), "y");
        assert_eq!(t.num(t.find("bb", |c| c == "y"), "a"), 2.0);
    }
}
