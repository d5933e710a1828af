//! Typed tables: what every experiment returns, and the one place they
//! are rendered — as aligned text and as JSON.

use hf_insight::Json;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count.
    Int(i64),
    /// A measurement, in the column's unit.
    Num(f64),
    /// A label.
    Str(String),
    /// The configuration does not fit in GPU memory (`OOM` in text,
    /// `null` in JSON).
    Oom,
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Str(v.into())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Str(v)
    }
}

/// `None` is a configuration that does not fit.
impl From<Option<f64>> for Cell {
    fn from(v: Option<f64>) -> Self {
        v.map_or(Cell::Oom, Cell::Num)
    }
}

/// `a / b` where both exist, `-` otherwise.
pub fn ratio(a: Option<f64>, b: Option<f64>) -> Cell {
    match (a, b) {
        (Some(a), Some(b)) => Cell::Num(a / b),
        _ => Cell::Str("-".into()),
    }
}

/// A column: what it is called, what unit its numbers are in, and how
/// many decimals the text rendering shows (JSON keeps six).
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Column name.
    pub name: &'static str,
    /// Unit of the numeric cells (`""` for counts and labels).
    pub unit: &'static str,
    /// Decimals shown for [`Cell::Num`] in text.
    pub precision: usize,
}

/// A column of numbers in `unit`, shown with `precision` decimals.
pub const fn col(name: &'static str, unit: &'static str, precision: usize) -> Column {
    Column { name, unit, precision }
}

/// A column of counts or labels.
pub const fn label(name: &'static str) -> Column {
    col(name, "", 0)
}

/// A titled table of typed cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Printed above the table; identifies it in JSON.
    pub title: String,
    /// The columns.
    pub columns: Vec<Column>,
    /// Row-major cells, one per column.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, columns: Vec<Column>) -> Self {
        Table { title: title.into(), columns, rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row does not have one cell per column.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "table '{}': row width", self.title);
        self.rows.push(row);
    }

    /// Right-aligned text under a `name unit` header line.
    pub fn render(&self) -> String {
        let header: Vec<String> =
            self.columns
                .iter()
                .map(|c| {
                    if c.unit.is_empty() {
                        c.name.into()
                    } else {
                        format!("{} {}", c.name, c.unit)
                    }
                })
                .collect();
        let body: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&self.columns)
                    .map(|(cell, c)| match cell {
                        Cell::Int(i) => i.to_string(),
                        Cell::Num(x) => format!("{x:.prec$}", prec = c.precision),
                        Cell::Str(s) => s.clone(),
                        Cell::Oom => "OOM".into(),
                    })
                    .collect()
            })
            .collect();
        let widths: Vec<usize> = (0..header.len())
            .map(|i| body.iter().map(|r| r[i].len()).fold(header[i].len(), usize::max))
            .collect();
        let line = |cells: &[String]| -> String {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            padded.join("  ") + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        let mut out = format!("== {} ==\n{}{rule}\n", self.title, line(&header));
        for row in &body {
            out.push_str(&line(row));
        }
        out
    }

    fn json(&self) -> Json {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("name", Json::Str(c.name.into())),
                    ("unit", Json::Str(c.unit.into())),
                ])
            })
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::Arr(
                    row.iter()
                        .map(|cell| match cell {
                            Cell::Int(i) => Json::Int(*i),
                            Cell::Num(x) => Json::Num(*x),
                            Cell::Str(s) => Json::Str(s.clone()),
                            Cell::Oom => Json::Null,
                        })
                        .collect(),
                )
            })
            .collect();
        Json::obj(vec![
            ("title", Json::Str(self.title.clone())),
            ("columns", Json::Arr(columns)),
            ("rows", Json::Arr(rows)),
        ])
    }
}

/// What an experiment returns.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The tables, in print order.
    pub tables: Vec<Table>,
    /// Lines printed under the tables: captions and what to compare
    /// against in the paper.
    pub notes: Vec<String>,
    /// The experiment's own JSON document, for the experiments whose
    /// schema is gated against a committed file; `None` renders
    /// `tables` in the registry schema.
    pub json: Option<Json>,
    /// Checks the experiment ran and that did not hold. Non-empty makes
    /// the runner exit 1 after printing everything above.
    pub failures: Vec<String>,
}

impl Report {
    /// A report of `tables` and `notes`.
    pub fn new(tables: Vec<Table>, notes: Vec<String>) -> Self {
        Report { tables, notes, ..Default::default() }
    }

    /// The text form: every table, then the notes.
    pub fn text(&self) -> String {
        let mut out: String = self.tables.iter().map(|t| t.render() + "\n").collect();
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// The JSON document written as `BENCH_<experiment>.json`.
    pub fn json(&self, experiment: &str, fast: bool) -> Json {
        self.json.clone().unwrap_or_else(|| {
            Json::obj(vec![
                ("experiment", Json::Str(experiment.into())),
                ("mode", Json::Str(mode(fast).into())),
                ("tables", Json::Arr(self.tables.iter().map(Table::json).collect())),
            ])
        })
    }
}

/// `"fast"` or `"full"`.
pub fn mode(fast: bool) -> &'static str {
    if fast {
        "fast"
    } else {
        "full"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_insight::{flatten_json, Leaf};

    fn sample() -> Table {
        let mut t = Table::new("t", vec![label("model"), label("gpus"), col("mttr", "ms", 3)]);
        t.push(vec!["llama-7b".into(), 16usize.into(), 0.4.into()]);
        t.push(vec!["x".into(), 8usize.into(), None.into()]);
        t
    }

    #[test]
    fn text_aligns_columns_and_applies_column_precision() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "== t ==");
        assert_eq!(lines[1], "   model  gpus  mttr ms");
        assert_eq!(lines[3], "llama-7b    16    0.400");
        assert_eq!(lines[4], "       x     8      OOM");
    }

    #[test]
    fn typed_cells_round_trip_through_flatten_json_as_numbers() {
        let doc = Report::new(vec![sample()], Vec::new()).json("probe", true).render();
        let flat = flatten_json(&doc).expect("report parses");
        assert_eq!(flat["experiment"], Leaf::Str("probe".into()));
        assert_eq!(flat["mode"], Leaf::Str("fast".into()));
        assert_eq!(flat["tables[0].columns[2].unit"], Leaf::Str("ms".into()));
        assert_eq!(flat["tables[0].rows[0][0]"], Leaf::Str("llama-7b".into()));
        assert_eq!(flat["tables[0].rows[0][1]"], Leaf::Num(16.0));
        assert_eq!(flat["tables[0].rows[0][2]"], Leaf::Num(0.4));
        assert_eq!(flat["tables[0].rows[1][2]"], Leaf::Null);
    }
}
