//! Plain-text and CSV table rendering.
//!
//! The `repro` binary in `mbqc-bench` uses [`TextTable`] to print every
//! table and figure series from the paper in a terminal-friendly format.
//!
//! # Examples
//!
//! ```
//! use mbqc_util::table::TextTable;
//!
//! let mut t = TextTable::new(vec!["Program", "Exec", "Lifetime"]);
//! t.row(vec!["QFT-16".into(), "35".into(), "28".into()]);
//! let rendered = t.render();
//! assert!(rendered.contains("QFT-16"));
//! ```

use std::fmt::Write as _;

/// A simple table builder that renders to aligned plain text or CSV.
///
/// # Examples
///
/// ```
/// use mbqc_util::table::TextTable;
///
/// let mut t = TextTable::new(vec!["a", "b"]);
/// t.row(vec!["1".into(), "2".into()]);
/// assert!(t.render_csv().starts_with("a,b\n"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// The first column renders left-aligned, the rest right-aligned
    /// (most cells are numeric).
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title rendered above the table.
    pub fn title<S: Into<String>>(&mut self, title: S) -> &mut Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows currently in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    /// Renders the table as aligned plain text with a header rule.
    #[must_use]
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "== {t} ==");
        }
        let fmt_row = |cells: &[String], w: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(line, "{:<width$}", cell, width = w[i]);
                } else {
                    let _ = write!(line, "  {:>width$}", cell, width = w[i]);
                }
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &w));
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &w));
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells
    /// containing commas, quotes, or newlines).
    #[must_use]
    pub fn render_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Formats a float with `prec` decimal places (helper for table cells).
///
/// # Examples
///
/// ```
/// assert_eq!(mbqc_util::table::fmt_f64(3.14159, 2), "3.14");
/// ```
#[must_use]
pub fn fmt_f64(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats an improvement factor like the paper (`3.97` or `15.12%`).
///
/// # Examples
///
/// ```
/// assert_eq!(mbqc_util::table::fmt_factor(3.9651), "3.97");
/// ```
#[must_use]
pub fn fmt_factor(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextTable {
        let mut t = TextTable::new(vec!["Program", "Exec", "Lifetime"]);
        t.row(vec!["QFT-16".into(), "35".into(), "28".into()]);
        t.row(vec!["VQE-144".into(), "278".into(), "258".into()]);
        t
    }

    #[test]
    fn render_contains_all_cells() {
        let r = sample().render();
        for needle in ["Program", "QFT-16", "VQE-144", "278", "28"] {
            assert!(r.contains(needle), "missing {needle} in:\n{r}");
        }
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        let lines: Vec<&str> = r.lines().collect();
        // All lines the same width (alignment pads uniformly).
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{r}");
    }

    #[test]
    fn title_is_rendered() {
        let mut t = sample();
        t.title("Table III");
        assert!(t.render().starts_with("== Table III =="));
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["x,y".into()]);
        t.row(vec!["he said \"hi\"".into()]);
        let csv = t.render_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn row_width_mismatch_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn empty_and_len() {
        let t = TextTable::new(vec!["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(sample().len(), 2);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_f64(1.0 / 3.0, 3), "0.333");
        assert_eq!(fmt_factor(7.456), "7.46");
    }
}
