//! Aligned text tables.

use std::fmt;

/// A simple right-aligned text table (first column left-aligned).
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Header access (for CSV export).
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Row access (for CSV export).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let mut line = String::new();
        for (i, (h, w)) in self.headers.iter().zip(&widths).enumerate() {
            if i == 0 {
                line.push_str(&format!("{h:<w$}"));
            } else {
                line.push_str(&format!("  {h:>w$}"));
            }
        }
        writeln!(f, "{line}")?;
        writeln!(f, "{}", "-".repeat(line.len()))?;
        for row in &self.rows {
            let mut line = String::new();
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("  {cell:>w$}"));
                }
            }
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "123456".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        // Right alignment of numeric column.
        assert!(s.contains("     1\n") || s.contains("      1\n"));
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
