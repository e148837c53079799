//! Minimal CSV output for campaign tables (the `units.csv` artifact).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::table::Table;

/// Escapes one CSV field (quotes when needed).
fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Writes a table to `dir/<name>.csv`, creating the directory.
pub fn write_table(dir: &Path, name: &str, table: &Table) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(
        f,
        "{}",
        table
            .headers()
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in table.rows() {
        writeln!(
            f,
            "{}",
            row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_escapes() {
        let dir = std::env::temp_dir().join("profirt-csv-test");
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["plain".into(), "with,comma".into()]);
        t.row(vec!["quo\"te".into(), "multi\nline".into()]);
        let path = write_table(&dir, "demo", &t).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("\"with,comma\""));
        assert!(content.contains("\"quo\"\"te\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
