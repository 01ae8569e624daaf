//! Aligned text tables + JSON result files.

use std::path::Path;

/// A result table: printed aligned to stdout and dumped as JSON.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringifies every cell).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Append a row of string slices.
    pub fn row_strs(&mut self, cells: &[&str]) {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Render aligned text.
    pub fn render(&self) -> String {
        let ncol = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, w) in widths.iter().enumerate() {
                let c = cells.get(i).map(String::as_str).unwrap_or("");
                s.push_str(&format!("{c:<w$}  ", w = w));
            }
            s.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table as a JSON value: `{title, header, rows}`.
    pub fn to_value(&self) -> serde_json::Value {
        serde_json::json!({
            "title": self.title.clone(),
            "header": self.header.clone(),
            "rows": self.rows.clone(),
        })
    }

    /// Write `<dir>/<name>.json` with `{title, header, rows}`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn write_json(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        self.write_json_to(&dir.join(format!("{name}.json")))
    }

    /// Write the JSON form to an explicit path (creating parent
    /// directories), for binaries with a `--json <path>` flag. The write
    /// is atomic (temp + fsync + rename), so a crash mid-write never
    /// leaves a truncated result file behind.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn write_json_to(&self, path: &Path) -> std::io::Result<()> {
        let mut text = serde_json::to_string_pretty(&self.to_value()).expect("serializable");
        text.push('\n');
        qt_ckpt::atomic_write_str(path, &text)
    }
}

/// Format a float with `digits` decimals.
pub fn fmt(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row_strs(&["x", "1"]);
        t.row_strs(&["longer-cell", "2"]);
        let r = t.render();
        assert!(r.contains("== T =="));
        let lines: Vec<&str> = r.lines().collect();
        // columns align: '1' and '2' start at the same offset
        let p1 = lines[3].find('1').unwrap();
        let p2 = lines[4].find('2').unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("qt-bench-test");
        let mut t = Table::new("J", &["c"]);
        t.row_strs(&["v"]);
        t.write_json(&dir, "t").unwrap();
        let s = std::fs::read_to_string(dir.join("t.json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v["rows"][0][0], "v");
    }

    #[test]
    fn explicit_path_matches_value() {
        let path = std::env::temp_dir().join("qt-bench-test-explicit/sub/x.json");
        let mut t = Table::new("E", &["a", "b"]);
        t.row_strs(&["1", "2"]);
        t.write_json_to(&path).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v, t.to_value());
        assert_eq!(v["header"][1], "b");
    }
}
