//! Plain-text table rendering and JSON output for experiment reports.

use nde_data::json::ToJson;

/// A simple aligned text table builder for experiment output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Serialize an experiment report as pretty JSON (for archival in CI).
pub fn to_json<T: ToJson>(report: &T) -> String {
    report.to_json().to_string_pretty()
}

/// Format a float with 4 decimals (the convention across experiment tables).
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new(&["method", "acc"]);
        t.row(vec!["knn-shapley".into(), f(0.79)]);
        t.row(vec!["random".into(), f(0.7612345)]);
        let s = t.render();
        assert!(s.contains("method"));
        assert!(s.contains("0.7900"));
        assert!(s.contains("0.7612"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows align to the same width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn json_serializes() {
        struct R {
            x: f64,
        }
        nde_data::json_struct!(R { x });
        let s = to_json(&R { x: 1.5 });
        assert!(s.contains("1.5"));
    }
}
