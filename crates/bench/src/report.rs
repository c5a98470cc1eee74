//! Plain-text table formatting for the harness binaries.

/// A simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Add a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with sensible precision.
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format joules (switching to kJ where the paper does).
pub fn joules(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:.2} kJ", v / 1000.0)
    } else {
        format!("{v:.0} J")
    }
}

/// Format a ratio as `N.NNx`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "time"]);
        t.row(vec!["encryption".into(), "8.40".into()]);
        t.row(vec!["mc".into(), "43.20".into()]);
        let s = t.render();
        assert!(s.contains("encryption"));
        assert!(s.lines().count() == 4);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len(), "rows align with header");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(123.456), "123.5");
        assert_eq!(secs(8.4), "8.40");
        assert_eq!(joules(500.0), "500 J");
        assert_eq!(joules(25_600.0), "25.60 kJ");
        assert_eq!(ratio(9.3111), "9.31x");
        assert_eq!(pct(0.064), "6.4%");
    }
}
