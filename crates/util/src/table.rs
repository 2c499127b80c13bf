//! Fixed-width ASCII table printer.
//!
//! The benchmark harness prints every reproduced table/figure as an
//! aligned text table (and separately as JSON); this module owns the
//! text rendering.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// An in-memory table with a header row, rendered with box-drawing-free
/// ASCII so output is terminal- and log-friendly.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers; all columns default
    /// to left alignment.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        let aligns = vec![Align::Left; header.len()];
        Self {
            header,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Sets per-column alignment; the slice must match the column count.
    pub fn with_aligns(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.header.len(), "alignment count mismatch");
        self.aligns = aligns.to_vec();
        self
    }

    /// Appends a row; the cell count must match the column count.
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "cell count mismatch");
        self.rows.push(row);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String], aligns: &[Align]| {
            for i in 0..ncols {
                if i > 0 {
                    out.push_str("  ");
                }
                match aligns[i] {
                    Align::Left => {
                        let _ = write!(out, "{:<width$}", cells[i], width = widths[i]);
                    }
                    Align::Right => {
                        let _ = write!(out, "{:>width$}", cells[i], width = widths[i]);
                    }
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header, &vec![Align::Left; ncols]);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row, &self.aligns);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a duration in seconds with adaptive precision, matching how the
/// paper reports times ("1633.5", "2.9 hours" style left to callers).
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.1}")
    } else if secs >= 1.0 {
        format!("{secs:.2}")
    } else {
        format!("{secs:.4}")
    }
}

/// Formats a byte count with a binary-prefix unit (KB/MB/GB/TB), as the
/// paper annotates communication volumes (Figure 9).
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{v:.1}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]).with_aligns(&[Align::Left, Align::Right]);
        t.add_row(vec!["alpha", "1"]);
        t.add_row(vec!["b", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].ends_with("    1"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.add_row(vec!["only one"]);
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024), "5.0MB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.0GB");
        assert_eq!(fmt_bytes(7 * 1024u64.pow(4)), "7.0TB");
    }

    #[test]
    fn fmt_secs_precision() {
        assert_eq!(fmt_secs(1633.52), "1633.5");
        assert_eq!(fmt_secs(2.911), "2.91");
        assert_eq!(fmt_secs(0.01234), "0.0123");
    }
}
