//! Minimal fixed-width text tables for experiment reports.

use std::fmt;

/// A simple left-aligned text table.
///
/// # Examples
///
/// ```
/// use fastreg_workload::table::Table;
///
/// let mut t = Table::new(vec!["S", "t", "fast?"]);
/// t.row(vec!["5".into(), "1".into(), "yes".into()]);
/// let s = t.render();
/// assert!(s.contains("S"));
/// assert!(s.contains("yes"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I: IntoIterator<Item = impl Into<String>>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows
    /// extend the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a header underline.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = w - cell.chars().count();
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', pad + 2));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(
                widths
                    .iter()
                    .map(|w| w + 2)
                    .sum::<usize>()
                    .saturating_sub(2),
            ),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["col", "x"]);
        t.row(vec!["longer-cell".into(), "1".into()]);
        t.row(vec!["s".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // The "x" column starts at the same offset in every row.
        let off = lines[0].find('x').unwrap();
        assert_eq!(&lines[2][off..off + 1], "1");
        assert_eq!(&lines[3][off..off + 2], "22");
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "extra".into()]);
        t.row(vec![]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let s = t.render();
        assert!(s.contains("extra"));
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new(vec!["h"]);
        t.row(vec!["v".into()]);
        assert_eq!(format!("{t}"), t.render());
    }
}
