//! Plain-text table rendering for the experiments.

use crate::agg::Timeseries;

/// Render one summary row per named [`Timeseries`]: point count, min,
/// mean, max, and the time (µs) of the peak value — the quick-look
/// companion to the full JSON timeseries artifacts.
pub fn timeseries_table(series: &[(&str, &Timeseries)]) -> String {
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(name, ts)| {
            let fmt = |v: Option<f64>| v.map_or_else(|| "-".into(), |v| format!("{v:.1}"));
            vec![
                (*name).to_string(),
                ts.len().to_string(),
                fmt(ts.min()),
                fmt(ts.mean()),
                fmt(ts.max()),
                ts.peak()
                    .map_or_else(|| "-".into(), |(t, _)| format!("{:.1}", t as f64 / 1_000.0)),
            ]
        })
        .collect();
    markdown_table(
        &["series", "points", "min", "mean", "max", "peak at (us)"],
        &rows,
    )
}

/// Render rows as a GitHub-flavoured markdown table with right-aligned
/// numeric look. `header.len()` must equal every row's length.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    assert!(rows.iter().all(|r| r.len() == header.len()), "ragged rows");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:>w$} |", w = w));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
    }
    let _ = ncols;
    out
}

/// Render rows as CSV (no quoting — the experiment outputs are plain
/// numbers and simple labels; cells must not contain commas).
pub fn csv_table(header: &[&str], rows: &[Vec<String>]) -> String {
    assert!(rows.iter().all(|r| r.len() == header.len()), "ragged rows");
    debug_assert!(
        rows.iter().flatten().all(|c| !c.contains(',')),
        "CSV cells must not contain commas"
    );
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<String>> {
        vec![
            vec!["8".into(), "1.23".into()],
            vec!["64".into(), "3.90".into()],
        ]
    }

    #[test]
    fn markdown_is_aligned_and_complete() {
        let t = markdown_table(&["Sw", "factor"], &rows());
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Sw") && lines[0].contains("factor"));
        assert!(lines[1].starts_with("|-"));
        assert!(lines[3].contains("3.90"));
        // All lines have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let t = csv_table(&["Sw", "factor"], &rows());
        assert_eq!(t, "Sw,factor\n8,1.23\n64,3.90\n");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        markdown_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn timeseries_table_summarizes() {
        let ts: Timeseries = [(0, 1.0), (2_000, 4.0)].into_iter().collect();
        let empty = Timeseries::new();
        let t = timeseries_table(&[("escape", &ts), ("adaptive", &empty)]);
        assert!(t.contains("escape"));
        assert!(t.contains("4.0"));
        assert!(t.contains("2.0")); // peak at 2 µs
        assert!(t.contains('-')); // empty series renders dashes
    }

    #[test]
    fn empty_rows_ok() {
        let t = markdown_table(&["a", "b"], &[]);
        assert_eq!(t.lines().count(), 2);
        assert_eq!(csv_table(&["a", "b"], &[]), "a,b\n");
    }
}
