//! Markdown/ASCII rendering of figure data.

/// Renders a markdown table.
///
/// # Panics
///
/// Panics if a row's width differs from the header's.
pub fn markdown_table<H: AsRef<str>>(header: &[H], rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.iter().map(|h| h.as_ref().to_string()).collect();
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize], out: &mut String| {
        out.push('|');
        for (c, w) in cells.iter().zip(widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
    };
    line(&header, &widths, &mut out);
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        line(row, &widths, &mut out);
    }
    out
}

/// Prints [`markdown_table`] to stdout.
pub fn print_table<H: AsRef<str>>(header: &[H], rows: &[Vec<String>]) {
    print!("{}", markdown_table(header, rows));
}

/// Renders a probability value as a compact shade cell (Fig. 5's gray scale).
pub fn shade(p: f64) -> &'static str {
    match p {
        p if p <= 0.0 => "  ",
        p if p < 0.05 => "░░",
        p if p < 0.2 => "▒▒",
        p if p < 0.5 => "▓▓",
        _ => "██",
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats an optional latency in µs — `—` when the class has no samples
/// (an empty class has no tail; rendering `0.0` would fabricate one).
pub fn us_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.1}"),
        None => "—".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = markdown_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("| a  "));
        assert!(lines[2].contains("| 1  "));
    }

    #[test]
    fn shades_cover_range() {
        assert_eq!(shade(0.0), "  ");
        assert_eq!(shade(0.1), "▒▒");
        assert_eq!(shade(0.9), "██");
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.315), "31.5%");
    }

    #[test]
    fn us_opt_renders_dash_for_empty_classes() {
        assert_eq!(us_opt(Some(114.04)), "114.0");
        assert_eq!(us_opt(None), "—");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        markdown_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
