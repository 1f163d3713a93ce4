//! Minimal fixed-width ASCII table printing for the figure binaries.

/// Renders a table with a header row; columns sized to the widest cell.
pub(crate) fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut width = vec![0usize; ncols];
    for (c, h) in headers.iter().enumerate() {
        width[c] = h.len();
    }
    for row in rows {
        assert_eq!(row.len(), ncols, "row arity mismatch");
        for (c, cell) in row.iter().enumerate() {
            width[c] = width[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (c, cell) in cells.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:>w$}", cell, w = width[c]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Formats a float with 2 decimals.
pub(crate) fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub(crate) fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let s = render(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.0"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        render(&["a", "b"], &[vec!["x".into()]]);
    }
}
