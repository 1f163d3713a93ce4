//! Diagnostics: one [`Finding`] per violation, rendered either as a
//! human-readable table (default) or as machine-readable JSON lines
//! (`--json`), so CI and editors can consume the same output.

use std::fmt;

/// One diagnostic produced by a lint pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Pass identifier: `unsafe-audit`, `contract`, `panic-freedom`,
    /// `no-gather`, `atomics`, or `policy`.
    pub pass: &'static str,
    /// The contract clause involved, when the finding concerns one.
    pub clause: Option<String>,
    pub message: String,
}

impl Finding {
    pub fn new(path: &str, line: usize, pass: &'static str, message: String) -> Self {
        Finding {
            path: path.to_string(),
            line,
            pass,
            clause: None,
            message,
        }
    }

    pub fn with_clause(mut self, clause: &str) -> Self {
        self.clause = Some(clause.to_string());
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.pass, self.message
        )
    }
}

/// Renders findings as a JSON array (one object per finding).  Hand-rolled
/// because the container has no serde; the escaper covers everything our
/// messages can contain.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("  {");
        out.push_str(&format!("\"file\": \"{}\", ", escape(&f.path)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"pass\": \"{}\", ", escape(f.pass)));
        match &f.clause {
            Some(c) => out.push_str(&format!("\"clause\": \"{}\", ", escape(c))),
            None => out.push_str("\"clause\": null, "),
        }
        out.push_str(&format!("\"message\": \"{}\"", escape(&f.message)));
        out.push('}');
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as the human-readable table, sorted by path and line.
pub fn render_table(findings: &mut [Finding]) -> String {
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    let mut out = String::new();
    for f in findings.iter() {
        out.push_str(&f.to_string());
        out.push('\n');
        if let Some(c) = &f.clause {
            out.push_str(&format!("        clause: `{c}`\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_nulls() {
        let findings = vec![
            Finding::new("a/b.rs", 3, "contract", "missing \"clause\"".into())
                .with_clause("aligned(val, 64)"),
            Finding::new("c.rs", 7, "atomics", "bad\nordering".into()),
        ];
        let json = to_json(&findings);
        assert!(json.contains("\"clause\": \"aligned(val, 64)\""));
        assert!(json.contains("\"clause\": null"));
        assert!(json.contains("missing \\\"clause\\\""));
        assert!(json.contains("bad\\nordering"));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn table_is_sorted_and_loc_style() {
        let mut findings = vec![
            Finding::new("z.rs", 1, "contract", "late".into()),
            Finding::new("a.rs", 9, "contract", "early".into()),
        ];
        let table = render_table(&mut findings);
        let a = table.find("a.rs:9: [contract] early").expect("a present");
        let z = table.find("z.rs:1: [contract] late").expect("z present");
        assert!(a < z);
    }
}
