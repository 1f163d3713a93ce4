//! Unsafe-audit pass: `unsafe` may appear only in files the checked-in
//! `POLICY.toml` allowlist names, every occurrence must carry its
//! justification (`# Safety` docs on `unsafe fn`, a `SAFETY:` comment on
//! blocks/impls), the allowlist must stay *minimal* (an entry matching no
//! unsafe code fails), and every crate outside the allowlist must declare
//! `#![forbid(unsafe_code)]` so the compiler enforces the same boundary.

use sellkit_verify::policy::Policy;

use crate::diag::Finding;
use crate::scan::{is_word_at, SourceFile};

const PASS: &str = "unsafe-audit";

/// What follows an `unsafe` keyword.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum UnsafeKind {
    Fn,
    Block,
    /// `unsafe impl` / `unsafe trait` / `unsafe extern`.
    Item,
}

/// Every `unsafe` keyword in the code stream, with its 0-based line.
fn find_unsafe_tokens(file: &SourceFile) -> Vec<(usize, UnsafeKind)> {
    let flat = file.flat_code();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = flat[from..].find("unsafe") {
        let start = from + pos;
        from = start + 6;
        if !is_word_at(&flat, start, 6) {
            continue;
        }
        let rest = flat[start + 6..].trim_start();
        let kind = if rest.starts_with("fn")
            && !rest[2..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        {
            UnsafeKind::Fn
        } else if rest.starts_with('{') {
            UnsafeKind::Block
        } else {
            UnsafeKind::Item
        };
        out.push((crate::scan::line_of(&flat, start), kind));
    }
    out
}

/// Whether the comment block attached above `line` (skipping attrs and
/// blanks) contains `needle`.  Also checks `line` itself, for same-line
/// trailing comments.
fn comment_above_contains(file: &SourceFile, line: usize, needle: &str) -> bool {
    if file.comment[line].contains(needle) {
        return true;
    }
    let mut i = line;
    while i > 0 {
        i -= 1;
        let code = file.code[i].trim();
        let comment = file.comment[i].trim();
        if comment.contains(needle) {
            return true;
        }
        if !comment.is_empty() || code.starts_with("#[") || code.is_empty() {
            continue;
        }
        break;
    }
    false
}

pub fn run(tree: &[SourceFile], policy: &Policy) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut entry_hits = vec![0usize; policy.allow_unsafe.len()];

    for file in tree {
        let tokens = find_unsafe_tokens(file);
        // Attribute the file to the longest matching allowlist entry, so
        // overlapping prefixes don't double-count.
        let entry = policy
            .allow_unsafe
            .iter()
            .enumerate()
            .filter(|(_, e)| matches_entry(&e.path, &file.rel))
            .max_by_key(|(_, e)| e.path.len());
        match entry {
            None => {
                for &(line, _) in &tokens {
                    findings.push(Finding::new(
                        &file.rel,
                        line + 1,
                        PASS,
                        "`unsafe` outside the POLICY.toml allow-unsafe list".into(),
                    ));
                }
            }
            Some((idx, _)) => {
                entry_hits[idx] += tokens.len();
                for &(line, kind) in &tokens {
                    let justified = match kind {
                        UnsafeKind::Fn => {
                            comment_above_contains(file, line, "# Safety")
                                || comment_above_contains(file, line, "SAFETY")
                        }
                        UnsafeKind::Block | UnsafeKind::Item => {
                            comment_above_contains(file, line, "SAFETY")
                        }
                    };
                    if !justified {
                        let what = match kind {
                            UnsafeKind::Fn => "`unsafe fn` without a `# Safety` doc section",
                            UnsafeKind::Block => "`unsafe` block without a `// SAFETY:` comment",
                            UnsafeKind::Item => "`unsafe` item without a `// SAFETY:` comment",
                        };
                        findings.push(Finding::new(&file.rel, line + 1, PASS, what.into()));
                    }
                }
            }
        }
    }

    // Minimality: an allowlist entry matching no unsafe code is stale.
    for (idx, entry) in policy.allow_unsafe.iter().enumerate() {
        if entry_hits[idx] == 0 {
            findings.push(Finding::new(
                "POLICY.toml",
                1,
                PASS,
                format!(
                    "stale allow-unsafe entry `{}`: no unsafe code matches it",
                    entry.path
                ),
            ));
        }
    }

    // Every crate with no allowlisted file must forbid unsafe_code at the
    // crate root, making the boundary compiler-enforced, not just linted.
    for file in tree {
        let Some(krate) = file
            .rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
        else {
            continue;
        };
        if file.rel != format!("crates/{krate}/src/lib.rs") {
            continue;
        }
        let prefix = format!("crates/{krate}/");
        let exempt = policy
            .allow_unsafe
            .iter()
            .any(|e| e.path.starts_with(&prefix) || matches_entry(&e.path, &file.rel));
        if exempt {
            continue;
        }
        let has_forbid = file
            .code
            .iter()
            .any(|l| l.contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            findings.push(Finding::new(
                &file.rel,
                1,
                PASS,
                format!(
                    "crate `{krate}` has no allow-unsafe entry and must declare \
                     #![forbid(unsafe_code)] at the crate root"
                ),
            ));
        }
    }

    findings
}

/// `path` ending in `/` is a directory prefix; anything else is exact.
fn matches_entry(path: &str, rel: &str) -> bool {
    if let Some(prefix) = path.strip_suffix('/') {
        rel.starts_with(prefix) && rel[prefix.len()..].starts_with('/')
    } else {
        rel == path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_verify::policy::AllowUnsafe;

    fn policy(entries: &[(&str, &str)]) -> Policy {
        Policy {
            allow_unsafe: entries
                .iter()
                .map(|(p, r)| AllowUnsafe {
                    path: p.to_string(),
                    reason: r.to_string(),
                })
                .collect(),
            ..Policy::default()
        }
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let tree = vec![SourceFile::new(
            "crates/zed/src/lib.rs",
            "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        )];
        let f = run(&tree, &policy(&[("crates/core/src/pool.rs", "x")]));
        assert!(f
            .iter()
            .any(|f| f.message.contains("outside the POLICY.toml") && f.line == 2));
        // The unused entry is also stale.
        assert!(f.iter().any(|f| f.message.contains("stale allow-unsafe")));
    }

    #[test]
    fn allowlisted_unsafe_needs_justification() {
        let tree = vec![SourceFile::new(
            "crates/core/src/pool.rs",
            "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n\n/// Docs only.\npub unsafe fn g() {}\n",
        )];
        let f = run(&tree, &policy(&[("crates/core/src/pool.rs", "x")]));
        assert!(f
            .iter()
            .any(|f| f.message.contains("`// SAFETY:`") && f.line == 2));
        assert!(f
            .iter()
            .any(|f| f.message.contains("# Safety") && f.line == 6));
    }

    #[test]
    fn justified_unsafe_passes_and_satisfies_minimality() {
        let tree = vec![SourceFile::new(
            "crates/core/src/pool.rs",
            "/// Docs.\n///\n/// # Safety\n/// `p` must be valid.\npub unsafe fn g(p: *const u8) -> u8 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}\n",
        )];
        let f = run(&tree, &policy(&[("crates/core/src/pool.rs", "x")]));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn directory_prefix_entries_match_and_do_not_overreach() {
        let tree = vec![
            SourceFile::new(
                "crates/mpisim/src/lib.rs",
                "// SAFETY: fixture.\nunsafe impl Send for X {}\nstruct X;\n",
            ),
            SourceFile::new(
                "crates/mpisim2/src/lib.rs",
                "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
            ),
        ];
        let f = run(&tree, &policy(&[("crates/mpisim/", "x")]));
        // mpisim passes; mpisim2 is NOT covered by the mpisim/ prefix.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .any(|f| f.path == "crates/mpisim2/src/lib.rs" && f.message.contains("outside")));
        assert!(f
            .iter()
            .any(|f| f.message.contains("#![forbid(unsafe_code)]")
                && f.path == "crates/mpisim2/src/lib.rs"));
    }

    #[test]
    fn unsafe_free_crates_must_forbid_unsafe() {
        let tree = vec![
            SourceFile::new(
                "crates/clean/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {}\n",
            ),
            SourceFile::new("crates/lax/src/lib.rs", "pub fn f() {}\n"),
        ];
        let f = run(&tree, &policy(&[]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("crate `lax`"));
    }
}
