//! Panic-freedom pass for the hot kernel modules.
//!
//! The kernels under `crates/core/src/kernels/` (everything except the
//! checking layer `checked.rs`) run inside the worker pool with panics
//! funneled through `catch_unwind`; a panic there is survivable but turns
//! a 10 GF/s SpMV into a poisoned run.  The pass bans the constructs that
//! can panic at runtime:
//!
//! * panic-family macros (`panic!`, `todo!`, `unimplemented!`,
//!   `unreachable!`) and `.unwrap()` / `.expect(`;
//! * slice indexing `ident[…]` of anything other than the
//!   contract-checked arrays — those indexes are bounds-guaranteed by the
//!   checking layer's `check_*` assertions, while an index into an
//!   ad-hoc local would be an unreviewed panic path.
//!
//! `#[cfg(test)]` sections are exempt.
//!
//! `crates/core/src/assemble.rs` is in scope too: every Jacobian, shift
//! and Galerkin product of a Newton iteration is built through the row
//! assembler, so its only ways to stop are the `assert!`s on misuse that
//! its documentation names, none hidden in an index or an `unwrap`.

use crate::diag::Finding;
use crate::scan::SourceFile;

const PASS: &str = "panic-freedom";

/// Arrays whose indexing is covered by the dispatch-layer contract
/// assertions (plus the fixed-size lane spill buffers, which are indexed
/// by `r < lanes <= their length`).
const CHECKED_ARRAYS: [&str; 12] = [
    "rowptr", "sliceptr", "colidx", "cidx16", "cbase", "wideptr", "val", "bits", "x", "y", "buf",
    "acc",
];

pub fn run(tree: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in tree {
        let kernel =
            file.rel.starts_with("crates/core/src/kernels/") && !file.rel.ends_with("/checked.rs");
        if !kernel && file.rel != "crates/core/src/assemble.rs" {
            continue;
        }
        let cutoff = crate::passes::cfg_test_cutoff(file);
        for (line, code) in file.code.iter().enumerate().take(cutoff) {
            for needle in [
                "panic!(",
                "todo!(",
                "unimplemented!(",
                "unreachable!(",
                ".unwrap()",
                ".expect(",
            ] {
                if code.contains(needle) {
                    findings.push(Finding::new(
                        &file.rel,
                        line + 1,
                        PASS,
                        format!("`{needle}` in a hot kernel module — kernels must be panic-free"),
                    ));
                }
            }
            // Indexing: `ident[` where ident is not a contract-checked array.
            let bytes = code.as_bytes();
            for (off, &b) in bytes.iter().enumerate() {
                if b != b'[' {
                    continue;
                }
                let mut i = off;
                while i > 0 && {
                    let c = bytes[i - 1] as char;
                    c.is_alphanumeric() || c == '_'
                } {
                    i -= 1;
                }
                if i == off {
                    continue; // array literal / type, not indexing
                }
                let ident = &code[i..off];
                // Attribute syntax `#[...]` and numeric prefixes.
                if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    continue;
                }
                if !CHECKED_ARRAYS.contains(&ident) {
                    findings.push(Finding::new(
                        &file.rel,
                        line + 1,
                        PASS,
                        format!(
                            "indexing `{ident}[…]` in a hot kernel — only the contract-checked \
                             arrays ({}) may be indexed; use `get`/pointer arithmetic with a \
                             SAFETY argument otherwise",
                            CHECKED_ARRAYS.join(", ")
                        ),
                    ));
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn kernel(body: &str) -> Vec<SourceFile> {
        vec![SourceFile::new(
            "crates/core/src/kernels/mini.rs",
            &format!("pub fn f(sliceptr: &[usize], y: &mut [f64]) {{\n{body}\n}}\n"),
        )]
    }

    #[test]
    fn unwrap_and_panic_macros_are_flagged() {
        let f = run(&kernel(
            "    let v: Option<u32> = None;\n    let _ = v.unwrap();\n    panic!(\"boom\");",
        ));
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(f.iter().any(|f| f.message.contains(".unwrap()")));
        assert!(f.iter().any(|f| f.message.contains("panic!(")));
    }

    #[test]
    fn expect_and_todo_are_flagged() {
        let f = run(&kernel(
            "    let _ = std::env::var(\"X\").expect(\"set\");\n    todo!();",
        ));
        assert_eq!(f.len(), 2, "{f:#?}");
    }

    #[test]
    fn contract_checked_indexing_is_allowed() {
        let f = run(&kernel("    let s = sliceptr[0];\n    y[s] = 1.0;"));
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn ad_hoc_indexing_is_flagged() {
        let f = run(&kernel(
            "    let scratch = vec![0.0; 4];\n    let _ = scratch[3];",
        ));
        assert!(
            f.iter()
                .any(|f| f.message.contains("indexing `scratch[…]`")),
            "{f:#?}"
        );
    }

    #[test]
    fn the_row_assembler_is_in_scope() {
        let f = run(&[SourceFile::new(
            "crates/core/src/assemble.rs",
            "pub fn f(row: &[u32]) -> u32 {\n    row[0]\n}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:#?}");
    }

    #[test]
    fn dispatch_and_tests_are_exempt() {
        let tree = vec![
            SourceFile::new(
                "crates/core/src/kernels/checked.rs",
                "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
            ),
            SourceFile::new(
                "crates/core/src/kernels/mini.rs",
                "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let v: Option<u32> = Some(1);\n        let _ = v.unwrap();\n    }\n}\n",
            ),
        ];
        let f = run(&tree);
        assert!(f.is_empty(), "{f:#?}");
    }
}
