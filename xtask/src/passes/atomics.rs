//! Atomics-hygiene pass: every `Ordering::*` in the concurrency-bearing
//! files must match the documented protocol table in `POLICY.toml`.
//!
//! Each atomic access in a scoped file is extracted as a signature
//! `(file, receiver, op, [orderings…])` and matched against the table.
//! The consequences:
//!
//! * an access with no table entry fails — so downgrading the pool's
//!   epoch publish from `SeqCst` to `Relaxed` is caught here (and the
//!   table itself cannot be "fixed" to match, because its `model = …`
//!   entries are pinned to the model-checker-verified orderings by
//!   `crates/verify/tests/pinning.rs`);
//! * a table entry matching fewer sites than the table lists is stale and
//!   fails — the table stays minimal;
//! * a bare `Ordering::X` not consumed by a recognized atomic call (e.g.
//!   laundered through a variable) fails;
//! * a scoped file with no entries asserts the file performs no atomic
//!   operations at all.
//!
//! `#[cfg(test)]` sections are exempt.

use std::collections::BTreeMap;

use sellkit_verify::policy::Policy;

use crate::diag::Finding;
use crate::scan::{line_of, SourceFile};

const PASS: &str = "atomics";

const OPS: [&str; 11] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One atomic access site.
struct Site {
    receiver: String,
    op: &'static str,
    orderings: Vec<String>,
    /// 0-based line.
    line: usize,
    /// Byte span of the argument list in the flat code (for the
    /// unconsumed-`Ordering` check).
    span: (usize, usize),
}

fn sites_in(file: &SourceFile, cutoff_line: usize) -> Vec<Site> {
    let flat = file.code.join("\n");
    let bytes = flat.as_bytes();
    let mut out = Vec::new();
    for op in OPS {
        let needle = format!(".{op}(");
        let mut from = 0usize;
        while let Some(pos) = flat[from..].find(&needle) {
            let dot = from + pos;
            from = dot + needle.len();
            let line = line_of(&flat, dot);
            if line >= cutoff_line {
                continue;
            }
            // Receiver: the identifier chain segment just before the dot.
            let mut i = dot;
            while i > 0 && {
                let c = bytes[i - 1] as char;
                c.is_alphanumeric() || c == '_'
            } {
                i -= 1;
            }
            if i == dot {
                continue; // `.load(` after a paren etc. — not a plain field
            }
            let receiver = flat[i..dot].to_string();
            // Balanced argument list.
            let open = dot + needle.len() - 1;
            let mut depth = 0i32;
            let mut close = open;
            for (k, &b) in bytes.iter().enumerate().skip(open) {
                if b == b'(' {
                    depth += 1;
                } else if b == b')' {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
            }
            let args = &flat[open + 1..close];
            let orderings: Vec<String> = collect_orderings(args);
            if orderings.is_empty() {
                continue; // not an atomic op (e.g. slice::swap, Vec::load…)
            }
            out.push(Site {
                receiver,
                op,
                orderings,
                line,
                span: (open, close),
            });
        }
    }
    out
}

fn collect_orderings(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find("Ordering::") {
        let start = from + pos + "Ordering::".len();
        from = start;
        for o in ORDERINGS {
            if text[start..].starts_with(o)
                && !text[start + o.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            {
                out.push(o.to_string());
                break;
            }
        }
    }
    out
}

/// Site signature: `(file, atomic, op, orderings)`.
type Signature = (String, String, String, Vec<String>);

pub fn run(tree: &[SourceFile], policy: &Policy) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Signature → (table multiplicity, matched site count).
    let mut entry_counts: BTreeMap<Signature, (usize, usize)> = BTreeMap::new();
    for e in &policy.atomics {
        entry_counts
            .entry((
                e.file.clone(),
                e.atomic.clone(),
                e.op.clone(),
                e.orderings.clone(),
            ))
            .or_insert((0, 0))
            .0 += 1;
    }

    for file in tree {
        if !policy.atomics_scope.contains(&file.rel) {
            continue;
        }
        let cutoff = crate::passes::cfg_test_cutoff(file);
        let sites = sites_in(file, cutoff);
        let flat = file.code.join("\n");

        for site in &sites {
            let key = (
                file.rel.clone(),
                site.receiver.clone(),
                site.op.to_string(),
                site.orderings.clone(),
            );
            match entry_counts.get_mut(&key) {
                Some(counts) => counts.1 += 1,
                None => findings.push(Finding::new(
                    &file.rel,
                    site.line + 1,
                    PASS,
                    format!(
                        "atomic access `{}.{}({})` does not match any POLICY.toml [[atomic]] \
                         entry — undocumented ordering or protocol drift",
                        site.receiver,
                        site.op,
                        site.orderings.join(", ")
                    ),
                )),
            }
        }

        // Any `Ordering::` token outside a recognized site's argument list
        // is laundering the ordering past the table.
        let mut from = 0usize;
        while let Some(pos) = flat[from..].find("Ordering::") {
            let at = from + pos;
            from = at + "Ordering::".len();
            let line = line_of(&flat, at);
            if line >= cutoff {
                continue;
            }
            let consumed = sites.iter().any(|s| s.span.0 <= at && at < s.span.1);
            let names_an_ordering = ORDERINGS
                .iter()
                .any(|o| flat[at + "Ordering::".len()..].starts_with(o));
            if !consumed && names_an_ordering {
                let in_use_decl = file.code[line].trim_start().starts_with("use ");
                if !in_use_decl {
                    findings.push(Finding::new(
                        &file.rel,
                        line + 1,
                        PASS,
                        "`Ordering::` used outside a recognized atomic call — orderings must \
                         appear literally at the call site so the protocol table can see them"
                            .into(),
                    ));
                }
            }
        }
    }

    // Table minimality: every entry must be matched by at least as many
    // sites as the table lists for its signature.
    for ((file, atomic, op, ords), (listed, matched)) in &entry_counts {
        if matched < listed {
            findings.push(Finding::new(
                "POLICY.toml",
                1,
                PASS,
                format!(
                    "stale [[atomic]] entry: `{file}` lists {listed} × `{atomic}.{op}({})` but \
                     only {matched} matching site(s) exist",
                    ords.join(", ")
                ),
            ));
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_verify::policy::AtomicEntry;

    fn policy(scope: &[&str], entries: &[(&str, &str, &str, &[&str])]) -> Policy {
        Policy {
            atomics_scope: scope.iter().map(|s| s.to_string()).collect(),
            atomics: entries
                .iter()
                .map(|(f, a, o, ords)| AtomicEntry {
                    file: f.to_string(),
                    atomic: a.to_string(),
                    op: o.to_string(),
                    orderings: ords.iter().map(|s| s.to_string()).collect(),
                    model: None,
                    role: "test".to_string(),
                })
                .collect(),
            ..Policy::default()
        }
    }

    const POOL: &str = "crates/core/src/pool.rs";

    #[test]
    fn documented_accesses_pass() {
        let tree = vec![SourceFile::new(
            POOL,
            "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(epoch: &AtomicUsize) {\n    epoch.fetch_add(1, Ordering::SeqCst);\n    let _ = epoch.load(Ordering::SeqCst);\n}\n",
        )];
        let p = policy(
            &[POOL],
            &[
                (POOL, "epoch", "fetch_add", &["SeqCst"]),
                (POOL, "epoch", "load", &["SeqCst"]),
            ],
        );
        let f = run(&tree, &p);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn relaxed_downgrade_is_caught() {
        let tree = vec![SourceFile::new(
            POOL,
            "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(epoch: &AtomicUsize) {\n    epoch.fetch_add(1, Ordering::Relaxed);\n}\n",
        )];
        let p = policy(&[POOL], &[(POOL, "epoch", "fetch_add", &["SeqCst"])]);
        let f = run(&tree, &p);
        assert!(
            f.iter()
                .any(|f| f.message.contains("does not match any POLICY.toml")),
            "{f:#?}"
        );
        // And the SeqCst entry is now stale — both directions fail.
        assert!(
            f.iter().any(|f| f.message.contains("stale [[atomic]]")),
            "{f:#?}"
        );
    }

    #[test]
    fn compare_exchange_matches_both_orderings() {
        let tree = vec![SourceFile::new(
            POOL,
            "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(a: &AtomicU64) {\n    let _ = a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);\n}\n",
        )];
        let ok = policy(
            &[POOL],
            &[(POOL, "a", "compare_exchange", &["Relaxed", "Relaxed"])],
        );
        assert!(run(&tree, &ok).is_empty());
        let bad = policy(
            &[POOL],
            &[(POOL, "a", "compare_exchange", &["AcqRel", "Acquire"])],
        );
        assert!(!run(&tree, &bad).is_empty());
    }

    #[test]
    fn scoped_file_with_no_entries_must_have_no_atomics() {
        let tree = vec![SourceFile::new(
            POOL,
            "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(n: &AtomicUsize) {\n    n.store(1, Ordering::SeqCst);\n}\n",
        )];
        let f = run(&tree, &policy(&[POOL], &[]));
        assert_eq!(f.len(), 1, "{f:#?}");
    }

    #[test]
    fn laundered_ordering_is_flagged() {
        let tree = vec![SourceFile::new(
            POOL,
            "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(n: &AtomicUsize) {\n    let o = Ordering::Relaxed;\n    n.store(1, o);\n}\n",
        )];
        let f = run(&tree, &policy(&[POOL], &[]));
        assert!(
            f.iter()
                .any(|f| f.message.contains("outside a recognized atomic call")),
            "{f:#?}"
        );
    }

    #[test]
    fn unscoped_files_and_tests_are_exempt() {
        let tree = vec![SourceFile::new(
            "crates/core/src/other.rs",
            "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(n: &AtomicUsize) {\n    n.store(1, Ordering::Relaxed);\n}\n",
        ), SourceFile::new(
            POOL,
            "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicUsize, Ordering};\n    fn f(n: &AtomicUsize) {\n        n.store(1, Ordering::Relaxed);\n    }\n}\n",
        )];
        let f = run(&tree, &policy(&[POOL], &[]));
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn non_atomic_swap_and_load_are_ignored() {
        let tree = vec![SourceFile::new(
            POOL,
            "fn f(v: &mut Vec<u32>) {\n    v.swap(0, 1);\n}\n",
        )];
        let f = run(&tree, &policy(&[POOL], &[]));
        assert!(f.is_empty(), "{f:#?}");
    }
}
