//! Dead-pub pass: rustc's `dead_code` lint cannot see a `pub` item, so an
//! uncalled `pub fn` survives every build.  This pass closes that gap at
//! name level.  A `pub` fn, struct, enum, trait, type alias, const or
//! static of a library crate under `crates/*/src` (outside its
//! `#[cfg(test)]` section) must be
//!
//! * named in another compilation unit: another crate, its own package's
//!   bins and `tests/`, the root `tests/`, `examples/` and `src/`,
//!   `benchmark/`, or a doctest; or
//! * named in a public signature of its own crate (a narrowed type there
//!   would be a private type in a public interface).
//!
//! Anything else is crate-internal and belongs at `pub(crate)`, where
//! `dead_code` takes over.  An `[[allow-pub]]` entry of `POLICY.toml` keeps
//! an item `pub` with a reason; an entry that suppresses no finding is
//! stale and fails, as a stale `[[allow-unsafe]]` entry does.

use std::collections::{HashMap, HashSet};

use sellkit_verify::policy::Policy;

use crate::diag::Finding;
use crate::scan::{is_ident_char, is_word_at, line_of, matching, split_top_level, SourceFile};

const PASS: &str = "dead-pub";

/// The item keywords; `const` doubles as a qualifier of `const fn`.
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];
const QUALIFIERS: [&str; 5] = ["const", "unsafe", "async", "extern", "fn"];

/// The library crate a file compiles into: `crates/K/src/**`, minus the
/// package's bin targets (`src/main.rs`, `src/bin/`).
fn lib_crate(rel: &str) -> Option<&str> {
    let (krate, path) = rel.strip_prefix("crates/")?.split_once('/')?;
    let path = path.strip_prefix("src/")?;
    (path != "main.rs" && !path.starts_with("bin/")).then_some(krate)
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident_char(c))
        .filter(|w| !w.is_empty())
}

/// The identifier after `from`, skipping whitespace and the emptied
/// string literal of `extern "C"`; returns it and its end offset.
fn next_word(flat: &str, from: usize) -> Option<(&str, usize)> {
    let start = from + flat[from..].find(|c: char| !c.is_whitespace() && c != '"')?;
    let len = flat[start..]
        .find(|c: char| !is_ident_char(c))
        .unwrap_or(flat.len() - start);
    (len > 0).then(|| (&flat[start..start + len], start + len))
}

/// One `pub` item definition.
struct PubItem {
    name: String,
    /// 0-based line of the name.
    line: usize,
    /// Its public signature, the name itself excluded.
    sig: String,
}

/// Every `pub` (not `pub(…)`) item defined above the `#[cfg(test)]`
/// section of `file`.
fn pub_items(file: &SourceFile) -> Vec<PubItem> {
    let cutoff = crate::passes::cfg_test_cutoff(file);
    let flat = file.code[..cutoff].join("\n");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = flat[from..].find("pub") {
        let start = from + pos;
        from = start + 3;
        if !is_word_at(&flat, start, 3) {
            continue;
        }
        // Walk the qualifiers to the item keyword and the name after it.
        let mut at = start + 3;
        let mut item = None;
        while let Some((word, end)) = next_word(&flat, at) {
            let Some((next, next_end)) = next_word(&flat, end) else {
                break;
            };
            if KINDS.contains(&word) && !QUALIFIERS.contains(&next) {
                item = Some((word, next, next_end));
                break;
            }
            if !QUALIFIERS.contains(&word) {
                break;
            }
            at = end;
        }
        let Some((kind, name, end)) = item else {
            continue;
        };
        out.push(PubItem {
            name: name.to_string(),
            line: line_of(&flat, end),
            sig: signature(&flat, kind, end),
        });
    }
    out
}

/// The public signature of the item whose name ends at `end`: a fn's
/// generics, parameters, return type and bounds; the `pub` fields of a
/// struct; the whole body of an enum or trait; the type of an alias,
/// const or static.
fn signature(flat: &str, kind: &str, end: usize) -> String {
    let rest = &flat[end..];
    let stop = |delims: &[char]| rest.find(delims).unwrap_or(rest.len());
    match kind {
        "fn" => rest[..stop(&['{', ';'])].to_string(),
        "type" => rest[..stop(&[';'])].to_string(),
        "const" | "static" => rest[..stop(&['=', ';'])].to_string(),
        _ => {
            let open = stop(&['{', '(', ';']);
            let head = &rest[..open];
            let Some(&delim) = rest.as_bytes().get(open) else {
                return head.to_string();
            };
            let close_ch = match delim {
                b'{' => b'}',
                b'(' => b')',
                _ => return head.to_string(),
            };
            let close = matching(flat, end + open, delim, close_ch).unwrap_or(flat.len());
            let body = &flat[end + open + 1..close];
            if kind != "struct" {
                return format!("{head}{body}");
            }
            let fields = split_top_level(body, ',')
                .into_iter()
                .filter(|f| f.strip_prefix("pub").is_some_and(|r| r.starts_with(' ')));
            std::iter::once(head.to_string())
                .chain(fields)
                .collect::<Vec<_>>()
                .join(",")
        }
    }
}

/// The code lines of the fenced blocks in a file's doc comments: each
/// doctest is a compilation unit of its own.
fn doctest_code(file: &SourceFile) -> String {
    let mut out = String::new();
    let mut fenced = false;
    for comment in &file.comment {
        let text = comment.trim_start_matches(['/', '!']).trim_start();
        if text.starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            out.push_str(text);
            out.push('\n');
        }
    }
    out
}

pub fn run(tree: &[SourceFile], policy: &Policy) -> Vec<Finding> {
    // Every identifier, with the compilation units naming it: `Some(K)`
    // for the library of crate K, `None` for everything else.
    let mut named_in: HashMap<&str, HashSet<Option<&str>>> = HashMap::new();
    let doctests: Vec<String> = tree.iter().map(doctest_code).collect();
    for (file, doc) in tree.iter().zip(&doctests) {
        let unit = lib_crate(&file.rel);
        for code in &file.code {
            for w in words(code) {
                named_in.entry(w).or_default().insert(unit);
            }
        }
        for w in words(doc) {
            named_in.entry(w).or_default().insert(None);
        }
    }

    let items: Vec<(&SourceFile, &str, Vec<PubItem>)> = tree
        .iter()
        .filter_map(|f| lib_crate(&f.rel).map(|k| (f, k, pub_items(f))))
        .collect();
    let mut in_signature: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (_, krate, defs) in &items {
        let set = in_signature.entry(krate).or_default();
        for d in defs {
            set.extend(words(&d.sig));
        }
    }

    let mut findings = Vec::new();
    let mut entry_hits = vec![0usize; policy.allow_pub.len()];
    for (file, krate, defs) in &items {
        for d in defs {
            let named_elsewhere = named_in
                .get(d.name.as_str())
                .is_some_and(|units| units.iter().any(|u| *u != Some(*krate)));
            if named_elsewhere || in_signature[krate].contains(d.name.as_str()) {
                continue;
            }
            let entry = policy
                .allow_pub
                .iter()
                .position(|e| e.file == file.rel && e.item == d.name);
            match entry {
                Some(idx) => entry_hits[idx] += 1,
                None => findings.push(Finding::new(
                    &file.rel,
                    d.line + 1,
                    PASS,
                    format!(
                        "`pub` item `{}` is named by no other compilation unit and no public \
                         signature of `{krate}`: narrow it to `pub(crate)`, or list it under \
                         [[allow-pub]] in POLICY.toml",
                        d.name
                    ),
                )),
            }
        }
    }
    for (idx, entry) in policy.allow_pub.iter().enumerate() {
        if entry_hits[idx] == 0 {
            findings.push(Finding::new(
                "POLICY.toml",
                1,
                PASS,
                format!(
                    "stale allow-pub entry `{}::{}`: no unreached `pub` item matches it",
                    entry.file, entry.item
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_verify::policy::AllowPub;

    const LIB: &str = "crates/zed/src/lib.rs";

    fn policy(entries: &[(&str, &str)]) -> Policy {
        Policy {
            allow_pub: entries
                .iter()
                .map(|(file, item)| AllowPub {
                    file: file.to_string(),
                    item: item.to_string(),
                    reason: "fixture".into(),
                })
                .collect(),
            ..Policy::default()
        }
    }

    fn tree(lib: &str) -> Vec<SourceFile> {
        vec![
            SourceFile::new(LIB, lib),
            SourceFile::new("tests/t.rs", "use zed::used;\nfn main() { used(); }\n"),
        ]
    }

    #[test]
    fn an_unnamed_pub_fn_is_flagged() {
        let lib = "pub fn used() {}\n\npub fn orphan() {}\n\npub(crate) fn inner() {}\n";
        let f = run(&tree(lib), &policy(&[]));
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!((f[0].path.as_str(), f[0].line, f[0].pass), (LIB, 3, PASS));
        assert!(f[0].message.contains("`orphan`"));
    }

    #[test]
    fn an_allowlisted_item_is_clean() {
        let lib = "pub fn used() {}\n\npub const unsafe fn orphan() {}\n";
        assert!(run(&tree(lib), &policy(&[(LIB, "orphan")])).is_empty());
    }

    #[test]
    fn a_stale_allowlist_entry_is_flagged() {
        let f = run(&tree("pub fn used() {}\n"), &policy(&[(LIB, "used")]));
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("stale allow-pub entry"));
    }

    #[test]
    fn a_type_in_a_public_signature_is_not_flagged() {
        let lib = "pub struct Report { pub stop: Reason, hidden: Hidden }\n\
                   pub enum Reason { Done }\n\
                   pub struct Hidden;\n\
                   pub fn used(r: &Report) -> Option<Reason> { None }\n";
        let f = run(&tree(lib), &policy(&[]));
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(
            f[0].message.contains("`Hidden`"),
            "a private field is no signature"
        );
    }

    #[test]
    fn other_units_doctests_and_bins_count_but_own_tests_do_not() {
        let lib = "/// ```\n/// zed::in_doc();\n/// ```\npub fn in_doc() {}\n\
                   pub fn in_bin() {}\n\
                   pub fn in_unit_test() {}\n\
                   #[cfg(test)]\nmod tests {\n    pub fn helper() { super::in_unit_test() }\n}\n";
        let tree = vec![
            SourceFile::new(LIB, lib),
            SourceFile::new("crates/zed/src/main.rs", "fn main() { zed::in_bin() }\n"),
        ];
        let f = run(&tree, &policy(&[]));
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("`in_unit_test`"));
    }
}
