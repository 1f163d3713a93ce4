//! Parser for the checked-in verification policy (`POLICY.toml`).
//!
//! The manifest is shared by two consumers:
//!
//! * `xtask` derives the unsafe-audit allowlist, the atomics protocol
//!   table and the dead-pub allowlist from it (instead of hard-coded
//!   paths), and
//! * the `sellkit-verify` test suite pins the `model = "…"` entries to the
//!   orderings the pool model checker actually verified.
//!
//! The sandbox has no crates.io access, so this is a hand-rolled parser
//! for the small TOML subset the policy uses: `[[table]]` array headers
//! and `key = "value"` string pairs, with `#` comments.  Anything outside
//! that subset is a hard error — the policy is a precision instrument and
//! silent misparses would void the checks built on it.

/// One unsafe-allowlist entry: a workspace-relative path (a file, or a
/// directory prefix ending in `/`) where `unsafe` is permitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowUnsafe {
    pub path: String,
    pub reason: String,
}

/// One dead-pub allowlist entry: a `pub` item of a library crate that no
/// other compilation unit names but that stays `pub` for `reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowPub {
    /// Workspace-relative file that defines the item.
    pub file: String,
    /// The item's name as written after `fn`/`struct`/`const`/….
    pub item: String,
    pub reason: String,
}

/// One allowlisted atomic-access pattern of the documented protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicEntry {
    /// Workspace-relative file the access lives in.
    pub file: String,
    /// Field name of the atomic (the receiver of the call).
    pub atomic: String,
    /// Method: `load`, `store`, `fetch_add`, `compare_exchange`, ….
    pub op: String,
    /// Orderings in argument order (two for `compare_exchange`).
    pub orderings: Vec<String>,
    /// Key tying this access to a [`crate::model::Config`] field the model
    /// checker verified; `None` for accesses with no synchronization role.
    pub model: Option<String>,
    /// Human justification, required for every entry.
    pub role: String,
}

/// The whole parsed policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Policy {
    pub allow_unsafe: Vec<AllowUnsafe>,
    /// Files whose every `Ordering::*` use must match an `[[atomic]]` entry.
    pub atomics_scope: Vec<String>,
    pub atomics: Vec<AtomicEntry>,
    pub allow_pub: Vec<AllowPub>,
}

/// Parses the policy text, or returns `(line, message)` on the first error.
pub fn parse(text: &str) -> Result<Policy, (usize, String)> {
    enum Section {
        None,
        AllowUnsafe,
        AtomicsScope,
        Atomic,
        AllowPub,
    }
    let mut policy = Policy::default();
    let mut section = Section::None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            section = match name.trim() {
                "allow-unsafe" => {
                    policy.allow_unsafe.push(AllowUnsafe {
                        path: String::new(),
                        reason: String::new(),
                    });
                    Section::AllowUnsafe
                }
                "atomics-scope" => Section::AtomicsScope,
                "atomic" => {
                    policy.atomics.push(AtomicEntry {
                        file: String::new(),
                        atomic: String::new(),
                        op: String::new(),
                        orderings: Vec::new(),
                        model: None,
                        role: String::new(),
                    });
                    Section::Atomic
                }
                "allow-pub" => {
                    policy.allow_pub.push(AllowPub {
                        file: String::new(),
                        item: String::new(),
                        reason: String::new(),
                    });
                    Section::AllowPub
                }
                other => return Err((lineno, format!("unknown section [[{other}]]"))),
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err((lineno, format!("expected `key = \"value\"`, got `{line}`")));
        };
        let key = key.trim();
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| (lineno, format!("value for `{key}` must be a quoted string")))?;
        match section {
            Section::None => {
                return Err((lineno, format!("`{key}` outside any [[section]]")));
            }
            Section::AllowUnsafe => {
                let entry = policy.allow_unsafe.last_mut().expect("entry pushed");
                match key {
                    "path" => entry.path = value.to_string(),
                    "reason" => entry.reason = value.to_string(),
                    _ => return Err((lineno, format!("unknown allow-unsafe key `{key}`"))),
                }
            }
            Section::AtomicsScope => match key {
                "file" => policy.atomics_scope.push(value.to_string()),
                _ => return Err((lineno, format!("unknown atomics-scope key `{key}`"))),
            },
            Section::Atomic => {
                let entry = policy.atomics.last_mut().expect("entry pushed");
                match key {
                    "file" => entry.file = value.to_string(),
                    "atomic" => entry.atomic = value.to_string(),
                    "op" => entry.op = value.to_string(),
                    "ordering" => {
                        entry.orderings = value.split(',').map(|s| s.trim().to_string()).collect();
                    }
                    "model" => entry.model = Some(value.to_string()),
                    "role" => entry.role = value.to_string(),
                    _ => return Err((lineno, format!("unknown atomic key `{key}`"))),
                }
            }
            Section::AllowPub => {
                let entry = policy.allow_pub.last_mut().expect("entry pushed");
                match key {
                    "file" => entry.file = value.to_string(),
                    "item" => entry.item = value.to_string(),
                    "reason" => entry.reason = value.to_string(),
                    _ => return Err((lineno, format!("unknown allow-pub key `{key}`"))),
                }
            }
        }
    }
    validate(&policy).map_err(|msg| (0, msg))?;
    Ok(policy)
}

fn validate(policy: &Policy) -> Result<(), String> {
    for e in &policy.allow_unsafe {
        if e.path.is_empty() {
            return Err("allow-unsafe entry missing `path`".into());
        }
        if e.reason.is_empty() {
            return Err(format!("allow-unsafe entry `{}` missing `reason`", e.path));
        }
    }
    for e in &policy.allow_pub {
        if e.file.is_empty() || e.item.is_empty() || e.reason.is_empty() {
            return Err(format!(
                "allow-pub entry `{}::{}` needs `file`, `item` and `reason`",
                e.file, e.item
            ));
        }
    }
    const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    for e in &policy.atomics {
        if e.file.is_empty() || e.atomic.is_empty() || e.op.is_empty() {
            return Err(format!(
                "atomic entry `{}.{}` missing file/atomic/op",
                e.file, e.atomic
            ));
        }
        if e.orderings.is_empty() {
            return Err(format!(
                "atomic entry `{}.{}` missing `ordering`",
                e.file, e.atomic
            ));
        }
        for o in &e.orderings {
            if !ORDERINGS.contains(&o.as_str()) {
                return Err(format!(
                    "atomic entry `{}.{}`: unknown ordering `{o}`",
                    e.file, e.atomic
                ));
            }
        }
        if e.role.is_empty() {
            return Err(format!(
                "atomic entry `{}.{}` missing `role`",
                e.file, e.atomic
            ));
        }
        if !policy.atomics_scope.contains(&e.file) {
            return Err(format!(
                "atomic entry `{}.{}`: file is not in any [[atomics-scope]]",
                e.file, e.atomic
            ));
        }
    }
    Ok(())
}

/// Reads and parses the workspace `POLICY.toml` given the workspace root.
pub fn load(root: &std::path::Path) -> Result<Policy, String> {
    let path = root.join("POLICY.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|(line, msg)| format!("{}:{line}: {msg}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_sections() {
        let text = r#"
# comment
[[allow-unsafe]]
path = "crates/core/src/kernels/"
reason = "SIMD"

[[atomics-scope]]
file = "crates/core/src/pool.rs"

[[atomic]]
file = "crates/core/src/pool.rs"
atomic = "epoch"
op = "fetch_add"
ordering = "SeqCst"
model = "epoch_publish"
role = "publishes the region slot"

[[allow-pub]]
file = "crates/mpisim/src/collective.rs"
item = "scan_sum"
reason = "a floor test calls it"
"#;
        let p = parse(text).expect("parses");
        assert_eq!(p.allow_unsafe.len(), 1);
        assert_eq!(p.atomics_scope, vec!["crates/core/src/pool.rs"]);
        assert_eq!(p.atomics[0].orderings, vec!["SeqCst"]);
        assert_eq!(p.atomics[0].model.as_deref(), Some("epoch_publish"));
        assert_eq!(p.allow_pub[0].item, "scan_sum");
    }

    #[test]
    fn compare_exchange_orderings_split() {
        let text = "[[atomics-scope]]\nfile = \"f.rs\"\n[[atomic]]\nfile = \"f.rs\"\natomic = \"a\"\nop = \"compare_exchange\"\nordering = \"Relaxed, Relaxed\"\nrole = \"r\"\n";
        let p = parse(text).expect("parses");
        assert_eq!(p.atomics[0].orderings, vec!["Relaxed", "Relaxed"]);
    }

    #[test]
    fn rejects_unknown_ordering_and_missing_role() {
        let bad = "[[atomics-scope]]\nfile = \"f.rs\"\n[[atomic]]\nfile = \"f.rs\"\natomic = \"a\"\nop = \"load\"\nordering = \"Sloppy\"\nrole = \"r\"\n";
        assert!(parse(bad).is_err());
        let bad = "[[atomics-scope]]\nfile = \"f.rs\"\n[[atomic]]\nfile = \"f.rs\"\natomic = \"a\"\nop = \"load\"\nordering = \"SeqCst\"\n";
        assert!(parse(bad).is_err());
    }

    #[test]
    fn rejects_stray_keys() {
        assert!(parse("path = \"x\"\n").is_err());
        assert!(parse("[[allow-unsafe]]\nfrobnicate = \"x\"\n").is_err());
        assert!(parse("[[mystery]]\n").is_err());
        assert!(parse("[[allow-pub]]\nfile = \"f.rs\"\nitem = \"g\"\n").is_err());
    }

    #[test]
    fn atomic_outside_scope_rejected() {
        let bad = "[[atomic]]\nfile = \"f.rs\"\natomic = \"a\"\nop = \"load\"\nordering = \"SeqCst\"\nrole = \"r\"\n";
        assert!(parse(bad).is_err());
    }
}
