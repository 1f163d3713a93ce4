//! The lint passes of `cargo run -p xtask -- lint`.
//!
//! Every pass is a pure function from a *virtual tree* (a slice of
//! [`SourceFile`]s) and the parsed [`Policy`] to a list of [`Finding`]s,
//! so the fixture tests can feed in-memory trees — including mutated
//! copies of the real sources — without touching the filesystem.

pub mod atomics;
pub mod contract;
pub mod no_gather;
pub mod panic_freedom;
pub mod unsafe_audit;

use std::path::Path;

use sellkit_verify::policy::Policy;

use crate::diag::Finding;
use crate::scan::SourceFile;

/// Runs every pass over the tree, in declaration order.
pub fn run_all(tree: &[SourceFile], policy: &Policy) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(unsafe_audit::run(tree, policy));
    out.extend(contract::run(tree));
    out.extend(panic_freedom::run(tree));
    out.extend(no_gather::run(tree));
    out.extend(atomics::run(tree, policy));
    out
}

/// Loads every `.rs` file under `root` (skipping `target/` and dot
/// directories) into a virtual tree.
pub fn load_tree(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .expect("walk stays under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                let source = std::fs::read_to_string(&path)?;
                files.push(SourceFile::new(&rel, &source));
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// 0-based line of the first top-level `#[cfg(test)]` attribute, if any.
/// Passes that audit production code only (atomics, panic-freedom) ignore
/// everything at or below this line.
pub(crate) fn cfg_test_cutoff(file: &SourceFile) -> usize {
    file.code
        .iter()
        .position(|l| l.trim() == "#[cfg(test)]")
        .unwrap_or(file.code.len())
}
