//! Repo tooling library: the multi-pass static-analysis engine behind
//! `cargo run -p xtask -- lint` / `-- verify`.
//!
//! The binary (`src/main.rs`) is a thin CLI over three modules:
//!
//! * [`scan`] — the dependency-free Rust source scanner (tokenizer,
//!   function-table parser, call extractor);
//! * [`passes`] — the lint passes (unsafe audit, safety contracts,
//!   panic freedom, no hardware gather, atomics hygiene, no `pub` item
//!   without a user outside its crate), each a pure function over a
//!   virtual tree so tests can run them against mutated sources;
//! * [`diag`] — Loc-style findings with table and `--json` rendering.
//!
//! Exposed as a library so the integration tests under `tests/` can run
//! the passes against the real workspace and against seeded mutations.

#![forbid(unsafe_code)]

pub mod diag;
pub mod passes;
pub mod scan;

use std::path::PathBuf;

/// The workspace root (xtask sits directly below it).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits directly below the workspace root")
        .to_path_buf()
}
