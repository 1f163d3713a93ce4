//! # sellkit-fuzz — adversarial differential-fuzz harness
//!
//! Differentially tests all eight storage formats (CSR, `Sell4/8/16`,
//! `SellEsb`, `SellSigma8`, `Baij`, `Sbaij`) against a scalar-CSR oracle in
//! one walk ([`diff::run_case`]): every row of [`diff::ROWS`] (f64 SpMV,
//! f64 SpMM at every width of `diff::SPMM_KS`, packed `f32`/`bf16`) ×
//! every format that holds the case × every path (each ISA tier forced on
//! a serial context — all but the block formats — and the default tier on
//! each pool) × both [`Apply`](sellkit_core::Apply) modes, blocked
//! products against a column-by-column oracle.
//!
//! * [`gen`] — deterministic adversarial matrix/vector generators
//!   (shape degeneracies, ragged slice tails, duplicate/unsorted COO,
//!   NaN/Inf/subnormal vectors);
//! * [`diff`] — the differential engine with class-first, ULP-bounded
//!   comparison, block-closure oracles for BAIJ/SBAIJ, and the
//!   codec-quantized oracle that the PackSELL `f32`/`bf16` kernels meet;
//! * [`shrink`] — a ddmin-style minimizer that reduces any failure to a
//!   paste-ready `#[test]` snippet replaying it through
//!   [`diff::repro_fails`].
//!
//! Run via the binary: `cargo run -p sellkit-fuzz -- --seconds 60`.

#![forbid(unsafe_code)]

pub mod diff;
pub mod gen;
pub mod shrink;

pub use diff::{
    run_case, run_huge_shape_case, Config, Ctxs, Finding, Repro, Row, Sweep, CODECS, FORMATS, ROWS,
};
pub use gen::{build, make_x, MatrixCase, FAMILIES, X_CLASSES};
pub use shrink::{emit_test_snippet, minimize};
