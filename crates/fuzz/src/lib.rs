//! # sellkit-fuzz — adversarial differential-fuzz harness
//!
//! Differentially tests all seven storage formats (`Sell4/8/16`, `SellEsb`,
//! `SellSigma8`, `Baij`, `Sbaij`) — `SellEsb` at every forced ISA tier —
//! plus CSR's own SIMD tiers against a scalar-CSR oracle, across ISA
//! levels, thread counts, both [`Apply`](sellkit_core::Apply) modes, and
//! — through the blocked SpMM sweep — every block width in
//! [`diff::SPMM_KS`] against a column-by-column oracle.
//!
//! * [`gen`] — deterministic adversarial matrix/vector generators
//!   (shape degeneracies, ragged slice tails, duplicate/unsorted COO,
//!   NaN/Inf/subnormal vectors);
//! * [`diff`] — the differential engine with class-first, ULP-bounded
//!   comparison and block-closure oracles for BAIJ/SBAIJ, plus the
//!   reduced-precision codec sweep ([`diff::run_codec_case`]) that pits
//!   the PackSELL `f32`/`bf16` kernels against the scalar-CSR oracle
//!   over the codec-quantized matrix;
//! * [`shrink`] — a ddmin-style minimizer that reduces any failure to a
//!   paste-ready `#[test]` snippet.
//!
//! Run via the binary: `cargo run -p sellkit-fuzz -- --seconds 60`.

#![forbid(unsafe_code)]

pub mod diff;
pub mod gen;
pub mod shrink;

pub use diff::{
    run_case, run_codec_case, run_huge_shape_case, run_spmm_case, Config, Ctxs, Finding, Repro,
    CODECS, FORMATS, PACKED_FORMATS, SPMM_KS,
};
pub use gen::{build, make_x, MatrixCase, FAMILIES, X_CLASSES};
pub use shrink::{emit_test_snippet, minimize};
