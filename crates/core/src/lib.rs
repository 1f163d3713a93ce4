//! # sellkit-core
//!
//! Sparse matrix storage formats and vectorized sparse matrix-vector
//! multiplication (SpMV) kernels, reproducing the formats and algorithms of
//! *"Vectorized Parallel Sparse Matrix-Vector Multiplication in PETSc Using
//! AVX-512"* (Zhang, Mills, Rupp, Smith — ICPP 2018).
//!
//! The crate provides:
//!
//! * [`Csr`] — compressed sparse row (PETSc `AIJ`), the baseline format,
//!   assembled row by row by [`RowAssembler`], directly or through
//!   [`CooBuilder`], which buckets unordered triplets by row;
//! * [`Sell`] — sliced ELLPACK (PETSc `SELL`), the paper's contribution,
//!   with compile-time slice height `C` ([`Sell8`] is the AVX-512 default)
//!   and rows in their original order (§5.4: no sorting);
//! * [`Baij`] — block CSR (PETSc `BAIJ`) for matrices with natural blocks;
//! * [`SellEsb`] — SELL with an ESB-style bit array (the §5.3 ablation);
//! * [`SellSigma`] — SELL-C-σ with σ-window row sorting and
//!   unsort-on-output (the Kreutzer et al. variant the paper's §5.4
//!   chooses not to default to), the only σ-sorted type: a [`Sell`] of
//!   the row-permuted matrix plus the permutation;
//! * hand-written SpMV kernels for scalar, AVX, AVX2, and AVX-512 ISAs
//!   (Algorithms 1 and 2 of the paper) with runtime dispatch ([`Isa`]);
//! * a shared-memory execution engine ([`ExecCtx`]) that runs the same
//!   kernels across a persistent worker pool, each lane on the
//!   nnz-balanced, slice-aligned row window it computes from the format's
//!   pointer prefix — the "parallel" in the paper's title;
//! * the §6 memory-traffic model ([`traffic`]) and format statistics
//!   ([`stats`]).
//!
//! The arrays a kernel reads in whole 64-byte slice columns — every stream
//! of [`Sell`] and [`SellEsb`], and a [`MultiVec`] — sit in 64-byte aligned
//! storage (`AVec`), so a column is one cache line and one unsplit vector
//! load (§3.1 of the paper).  That is a speed property, never a safety
//! precondition: every load on every tier is an unaligned one.  [`Csr`],
//! [`Baij`] and [`Sbaij`] keep the `Vec`s they are handed.
//!
//! ## Quick example
//!
//! ```
//! use sellkit_core::{Apply, CooBuilder, ExecCtx, Operator, Sell8};
//!
//! // 4x4 tridiagonal matrix.
//! let mut coo = CooBuilder::new(4, 4);
//! for i in 0..4usize {
//!     coo.push(i, i, 2.0);
//!     if i > 0 { coo.push(i, i - 1, -1.0); }
//!     if i < 3 { coo.push(i, i + 1, -1.0); }
//! }
//! let csr = coo.to_csr();
//! let sell = Sell8::from_csr(&csr);
//! let x = vec![1.0; 4];
//! let mut y = vec![0.0; 4];
//! sell.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
//! assert_eq!(y, vec![1.0, 0.0, 0.0, 1.0]);
//! ```

#![warn(missing_docs)]
// Indexed loops mirror the paper's kernel pseudocode and stay readable
// next to the intrinsics; a few solver signatures are wide by nature.
#![allow(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    clippy::type_complexity
)]

pub mod aligned;
pub mod assemble;
pub mod baij;
pub mod codec;
pub mod coo;
pub mod csr;
pub mod exec;
pub mod isa;
mod kernels;
pub mod matops;
pub mod multivec;
pub mod pool;
pub mod sbaij;
pub mod sell;
pub mod sell_esb;
pub mod sell_sigma;
pub mod stats;
pub mod traffic;
pub mod traits;

pub use assemble::RowAssembler;
pub use baij::Baij;
pub use codec::Codec;
pub use coo::CooBuilder;
pub use csr::Csr;
pub use exec::ExecCtx;
pub use isa::Isa;
pub use multivec::{MultiVec, VecView, VecViewMut};
pub use sbaij::Sbaij;
pub use sell::{Sell, Sell16, Sell4, Sell8};
pub use sell_esb::SellEsb;
pub use sell_sigma::{Permutation, SellSigma, SellSigma16, SellSigma4, SellSigma8};
pub use stats::FormatStats;
pub use traits::{Apply, FromCsr, MatShape, Operator};
