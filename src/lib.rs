//! # sellkit — vectorized parallel SpMV with sliced ELLPACK
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! *"Vectorized Parallel Sparse Matrix-Vector Multiplication in PETSc Using
//! AVX-512"* (Zhang, Mills, Rupp, Smith — ICPP 2018).
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | matrix formats (CSR, SELL, SELL-C-σ, BAIJ, …) and AVX/AVX2/AVX-512 SpMV kernels |
//! | [`mpisim`] | rank-per-thread message-passing runtime (MPI substitute) |
//! | [`dist`] | row-distributed matrices/vectors with overlapped communication |
//! | [`solvers`] | KSP (GMRES/FGMRES/CG/BiCGStab/TFQMR), PC (Jacobi/ILU/ASM/multigrid), SNES, TS |
//! | [`grid`] | structured 2D periodic grids and interpolation operators |
//! | [`workloads`] | Gray-Scott model, synthetic matrix generators |
//! | [`machine`] | KNL/Xeon performance model (STREAM curves, roofline, SpMV prediction) and this host's measured STREAM |
//! | [`obs`] | staged tracing/metrics: `-log_view` tables, JSON reports, Chrome traces |
//! | [`serve`] | async batched solve service: request coalescing into SpMM batches |
//!
//! See `examples/quickstart.rs` for a five-minute tour.

// Indexed loops mirror the paper's kernel pseudocode and stay readable
// next to the intrinsics; a few solver signatures are wide by nature.
#![allow(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    clippy::type_complexity
)]

/// Matrix formats and SIMD kernels ([`sellkit_core`]).
pub use sellkit_core as core;
/// Distributed matrices and vectors ([`sellkit_dist`]).
pub use sellkit_dist as dist;
/// Structured grids ([`sellkit_grid`]).
pub use sellkit_grid as grid;
/// Performance model ([`sellkit_machine`]).
pub use sellkit_machine as machine;
/// Message-passing runtime ([`sellkit_mpisim`]).
pub use sellkit_mpisim as mpisim;
/// Tracing and metrics ([`sellkit_obs`]).
pub use sellkit_obs as obs;
/// Batched solve service ([`sellkit_serve`]).
pub use sellkit_serve as serve;
/// Solver stack ([`sellkit_solvers`]).
pub use sellkit_solvers as solvers;
/// Workloads and generators ([`sellkit_workloads`]).
pub use sellkit_workloads as workloads;

pub use sellkit_core::{
    Apply, Csr, ExecCtx, Isa, MultiVec, Operator, Sell, Sell8, SellSigma8, VecView, VecViewMut,
};
