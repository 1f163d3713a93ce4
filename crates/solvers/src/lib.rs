//! # sellkit-solvers
//!
//! The PETSc-style solver hierarchy of Figure 1, from the bottom up:
//!
//! * [`vecops`] — BLAS-1 vector kernels;
//! * [`operator`] — the [`Operator`]/[`InnerProduct`] abstraction that
//!   makes every solver format-agnostic (CSR, SELL, or distributed
//!   matrices all plug in unchanged — the paper's "no penalty in other
//!   core operations" claim rests on this separation);
//! * [`ksp`] — Krylov subspace methods: GMRES(restart), FGMRES, CG,
//!   BiCGStab, TFQMR, each returning its residual history;
//! * [`pc`] — preconditioners: Jacobi, ILU(0) with sparse triangular solves
//!   (the paper's §8 future work), additive Schwarz, and geometric
//!   multigrid with Galerkin coarse operators built by our own SpGEMM;
//! * [`snes`] — Newton's method with backtracking line search;
//! * [`ts`] — θ-scheme timesteppers (Crank-Nicolson, backward Euler).
//!
//! The Gray-Scott experiment of §7 runs Crank-Nicolson → Newton →
//! GMRES → V-cycle multigrid → Jacobi smoothers, exactly this stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops mirror the paper's kernel pseudocode and stay readable
// next to the intrinsics; a few solver signatures are wide by nature.
#![allow(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    clippy::type_complexity
)]

pub mod ksp;
pub mod operator;
pub mod pc;
pub mod refine;
pub mod snes;
pub mod ts;
pub mod vecops;

pub use ksp::{bicgstab, cg, fgmres, gmres, tfqmr, KspConfig, KspResult, StopReason};
pub use operator::{Counting, InnerProduct, MatOperator, Operator, SeqDot};
pub use pc::{IdentityPc, Ilu0, JacobiPc, Multigrid, MultigridConfig, Precond};
pub use refine::{refine, RefineConfig, RefineResult};
pub use snes::{newton, NewtonConfig, NewtonResult, NonlinearProblem};
pub use ts::{OdeProblem, ThetaConfig, ThetaStepper};
