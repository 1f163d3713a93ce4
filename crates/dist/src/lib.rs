//! # sellkit-dist
//!
//! Row-distributed sparse matrices and ghosted vectors, reproducing
//! PETSc's parallel matrix layout and the overlapped parallel SpMV of
//! §2.1–2.2 of the paper.
//!
//! A parallel matrix is distributed by row; each rank stores its row block
//! as **two sequential matrices** (Figure 2):
//!
//! * the square **diagonal block** — the columns this rank also owns;
//! * the **off-diagonal block** — everything else, *compressed*: only the
//!   nonzero columns are stored, renumbered `0..n_ghost` through the
//!   `garray` global-column map (PETSc's "compressed CSR" off-diag).
//!
//! The parallel product `y = A·x` then follows the four steps of §2.2:
//!
//! 1. post nonblocking sends/receives for the nonlocal entries of `x`;
//! 2. multiply the diagonal block with the local part of `x`;
//! 3. wait for the transfers;
//! 4. multiply the off-diagonal block and add.
//!
//! Both blocks are generic over the local format, so the *same* code path
//! runs CSR and SELL — the paper's point that the parallel layer reuses the
//! sequential kernels unchanged.
//!
//! One layer up, [`RankRows`] is one rank's Newton fine level: the serial
//! Newton set-up and loop run over it, solving the serial
//! `NonlinearProblem` there — for one solve in [`dist_newton`], for a whole
//! trajectory in a rank's serial θ-stepper
//! (`ThetaStepper::run_on(RankRows::<M>::new(comm), ..)`).  Each Newton
//! iteration splits the rank's Jacobian rows once into the two blocks: the
//! split refreshes the one [`DistMat`] the level keeps (in place, while no
//! rank's ghost columns change) and the diagonal block sets up the
//! block-Jacobi preconditioner, refreshed in place as the serial one is.
//! [`VecScatter::build`] and the [`DistMat`] constructors are told their
//! tag; a driver that builds them, as [`RankRows`] does once per life,
//! draws it from [`Comm::new_tag`](sellkit_mpisim::Comm::new_tag).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops mirror the paper's kernel pseudocode and stay readable
// next to the intrinsics; a few solver signatures are wide by nature.
#![allow(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    clippy::type_complexity
)]

pub mod dmat;
pub mod dvec;
pub mod nonlinear;
pub mod partition;
pub mod scatter;
pub mod solve;

pub use dmat::DistMat;
pub use dvec::DistVec;
pub use nonlinear::{dist_newton, RankRows};
pub use partition::{split_rows, RowRange};
pub use scatter::VecScatter;
pub use solve::{DistDot, DistOp};
