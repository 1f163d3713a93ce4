//! # sellkit-grid
//!
//! Structured 2D periodic grids with multiple degrees of freedom per node —
//! a miniature of PETSc's `DMDA`, providing exactly what the paper's
//! Gray-Scott experiment needs (§7):
//!
//! * index maps for an `nx × ny` periodic grid with `dof` components;
//! * 5-point star-stencil assembly helpers;
//! * bilinear interpolation operators between grid levels, from which the
//!   multigrid preconditioner builds its hierarchy ("the coarsening
//!   process of the multigrid preconditioner results in matrices of
//!   different dimension", §7.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops mirror the paper's kernel pseudocode and stay readable
// next to the intrinsics; a few solver signatures are wide by nature.
#![allow(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    clippy::type_complexity
)]

pub mod da;
pub mod interp;
pub mod stencil;

pub use da::Grid2D;
pub use interp::{bilinear_interpolation, interpolation_chain};
pub use stencil::laplacian_5pt;
