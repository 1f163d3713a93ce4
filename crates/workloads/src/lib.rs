//! # sellkit-workloads
//!
//! The workloads of the paper's evaluation:
//!
//! * [`gray_scott`] — the Gray-Scott reaction-diffusion system of §7
//!   (Pearson 1993 / Hundsdorfer & Verwer parameters, periodic boundary,
//!   5-point central differences, 2 dof per node), with its analytic
//!   Jacobian, ready to drive Crank-Nicolson + Newton + GMRES + multigrid;
//! * [`generators`] — synthetic sparse matrices (stencils, banded, random,
//!   power-law rows) spanning the regular-to-irregular spectrum that
//!   separates CSR from SELL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops mirror the paper's kernel pseudocode and stay readable
// next to the intrinsics; a few solver signatures are wide by nature.
#![allow(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    clippy::type_complexity
)]

pub mod dist_gray_scott;
pub mod generators;
pub mod gray_scott;
pub mod matrix_market;

pub use dist_gray_scott::{dist_theta_step, DistGrayScott};
pub use gray_scott::{GrayScott, GrayScottParams};
pub use matrix_market::{read_mtx, read_mtx_file, write_mtx, write_mtx_file, MtxError};
