//! Nonlinear solvers (PETSc `SNES`).

pub mod line_search;
pub mod newton;

pub use line_search::{LineSearch, LineSearchConfig};
pub use newton::{
    newton, newton_over, Forcing, NewtonConfig, NewtonResult, NewtonStopReason, NonlinearProblem,
};
