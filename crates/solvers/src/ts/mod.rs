//! Timestepping solvers (PETSc `TS`): one θ-step over the rows an
//! [`OdeProblem`] holds, behind the fixed-step [`ThetaStepper`] — on one
//! rank or, through [`ThetaStepper::run_on`], on each of many — and the
//! adaptive [`AdaptiveTheta`].

pub mod adapt;
pub mod theta;

pub use adapt::{AdaptConfig, AdaptStep, AdaptiveTheta};
pub use theta::{OdeProblem, StepStats, ThetaConfig, ThetaStepper};
