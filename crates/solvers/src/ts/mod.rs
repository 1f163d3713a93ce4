//! Timestepping solvers (PETSc `TS`): one θ-step, [`theta_step_over`], over
//! the rows a caller holds, behind the fixed-step [`ThetaStepper`], the
//! adaptive [`AdaptiveTheta`] and the distributed Gray-Scott step.

pub mod adapt;
pub mod theta;

pub use adapt::{AdaptConfig, AdaptStep, AdaptiveTheta};
pub use theta::{theta_step_over, OdeProblem, StepStats, ThetaConfig, ThetaStage, ThetaStepper};
