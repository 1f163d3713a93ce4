//! Krylov subspace solvers (PETSc `KSP`).
//!
//! All methods are format-agnostic — they see only
//! [`Operator`]/[`InnerProduct`]/[`Precond`](crate::pc::Precond) — open one
//! `KSPSolve` span per solve, and record a residual history for convergence
//! studies.  Which residual `history`, `residual` and the stopping test
//! refer to follows from the side `M⁻¹` is applied on:
//!
//! | method | preconditioning | residual recorded |
//! |---|---|---|
//! | [`gmres()`] | left, `M⁻¹·A·x = M⁻¹·b` | preconditioned, `‖M⁻¹(b − A·x)‖` |
//! | [`fgmres`] | right, `A·M⁻¹·u = b`, `M` may change per apply | true, `‖b − A·x‖` |
//! | [`bicgstab()`] | right | true |
//! | [`tfqmr()`] | right | true at the start, then the quasi-residual bound `τ·√(2k)`; a bound under the tolerance is confirmed against the true residual |
//! | [`cg()`] | symmetric (`M⁻¹` enters the search directions) | true |
//!
//! [`gmres()`] and [`fgmres`] are one restarted Arnoldi cycle written once
//! in [`gmres`](mod@gmres).  The Chebyshev and damped-Jacobi iterations
//! live where they run: as the smoothers of
//! [`Multigrid`](crate::pc::Multigrid).

pub mod bicgstab;
pub mod cg;
pub mod gmres;
pub mod monitor;
pub mod tfqmr;

pub use bicgstab::{bicgstab, bicgstab_monitored};
pub use cg::{cg, cg_monitored};
pub use gmres::{fgmres, gmres, gmres_monitored};
pub use monitor::{
    CollectingMonitor, ConvergenceSummary, IterationRecord, KspMonitor, NoMonitor, ObsMonitor,
    PrintMonitor,
};
pub use tfqmr::tfqmr;

use crate::operator::{InnerProduct, Operator};

/// Why a Krylov solve stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Relative tolerance reached: `‖r‖ ≤ rtol · ‖r₀‖`.
    RelativeTolerance,
    /// Absolute tolerance reached: `‖r‖ ≤ atol`.
    AbsoluteTolerance,
    /// Iteration limit hit without convergence.
    MaxIterations,
    /// Breakdown (division by a vanishing quantity) — solution is the
    /// best iterate so far.
    Breakdown,
}

/// Stopping criteria shared by every KSP.
#[derive(Clone, Copy, Debug)]
pub struct KspConfig {
    /// Relative decrease of the (preconditioned) residual norm.
    pub rtol: f64,
    /// Absolute residual tolerance.
    pub atol: f64,
    /// Maximum iterations.
    pub max_it: usize,
    /// GMRES restart length (ignored by other methods).
    pub restart: usize,
}

impl Default for KspConfig {
    fn default() -> Self {
        // PETSc defaults: rtol 1e-5, restart 30.
        Self {
            rtol: 1e-5,
            atol: 1e-50,
            max_it: 10_000,
            restart: 30,
        }
    }
}

/// Outcome of a Krylov solve.
#[derive(Clone, Debug)]
pub struct KspResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final (preconditioned) residual norm.
    pub residual: f64,
    /// Stop reason.
    pub reason: StopReason,
    /// Residual norm after each iteration, starting with the initial one.
    pub history: Vec<f64>,
}

impl KspResult {
    /// Whether the solve met rtol or atol.
    pub fn converged(&self) -> bool {
        matches!(
            self.reason,
            StopReason::RelativeTolerance | StopReason::AbsoluteTolerance
        )
    }
}

/// Checks the standard stopping test; returns the reason if met.
pub(crate) fn test_convergence(rnorm: f64, r0: f64, cfg: &KspConfig) -> Option<StopReason> {
    if rnorm <= cfg.atol {
        Some(StopReason::AbsoluteTolerance)
    } else if rnorm <= cfg.rtol * r0 {
        Some(StopReason::RelativeTolerance)
    } else {
        None
    }
}

/// Computes the true residual `r = b - A·x`.
pub(crate) fn residual_into<O: Operator>(op: &O, b: &[f64], x: &[f64], r: &mut [f64]) {
    op.apply(x, r);
    for i in 0..r.len() {
        r[i] = b[i] - r[i];
    }
}

/// Computes the preconditioned residual `z = M⁻¹(b - A·x)` and returns its
/// norm; shared start-up step of the left-preconditioned methods.
pub(crate) fn initial_residual<O: Operator, D: InnerProduct>(
    op: &O,
    pc: &impl crate::pc::Precond,
    ip: &D,
    b: &[f64],
    x: &[f64],
    r: &mut [f64],
    z: &mut [f64],
) -> f64 {
    residual_into(op, b, x, r);
    pc.apply(r, z);
    ip.norm(z)
}

#[cfg(test)]
pub(crate) mod testmat {
    //! Shared test fixtures for the KSP modules.
    use sellkit_core::{Apply, CooBuilder, Csr, ExecCtx};

    /// SPD 2D Laplacian (5-point, Dirichlet) on an `nx × nx` grid.
    pub fn laplace2d(nx: usize) -> Csr {
        let n = nx * nx;
        let mut b = CooBuilder::new(n, n);
        for y in 0..nx {
            for x in 0..nx {
                let i = y * nx + x;
                b.push(i, i, 4.0);
                if x > 0 {
                    b.push(i, i - 1, -1.0);
                }
                if x + 1 < nx {
                    b.push(i, i + 1, -1.0);
                }
                if y > 0 {
                    b.push(i, i - nx, -1.0);
                }
                if y + 1 < nx {
                    b.push(i, i + nx, -1.0);
                }
            }
        }
        b.to_csr()
    }

    /// Unsymmetric convection-diffusion matrix (upwind convection).
    pub fn convdiff2d(nx: usize, beta: f64) -> Csr {
        let n = nx * nx;
        let mut b = CooBuilder::new(n, n);
        for y in 0..nx {
            for x in 0..nx {
                let i = y * nx + x;
                b.push(i, i, 4.0 + beta);
                if x > 0 {
                    b.push(i, i - 1, -1.0 - beta);
                }
                if x + 1 < nx {
                    b.push(i, i + 1, -1.0);
                }
                if y > 0 {
                    b.push(i, i - nx, -1.0);
                }
                if y + 1 < nx {
                    b.push(i, i + nx, -1.0);
                }
            }
        }
        b.to_csr()
    }

    /// True-residual norm ‖b - Ax‖₂.
    pub fn true_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        use sellkit_core::Operator as CoreOperator;
        let mut ax = vec![0.0; b.len()];
        a.apply(&ExecCtx::serial(), (x).into(), (&mut ax).into(), Apply::Set);
        for i in 0..b.len() {
            ax[i] -= b[i];
        }
        crate::vecops::norm2(&ax)
    }
}
