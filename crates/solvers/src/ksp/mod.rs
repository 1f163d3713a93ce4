//! Krylov subspace solvers (PETSc `KSP`).
//!
//! All methods are format-agnostic — they see only
//! [`Operator`]/[`InnerProduct`]/[`Precond`](crate::pc::Precond) — and open
//! one `KSPSolve` span per solve.  [`KspResult::history`] is the one
//! per-iteration record: the initial residual norm, then one entry per
//! iteration.  Which residual `history`, `residual` and the stopping test
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
pub mod tfqmr;

pub use bicgstab::bicgstab;
pub use cg::cg;
pub use gmres::{fgmres, gmres};
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

#[cfg(test)]
mod tests {
    use super::testmat::{convdiff2d, laplace2d};
    use super::*;
    use crate::operator::{MatOperator, SeqDot};
    use crate::pc::{JacobiPc, Precond};

    /// `history` holds the initial residual the module table names, then one
    /// entry per iteration — on a converged solve and on one stopped by
    /// `max_it` alike.
    #[test]
    fn history_is_the_initial_residual_then_one_entry_per_iteration() {
        let (spd, unsym) = (laplace2d(8), convdiff2d(8, 2.0));
        let n = 64;
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        for method in ["gmres", "fgmres", "cg", "bicgstab", "tfqmr"] {
            let a = if method == "cg" { &spd } else { &unsym };
            let (op, pc) = (MatOperator(a), JacobiPc::from_csr(a));
            let (mut r, mut z) = (vec![0.0; n], vec![0.0; n]);
            residual_into(&op, &b, &x0, &mut r);
            pc.apply(&r, &mut z);
            // Only left-preconditioned GMRES records `‖M⁻¹(b − A·x)‖`.
            let r0 = SeqDot.norm(if method == "gmres" { &z } else { &r });
            for max_it in [1000, 3] {
                let cfg = KspConfig {
                    rtol: 1e-10,
                    max_it,
                    ..Default::default()
                };
                let mut x = x0.clone();
                let res = match method {
                    "gmres" => gmres(&op, &pc, &SeqDot, &b, &mut x, &cfg),
                    "fgmres" => fgmres(&op, &pc, &SeqDot, &b, &mut x, &cfg),
                    "cg" => cg(&op, &pc, &SeqDot, &b, &mut x, &cfg),
                    "bicgstab" => bicgstab(&op, &pc, &SeqDot, &b, &mut x, &cfg),
                    _ => tfqmr(&op, &pc, &SeqDot, &b, &mut x, &cfg),
                };
                if max_it == 3 {
                    assert_eq!(res.reason, StopReason::MaxIterations, "{method}");
                    assert_eq!(res.iterations, 3, "{method}");
                } else {
                    assert!(res.converged(), "{method}: {:?}", res.reason);
                }
                assert_eq!(res.history.len(), res.iterations + 1, "{method}");
                assert_eq!(res.history[0].to_bits(), r0.to_bits(), "{method}");
            }
        }
    }
}
