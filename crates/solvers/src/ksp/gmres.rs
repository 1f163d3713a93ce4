//! Restarted GMRES with modified Gram-Schmidt and Givens rotations — the
//! Krylov method of the paper's Gray-Scott experiment (§7: "the linear
//! system is solved with the GMRES Krylov subspace method") — and its
//! flexible, right-preconditioned form, over one Arnoldi cycle.

use crate::operator::{InnerProduct, Operator};
use crate::pc::Precond;

use super::{initial_residual, residual_into, test_convergence, KspConfig, KspResult, StopReason};

/// Solves `A x = b` with left-preconditioned GMRES(restart).
///
/// `x` holds the initial guess on entry and the solution on exit.
///
/// ```
/// use sellkit_core::Csr;
/// use sellkit_solvers::ksp::{gmres, KspConfig};
/// use sellkit_solvers::operator::{MatOperator, SeqDot};
/// use sellkit_solvers::pc::JacobiPc;
///
/// let a = Csr::from_dense(2, 2, &[4.0, 1.0, 1.0, 3.0]);
/// let b = vec![1.0, 2.0];
/// let mut x = vec![0.0; 2];
/// let res = gmres(
///     &MatOperator(&a),
///     &JacobiPc::from_csr(&a),
///     &SeqDot,
///     &b,
///     &mut x,
///     &KspConfig { rtol: 1e-12, ..Default::default() },
/// );
/// assert!(res.converged());
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-8);
/// ```
pub fn gmres<O: Operator, P: Precond, D: InnerProduct>(
    op: &O,
    pc: &P,
    ip: &D,
    b: &[f64],
    x: &mut [f64],
    cfg: &KspConfig,
) -> KspResult {
    arnoldi_solve::<false, _, _, _>(op, pc, ip, b, x, cfg)
}

/// Solves `A x = b` with restarted flexible GMRES (Saad 1993): the
/// right-preconditioned form that tolerates a preconditioner which
/// *changes between iterations* — a multigrid cycle with an iterative
/// coarse solve, or any inner Krylov loop (PETSc `KSPFGMRES`, the pairing
/// the paper's §8 anticipates for SELL-based preconditioning).
///
/// Unlike [`gmres`], the preconditioned vectors `z_j = M⁻¹ v_j` are stored
/// and the correction is built from them, so `M` may differ at every
/// application; `history` records the true residual `‖b − A·x‖`.
pub fn fgmres<O: Operator, P: Precond, D: InnerProduct>(
    op: &O,
    pc: &P,
    ip: &D,
    b: &[f64],
    x: &mut [f64],
    cfg: &KspConfig,
) -> KspResult {
    arnoldi_solve::<true, _, _, _>(op, pc, ip, b, x, cfg)
}

/// The restarted Arnoldi cycle both methods are: modified Gram-Schmidt,
/// Givens rotations on the Hessenberg column, back-substitution, and a
/// check of the updated iterate against the residual it was started from.
/// `FLEXIBLE` picks the side `M⁻¹` is applied on, which is all that
/// differs: left (`w = M⁻¹·A·vⱼ`, the preconditioned residual, `x += V·y`)
/// or right with the `zⱼ = M⁻¹·vⱼ` kept (`w = A·zⱼ`, the true residual,
/// `x += Z·y`).
fn arnoldi_solve<const FLEXIBLE: bool, O, P, D>(
    op: &O,
    pc: &P,
    ip: &D,
    b: &[f64],
    x: &mut [f64],
    cfg: &KspConfig,
) -> KspResult
where
    O: Operator,
    P: Precond,
    D: InnerProduct,
{
    let _solve = sellkit_obs::span("KSPSolve");
    let n = op.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let m = cfg.restart.max(1);

    // `r = b − A·x`; a cycle starts from `r` itself when flexible and from
    // `z = M⁻¹·r` otherwise.
    let mut r = vec![0.0; n];
    let mut z = vec![0.0; if FLEXIBLE { 0 } else { n }];
    let residual = |x: &[f64], r: &mut [f64], z: &mut [f64]| {
        if FLEXIBLE {
            residual_into(op, b, x, r);
            ip.norm(r)
        } else {
            initial_residual(op, pc, ip, b, x, r, z)
        }
    };
    let mut history = Vec::new();

    let r0 = residual(x, &mut r, &mut z);
    history.push(r0);
    if let Some(reason) = test_convergence(r0, r0, cfg) {
        return KspResult {
            iterations: 0,
            residual: r0,
            reason,
            history,
        };
    }

    // Krylov basis and Hessenberg in compact column storage.  The basis
    // grows to at most m+1 vectors (and the kept `zs` to m) and is then
    // recycled by every restart cycle; `basis[j + 1]` doubles as iteration
    // j's work vector `w`.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    let mut zs: Vec<Vec<f64>> = Vec::with_capacity(if FLEXIBLE { m } else { 0 });
    let mut y = vec![0.0f64; m]; // solution of the small triangular system
    let mut h = vec![0.0f64; (m + 1) * m]; // h[i + j*(m+1)] = H(i, j)
    let mut cs = vec![0.0f64; m];
    let mut sn = vec![0.0f64; m];
    let mut g = vec![0.0f64; m + 1]; // rotated RHS of the least-squares

    let mut total_it = 0usize;
    let mut rnorm;

    loop {
        // (Re)start from the residual computed above / below.
        let start = if FLEXIBLE { &r } else { &z };
        let beta = ip.norm(start);
        if beta == 0.0 {
            return KspResult {
                iterations: total_it,
                residual: 0.0,
                reason: StopReason::AbsoluteTolerance,
                history,
            };
        }
        if basis.is_empty() {
            basis.push(vec![0.0; n]);
        }
        for (vi, si) in basis[0].iter_mut().zip(start) {
            *vi = si / beta;
        }
        g.iter_mut().for_each(|gi| *gi = 0.0);
        g[0] = beta;

        let mut j_used = 0usize;
        let mut stop: Option<StopReason> = None;

        for j in 0..m {
            if basis.len() == j + 1 {
                basis.push(vec![0.0; n]);
                if FLEXIBLE {
                    zs.push(vec![0.0; n]);
                }
            }
            let (vs, rest) = basis.split_at_mut(j + 1);
            let w = &mut rest[0];
            // Both applies overwrite their output whole.
            if FLEXIBLE {
                pc.apply(&vs[j], &mut zs[j]);
                op.apply(&zs[j], w);
            } else {
                op.apply(&vs[j], &mut r);
                pc.apply(&r, w);
            }
            // Modified Gram-Schmidt.
            for (i, vi) in vs.iter().enumerate() {
                let hij = ip.dot(w, vi);
                h[i + j * (m + 1)] = hij;
                for (wk, vk) in w.iter_mut().zip(vi) {
                    *wk -= hij * vk;
                }
            }
            let hj1 = ip.norm(w);
            h[(j + 1) + j * (m + 1)] = hj1;

            // Apply the accumulated Givens rotations to column j.
            for i in 0..j {
                let t = cs[i] * h[i + j * (m + 1)] + sn[i] * h[(i + 1) + j * (m + 1)];
                h[(i + 1) + j * (m + 1)] =
                    -sn[i] * h[i + j * (m + 1)] + cs[i] * h[(i + 1) + j * (m + 1)];
                h[i + j * (m + 1)] = t;
            }
            // New rotation annihilating H(j+1, j).
            let (c, s) = givens(h[j + j * (m + 1)], hj1);
            cs[j] = c;
            sn[j] = s;
            h[j + j * (m + 1)] = c * h[j + j * (m + 1)] + s * hj1;
            h[(j + 1) + j * (m + 1)] = 0.0;
            g[j + 1] = -s * g[j];
            g[j] *= c;

            total_it += 1;
            j_used = j + 1;
            rnorm = g[j + 1].abs();
            history.push(rnorm);

            if let Some(reason) = test_convergence(rnorm, r0, cfg) {
                stop = Some(reason);
                break;
            }
            if total_it >= cfg.max_it {
                stop = Some(StopReason::MaxIterations);
                break;
            }
            if hj1 == 0.0 {
                // The Krylov space cannot grow.  If the projected residual
                // is small this is the classic "lucky breakdown" (exact
                // solution found); otherwise the operator is singular and
                // the honest answer is Breakdown, not convergence.
                stop = Some(if rnorm <= cfg.atol.max(cfg.rtol * r0) {
                    StopReason::AbsoluteTolerance
                } else {
                    StopReason::Breakdown
                });
                break;
            }
            // v_{j+1} = w / h_{j+1,j}, in place.
            for vi in w.iter_mut() {
                *vi /= hj1;
            }
        }

        // Solve the small triangular system and update x.  A (numerically)
        // singular operator produces zero diagonal entries in H; those
        // directions carry no information, so their coefficients are set
        // to zero instead of poisoning the iterate with NaNs.
        for i in (0..j_used).rev() {
            let hii = h[i + i * (m + 1)];
            if hii.abs() < 1e-300 {
                y[i] = 0.0;
                continue;
            }
            let mut s = g[i];
            for k in i + 1..j_used {
                s -= h[i + k * (m + 1)] * y[k];
            }
            y[i] = s / hii;
        }
        let dirs = if FLEXIBLE { &zs } else { &basis };
        for (k, &yk) in y[..j_used].iter().enumerate() {
            for (xi, dk) in x.iter_mut().zip(&dirs[k]) {
                *xi += yk * dk;
            }
        }

        // Always verify against the residual the cycle started from before
        // declaring success — the Givens estimate can be optimistic when
        // the operator is singular.
        rnorm = residual(x, &mut r, &mut z);
        if let Some(reason) = test_convergence(rnorm, r0, cfg) {
            return KspResult {
                iterations: total_it,
                residual: rnorm,
                reason,
                history,
            };
        }
        match stop {
            Some(StopReason::RelativeTolerance) | Some(StopReason::AbsoluteTolerance) => {
                // The estimate claimed convergence but the true residual
                // disagrees: singular/ill-posed system.
                return KspResult {
                    iterations: total_it,
                    residual: rnorm,
                    reason: StopReason::Breakdown,
                    history,
                };
            }
            Some(reason) => {
                return KspResult {
                    iterations: total_it,
                    residual: rnorm,
                    reason,
                    history,
                }
            }
            None => {}
        }
        if total_it >= cfg.max_it {
            return KspResult {
                iterations: total_it,
                residual: rnorm,
                reason: StopReason::MaxIterations,
                history,
            };
        }
    }
}

/// A numerically robust Givens rotation.
fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a.abs() < b.abs() {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t, s)
    } else {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c, c * t)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testmat::{convdiff2d, laplace2d, true_residual};
    use super::*;
    use crate::ksp::cg;
    use crate::operator::{MatOperator, SeqDot};
    use crate::pc::{IdentityPc, JacobiPc};
    use std::cell::Cell;

    #[test]
    fn solves_spd_system() {
        let a = laplace2d(10);
        let n = 100;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = gmres(
            &MatOperator(&a),
            &IdentityPc,
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-10,
                ..Default::default()
            },
        );
        assert!(res.converged(), "{:?}", res.reason);
        assert!(true_residual(&a, &x, &b) < 1e-7);
    }

    #[test]
    fn solves_unsymmetric_system() {
        let a = convdiff2d(12, 5.0);
        let n = 144;
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut x = vec![0.0; n];
        let res = gmres(
            &MatOperator(&a),
            &JacobiPc::from_csr(&a),
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-10,
                ..Default::default()
            },
        );
        assert!(res.converged());
        assert!(true_residual(&a, &x, &b) < 1e-6);
    }

    #[test]
    fn restart_still_converges() {
        let a = laplace2d(8);
        let b = vec![1.0; 64];
        let mut x = vec![0.0; 64];
        let res = gmres(
            &MatOperator(&a),
            &IdentityPc,
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-9,
                restart: 5,
                ..Default::default()
            },
        );
        assert!(res.converged());
        assert!(true_residual(&a, &x, &b) < 1e-5);
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations() {
        // Badly scaled diagonal: Jacobi fixes the scaling.
        let n = 50;
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            dense[i * n + i] = if i % 2 == 0 { 1.0 } else { 1000.0 };
            if i + 1 < n {
                dense[i * n + i + 1] = 0.1;
                dense[(i + 1) * n + i] = 0.1;
            }
        }
        let a = sellkit_core::Csr::from_dense(n, n, &dense);
        let b = vec![1.0; n];
        let cfg = KspConfig {
            rtol: 1e-8,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let r1 = gmres(&MatOperator(&a), &IdentityPc, &SeqDot, &b, &mut x1, &cfg);
        let mut x2 = vec![0.0; n];
        let r2 = gmres(
            &MatOperator(&a),
            &JacobiPc::from_csr(&a),
            &SeqDot,
            &b,
            &mut x2,
            &cfg,
        );
        assert!(
            r2.iterations < r1.iterations,
            "{} !< {}",
            r2.iterations,
            r1.iterations
        );
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplace2d(5);
        let b = vec![0.0; 25];
        let mut x = vec![0.0; 25];
        let res = gmres(
            &MatOperator(&a),
            &IdentityPc,
            &SeqDot,
            &b,
            &mut x,
            &KspConfig::default(),
        );
        assert_eq!(res.iterations, 0);
        assert!(res.converged());
    }

    #[test]
    fn residual_history_is_monotone_within_cycle() {
        let a = laplace2d(9);
        let b = vec![1.0; 81];
        let mut x = vec![0.0; 81];
        let res = gmres(
            &MatOperator(&a),
            &IdentityPc,
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-10,
                restart: 200,
                ..Default::default()
            },
        );
        // GMRES minimizes the residual over a growing space: within one
        // cycle the estimates are non-increasing.
        for w in res.history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12), "history not monotone: {w:?}");
        }
    }

    #[test]
    fn max_iterations_reported() {
        let a = laplace2d(16);
        let b = vec![1.0; 256];
        let mut x = vec![0.0; 256];
        let res = gmres(
            &MatOperator(&a),
            &IdentityPc,
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-14,
                max_it: 3,
                ..Default::default()
            },
        );
        assert_eq!(res.reason, StopReason::MaxIterations);
        assert_eq!(res.iterations, 3);
    }

    #[test]
    fn matches_gmres_with_fixed_pc() {
        let a = laplace2d(10);
        let n = 100;
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
        let cfg = KspConfig {
            rtol: 1e-10,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        gmres(
            &MatOperator(&a),
            &JacobiPc::from_csr(&a),
            &SeqDot,
            &b,
            &mut x1,
            &cfg,
        );
        fgmres(
            &MatOperator(&a),
            &JacobiPc::from_csr(&a),
            &SeqDot,
            &b,
            &mut x2,
            &cfg,
        );
        assert!(true_residual(&a, &x1, &b) < 1e-6);
        assert!(true_residual(&a, &x2, &b) < 1e-6);
    }

    /// A preconditioner that deliberately varies per application: inner CG
    /// with a loose, iteration-dependent tolerance.  Plain GMRES's theory
    /// breaks under this; FGMRES must still converge to the true solution.
    struct VaryingInnerSolve<'a> {
        a: &'a sellkit_core::Csr,
        calls: Cell<usize>,
    }

    impl Precond for VaryingInnerSolve<'_> {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            let k = self.calls.get();
            self.calls.set(k + 1);
            z.fill(0.0);
            let cfg = KspConfig {
                rtol: if k.is_multiple_of(2) { 1e-1 } else { 1e-3 },
                max_it: 4 + k % 3,
                ..Default::default()
            };
            let _ = cg(&MatOperator(self.a), &IdentityPc, &SeqDot, r, z, &cfg);
        }
    }

    #[test]
    fn converges_with_varying_preconditioner() {
        let a = convdiff2d(8, 1.0);
        let n = 64;
        let b = vec![1.0; n];
        let pc = VaryingInnerSolve {
            a: &a,
            calls: Cell::new(0),
        };
        let mut x = vec![0.0; n];
        let res = fgmres(
            &MatOperator(&a),
            &pc,
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-9,
                ..Default::default()
            },
        );
        assert!(res.converged(), "{:?}", res.reason);
        assert!(true_residual(&a, &x, &b) < 1e-5);
        assert!(pc.calls.get() > 0);
    }

    #[test]
    fn restart_with_flexible_pc() {
        let a = laplace2d(8);
        let n = 64;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let pc = VaryingInnerSolve {
            a: &a,
            calls: Cell::new(0),
        };
        let mut x = vec![0.0; n];
        let res = fgmres(
            &MatOperator(&a),
            &pc,
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-9,
                restart: 4,
                ..Default::default()
            },
        );
        assert!(res.converged());
        assert!(true_residual(&a, &x, &b) < 1e-5);
    }
}
