//! Flexible GMRES (Saad 1993): right-preconditioned GMRES that tolerates
//! a preconditioner that *changes between iterations* — e.g. a multigrid
//! cycle with an iterative coarse solve, or any inner Krylov loop.
//!
//! PETSc pairs `KSPFGMRES` with exactly the kind of nested solver setups
//! the paper's §8 anticipates for SELL-based preconditioning, so the
//! reproduction carries it as an extension.

use crate::operator::{InnerProduct, Operator};
use crate::pc::Precond;

use super::{test_convergence, KspConfig, KspResult, StopReason};

/// Solves `A x = b` with restarted flexible GMRES.
///
/// Unlike [`super::gmres`](fn@super::gmres::gmres), the preconditioned vectors `z_j = M⁻¹ v_j`
/// are stored explicitly, so `M` may differ at every application.
pub fn fgmres<O: Operator, P: Precond, D: InnerProduct>(
    op: &O,
    pc: &P,
    ip: &D,
    b: &[f64],
    x: &mut [f64],
    cfg: &KspConfig,
) -> KspResult {
    let n = op.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let m = cfg.restart.max(1);

    let mut r = vec![0.0; n];
    let mut history = Vec::new();

    // r = b - A x (true residual; right preconditioning keeps it honest).
    op.apply(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let r0 = ip.norm(&r);
    history.push(r0);
    if let Some(reason) = test_convergence(r0, r0, cfg) {
        return KspResult {
            iterations: 0,
            residual: r0,
            reason,
            history,
        };
    }

    // Krylov basis and the stored preconditioned vectors.  Both grow to at
    // most m+1 and m vectors and are then recycled by every restart cycle;
    // `basis[j + 1]` doubles as iteration j's work vector `w`.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    let mut zs: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut y = vec![0.0f64; m];
    let mut h = vec![0.0f64; (m + 1) * m];
    let mut cs = vec![0.0f64; m];
    let mut sn = vec![0.0f64; m];
    let mut g = vec![0.0f64; m + 1];
    let mut total_it = 0usize;
    let mut rnorm;

    loop {
        let beta = ip.norm(&r);
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
        for (vi, ri) in basis[0].iter_mut().zip(&r) {
            *vi = ri / beta;
        }
        g.iter_mut().for_each(|gi| *gi = 0.0);
        g[0] = beta;

        let mut j_used = 0usize;
        let mut stop: Option<StopReason> = None;

        for j in 0..m {
            // z_j = M⁻¹ v_j (stored!), w = A z_j; both applies overwrite
            // their output whole.
            if basis.len() == j + 1 {
                basis.push(vec![0.0; n]);
                zs.push(vec![0.0; n]);
            }
            let (vs, rest) = basis.split_at_mut(j + 1);
            let w = &mut rest[0];
            pc.apply(&vs[j], &mut zs[j]);
            op.apply(&zs[j], w);

            for (i, vi) in vs.iter().enumerate() {
                let hij = ip.dot(w, vi);
                h[i + j * (m + 1)] = hij;
                for (wk, vk) in w.iter_mut().zip(vi) {
                    *wk -= hij * vk;
                }
            }
            let hj1 = ip.norm(w);
            h[(j + 1) + j * (m + 1)] = hj1;

            for i in 0..j {
                let t = cs[i] * h[i + j * (m + 1)] + sn[i] * h[(i + 1) + j * (m + 1)];
                h[(i + 1) + j * (m + 1)] =
                    -sn[i] * h[i + j * (m + 1)] + cs[i] * h[(i + 1) + j * (m + 1)];
                h[i + j * (m + 1)] = t;
            }
            let (c, s) = super::gmres_givens(h[j + j * (m + 1)], hj1);
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
                // Exhausted space: lucky breakdown only if actually small.
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

        // x += Z y (correction built from the *stored preconditioned*
        // vectors — the flexible part).  Zero H diagonals (singular
        // operator) contribute nothing instead of NaNs.
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
        for (k, &yk) in y[..j_used].iter().enumerate() {
            for (xi, zk) in x.iter_mut().zip(&zs[k]) {
                *xi += yk * zk;
            }
        }

        // Verify against the true residual before returning.
        op.apply(x, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        rnorm = ip.norm(&r);
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

#[cfg(test)]
mod tests {
    use super::super::testmat::{convdiff2d, laplace2d, true_residual};
    use super::*;
    use crate::ksp::{cg, gmres};
    use crate::operator::{MatOperator, SeqDot};
    use crate::pc::{IdentityPc, JacobiPc, Precond};
    use std::cell::Cell;

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
