//! Transpose-free QMR (Freund 1993) — PETSc `KSPTFQMR`: an unsymmetric
//! solver with short recurrences and smoother convergence curves than
//! BiCGStab, at two operator applications per iteration.

use crate::operator::{InnerProduct, Operator};
use crate::pc::Precond;
use crate::vecops;

use super::{residual_into, test_convergence, KspConfig, KspResult, StopReason};

/// Solves `A x = b` with right-preconditioned TFQMR.
pub fn tfqmr<O: Operator, P: Precond, D: InnerProduct>(
    op: &O,
    pc: &P,
    ip: &D,
    b: &[f64],
    x: &mut [f64],
    cfg: &KspConfig,
) -> KspResult {
    let _solve = sellkit_obs::span("KSPSolve");
    let n = op.dim();
    let apply_prec_op = |v: &[f64], tmp: &mut [f64], out: &mut [f64]| {
        pc.apply(v, tmp);
        op.apply(tmp, out);
    };

    let mut r = vec![0.0; n];
    residual_into(op, b, x, &mut r);
    let r0_norm = ip.norm(&r);
    let mut history = vec![r0_norm];
    if let Some(reason) = test_convergence(r0_norm, r0_norm, cfg) {
        return KspResult {
            iterations: 0,
            residual: r0_norm,
            reason,
            history,
        };
    }

    let r_hat = r.clone();
    let mut w = r.clone();
    let mut y1 = r.clone();
    let mut tmp = vec![0.0; n];
    let mut v = vec![0.0; n];
    apply_prec_op(&y1, &mut tmp, &mut v);
    let mut d = vec![0.0; n];
    let mut y2 = vec![0.0; n];
    let mut u2 = vec![0.0; n];
    let mut u1 = v.clone();

    let mut tau = r0_norm;
    let mut theta = 0.0f64;
    let mut eta = 0.0f64;
    let mut rho = ip.dot(&r_hat, &r);

    for it in 1..=cfg.max_it {
        let sigma = ip.dot(&r_hat, &v);
        if sigma.abs() < 1e-300 || rho.abs() < 1e-300 {
            return KspResult {
                iterations: it - 1,
                residual: *history.last().expect("nonempty"),
                reason: StopReason::Breakdown,
                history,
            };
        }
        let alpha = rho / sigma;
        // y2 = y1 - alpha v
        for i in 0..n {
            y2[i] = y1[i] - alpha * v[i];
        }
        apply_prec_op(&y2, &mut tmp, &mut u2);

        let mut rnorm_est = 0.0;
        // Two half-iterations.
        for m in 0..2 {
            let (yj, uj): (&[f64], &[f64]) = if m == 0 { (&y1, &u1) } else { (&y2, &u2) };
            // w -= alpha u_j
            vecops::axpy(-alpha, uj, &mut w);
            // d = y_j + (theta² η / α) d
            let c = theta * theta * eta / alpha;
            for i in 0..n {
                d[i] = yj[i] + c * d[i];
            }
            theta = ip.norm(&w) / tau;
            let cfactor = 1.0 / (1.0 + theta * theta).sqrt();
            tau *= theta * cfactor;
            eta = cfactor * cfactor * alpha;
            // x += η M⁻¹ d  (right preconditioning: correction in z-space)
            pc.apply(&d, &mut tmp);
            vecops::axpy(eta, &tmp, x);

            rnorm_est = tau * ((2 * it) as f64).sqrt();
        }
        history.push(rnorm_est);
        if let Some(reason) = test_convergence(rnorm_est, r0_norm, cfg) {
            // Confirm against the true residual before declaring victory
            // (the TFQMR bound is an estimate).
            residual_into(op, b, x, &mut r);
            let true_norm = ip.norm(&r);
            if test_convergence(true_norm, r0_norm, cfg).is_some() {
                return KspResult {
                    iterations: it,
                    residual: true_norm,
                    reason,
                    history,
                };
            }
        }

        let rho_new = ip.dot(&r_hat, &w);
        let beta = rho_new / rho;
        rho = rho_new;
        // y1 = w + beta y2
        for i in 0..n {
            y1[i] = w[i] + beta * y2[i];
        }
        apply_prec_op(&y1, &mut tmp, &mut u1);
        // v = u1 + beta (u2 + beta v)
        for i in 0..n {
            v[i] = u1[i] + beta * (u2[i] + beta * v[i]);
        }
    }

    KspResult {
        iterations: cfg.max_it,
        residual: *history.last().expect("nonempty"),
        reason: StopReason::MaxIterations,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::super::testmat::{convdiff2d, laplace2d, true_residual};
    use super::*;
    use crate::operator::{MatOperator, SeqDot};
    use crate::pc::{IdentityPc, JacobiPc};

    #[test]
    fn solves_unsymmetric_system() {
        let a = convdiff2d(10, 4.0);
        let n = 100;
        let b: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let mut x = vec![0.0; n];
        let res = tfqmr(
            &MatOperator(&a),
            &JacobiPc::from_csr(&a),
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-10,
                max_it: 500,
                ..Default::default()
            },
        );
        assert!(
            res.converged(),
            "{:?} residual {}",
            res.reason,
            res.residual
        );
        assert!(true_residual(&a, &x, &b) < 1e-6);
    }

    #[test]
    fn solves_spd_system() {
        let a = laplace2d(8);
        let b = vec![1.0; 64];
        let mut x = vec![0.0; 64];
        let res = tfqmr(
            &MatOperator(&a),
            &IdentityPc,
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-9,
                max_it: 500,
                ..Default::default()
            },
        );
        assert!(res.converged());
        assert!(true_residual(&a, &x, &b) < 1e-5);
    }

    #[test]
    fn agrees_with_gmres_solution() {
        let a = convdiff2d(7, 2.0);
        let n = 49;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
        let cfg = KspConfig {
            rtol: 1e-11,
            max_it: 1000,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        tfqmr(&MatOperator(&a), &IdentityPc, &SeqDot, &b, &mut x1, &cfg);
        super::super::gmres(&MatOperator(&a), &IdentityPc, &SeqDot, &b, &mut x2, &cfg);
        for i in 0..n {
            assert!(
                (x1[i] - x2[i]).abs() < 1e-6,
                "row {i}: {} vs {}",
                x1[i],
                x2[i]
            );
        }
    }
}
