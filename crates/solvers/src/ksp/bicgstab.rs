//! BiCGStab for unsymmetric systems — short recurrences where GMRES would
//! need a long restart.

use crate::operator::{InnerProduct, Operator};
use crate::pc::Precond;
use crate::vecops;

use super::{residual_into, test_convergence, KspConfig, KspResult, StopReason};

/// Solves `A x = b` with right-preconditioned BiCGStab.
pub fn bicgstab<O: Operator, P: Precond, D: InnerProduct>(
    op: &O,
    pc: &P,
    ip: &D,
    b: &[f64],
    x: &mut [f64],
    cfg: &KspConfig,
) -> KspResult {
    let _solve = sellkit_obs::span("KSPSolve");
    let n = op.dim();
    let mut r = vec![0.0; n];
    residual_into(op, b, x, &mut r);
    let r_hat = r.clone(); // shadow residual
    let r0 = ip.norm(&r);
    let mut history = vec![r0];
    if let Some(reason) = test_convergence(r0, r0, cfg) {
        return KspResult {
            iterations: 0,
            residual: r0,
            reason,
            history,
        };
    }

    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut ph = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut sh = vec![0.0; n];
    let mut t = vec![0.0; n];

    for it in 1..=cfg.max_it {
        let rho_new = ip.dot(&r_hat, &r);
        if rho_new.abs() < 1e-300 {
            return KspResult {
                iterations: it - 1,
                residual: *history.last().expect("nonempty"),
                reason: StopReason::Breakdown,
                history,
            };
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        // p = r + beta (p - omega v)
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        pc.apply(&p, &mut ph);
        op.apply(&ph, &mut v);
        let rhv = ip.dot(&r_hat, &v);
        if rhv.abs() < 1e-300 {
            return KspResult {
                iterations: it - 1,
                residual: *history.last().expect("nonempty"),
                reason: StopReason::Breakdown,
                history,
            };
        }
        alpha = rho / rhv;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        let snorm = ip.norm(&s);
        if let Some(reason) = test_convergence(snorm, r0, cfg) {
            vecops::axpy(alpha, &ph, x);
            history.push(snorm);
            return KspResult {
                iterations: it,
                residual: snorm,
                reason,
                history,
            };
        }
        pc.apply(&s, &mut sh);
        op.apply(&sh, &mut t);
        let tt = ip.dot(&t, &t);
        if tt.abs() < 1e-300 {
            return KspResult {
                iterations: it - 1,
                residual: snorm,
                reason: StopReason::Breakdown,
                history,
            };
        }
        omega = ip.dot(&t, &s) / tt;
        for i in 0..n {
            x[i] += alpha * ph[i] + omega * sh[i];
            r[i] = s[i] - omega * t[i];
        }
        let rnorm = ip.norm(&r);
        history.push(rnorm);
        if let Some(reason) = test_convergence(rnorm, r0, cfg) {
            return KspResult {
                iterations: it,
                residual: rnorm,
                reason,
                history,
            };
        }
        if omega.abs() < 1e-300 {
            return KspResult {
                iterations: it,
                residual: rnorm,
                reason: StopReason::Breakdown,
                history,
            };
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
    fn solves_unsymmetric() {
        let a = convdiff2d(10, 8.0);
        let n = 100;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = bicgstab(
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
        assert!(res.converged(), "{:?}", res.reason);
        assert!(true_residual(&a, &x, &b) < 1e-6);
    }

    #[test]
    fn solves_spd_too() {
        let a = laplace2d(9);
        let b = vec![1.0; 81];
        let mut x = vec![0.0; 81];
        let res = bicgstab(
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
        assert!(res.converged());
        assert!(true_residual(&a, &x, &b) < 1e-6);
    }

    #[test]
    fn agrees_with_gmres() {
        let a = convdiff2d(8, 3.0);
        let n = 64;
        let b: Vec<f64> = (0..n).map(|i| ((i * i) % 11) as f64 - 5.0).collect();
        let cfg = KspConfig {
            rtol: 1e-12,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        bicgstab(&MatOperator(&a), &IdentityPc, &SeqDot, &b, &mut x1, &cfg);
        super::super::gmres(&MatOperator(&a), &IdentityPc, &SeqDot, &b, &mut x2, &cfg);
        for i in 0..n {
            assert!((x1[i] - x2[i]).abs() < 1e-6, "row {i}");
        }
    }
}
