//! Preconditioned conjugate gradients for SPD systems.

use crate::operator::{InnerProduct, Operator};
use crate::pc::Precond;
use crate::vecops;

use super::{residual_into, test_convergence, KspConfig, KspResult, StopReason};

/// Solves `A x = b` with preconditioned CG.  `A` and the preconditioner
/// must be symmetric positive definite.
pub fn cg<O: Operator, P: Precond, D: InnerProduct>(
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
    let mut z = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut ap = vec![0.0; n];
    let mut history = Vec::new();

    residual_into(op, b, x, &mut r);
    pc.apply(&r, &mut z);
    let mut rz = ip.dot(&r, &z);
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
    p.copy_from_slice(&z);

    for it in 1..=cfg.max_it {
        op.apply(&p, &mut ap);
        let pap = ip.dot(&p, &ap);
        if pap <= 0.0 {
            return KspResult {
                iterations: it - 1,
                residual: *history.last().expect("nonempty"),
                reason: StopReason::Breakdown,
                history,
            };
        }
        let alpha = rz / pap;
        vecops::axpy(alpha, &p, x);
        vecops::axpy(-alpha, &ap, &mut r);

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

        pc.apply(&r, &mut z);
        let rz_new = ip.dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        // p = z + beta p
        vecops::aypx(beta, &z, &mut p);
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
    use super::super::testmat::{laplace2d, true_residual};
    use super::*;
    use crate::operator::{MatOperator, SeqDot};
    use crate::pc::{IdentityPc, Ilu0, JacobiPc};

    #[test]
    fn solves_laplace() {
        let a = laplace2d(12);
        let n = 144;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = cg(
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
        assert!(true_residual(&a, &x, &b) < 1e-7);
    }

    #[test]
    fn cg_matches_gmres_solution() {
        let a = laplace2d(7);
        let n = 49;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let cfg = KspConfig {
            rtol: 1e-12,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        cg(&MatOperator(&a), &IdentityPc, &SeqDot, &b, &mut x1, &cfg);
        super::super::gmres(&MatOperator(&a), &IdentityPc, &SeqDot, &b, &mut x2, &cfg);
        for i in 0..n {
            assert!(
                (x1[i] - x2[i]).abs() < 1e-7,
                "row {i}: {} vs {}",
                x1[i],
                x2[i]
            );
        }
    }

    #[test]
    fn ilu_preconditioned_cg_converges_faster() {
        let a = laplace2d(16);
        let n = 256;
        let b = vec![1.0; n];
        let cfg = KspConfig {
            rtol: 1e-8,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let r1 = cg(&MatOperator(&a), &IdentityPc, &SeqDot, &b, &mut x1, &cfg);
        let mut x2 = vec![0.0; n];
        let ilu = Ilu0::factor(&a);
        let r2 = cg(&MatOperator(&a), &ilu, &SeqDot, &b, &mut x2, &cfg);
        assert!(
            r2.iterations < r1.iterations,
            "{} !< {}",
            r2.iterations,
            r1.iterations
        );
    }

    #[test]
    fn exact_in_n_iterations_in_theory() {
        // CG on a 2x2 SPD system converges in ≤ 2 iterations.
        let a = sellkit_core::Csr::from_dense(2, 2, &[4.0, 1.0, 1.0, 3.0]);
        let b = vec![1.0, 2.0];
        let mut x = vec![0.0; 2];
        let res = cg(
            &MatOperator(&a),
            &IdentityPc,
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-13,
                ..Default::default()
            },
        );
        assert!(res.iterations <= 2);
        assert!(true_residual(&a, &x, &b) < 1e-10);
    }
}
