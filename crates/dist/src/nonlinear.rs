//! Distributed Newton's method: the multinode solve path of the paper's
//! §7.3 experiments, where every rank owns a block of unknowns, assembles
//! only its own Jacobian rows, and all reductions cross ranks.
//!
//! The single-rank [`newton`](fn@sellkit_solvers::snes::newton::newton) and
//! [`dist_newton`] are the *same algorithm* — one loop,
//! [`newton_over`], run over two vector spaces — which is why the paper's
//! iteration counts are identical across node counts.

use sellkit_core::{matops, Csr, FromCsr, MatShape, Operator};
use sellkit_mpisim::Comm;
use sellkit_solvers::ksp::gmres;
use sellkit_solvers::pc::{self, Precond};
use sellkit_solvers::snes::newton::{newton_over, NewtonConfig, NewtonResult};

use crate::dmat::DistMat;
use crate::solve::{DistDot, DistOp};

/// A nonlinear system distributed by rows: each rank evaluates the
/// residual entries and Jacobian rows it owns (fetching whatever remote
/// state it needs internally, e.g. through a halo [`crate::VecScatter`]).
pub trait DistNonlinearProblem {
    /// Global number of unknowns.
    fn global_dim(&self) -> usize;
    /// This rank's owned rows (must match `split_rows` partitioning).
    fn local_rows(&self, comm: &Comm) -> std::ops::Range<usize>;
    /// Evaluates the owned block of `F(x)`.  Collective (halo exchange).
    fn residual(&self, comm: &Comm, x_local: &[f64], f_local: &mut [f64]);
    /// Assembles the owned Jacobian rows with **global** column indices.
    /// Collective if the rows need remote state.
    fn local_jacobian(&self, comm: &Comm, x_local: &[f64]) -> Csr;
}

/// Distributed Newton-GMRES: solves `F(x) = 0` over the communicator,
/// with the Jacobian applied in format `M` and `pc_factory` building a
/// *local* preconditioner from each rank's diagonal block (block-Jacobi
/// globally — PETSc's parallel default).  As in the single-rank loop the
/// factory is called when there is nothing to refresh
/// ([`Precond::refresh`]).
///
/// `tag_base` reserves a tag range for this solve's scatters; each Newton
/// iteration uses a fresh tag.
pub fn dist_newton<M, Prob, Pc>(
    comm: &Comm,
    problem: &Prob,
    x_local: &mut [f64],
    cfg: &NewtonConfig,
    tag_base: u64,
    pc_factory: impl Fn(&Csr) -> Pc,
) -> NewtonResult
where
    M: Operator + FromCsr,
    Prob: DistNonlinearProblem,
    Pc: Precond,
{
    let rows = problem.local_rows(comm);
    assert_eq!(
        x_local.len(),
        rows.len(),
        "x block does not match owned rows"
    );
    let nglobal = problem.global_dim();
    let ip = DistDot { comm };

    // The rank-local preconditioner lives for the whole solve, as in the
    // single-rank loop; the distributed operator is rebuilt (its scatter is
    // a collective with a tag of its own).
    let mut kept_pc = None;
    let mut tag = tag_base;
    newton_over(
        &ip,
        x_local,
        cfg,
        |x, f| problem.residual(comm, x, f),
        |x, rhs, d, ksp_cfg| {
            tag += 1;
            let (dm, pc) = {
                let _je = sellkit_obs::span("SNESJacobianEval");
                let j_local = {
                    let _s = sellkit_obs::span("MatAssembly");
                    problem.local_jacobian(comm, x)
                };
                // Block-Jacobi: the preconditioner sees the square diagonal
                // block of the owned rows.
                let diag_block = matops::submatrix(&j_local, 0..j_local.nrows(), rows.clone());
                let pc = pc::set_up(&mut kept_pc, &diag_block, &pc_factory);
                let _s = sellkit_obs::span("MatConvert");
                let dm = DistMat::<M>::from_local_rows(comm, nglobal, nglobal, &j_local, tag);
                (dm, pc)
            };
            gmres(&DistOp { comm, mat: &dm }, pc, &ip, rhs, d, ksp_cfg)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::split_rows;
    use sellkit_core::CooBuilder;
    use sellkit_mpisim::run;
    use sellkit_solvers::pc::JacobiPc;
    use sellkit_solvers::snes::newton::{newton, NonlinearProblem};
    use sellkit_solvers::snes::LineSearch;

    /// 1D nonlinear problem: F_i = 2x_i - x_{i-1} - x_{i+1} + x_i³ - g_i
    /// (periodic) — every rank needs one neighbour value from each side,
    /// exchanged here by simple sends (a hand-rolled halo).
    struct Ring {
        n: usize,
        g: Vec<f64>,
    }

    impl Ring {
        fn full_state(comm: &Comm, x_local: &[f64]) -> Vec<f64> {
            // Test-scale halo: gather everything (the production path in
            // workloads::dist_gray_scott uses a proper VecScatter).
            comm.allgather(x_local.to_vec()).concat()
        }
    }

    impl DistNonlinearProblem for Ring {
        fn global_dim(&self) -> usize {
            self.n
        }
        fn local_rows(&self, comm: &Comm) -> std::ops::Range<usize> {
            let r = split_rows(self.n, comm.size())[comm.rank()];
            r.start..r.end
        }
        fn residual(&self, comm: &Comm, x_local: &[f64], f_local: &mut [f64]) {
            let x = Ring::full_state(comm, x_local);
            let rows = self.local_rows(comm);
            for (li, i) in rows.enumerate() {
                let prev = x[(i + self.n - 1) % self.n];
                let next = x[(i + 1) % self.n];
                f_local[li] = 2.0 * x[i] - prev - next + x[i].powi(3) - self.g[i];
            }
        }
        fn local_jacobian(&self, comm: &Comm, x_local: &[f64]) -> Csr {
            let x = Ring::full_state(comm, x_local);
            let rows = self.local_rows(comm);
            let mut b = CooBuilder::new(rows.len(), self.n);
            for (li, i) in rows.enumerate() {
                b.push(li, i, 2.0 + 3.0 * x[i] * x[i]);
                b.push(li, (i + self.n - 1) % self.n, -1.0);
                b.push(li, (i + 1) % self.n, -1.0);
            }
            b.to_csr()
        }
    }

    /// The sequential twin of `Ring` for cross-checking.
    struct SeqRing {
        n: usize,
        g: Vec<f64>,
    }

    impl NonlinearProblem for SeqRing {
        fn dim(&self) -> usize {
            self.n
        }
        fn residual(&self, x: &[f64], f: &mut [f64]) {
            for i in 0..self.n {
                let prev = x[(i + self.n - 1) % self.n];
                let next = x[(i + 1) % self.n];
                f[i] = 2.0 * x[i] - prev - next + x[i].powi(3) - self.g[i];
            }
        }
        fn jacobian(&self, x: &[f64]) -> Csr {
            let mut b = CooBuilder::new(self.n, self.n);
            for i in 0..self.n {
                b.push(i, i, 2.0 + 3.0 * x[i] * x[i]);
                b.push(i, (i + self.n - 1) % self.n, -1.0);
                b.push(i, (i + 1) % self.n, -1.0);
            }
            b.to_csr()
        }
    }

    #[test]
    fn distributed_newton_matches_sequential() {
        let n = 48;
        let g: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.3).sin() + 0.8).collect();
        let cfg = NewtonConfig {
            rtol: 1e-10,
            ..Default::default()
        };

        let mut x_seq = vec![0.4; n];
        let seq = newton::<Csr, _, _>(
            &SeqRing { n, g: g.clone() },
            &mut x_seq,
            &cfg,
            JacobiPc::from_csr,
        );
        assert!(seq.converged());

        for ranks in [1usize, 3, 4] {
            let g2 = g.clone();
            let out = run(ranks, move |comm| {
                let p = Ring { n, g: g2.clone() };
                let rows = p.local_rows(comm);
                let mut x = vec![0.4; rows.len()];
                let res = dist_newton::<sellkit_core::Sell8, _, _>(
                    comm,
                    &p,
                    &mut x,
                    &NewtonConfig {
                        rtol: 1e-10,
                        ..Default::default()
                    },
                    100,
                    JacobiPc::from_csr,
                );
                assert!(res.converged(), "{:?}", res.reason);
                (res.iterations, comm.allgather(x).concat())
            });
            for (its, x) in out {
                assert_eq!(its, seq.iterations, "{ranks} ranks: same Newton path");
                for i in 0..n {
                    assert!((x[i] - x_seq[i]).abs() < 1e-7, "{ranks} ranks row {i}");
                }
            }
        }
    }

    #[test]
    fn backtracking_line_search_is_rank_consistent() {
        let n = 24;
        // Far initial guess to force backtracking.
        let g: Vec<f64> = vec![1.0; n];
        let out = run(3, move |comm| {
            let p = Ring { n, g: g.clone() };
            let rows = p.local_rows(comm);
            let mut x = vec![10.0; rows.len()];
            let cfg = NewtonConfig {
                rtol: 1e-9,
                max_it: 200,
                line_search: LineSearch::Backtracking(Default::default()),
                ..Default::default()
            };
            let res = dist_newton::<Csr, _, _>(comm, &p, &mut x, &cfg, 300, JacobiPc::from_csr);
            assert!(res.converged(), "{:?} fnorm {}", res.reason, res.fnorm);
            res.iterations
        });
        assert!(
            out.windows(2).all(|w| w[0] == w[1]),
            "all ranks agree on iterations: {out:?}"
        );
    }
}
