//! Distributed Newton's method: the multinode solve path of the paper's
//! §7.3 experiments, where every rank owns a block of unknowns, assembles
//! only its own Jacobian rows, and all reductions cross ranks.
//!
//! The single-rank [`newton`](fn@sellkit_solvers::snes::newton::newton) and
//! [`dist_newton`] are the *same algorithm* — one loop and one set-up,
//! [`newton_on`], over two [`Fine`] levels — and take the same problem
//! trait, [`NonlinearProblem`], which is why the paper's iteration counts
//! are identical across node counts.  A rank's θ-stepper runs on the same
//! level, [`RankRows`], for a whole trajectory.

use std::borrow::Cow;

use sellkit_core::{Csr, ExecCtx, FromCsr, MatShape, Operator};
use sellkit_mpisim::Comm;
use sellkit_solvers::pc::Precond;
use sellkit_solvers::snes::newton::{
    newton_on, Fine, NewtonConfig, NewtonResult, NonlinearProblem,
};

use crate::dmat::{split, DistMat};
use crate::partition::split_rows;
use crate::solve::{DistDot, DistOp};

/// Distributed Newton-GMRES: solves `F(x) = 0` over the communicator for
/// this rank's rows, with the Jacobian applied in format `M` and
/// `pc_factory` building a *local* preconditioner from each rank's diagonal
/// block (block-Jacobi globally — PETSc's parallel default).  As in the
/// single-rank loop the factory is called when there is nothing to refresh
/// ([`Precond::refresh`]): a `JacobiPc` is built on the first iteration and
/// refreshed on the later ones.  Collective.
///
/// `problem` is this rank's share of the system: its `dim()` is the owned
/// row count, `residual` fills the owned block of `F(x)` from the owned
/// block of `x` (fetching whatever remote state it needs itself, e.g.
/// through a halo [`crate::VecScatter`]), and `jacobian` assembles the
/// owned rows with **global** column indices.  The global size is the
/// Jacobian's `ncols()`, and the owned rows are [`split_rows`]'s block of
/// it.  Each iteration splits the assembled rows once, as a [`DistMat`]
/// stores them, and the split feeds both the preconditioner (the diagonal
/// block) and the one [`DistMat`] that serves the whole solve: built on the
/// first iteration, with a scatter tag drawn from [`Comm::new_tag`], and
/// refreshed in place on the later ones while no rank's rows change the
/// ghost columns they reach.
pub fn dist_newton<M, Prob, Pc>(
    comm: &Comm,
    problem: &Prob,
    x_local: &mut [f64],
    cfg: &NewtonConfig,
    pc_factory: impl Fn(&Csr) -> Pc,
) -> NewtonResult
where
    M: Operator + FromCsr,
    Prob: NonlinearProblem,
    Pc: Precond,
{
    assert_eq!(
        x_local.len(),
        problem.dim(),
        "x block does not match owned rows"
    );
    newton_on(RankRows::<M>::new(comm), problem, x_local, cfg, pc_factory)
}

/// One rank's [`Fine`] level: the space reduces across ranks, the
/// preconditioner sees the owned rows' square diagonal block, and GMRES
/// applies the [`DistMat`] of those rows, in format `M`.
///
/// The level keeps its [`DistMat`] — and with it the halo scatter — for as
/// long as it lives, refreshing it in place while no rank's rows change the
/// ghost columns they reach: [`dist_newton`] holds one for a solve, and a
/// rank's θ-stepper
/// ([`ThetaStepper::run_on`](sellkit_solvers::ts::ThetaStepper::run_on))
/// for a whole run, so a trajectory builds once per rank.
pub struct RankRows<'c, M> {
    comm: &'c Comm,
    mat: Option<DistMat<M>>,
}

impl<'c, M> RankRows<'c, M> {
    /// A level over this rank's rows of `comm` that holds nothing yet: its
    /// first Newton iteration builds the [`DistMat`].
    pub fn new(comm: &'c Comm) -> Self {
        Self { comm, mat: None }
    }
}

impl<'c, M: Operator + FromCsr> Fine for RankRows<'c, M> {
    type Space = DistDot<'c>;

    fn space(&self) -> DistDot<'c> {
        DistDot { comm: self.comm }
    }

    /// Splits the rows `j` once, as a [`DistMat`] stores them, refreshes the
    /// kept one from the parts (or builds it, with a tag from
    /// [`Comm::new_tag`]) and hands the diagonal block to block-Jacobi.
    /// Collective.
    fn pc_matrix<'j>(&mut self, j: &'j Csr) -> Cow<'j, Csr> {
        let comm = self.comm;
        let _s = sellkit_obs::span("MatConvert");
        let n = j.ncols();
        let parts = split(j, split_rows(n, comm.size())[comm.rank()]);
        if self.mat.as_mut().is_some_and(|m| m.refresh(comm, &parts)) {
            sellkit_obs::counter("dmat.refresh", 1.0);
        } else {
            sellkit_obs::counter("dmat.rebuild", 1.0);
            self.mat = Some(DistMat::from_split(comm, n, n, &parts, comm.new_tag()));
        }
        Cow::Owned(parts.0)
    }

    /// The [`DistMat`] [`Fine::pc_matrix`] set up for `j`.  `shared` is not
    /// the system here: on a rank the preconditioner's operator is at most
    /// its diagonal block.
    fn operator<'a>(
        &'a mut self,
        _j: &Csr,
        _shared: Option<&'a dyn Operator>,
        _ctx: &'a ExecCtx,
    ) -> impl sellkit_solvers::operator::Operator + 'a {
        let mat = self.mat.as_ref().expect("pc_matrix set the matrix up");
        DistOp {
            comm: self.comm,
            mat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::CooBuilder;
    use sellkit_mpisim::run;
    use sellkit_solvers::pc::JacobiPc;
    use sellkit_solvers::snes::newton::newton;
    use sellkit_solvers::snes::LineSearch;

    /// 1D nonlinear problem: F_i = 2x_i - x_{i-1} - x_{i+1} + x_i³ - g_i
    /// (periodic) over this rank's rows — every rank needs one neighbour
    /// value from each side, exchanged here by simple sends (a hand-rolled
    /// halo).
    struct Ring<'a> {
        comm: &'a Comm,
        n: usize,
        g: Vec<f64>,
    }

    impl Ring<'_> {
        fn rows(&self) -> std::ops::Range<usize> {
            let r = split_rows(self.n, self.comm.size())[self.comm.rank()];
            r.start..r.end
        }
        fn full_state(&self, x_local: &[f64]) -> Vec<f64> {
            // Test-scale halo: gather everything (the production path in
            // workloads::dist_gray_scott uses a proper VecScatter).
            self.comm.allgather(x_local.to_vec()).concat()
        }
    }

    impl NonlinearProblem for Ring<'_> {
        fn dim(&self) -> usize {
            self.rows().len()
        }
        fn residual(&self, x_local: &[f64], f_local: &mut [f64]) {
            let x = self.full_state(x_local);
            for (li, i) in self.rows().enumerate() {
                let prev = x[(i + self.n - 1) % self.n];
                let next = x[(i + 1) % self.n];
                f_local[li] = 2.0 * x[i] - prev - next + x[i].powi(3) - self.g[i];
            }
        }
        fn jacobian(&self, x_local: &[f64]) -> Csr {
            let x = self.full_state(x_local);
            let rows = self.rows();
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
                let p = Ring {
                    comm,
                    n,
                    g: g2.clone(),
                };
                let mut x = vec![0.4; p.rows().len()];
                let res = dist_newton::<sellkit_core::Sell8, _, _>(
                    comm,
                    &p,
                    &mut x,
                    &NewtonConfig {
                        rtol: 1e-10,
                        ..Default::default()
                    },
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
            let p = Ring {
                comm,
                n,
                g: g.clone(),
            };
            let mut x = vec![10.0; p.rows().len()];
            let cfg = NewtonConfig {
                rtol: 1e-9,
                max_it: 200,
                line_search: LineSearch::Backtracking(Default::default()),
                ..Default::default()
            };
            let res = dist_newton::<Csr, _, _>(comm, &p, &mut x, &cfg, JacobiPc::from_csr);
            assert!(res.converged(), "{:?} fnorm {}", res.reason, res.fnorm);
            res.iterations
        });
        assert!(
            out.windows(2).all(|w| w[0] == w[1]),
            "all ranks agree on iterations: {out:?}"
        );
    }
}
