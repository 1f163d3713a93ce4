//! Adapters plugging distributed matrices into the (format-agnostic)
//! Krylov solvers: the same GMRES that runs sequentially solves the
//! distributed system once `Operator` applies the parallel MatMult and
//! `InnerProduct` reduces across ranks.

use sellkit_core::{FromCsr, Operator as CoreOperator};
use sellkit_mpisim::Comm;
use sellkit_solvers::operator::{InnerProduct, Operator};

use crate::dmat::DistMat;

/// A distributed matrix viewed as a linear operator on local blocks.
pub struct DistOp<'a, M> {
    /// The communicator shared by all ranks of the solve.
    pub comm: &'a Comm,
    /// The row-distributed matrix.
    pub mat: &'a DistMat<M>,
}

impl<M: CoreOperator + FromCsr> Operator for DistOp<'_, M> {
    fn dim(&self) -> usize {
        self.mat.row_range().len()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.mat.mult(self.comm, x, y);
    }
}

/// Rank-reducing inner product (deterministic rank-ordered reduction).
pub struct DistDot<'a> {
    /// The communicator to reduce over.
    pub comm: &'a Comm,
}

impl InnerProduct for DistDot<'_> {
    fn reduce(&self, local: f64) -> f64 {
        self.comm.allreduce_sum(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvec::DistVec;
    use sellkit_core::{CooBuilder, Csr, Sell8};
    use sellkit_mpisim::run;
    use sellkit_solvers::ksp::{gmres, KspConfig};
    use sellkit_solvers::operator::{MatOperator, SeqDot};
    use sellkit_solvers::pc::{IdentityPc, JacobiPc};

    fn spd(n: usize) -> Csr {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
            // A long-range coupling so the off-diagonal blocks are nonempty
            // on every rank.
            let far = (i + n / 2) % n;
            if far != i && far != i + 1 && far + 1 != i {
                b.push(i, far, -0.5);
            }
        }
        b.to_csr()
    }

    #[test]
    fn distributed_gmres_matches_sequential() {
        let n = 96;
        let a = spd(n);
        let rhs: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        // Sequential reference.
        let mut x_seq = vec![0.0; n];
        let cfg = KspConfig {
            rtol: 1e-10,
            ..Default::default()
        };
        gmres(
            &MatOperator(&a),
            &IdentityPc,
            &SeqDot,
            &rhs,
            &mut x_seq,
            &cfg,
        );

        let a2 = a.clone();
        let rhs2 = rhs.clone();
        let out = run(4, move |comm| {
            let dm = DistMat::<Sell8>::from_global_csr(comm, &a2, 3);
            let me = dm.row_range();
            let b_local = rhs2[me.start..me.end].to_vec();
            let mut x = vec![0.0; me.len()];
            let res = gmres(
                &DistOp { comm, mat: &dm },
                &IdentityPc,
                &DistDot { comm },
                &b_local,
                &mut x,
                &KspConfig {
                    rtol: 1e-10,
                    ..Default::default()
                },
            );
            assert!(res.converged());
            let mut xv = DistVec::zeros(comm, 96);
            xv.local_mut().copy_from_slice(&x);
            xv.gather_all(comm)
        });
        for x_par in out {
            for i in 0..n {
                assert!(
                    (x_par[i] - x_seq[i]).abs() < 1e-6,
                    "row {i}: {} vs {}",
                    x_par[i],
                    x_seq[i]
                );
            }
        }
    }

    #[test]
    fn iteration_counts_match_across_rank_counts() {
        // The solve is algorithmically identical regardless of the
        // partitioning (deterministic reductions), so iteration counts
        // must agree exactly.
        let n = 64;
        let a = spd(n);
        let rhs = vec![1.0; n];
        let mut iters = Vec::new();
        for nranks in [1usize, 2, 4] {
            let a2 = a.clone();
            let rhs2 = rhs.clone();
            let out = run(nranks, move |comm| {
                let dm = DistMat::<Csr>::from_global_csr(comm, &a2, 1);
                let me = dm.row_range();
                let b_local = rhs2[me.start..me.end].to_vec();
                let mut x = vec![0.0; me.len()];
                // Jacobi PC from the local diagonal block (diagonal of the
                // global matrix lives entirely in the diag block).
                let pc = JacobiPc::from_csr(dm.diag());
                let res = gmres(
                    &DistOp { comm, mat: &dm },
                    &pc,
                    &DistDot { comm },
                    &b_local,
                    &mut x,
                    &KspConfig {
                        rtol: 1e-8,
                        ..Default::default()
                    },
                );
                res.iterations
            });
            iters.push(out[0]);
        }
        assert_eq!(iters[0], iters[1]);
        assert_eq!(iters[1], iters[2]);
    }
}
