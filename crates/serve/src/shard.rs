//! Tenant sharding: an [`Operator`] that runs each product through the
//! §2.2 distributed MatMult across simulated MPI ranks.
//!
//! A [`ShardedOp`] is registered with the [`Server`](crate::Server) like
//! any other tenant; the server's batching layer neither knows nor cares
//! that the apply underneath fans out over a rank communicator.  Each
//! `apply` spins up an `mpisim` world of `ranks` threads, builds the
//! row-distributed matrix ([`DistMat`]) on every rank, runs the
//! overlapped four-step MatMult per right-hand side, and stitches the
//! per-rank row blocks back into the caller's interleaved output.
//!
//! Rebuilding the distributed matrix per apply keeps the type `Send +
//! Sync` without holding rank-affine state between requests; the
//! amortization argument of the service (matrix bytes per RHS) is
//! unchanged because the whole *batch* shares one world.

use sellkit_check::Validate;
use sellkit_core::{Apply, Csr, ExecCtx, MatShape, Operator, VecView, VecViewMut};
use sellkit_dist::dmat::DistMat;
use sellkit_dist::partition::split_rows;

/// A tenant whose products run on the distributed path: `y = A·x` via
/// [`DistMat`] over `ranks` simulated MPI ranks.
pub struct ShardedOp {
    a: Csr,
    ranks: usize,
}

impl ShardedOp {
    /// Wraps `a` for execution over `ranks` simulated ranks.  Each apply
    /// runs in a fresh communicator, whose first [`Comm::new_tag`] the
    /// scatter takes.
    ///
    /// [`Comm::new_tag`]: sellkit_mpisim::Comm::new_tag
    pub fn new(a: Csr, ranks: usize) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        ShardedOp { a, ranks }
    }

    /// Number of ranks each product is sharded across.
    pub fn ranks(&self) -> usize {
        self.ranks
    }
}

impl MatShape for ShardedOp {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn ncols(&self) -> usize {
        self.a.ncols()
    }
    fn nnz(&self) -> usize {
        self.a.nnz()
    }
}

impl Validate for ShardedOp {
    fn validate(&self) -> Result<(), Vec<sellkit_check::Violation>> {
        self.a.validate()
    }
}

impl Operator for ShardedOp {
    /// Distributed blocked product.  The execution context is unused:
    /// parallelism comes from the rank axis here, and nesting a worker
    /// pool inside every rank thread would oversubscribe the host.
    fn apply(&self, _ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        let k = x.k();
        assert_eq!(y.k(), k, "x/y block width mismatch");
        assert_eq!(x.rows(), self.a.ncols(), "x rows must match ncols");
        assert_eq!(y.rows(), self.a.nrows(), "y rows must match nrows");
        if k == 0 {
            return;
        }

        // De-interleave the block into plain columns once; every rank
        // reads its own slice of each column.
        let xd = x.data();
        let n = self.a.ncols();
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|v| (0..n).map(|i| xd[i * k + v]).collect())
            .collect();
        let row_parts = split_rows(self.a.nrows(), self.ranks);
        let col_parts = split_rows(n, self.ranks);

        // One world per apply; the batch's k products share it, so the
        // distribution setup is amortized exactly like the matrix bytes.
        let outs: Vec<Vec<Vec<f64>>> = sellkit_mpisim::run(self.ranks, |comm| {
            sellkit_obs::set_thread_label(&format!("mpisim-rank-{}", comm.rank()));
            let dm = DistMat::<Csr>::from_global_csr(comm, &self.a, comm.new_tag());
            let mine_rows = row_parts[comm.rank()];
            let mine_cols = col_parts[comm.rank()];
            let mut locals = Vec::with_capacity(k);
            for col in &cols {
                let mut y_local = vec![0.0; mine_rows.len()];
                dm.mult(comm, &col[mine_cols.start..mine_cols.end], &mut y_local);
                locals.push(y_local);
            }
            locals
        });

        // Stitch per-rank row blocks back into the interleaved output.
        let yd = y.into_data();
        for (rank, locals) in outs.iter().enumerate() {
            let rows = row_parts[rank];
            for (v, y_local) in locals.iter().enumerate() {
                for (li, g) in (rows.start..rows.end).enumerate() {
                    match mode {
                        Apply::Set => yd[g * k + v] = y_local[li],
                        Apply::Add => yd[g * k + v] += y_local[li],
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::{CooBuilder, MultiVec};

    fn tridiag(n: usize) -> Csr {
        let mut coo = CooBuilder::new(n, n);
        for i in 0..n {
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            coo.push(i, i, 2.0 + i as f64 * 0.25);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn sharded_matches_local_apply() {
        let n = 37; // deliberately not divisible by the rank count
        let a = tridiag(n);
        let sharded = ShardedOp::new(tridiag(n), 3);
        let ctx = ExecCtx::serial();
        for k in [1usize, 2, 5] {
            let mut x = MultiVec::zeros(n, k);
            for v in 0..k {
                let col: Vec<f64> = (0..n)
                    .map(|i| (i * 7 + v * 3) as f64 * 0.125 - 4.0)
                    .collect();
                x.set_column(v, &col);
            }
            let mut want = MultiVec::zeros(n, k);
            a.apply(&ctx, x.view(), want.view_mut(), Apply::Set);
            let mut got = MultiVec::zeros(n, k);
            sharded.apply(&ctx, x.view(), got.view_mut(), Apply::Set);
            assert_eq!(got.as_slice(), want.as_slice(), "k={k} Set");

            // Add mode accumulates on top of existing contents.
            let mut got_add = MultiVec::from_interleaved(n, k, got.as_slice());
            sharded.apply(&ctx, x.view(), got_add.view_mut(), Apply::Add);
            for (g, w) in got_add.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(*g, 2.0 * w, "k={k} Add");
            }
        }
    }

    #[test]
    fn validate_delegates_to_inner_matrix() {
        let op = ShardedOp::new(tridiag(8), 2);
        assert!(op.validate().is_ok());
        assert_eq!(op.nrows(), 8);
        assert_eq!(op.ranks(), 2);
    }
}
