//! Row-distributed sparse matrix: diagonal block + compressed off-diagonal
//! block, generic over the sequential storage format (Figure 2 + §2.2).

use std::cell::RefCell;

use sellkit_core::{matops, Apply, Csr, ExecCtx, FromCsr, MatShape, Operator, RowAssembler};
use sellkit_mpisim::Comm;

use crate::partition::{split_rows, RowRange};
use crate::scatter::VecScatter;

/// A parallel sparse matrix distributed by contiguous row blocks.
///
/// `M` is the sequential format of both local blocks (CSR, SELL-8, …); the
/// parallel layer is format-agnostic, which is how the paper swaps SELL
/// into the full PETSc solver stack without touching the MatMult protocol.
///
/// ```
/// use sellkit_core::{Csr, Sell8, Operator};
/// use sellkit_dist::{DistMat, DistVec};
/// use sellkit_mpisim::run;
///
/// let a = Csr::from_dense(4, 4, &[
///     2.0, -1.0, 0.0, -1.0,
///     -1.0, 2.0, -1.0, 0.0,
///     0.0, -1.0, 2.0, -1.0,
///     -1.0, 0.0, -1.0, 2.0,
/// ]);
/// let out = run(2, move |comm| {
///     let dm = DistMat::<Sell8>::from_global_csr(comm, &a, 1);
///     let x = DistVec::from_fn(comm, 4, |g| g as f64);
///     let mut y = DistVec::zeros(comm, 4);
///     dm.mult(comm, x.local(), y.local_mut()); // overlapped parallel SpMV
///     y.gather_all(comm)
/// });
/// assert_eq!(out[0], vec![-4.0, 0.0, 0.0, 4.0]);
/// ```
#[derive(Debug)]
pub struct DistMat<M> {
    row_range: RowRange,
    global_rows: usize,
    global_cols: usize,
    diag: M,
    offdiag: M,
    /// Global column index of each compressed off-diagonal column
    /// (PETSc's `garray`), sorted ascending.
    garray: Vec<u32>,
    scatter: VecScatter,
    /// Scratch ghost buffer reused across products.
    ghost: RefCell<Vec<f64>>,
}

impl<M: Operator + FromCsr> DistMat<M> {
    /// Builds from this rank's row block, whose column indices are
    /// **global**.  Collective; `tag` must be unique per matrix so scatter
    /// traffic cannot mix.
    ///
    /// The local row block must have `split_rows(global_rows)[rank]` rows.
    pub fn from_local_rows(
        comm: &Comm,
        global_rows: usize,
        global_cols: usize,
        local: &Csr,
        tag: u64,
    ) -> Self {
        let row_ranges = split_rows(global_rows, comm.size());
        let col_ranges = split_rows(global_cols, comm.size());
        let row_range = row_ranges[comm.rank()];
        let my_cols = col_ranges[comm.rank()];
        assert_eq!(
            local.nrows(),
            row_range.len(),
            "local block has wrong number of rows"
        );
        assert_eq!(
            local.ncols(),
            global_cols,
            "local block must use global column indices"
        );

        let m = local.nrows();
        let diag_csr = matops::submatrix(local, 0..m, my_cols.start..my_cols.end);
        // Compress off-diagonal columns: garray maps ghost slot → global col.
        let ghost = |c: &u32| !my_cols.contains(*c as usize);
        let mut garray: Vec<u32> = local.colidx().iter().copied().filter(ghost).collect();
        garray.sort_unstable();
        garray.dedup();
        let mut off = RowAssembler::with_capacity(m, garray.len(), local.nnz() - diag_csr.nnz());
        for i in 0..m {
            for (c, &v) in local.row_cols(i).iter().zip(local.row_vals(i)) {
                if ghost(c) {
                    let slot = garray.binary_search(c).expect("column present in garray");
                    off.push(slot, v);
                }
            }
            off.end_row();
        }
        let off_csr = off.finish();
        let scatter = VecScatter::build(comm, &col_ranges, &garray, tag);

        Self {
            row_range,
            global_rows,
            global_cols,
            diag: M::from_csr(&diag_csr),
            offdiag: M::from_csr(&off_csr),
            ghost: RefCell::new(vec![0.0; garray.len()]),
            garray,
            scatter,
        }
    }

    /// Convenience constructor: every rank holds the same global CSR and
    /// extracts its own row block (tests/examples; real applications
    /// assemble only local rows).
    pub fn from_global_csr(comm: &Comm, a: &Csr, tag: u64) -> Self {
        let me = split_rows(a.nrows(), comm.size())[comm.rank()];
        let local = matops::submatrix(a, me.start..me.end, 0..a.ncols());
        Self::from_local_rows(comm, a.nrows(), a.ncols(), &local, tag)
    }

    /// Parallel `y = A·x` — the four-step overlapped MatMult of §2.2.
    ///
    /// `x_local`/`y_local` are this rank's owned blocks of the distributed
    /// vectors.
    pub fn mult(&self, comm: &Comm, x_local: &[f64], y_local: &mut [f64]) {
        self.mult_ctx(comm, &ExecCtx::serial(), x_local, y_local);
    }

    /// Parallel `y = A·x` with a shared-memory execution context: the
    /// paper's hybrid MPI×threads MatMult.  Both local products (diagonal
    /// and off-diagonal block) run on `ctx`'s worker pool; the scatter
    /// stays on the calling thread, overlapped with the diagonal product
    /// as in [`DistMat::mult`].
    pub(crate) fn mult_ctx(
        &self,
        comm: &Comm,
        ctx: &ExecCtx,
        x_local: &[f64],
        y_local: &mut [f64],
    ) {
        assert_eq!(x_local.len(), self.diag.ncols(), "x block length mismatch");
        assert_eq!(
            y_local.len(),
            self.row_range.len(),
            "y block length mismatch"
        );
        let mut ghost = self.ghost.borrow_mut();
        // Every guard below is inert while logging is off, and the traffic
        // model is not evaluated.
        let _mm = sellkit_obs::enabled().then(|| {
            let td = self.diag.spmv_traffic();
            let to = self.offdiag.spmv_traffic();
            sellkit_obs::span_traffic(
                "MatMult",
                (td.flops + to.flops) as f64,
                (td.bytes + to.bytes) as f64,
            )
        });
        sellkit_obs::counter("halo.msgs", self.scatter.nmsgs() as f64);
        sellkit_obs::counter("halo.bytes", (self.scatter.send_volume() * 8) as f64);
        // (1) post nonblocking transfers of nonlocal x entries;
        let pending = {
            let _sb = sellkit_obs::span("VecScatterBegin");
            self.scatter.begin(comm, x_local, &mut ghost)
        };
        // (2) diagonal block × local x — the communication-hiding window:
        // its duration is halo latency hidden behind compute;
        {
            let _d = sellkit_obs::span("MatMultDiag");
            self.diag
                .apply(ctx, (x_local).into(), (y_local).into(), Apply::Set);
        }
        // (3) wait for the transfers — the wait that was *not* hidden;
        {
            let _se = sellkit_obs::span("VecScatterEnd");
            self.scatter.end(comm, pending, &mut ghost);
        }
        // (4) off-diagonal block × ghost entries, accumulated (fused).
        let _o = sellkit_obs::span("MatMultOffdiag");
        self.offdiag
            .apply(ctx, (&ghost[..]).into(), (y_local).into(), Apply::Add);
    }

    /// This rank's row range.
    pub fn row_range(&self) -> RowRange {
        self.row_range
    }

    /// The VecScatter plan (for transpose products and diagnostics).
    pub fn scatter(&self) -> &VecScatter {
        &self.scatter
    }

    /// The sequential diagonal block.
    pub fn diag(&self) -> &M {
        &self.diag
    }

    /// Ghost slot → global column map.
    pub fn garray(&self) -> &[u32] {
        &self.garray
    }

    /// Values this rank sends per MatMult (communication volume).
    pub fn comm_volume(&self) -> usize {
        self.scatter.send_volume()
    }
}

impl DistMat<Csr> {
    /// Parallel transpose product `y = Aᵀ·x` (square matrices).
    ///
    /// The structure mirrors the forward MatMult with the communication
    /// *reversed*: the off-diagonal block's transpose produces
    /// contributions to *remote* rows (one per ghost column), which a
    /// reverse-ADD scatter ships back to their owners.  Only available on
    /// CSR blocks, which carry a transpose kernel — matching PETSc, where
    /// `MatMultTranspose` support is per-format.
    pub fn mult_transpose(&self, comm: &Comm, x_local: &[f64], y_local: &mut [f64]) {
        assert_eq!(
            self.global_rows, self.global_cols,
            "transpose product needs square layout"
        );
        assert_eq!(x_local.len(), self.row_range.len());
        assert_eq!(y_local.len(), self.diag.ncols());
        // Local part: diagᵀ · x.
        self.diag.spmv_transpose(x_local, y_local);
        // Remote contributions: offdiagᵀ · x, one value per ghost column.
        let mut contrib = vec![0.0; self.garray.len()];
        self.offdiag.spmv_transpose(x_local, &mut contrib);
        // Ship them home and accumulate.
        self.scatter.reverse_add(comm, &contrib, y_local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvec::DistVec;
    use sellkit_core::{CooBuilder, Sell8};
    use sellkit_mpisim::run;

    fn banded(n: usize, band: usize) -> Csr {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            for d in 0..=band {
                b.push(i, (i + d) % n, (i * 31 + d * 7 + 1) as f64 * 0.01);
                if d > 0 {
                    b.push(i, (i + n - d) % n, (i * 17 + d) as f64 * 0.01);
                }
            }
        }
        b.to_csr()
    }

    fn check_parallel_equals_sequential<M: Operator + FromCsr>(nranks: usize, n: usize) {
        let a = banded(n, 3);
        let x: Vec<f64> = (0..n).map(|g| (g as f64 * 0.13).sin()).collect();
        let mut want = vec![0.0; n];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );

        let a2 = a.clone();
        let out = run(nranks, move |comm| {
            let dm = DistMat::<M>::from_global_csr(comm, &a2, 1);
            let xv = DistVec::from_fn(comm, n, |g| (g as f64 * 0.13).sin());
            let mut yv = DistVec::zeros(comm, n);
            dm.mult(comm, xv.local(), yv.local_mut());
            yv.gather_all(comm)
        });
        for y in out {
            for i in 0..n {
                assert!(
                    (y[i] - want[i]).abs() < 1e-12,
                    "row {i}: {} vs {}",
                    y[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn csr_parallel_matches_sequential() {
        check_parallel_equals_sequential::<Csr>(4, 50);
    }

    #[test]
    fn sell_parallel_matches_sequential() {
        check_parallel_equals_sequential::<Sell8>(4, 50);
    }

    #[test]
    fn single_rank_degenerates_to_sequential() {
        check_parallel_equals_sequential::<Csr>(1, 23);
    }

    /// More ranks than rows: trailing ranks own zero rows and must still
    /// participate in the scatter without panicking or corrupting `y`.
    fn check_zero_row_ranks<M: Operator + FromCsr>(nranks: usize, n: usize, threads: usize) {
        let a = banded(n, 2);
        let x: Vec<f64> = (0..n).map(|g| (g as f64 * 0.13).sin()).collect();
        let mut want = vec![0.0; n];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );

        let a2 = a.clone();
        let out = run(nranks, move |comm| {
            let dm = DistMat::<M>::from_global_csr(comm, &a2, 1);
            let me = dm.row_range();
            // Trailing ranks really do own nothing.
            if comm.rank() >= n {
                assert_eq!(me.len(), 0);
            }
            let xv = DistVec::from_fn(comm, n, |g| (g as f64 * 0.13).sin());
            let mut yv = DistVec::zeros(comm, n);
            let ctx = ExecCtx::new(threads);
            dm.mult_ctx(comm, &ctx, xv.local(), yv.local_mut());
            yv.gather_all(comm)
        });
        for y in out {
            for i in 0..n {
                assert!(
                    (y[i] - want[i]).abs() < 1e-12,
                    "row {i}: {} vs {}",
                    y[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn csr_zero_row_ranks() {
        check_zero_row_ranks::<Csr>(7, 5, 2);
    }

    #[test]
    fn sell_zero_row_ranks() {
        check_zero_row_ranks::<Sell8>(7, 5, 4);
    }

    /// A fully empty distributed matrix (rows, no entries) across more
    /// ranks than rows: every layer — plan build, pool dispatch, scatter
    /// — must treat it as a no-op and return exact zeros.
    #[test]
    fn empty_distributed_matrix_is_zero() {
        let n = 3usize;
        let a = CooBuilder::new(n, n).to_csr();
        let out = run(5, move |comm| {
            let dm = DistMat::<Sell8>::from_global_csr(comm, &a, 1);
            let xv = DistVec::from_fn(comm, n, |g| g as f64 + 1.0);
            let mut yv = DistVec::zeros(comm, n);
            let ctx = ExecCtx::new(2);
            dm.mult_ctx(comm, &ctx, xv.local(), yv.local_mut());
            yv.gather_all(comm)
        });
        for y in out {
            assert!(y.iter().all(|&v| v.to_bits() == 0.0f64.to_bits()), "{y:?}");
        }
    }

    #[test]
    fn many_ranks_small_matrix() {
        check_parallel_equals_sequential::<Sell8>(7, 19);
    }

    #[test]
    fn mult_ctx_matches_serial_mult_bitwise() {
        // Hybrid ranks × threads: each rank's local products on a worker
        // pool must reproduce the serial per-rank result bit for bit.
        let n = 50;
        let a = banded(n, 3);
        let serial = {
            let a2 = a.clone();
            run(3, move |comm| {
                let dm = DistMat::<Sell8>::from_global_csr(comm, &a2, 1);
                let xv = DistVec::from_fn(comm, n, |g| (g as f64 * 0.13).sin());
                let mut yv = DistVec::zeros(comm, n);
                dm.mult(comm, xv.local(), yv.local_mut());
                yv.gather_all(comm)
            })
        };
        for threads in [2usize, 4] {
            let a2 = a.clone();
            let out = run(3, move |comm| {
                let ctx = ExecCtx::new(threads);
                let dm = DistMat::<Sell8>::from_global_csr(comm, &a2, 1);
                let xv = DistVec::from_fn(comm, n, |g| (g as f64 * 0.13).sin());
                let mut yv = DistVec::zeros(comm, n);
                dm.mult_ctx(comm, &ctx, xv.local(), yv.local_mut());
                yv.gather_all(comm)
            });
            for (y, want) in out.iter().zip(&serial) {
                assert_eq!(y, want, "threads={threads}");
            }
        }
    }

    #[test]
    fn offdiag_is_compressed() {
        let a = banded(40, 2);
        let out = run(4, move |comm| {
            let dm = DistMat::<Csr>::from_global_csr(comm, &a, 1);
            let local_nnz = dm.diag.nnz() + dm.offdiag.nnz();
            (dm.garray().len(), dm.offdiag.ncols(), local_nnz)
        });
        let total: usize = out.iter().map(|(_, _, nnz)| nnz).sum();
        assert_eq!(total, banded(40, 2).nnz());
        for (glen, offcols, _) in out {
            assert_eq!(glen, offcols, "offdiag width equals ghost count");
            // Band ±2 with wraparound: at most 4 ghost columns per rank.
            assert!(glen <= 4, "compressed off-diag must be narrow, got {glen}");
        }
    }

    #[test]
    fn transpose_mult_matches_sequential_transpose() {
        let a = banded(48, 3); // unsymmetric values
        let n = 48;
        let x: Vec<f64> = (0..n).map(|g| (g as f64 * 0.17).sin()).collect();
        let mut want = vec![0.0; n];
        a.spmv_transpose(&x, &mut want);
        for ranks in [1usize, 2, 4, 5] {
            let a2 = a.clone();
            let x2 = x.clone();
            let out = run(ranks, move |comm| {
                let dm = DistMat::<Csr>::from_global_csr(comm, &a2, 9);
                let me = dm.row_range();
                let mut y = vec![0.0; me.len()];
                dm.mult_transpose(comm, &x2[me.start..me.end], &mut y);
                let mut yv = DistVec::zeros(comm, n);
                yv.local_mut().copy_from_slice(&y);
                yv.gather_all(comm)
            });
            for y in out {
                for i in 0..n {
                    assert!((y[i] - want[i]).abs() < 1e-11, "{ranks} ranks row {i}");
                }
            }
        }
    }

    #[test]
    fn forward_then_transpose_is_consistent_with_gram_matrix() {
        // xᵀ(Aᵀ(Ax)) computed distributed equals ‖Ax‖² sequential.
        let a = banded(30, 2);
        let x: Vec<f64> = (0..30).map(|g| 1.0 / (g + 1) as f64).collect();
        let mut ax = vec![0.0; 30];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut ax).into(),
            Apply::Set,
        );
        let want: f64 = ax.iter().map(|v| v * v).sum();
        let a2 = a.clone();
        let out = run(3, move |comm| {
            let dm = DistMat::<Csr>::from_global_csr(comm, &a2, 4);
            let me = dm.row_range();
            let mut y = vec![0.0; me.len()];
            dm.mult(comm, &x[me.start..me.end], &mut y);
            let mut z = vec![0.0; me.len()];
            dm.mult_transpose(comm, &y, &mut z);
            let local: f64 = (me.start..me.end).map(|g| x[g] * z[g - me.start]).sum();
            comm.allreduce_sum(local)
        });
        for v in out {
            assert!((v - want).abs() < 1e-10, "{v} vs {want}");
        }
    }

    #[test]
    fn halo_telemetry_records_messages_and_bytes() {
        let n = 40;
        let a = banded(n, 2);
        sellkit_obs::set_enabled(true);
        run(4, move |comm| {
            let dm = DistMat::<Csr>::from_global_csr(comm, &a, 21);
            let xv = DistVec::from_fn(comm, n, |g| g as f64);
            let mut yv = DistVec::zeros(comm, n);
            dm.mult(comm, xv.local(), yv.local_mut());
        });
        sellkit_obs::set_enabled(false);
        let rep = sellkit_obs::report();
        let mm = rep.event("MatMult").expect("distributed MatMult recorded");
        assert!(mm.count >= 4, "one MatMult per rank, got {}", mm.count);
        assert!(mm.bytes > 0.0, "modeled traffic must be attributed");
        assert!(
            rep.counters.get("halo.msgs").copied().unwrap_or(0.0) > 0.0,
            "halo messages must be counted"
        );
        assert!(
            rep.counters.get("halo.bytes").copied().unwrap_or(0.0) > 0.0,
            "halo bytes must be counted"
        );
        for name in [
            "VecScatterBegin",
            "MatMultDiag",
            "VecScatterEnd",
            "MatMultOffdiag",
        ] {
            assert!(rep.event(name).is_some(), "{name} must be recorded");
        }
    }

    #[test]
    fn repeated_mults_are_stable() {
        let a = banded(30, 1);
        let x: Vec<f64> = (0..30).map(|g| g as f64).collect();
        let mut want = vec![0.0; 30];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        let a2 = a.clone();
        let out = run(3, move |comm| {
            let dm = DistMat::<Sell8>::from_global_csr(comm, &a2, 1);
            let xv = DistVec::from_fn(comm, 30, |g| g as f64);
            let mut yv = DistVec::zeros(comm, 30);
            for _ in 0..10 {
                dm.mult(comm, xv.local(), yv.local_mut());
            }
            yv.gather_all(comm)
        });
        for y in out {
            for i in 0..30 {
                assert!((y[i] - want[i]).abs() < 1e-12);
            }
        }
    }
}
