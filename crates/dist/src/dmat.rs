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
        assert_eq!(
            local.ncols(),
            global_cols,
            "local block must use global column indices"
        );
        let my_cols = split_rows(global_cols, comm.size())[comm.rank()];
        Self::from_split(comm, global_rows, global_cols, &split(local, my_cols), tag)
    }

    /// [`DistMat::from_local_rows`] on the row block `parts` holds,
    /// [`split`] already.  Collective.
    pub(crate) fn from_split(
        comm: &Comm,
        global_rows: usize,
        global_cols: usize,
        (diag, offdiag, garray): &(Csr, Csr, Vec<u32>),
        tag: u64,
    ) -> Self {
        let row_range = split_rows(global_rows, comm.size())[comm.rank()];
        assert_eq!(
            diag.nrows(),
            row_range.len(),
            "local block has wrong number of rows"
        );
        let col_ranges = split_rows(global_cols, comm.size());
        Self {
            row_range,
            diag: M::from_csr(diag),
            offdiag: M::from_csr(offdiag),
            ghost: RefCell::new(vec![0.0; garray.len()]),
            scatter: VecScatter::build(comm, &col_ranges, garray, tag),
            garray: garray.clone(),
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

    /// Makes this the matrix whose row block [`split`] into `parts`,
    /// keeping the scatter, if no rank's rows reach a ghost column they did
    /// not reach before, nor leave one: then each block takes the new
    /// values ([`FromCsr::set_from_csr`]), the product is that of
    /// [`DistMat::from_split`] on `parts` bit for bit, and every rank
    /// returns `true`.  Otherwise every rank returns `false`, nothing is
    /// changed, and the caller rebuilds on every rank, so that scatters and
    /// [`Comm::new_tag`] draws stay in step.
    ///
    /// Collective: one `allreduce_max` decides.
    pub(crate) fn refresh(
        &mut self,
        comm: &Comm,
        (diag, offdiag, garray): &(Csr, Csr, Vec<u32>),
    ) -> bool {
        // Every rank's diagonal block as wide as before is the global
        // column count unchanged.
        let fits = (diag.nrows(), diag.ncols()) == (self.row_range.len(), self.diag.ncols())
            && *garray == self.garray;
        let mismatch = if fits { 0.0 } else { 1.0 };
        if comm.allreduce_max(mismatch) != 0.0 {
            return false;
        }
        self.diag.set_from_csr(diag);
        self.offdiag.set_from_csr(offdiag);
        true
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

    /// The VecScatter plan (for diagnostics).
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

/// Splits a row block (global columns) as Figure 2 stores it: the diagonal
/// block (the columns `my_cols` this rank owns), the off-diagonal block
/// compressed to the columns it reaches, and `garray`, the global column of
/// each compressed one, ascending.
pub(crate) fn split(local: &Csr, my_cols: RowRange) -> (Csr, Csr, Vec<u32>) {
    let m = local.nrows();
    let diag = matops::submatrix(local, 0..m, my_cols.start..my_cols.end);
    let ghost = |c: &u32| !my_cols.contains(*c as usize);
    let mut garray: Vec<u32> = local.colidx().iter().copied().filter(ghost).collect();
    garray.sort_unstable();
    garray.dedup();
    let mut off = RowAssembler::with_capacity(m, garray.len(), local.nnz() - diag.nnz());
    for i in 0..m {
        for (c, &v) in local.row_cols(i).iter().zip(local.row_vals(i)) {
            if ghost(c) {
                let slot = garray.binary_search(c).expect("column present in garray");
                off.push(slot, v);
            }
        }
        off.end_row();
    }
    (diag, off.finish(), garray)
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
        let at = a.transpose();
        at.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        for ranks in [1usize, 2, 4, 5] {
            let at2 = at.clone();
            let x2 = x.clone();
            let out = run(ranks, move |comm| {
                let dm = DistMat::<Csr>::from_global_csr(comm, &at2, 9);
                let me = dm.row_range();
                let mut y = vec![0.0; me.len()];
                dm.mult(comm, &x2[me.start..me.end], &mut y);
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
            let dmt = DistMat::<Csr>::from_global_csr(comm, &a2.transpose(), 5);
            let me = dm.row_range();
            let mut y = vec![0.0; me.len()];
            dm.mult(comm, &x[me.start..me.end], &mut y);
            let mut z = vec![0.0; me.len()];
            dmt.mult(comm, &y, &mut z);
            let local: f64 = (me.start..me.end).map(|g| x[g] * z[g - me.start]).sum();
            comm.allreduce_sum(local)
        });
        for v in out {
            assert!((v - want).abs() < 1e-10, "{v} vs {want}");
        }
    }

    /// This rank's rows of `a`, global columns.
    fn my_rows(comm: &Comm, a: &Csr) -> Csr {
        let me = split_rows(a.nrows(), comm.size())[comm.rank()];
        matops::submatrix(a, me.start..me.end, 0..a.ncols())
    }

    /// This rank's rows `local` split as a [`DistMat`] of them stores them.
    fn my_split(comm: &Comm, local: &Csr) -> (Csr, Csr, Vec<u32>) {
        split(local, split_rows(local.ncols(), comm.size())[comm.rank()])
    }

    /// The bits of this rank's block of `A·x`, `x_g = sin(0.13 g)`.
    fn product_bits<M: Operator + FromCsr>(comm: &Comm, dm: &DistMat<M>, n: usize) -> Vec<u64> {
        let xv = DistVec::from_fn(comm, n, |g| (g as f64 * 0.13).sin());
        let mut y = vec![0.0; dm.row_range().len()];
        dm.mult(comm, xv.local(), &mut y);
        y.iter().map(|v| v.to_bits()).collect()
    }

    /// A refresh with new values on the same ghost columns returns `true` on
    /// every rank and multiplies, bit for bit, like a fresh build.
    fn check_refresh_equals_rebuild<M: Operator + FromCsr>() {
        let n = 48;
        let a = banded(n, 3);
        // Same pattern, other values.
        let b = matops::shift(&matops::scale(&a, -0.7), 2.5);
        assert!(a.same_pattern(&b));
        for ranks in 1..=4 {
            let (a, b) = (a.clone(), b.clone());
            run(ranks, move |comm| {
                let mut dm = DistMat::<M>::from_local_rows(comm, n, n, &my_rows(comm, &a), 1);
                let local = my_rows(comm, &b);
                assert!(
                    dm.refresh(comm, &my_split(comm, &local)),
                    "{ranks} ranks: refresh refused"
                );
                let fresh = DistMat::<M>::from_local_rows(comm, n, n, &local, 2);
                assert_eq!(
                    product_bits(comm, &dm, n),
                    product_bits(comm, &fresh, n),
                    "{ranks} ranks, rank {}",
                    comm.rank()
                );
            });
        }
    }

    #[test]
    fn refresh_multiplies_like_a_fresh_build() {
        check_refresh_equals_rebuild::<Csr>();
        check_refresh_equals_rebuild::<Sell8>();
    }

    /// Rank 1's rows gain a ghost column: every rank refuses the refresh,
    /// keeps the product it had, and draws its next tag in step.
    fn check_refresh_refused_everywhere<M: Operator + FromCsr>() {
        let n = 48;
        let a = banded(n, 2);
        for ranks in 2..=4 {
            let r1 = split_rows(n, ranks)[1];
            // Half way round the ring from rank 1's first row: owned by no
            // one near it, reached by no row of it.
            let far = (r1.start + n / 2 + 2) % n;
            assert!(!r1.contains(far));
            let mut coo = CooBuilder::new(n, n);
            for i in 0..n {
                for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                    coo.push(i, c as usize, 2.0 * v);
                }
            }
            coo.push(r1.start, far, 1.0);
            let b = coo.to_csr();
            let a = a.clone();
            let out = run(ranks, move |comm| {
                let mut dm = DistMat::<M>::from_local_rows(comm, n, n, &my_rows(comm, &a), 1);
                let before = product_bits(comm, &dm, n);
                let refreshed = dm.refresh(comm, &my_split(comm, &my_rows(comm, &b)));
                assert_eq!(product_bits(comm, &dm, n), before, "rank {}", comm.rank());
                (refreshed, comm.new_tag())
            });
            assert!(out.iter().all(|&(r, _)| !r), "{ranks} ranks: {out:?}");
            assert!(out.iter().all(|&(_, t)| t == out[0].1), "{ranks}: {out:?}");
        }
    }

    #[test]
    fn refresh_is_refused_on_every_rank_when_one_gains_a_ghost_column() {
        check_refresh_refused_everywhere::<Csr>();
        check_refresh_refused_everywhere::<Sell8>();
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
