//! Compressed sparse row storage (PETSc `AIJ`), the baseline format.
//!
//! Three arrays (Figure 3 of the paper): `val` stores nonzeros row-wise,
//! `rowptr[i]` is the position of row `i`'s first nonzero, and `colidx`
//! holds the column index of each nonzero.  Column indices are 4-byte
//! integers, matching the traffic model of §6 (`12·nnz` counts 8 bytes of
//! value + 4 bytes of index per nonzero).

use crate::assemble::RowAssembler;
use crate::exec::ExecCtx;
use crate::isa::Isa;
use crate::kernels;
use crate::multivec::{VecView, VecViewMut};
use crate::traits::{check_apply_dims, check_spmv_dims, Apply, MatShape, Operator};

/// A CSR matrix.  It keeps the `Vec`s it is built from: a row starts
/// wherever the previous one ended, so no load of the CSR kernels could use
/// a 64-byte base and none is asked for.
#[derive(Clone, Debug)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<u32>,
    val: Vec<f64>,
    isa: Isa,
}

impl Csr {
    /// Builds a CSR matrix from raw parts, validating the invariants; the
    /// three arrays are moved in, not copied.
    ///
    /// Panics if `rowptr` is not monotone of length `nrows + 1`, if array
    /// lengths disagree, or if a column index is out of range.  Column
    /// indices within each row must be strictly increasing (sorted rows are
    /// assumed by the off-diagonal splitting and the SELL conversion).
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<u32>,
        val: Vec<f64>,
    ) -> Self {
        assert_eq!(colidx.len(), val.len(), "colidx/val length mismatch");
        Self::checked(nrows, ncols, rowptr, colidx, val)
    }

    /// A matrix that stores `+0.0` at every position of the given pattern
    /// (validated as by [`Csr::from_parts`]) — what a symbolic phase hands
    /// to the numeric one.
    pub fn zeros_with_pattern(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<u32>,
    ) -> Self {
        let val = vec![0.0; colidx.len()];
        Self::checked(nrows, ncols, rowptr, colidx, val)
    }

    fn checked(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<u32>,
        val: Vec<f64>,
    ) -> Self {
        assert_eq!(rowptr.len(), nrows + 1, "rowptr must have nrows+1 entries");
        assert_eq!(rowptr[0], 0, "rowptr must start at 0");
        assert_eq!(*rowptr.last().expect("nonempty rowptr"), colidx.len());
        for i in 0..nrows {
            assert!(rowptr[i] <= rowptr[i + 1], "rowptr not monotone at row {i}");
            let row = &colidx[rowptr[i]..rowptr[i + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {i} columns not strictly increasing");
            }
            if let Some(&c) = row.last() {
                assert!((c as usize) < ncols, "column {c} out of range in row {i}");
            }
        }
        Self {
            nrows,
            ncols,
            rowptr,
            colidx,
            val,
            isa: Isa::detect(),
        }
    }

    /// Builds a dense `nrows × ncols` matrix given row-major entries,
    /// dropping exact zeros.  Convenience for tests and examples.
    pub fn from_dense(nrows: usize, ncols: usize, dense: &[f64]) -> Self {
        assert_eq!(dense.len(), nrows * ncols);
        let mut out = RowAssembler::new(nrows, ncols);
        for i in 0..nrows {
            for (j, &v) in dense[i * ncols..(i + 1) * ncols].iter().enumerate() {
                if v != 0.0 {
                    out.push(j, v);
                }
            }
            out.end_row();
        }
        out.finish()
    }

    /// Returns a dense row-major copy (tests/examples only).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows * self.ncols];
        for i in 0..self.nrows {
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                d[i * self.ncols + self.colidx[k] as usize] = self.val[k];
            }
        }
        d
    }

    /// Overrides the ISA used by [`Operator::apply`] (panics if unavailable on
    /// this CPU).  Benches use this to compare tiers on one machine.
    pub fn with_isa(mut self, isa: Isa) -> Self {
        assert!(isa.available(), "ISA {isa} not available on this CPU");
        self.isa = isa;
        self
    }

    /// The ISA this matrix dispatches to.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Column index array.
    pub fn colidx(&self) -> &[u32] {
        &self.colidx
    }

    /// Value array.
    pub fn values(&self) -> &[f64] {
        &self.val
    }

    /// Whether `other` has this matrix's shape and stores exactly the same
    /// positions — an array comparison, not a hash.
    pub fn same_pattern(&self, other: &Csr) -> bool {
        (self.nrows, self.ncols) == (other.nrows, other.ncols)
            && self.rowptr == other.rowptr
            && self.colidx == other.colidx
    }

    /// Mutable value array (same sparsity pattern; used by Jacobian
    /// re-assembly to overwrite values in place).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.val
    }

    /// The pattern next to the mutable values: what an in-place numeric
    /// update (`MatDiagonalScale`, the numeric phase of a kept product)
    /// reads and writes at once.
    pub fn pattern_and_values_mut(&mut self) -> (&[usize], &[u32], &mut [f64]) {
        (&self.rowptr, &self.colidx, &mut self.val)
    }

    /// Column indices of row `i`.
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.colidx[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Values of row `i`.
    pub fn row_vals(&self, i: usize) -> &[f64] {
        &self.val[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Number of nonzeros in row `i`.
    pub fn row_len(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// The stored value at `(i, j)`, or `None` if outside the pattern.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        let cols = self.row_cols(i);
        cols.binary_search(&(j as u32))
            .ok()
            .map(|k| self.row_vals(i)[k])
    }

    /// Maximum nonzeros in any row (the ELLPACK width `L`).
    pub fn max_row_len(&self) -> usize {
        (0..self.nrows).map(|i| self.row_len(i)).max().unwrap_or(0)
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Csr {
        let mut cnt = vec![0usize; self.ncols + 1];
        for &c in &self.colidx {
            cnt[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            cnt[j + 1] += cnt[j];
        }
        let rowptr_t = cnt.clone();
        let mut colidx_t = vec![0u32; self.colidx.len()];
        let mut val_t = vec![0.0; self.val.len()];
        let mut next = cnt;
        for i in 0..self.nrows {
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                let j = self.colidx[k] as usize;
                let p = next[j];
                colidx_t[p] = i as u32;
                val_t[p] = self.val[k];
                next[j] += 1;
            }
        }
        Csr::from_parts(self.ncols, self.nrows, rowptr_t, colidx_t, val_t)
    }

    /// SpMV with an explicit ISA (ignores the default set by `with_isa`).
    pub fn spmv_isa(&self, isa: Isa, x: &[f64], y: &mut [f64]) {
        check_spmv_dims(self.nrows, self.ncols, x, y);
        self.rows::<false>(isa, 0, self.nrows, x, y, None);
    }

    /// SpMM (`Y = A·X` over a `k`-wide row-interleaved block) with an
    /// explicit ISA — the blocked sibling of [`Csr::spmv_isa`], used by
    /// the differential fuzzer to force each tier in turn.
    pub fn spmm_isa(&self, isa: Isa, x: &[f64], y: &mut [f64], k: usize) {
        assert_eq!(x.len(), self.ncols * k, "x must hold k interleaved vectors");
        assert_eq!(y.len(), self.nrows * k, "y must hold k interleaved vectors");
        self.rows::<false>(isa, 0, self.nrows, x, y, Some(k));
    }

    /// The product over rows `r0..r1` into the matching window `y` — the
    /// whole matrix is the one-part window `0..nrows`.  `block` is `None`
    /// for SpMV, `Some(k)` for the blocked SpMM kernel.
    fn rows<const ADD: bool>(
        &self,
        isa: Isa,
        r0: usize,
        r1: usize,
        x: &[f64],
        y: &mut [f64],
        block: Option<usize>,
    ) {
        // The whole-matrix half of the kernel contract (`from_parts`
        // establishes it; a window carries neither end).
        debug_assert_eq!(self.rowptr[0], 0, "rowptr[0]");
        debug_assert_eq!(self.rowptr[self.nrows], self.val.len(), "rowptr end");
        let (rowptr, colidx, val) = (&self.rowptr[r0..=r1], &self.colidx[..], &self.val[..]);
        match block {
            None => kernels::csr_spmv::<ADD>(isa, rowptr, colidx, val, x, y),
            Some(k) => kernels::csr_spmm::<ADD>(isa, rowptr, colidx, val, x, y, k),
        }
    }

    /// Shared body of both [`Operator::apply`] modes: the whole-matrix
    /// product on a serial context, an nnz-balanced row partition (one
    /// window per lane) on a pool — the same for SpMV and SpMM.
    fn apply_parts<const ADD: bool>(&self, ctx: &ExecCtx, x: &[f64], y: &mut [f64], k: usize) {
        let block = (k != 1).then_some(k);
        ctx.dispatch_weighted(&self.rowptr, 1, y, k, &|r0, r1, win| {
            self.rows::<ADD>(self.isa, r0, r1, x, win, block);
        });
    }
}

impl MatShape for Csr {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn nnz(&self) -> usize {
        self.val.len()
    }
}

impl Operator for Csr {
    /// Single entry point for SpMV (`k = 1`) and SpMM (`k > 1`); the
    /// accumulate path is fused — no scratch vector at any thread count.
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        check_apply_dims(self.nrows, self.ncols, &x, &y);
        let k = x.k();
        let (xd, yd) = (x.data(), y.into_data());
        match mode {
            Apply::Set => self.apply_parts::<false>(ctx, xd, yd, k),
            Apply::Add => self.apply_parts::<true>(ctx, xd, yd, k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplace1d(n: usize) -> Csr {
        let mut b = crate::coo::CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn dense_round_trip() {
        let d = vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 4.0, 5.0, 0.0, 0.0, 0.0, 6.0];
        let a = Csr::from_dense(3, 4, &d);
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.to_dense(), d);
    }

    #[test]
    fn spmv_matches_dense_reference() {
        let a = laplace1d(17);
        let x: Vec<f64> = (0..17).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; 17];
        a.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
        let d = a.to_dense();
        for i in 0..17 {
            let want: f64 = (0..17).map(|j| d[i * 17 + j] * x[j]).sum();
            assert!((y[i] - want).abs() < 1e-12, "row {i}: {} vs {}", y[i], want);
        }
    }

    #[test]
    fn spmv_add_accumulates() {
        let a = laplace1d(5);
        let x = vec![1.0; 5];
        let mut y = vec![10.0; 5];
        a.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Add);
        assert_eq!(y, vec![11.0, 10.0, 10.0, 10.0, 11.0]);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let d = vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0];
        let a = Csr::from_dense(2, 3, &d);
        let att = a.transpose().transpose();
        assert_eq!(att.to_dense(), d);
        assert_eq!(a.transpose().nrows(), 3);
    }

    #[test]
    fn get_and_row_access() {
        let a = laplace1d(4);
        assert_eq!(a.get(1, 0), Some(-1.0));
        assert_eq!(a.get(1, 1), Some(2.0));
        assert_eq!(a.get(1, 3), None);
        assert_eq!(a.row_len(0), 2);
        assert_eq!(a.row_len(1), 3);
        assert_eq!(a.max_row_len(), 3);
    }

    #[test]
    fn one_long_row_blows_up_ellpack_padding() {
        // §2.5, the pathology motivating slicing: one dense row forces the
        // unsliced ELLPACK width to n, so it would store n² entries.
        let n = 64;
        let mut b = crate::coo::CooBuilder::new(n, n);
        for j in 0..n {
            b.push(0, j, 1.0);
        }
        for i in 1..n {
            b.push(i, i, 1.0);
        }
        let a = b.to_csr();
        assert_eq!(a.nrows() * a.max_row_len(), n * n);
        assert!(crate::sell::Sell8::from_csr(&a).stored_elems() < n * n / 4);
    }

    #[test]
    fn from_parts_keeps_the_buffers_it_is_given() {
        let (rowptr, colidx, val) = (vec![0, 2, 3], vec![0u32, 2, 1], vec![1.0, 2.0, 3.0]);
        let (pr, pc, pv) = (rowptr.as_ptr(), colidx.as_ptr(), val.as_ptr());
        let a = Csr::from_parts(2, 3, rowptr, colidx, val);
        assert_eq!(
            (
                a.rowptr().as_ptr(),
                a.colidx().as_ptr(),
                a.values().as_ptr()
            ),
            (pr, pc, pv)
        );
        let (rowptr, colidx) = (a.rowptr().to_vec(), a.colidx().to_vec());
        let (pr, pc) = (rowptr.as_ptr(), colidx.as_ptr());
        let z = Csr::zeros_with_pattern(2, 3, rowptr, colidx);
        assert_eq!((z.rowptr().as_ptr(), z.colidx().as_ptr()), (pr, pc));
        assert_eq!(z.values(), &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn unsorted_rows_rejected() {
        Csr::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_out_of_range_rejected() {
        Csr::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn transpose_spmv_matches_explicit_transpose() {
        // A = [1 0 2; 0 3 4], so Aᵀ·(2, −1) = (2, −3, 0).
        let d = vec![1.0, 0.0, 2.0, 0.0, 3.0, 4.0];
        let a = Csr::from_dense(2, 3, &d);
        let x = vec![2.0, -1.0];
        let mut y = vec![0.0; 3];
        a.transpose()
            .apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
        assert_eq!(y, vec![2.0, -3.0, 0.0]);
    }

    #[test]
    fn all_isa_tiers_agree() {
        let a = laplace1d(40);
        let x: Vec<f64> = (0..40).map(|i| 0.1 * i as f64).collect();
        let mut want = vec![0.0; 40];
        a.spmv_isa(Isa::Scalar, &x, &mut want);
        for isa in Isa::available_tiers() {
            let mut got = vec![0.0; 40];
            a.spmv_isa(isa, &x, &mut got);
            for i in 0..40 {
                assert!((got[i] - want[i]).abs() < 1e-12, "{isa} row {i}");
            }
        }
    }
}
