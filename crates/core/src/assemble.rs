//! Row-ordered CSR assembly: PETSc's preallocated, row-oriented
//! `MatSetValues`, and the one place where entries become CSR rows.
//!
//! [`RowAssembler`] takes rows in order and a row's `(col, val)` pairs in
//! any order, sorts each row stably when it is closed — so duplicates of a
//! column are summed left to right in push order, and explicit zeros stay
//! in the pattern — and appends it to the CSR arrays.  Every producer that
//! turns entries into CSR goes through it: the stencil codes, `matops`, the
//! conversions back to CSR, the distributed blocks of `sellkit-dist`, and
//! [`CooBuilder`](crate::coo::CooBuilder), which buckets unordered triplets
//! by row (keeping their push order) and hands each row over.  Both builders
//! therefore produce the same matrix from the same pushes, bit for bit, by
//! construction.
//!
//! Two fills stay direct on purpose: [`Csr::transpose`] moves an existing
//! pattern by a counting sort (routed through a builder it took 1.5–1.8×
//! as long), and SpGEMM's symbolic phase builds a pattern whose values the
//! numeric phase fills later ([`Csr::zeros_with_pattern`]).

use crate::csr::Csr;

/// Builds a CSR matrix one row at a time.
///
/// ```
/// use sellkit_core::{MatShape, RowAssembler};
///
/// // 3x3 periodic second difference; the wrap-around columns arrive out
/// // of order.
/// let mut a = RowAssembler::with_capacity(3, 3, 9);
/// for i in 0..3usize {
///     a.push(i, 2.0);
///     a.push((i + 2) % 3, -1.0);
///     a.push((i + 1) % 3, -1.0);
///     a.end_row();
/// }
/// let csr = a.finish();
/// assert_eq!(csr.nnz(), 9);
/// assert_eq!(csr.row_cols(0), &[0, 1, 2]);
/// assert_eq!(csr.row_vals(0), &[2.0, -1.0, -1.0]);
/// ```
#[derive(Clone, Debug)]
pub struct RowAssembler {
    nrows: usize,
    ncols: usize,
    /// Closed rows: `rowptr.len() - 1` of them.
    rowptr: Vec<usize>,
    colidx: Vec<u32>,
    val: Vec<f64>,
    /// The open row's pairs in push order.
    row: Vec<(u32, f64)>,
}

impl RowAssembler {
    /// Creates an assembler for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self::with_capacity(nrows, ncols, 0)
    }

    /// Creates an assembler with space for `nnz_estimate` stored entries
    /// (PETSc's `MatXAIJSetPreallocation` analogue).
    pub fn with_capacity(nrows: usize, ncols: usize, nnz_estimate: usize) -> Self {
        assert!(
            nrows <= u32::MAX as usize && ncols <= u32::MAX as usize,
            "matrix dimensions exceed 32-bit index space"
        );
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0);
        Self {
            nrows,
            ncols,
            rowptr,
            colidx: Vec::with_capacity(nnz_estimate),
            val: Vec::with_capacity(nnz_estimate),
            row: Vec::new(),
        }
    }

    /// Adds `v` to column `j` of the open row.  Duplicates accumulate.
    #[inline]
    pub fn push(&mut self, j: usize, v: f64) {
        assert!(j < self.ncols, "col {j} out of bounds ({})", self.ncols);
        // Lossless: `ncols` fits 32 bits.
        self.row.push((j as u32, v));
    }

    /// Closes the open row (which may be empty) and opens the next one.
    pub fn end_row(&mut self) {
        assert!(
            self.rowptr.len() <= self.nrows,
            "more than {} rows closed",
            self.nrows
        );
        // Stable: equal columns keep their push order.
        self.row.sort_by_key(|&(c, _)| c);
        let mut last = None;
        for &(c, v) in &self.row {
            match self.val.last_mut() {
                Some(sum) if last == Some(c) => *sum += v,
                _ => {
                    self.colidx.push(c);
                    self.val.push(v);
                    last = Some(c);
                }
            }
        }
        self.row.clear();
        self.rowptr.push(self.colidx.len());
    }

    /// Hands the closed rows to [`Csr::from_parts`], which validates them.
    ///
    /// # Panics
    /// If pairs were pushed after the last [`end_row`](Self::end_row), or
    /// fewer than `nrows` rows were closed.
    pub fn finish(self) -> Csr {
        assert!(self.row.is_empty(), "the open row was never closed");
        assert_eq!(
            self.rowptr.len() - 1,
            self.nrows,
            "rows closed != rows declared"
        );
        Csr::from_parts(self.nrows, self.ncols, self.rowptr, self.colidx, self.val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::MatShape;

    #[test]
    fn unordered_columns_duplicates_and_empty_rows() {
        let mut a = RowAssembler::new(3, 4);
        a.push(3, 1.0);
        a.push(0, 2.0);
        a.push(3, 0.5);
        a.push(3, 0.25);
        a.end_row();
        a.end_row();
        a.push(1, 0.0);
        a.end_row();
        let csr = a.finish();
        assert_eq!(csr.rowptr(), &[0, 2, 2, 3]);
        assert_eq!(csr.row_cols(0), &[0, 3]);
        assert_eq!(csr.row_vals(0), &[2.0, 1.75]);
        assert_eq!(csr.row_vals(2), &[0.0], "explicit zero stays");
    }

    #[test]
    fn duplicates_sum_in_push_order() {
        // (1 + 1e-16) + 1e-16 == 1 but (1e-16 + 1e-16) + 1 > 1: the order
        // of the sum is observable, and it is the order of the pushes.
        let sum = |vals: [f64; 3]| {
            let mut a = RowAssembler::new(1, 1);
            for v in vals {
                a.push(0, v);
            }
            a.end_row();
            a.finish().values()[0]
        };
        assert_eq!(sum([1.0, 1e-16, 1e-16]), 1.0);
        assert!(sum([1e-16, 1e-16, 1.0]) > 1.0);
    }

    #[test]
    fn zero_sized_matrix() {
        let csr = RowAssembler::new(0, 0).finish();
        assert_eq!((csr.nrows(), csr.ncols(), csr.nnz()), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "rows closed != rows declared")]
    fn missing_rows_are_rejected() {
        let mut a = RowAssembler::new(2, 2);
        a.end_row();
        a.finish();
    }

    #[test]
    #[should_panic(expected = "never closed")]
    fn open_row_is_rejected() {
        let mut a = RowAssembler::new(1, 1);
        a.push(0, 1.0);
        a.finish();
    }

    #[test]
    #[should_panic(expected = "more than 1 rows closed")]
    fn extra_rows_are_rejected() {
        let mut a = RowAssembler::new(1, 1);
        a.end_row();
        a.end_row();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn column_out_of_range_is_rejected() {
        RowAssembler::new(1, 2).push(2, 1.0);
    }
}
