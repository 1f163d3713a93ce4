//! Coordinate-format builder: the assembly front door for unordered input.
//!
//! PETSc applications assemble matrices entry-by-entry (`MatSetValues`);
//! [`CooBuilder`] plays that role here.  Duplicate insertions are summed, as
//! with PETSc's default `ADD_VALUES` assembly.  [`CooBuilder::to_csr`]
//! buckets the triplets by row (a stable counting sort, so each row keeps
//! its push order) and hands every row to a [`RowAssembler`]: the two
//! builders share one row rule and give the same matrix for the same
//! pushes, bit for bit.
//! Producers whose rows arrive in order use the assembler directly.

use crate::assemble::RowAssembler;
use crate::csr::Csr;

/// An unsorted triplet (COO) accumulation buffer.
#[derive(Clone, Debug, Default)]
pub struct CooBuilder {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl CooBuilder {
    /// Creates an empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        assert!(
            nrows <= u32::MAX as usize && ncols <= u32::MAX as usize,
            "matrix dimensions exceed 32-bit index space"
        );
        Self {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates a builder with preallocated space for `nnz_estimate` entries
    /// (PETSc's `MatXAIJSetPreallocation` analogue — §5.2 notes `rlen` is
    /// used for preallocation and assembly).
    pub fn with_capacity(nrows: usize, ncols: usize, nnz_estimate: usize) -> Self {
        let mut b = Self::new(nrows, ncols);
        b.rows.reserve(nnz_estimate);
        b.cols.reserve(nnz_estimate);
        b.vals.reserve(nnz_estimate);
        b
    }

    /// Adds `v` to entry `(i, j)`.  Duplicates accumulate.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows, "row {i} out of bounds ({})", self.nrows);
        debug_assert!(j < self.ncols, "col {j} out of bounds ({})", self.ncols);
        self.rows.push(i as u32);
        self.cols.push(j as u32);
        self.vals.push(v);
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Raw (pre-deduplication) row indices, parallel to [`Self::cols`].
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Raw (pre-deduplication) column indices, parallel to [`Self::rows`].
    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// Raw (pre-deduplication) values, parallel to [`Self::rows`].
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Assembles into CSR: each row's pairs, in push order, go through a
    /// [`RowAssembler`], which puts them in column order, sums duplicates
    /// left to right and keeps explicit zeros (PETSc keeps them too — they
    /// hold the sparsity pattern for later `MatSetValues` calls with the
    /// same nonzero structure).
    pub fn to_csr(&self) -> Csr {
        // Stable counting sort of the triplet indices by row.
        let mut start = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            start[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut order = vec![0usize; self.rows.len()];
        for (k, &r) in self.rows.iter().enumerate() {
            order[next[r as usize]] = k;
            next[r as usize] += 1;
        }
        let mut out = RowAssembler::with_capacity(self.nrows, self.ncols, self.vals.len());
        for row in start.windows(2) {
            for &k in &order[row[0]..row[1]] {
                out.push(self.cols[k] as usize, self.vals[k]);
            }
            out.end_row();
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecCtx;
    use crate::traits::{Apply, MatShape, Operator};

    #[test]
    fn empty_matrix_assembles() {
        let b = CooBuilder::new(3, 5);
        let a = b.to_csr();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 5);
        assert_eq!(a.nnz(), 0);
        let mut y = vec![1.0; 3];
        a.apply(
            &ExecCtx::serial(),
            (&[0.0; 5]).into(),
            (&mut y).into(),
            Apply::Set,
        );
        assert_eq!(y, vec![0.0; 3]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.5);
        b.push(0, 1, 2.5);
        b.push(1, 0, -1.0);
        let a = b.to_csr();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 1), Some(4.0));
        assert_eq!(a.get(1, 0), Some(-1.0));
        assert_eq!(a.get(0, 0), None);
    }

    #[test]
    fn out_of_order_insertion_sorts() {
        let mut b = CooBuilder::new(3, 3);
        b.push(2, 2, 9.0);
        b.push(0, 2, 3.0);
        b.push(0, 0, 1.0);
        b.push(1, 1, 5.0);
        let a = b.to_csr();
        assert_eq!(a.row_cols(0), &[0, 2]);
        assert_eq!(a.row_vals(0), &[1.0, 3.0]);
        assert_eq!(a.row_cols(2), &[2]);
    }

    #[test]
    fn explicit_zeros_are_kept() {
        let mut b = CooBuilder::new(1, 2);
        b.push(0, 0, 0.0);
        b.push(0, 1, 2.0);
        let a = b.to_csr();
        assert_eq!(a.nnz(), 2, "explicit zero must stay in the pattern");
    }

    #[test]
    fn duplicate_merge_respects_row_boundaries() {
        // Same column index in consecutive rows must NOT merge.
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(1, 1, 1.0);
        let a = b.to_csr();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 1), Some(1.0));
        assert_eq!(a.get(1, 0), None);
        assert_eq!(a.get(1, 1), Some(1.0));
    }

    #[test]
    fn duplicate_merge_survives_sell_conversion_with_ragged_tails() {
        // Duplicates that merge near a slice boundary must not perturb the
        // padded layout: exercise every tail length nrows % C ∈ 1..C for
        // C ∈ {4, 8, 16}, with heavy duplication in the last (partial)
        // slice and across the boundary row.
        use crate::sell::Sell;
        use crate::sell_sigma::SellSigma;
        for c in [4usize, 8, 16] {
            for tail in 1..c {
                let n = c + tail; // one full slice + a ragged tail
                let mut b = CooBuilder::new(n, n);
                for i in 0..n {
                    // Each row: its diagonal assembled from three pushes,
                    // plus a duplicated off-diagonal in the tail rows.
                    b.push(i, i, 1.0);
                    b.push(i, i, 2.0);
                    b.push(i, i, 4.0);
                    if i >= c {
                        b.push(i, 0, 0.5);
                        b.push(i, 0, 0.25);
                    }
                }
                let a = b.to_csr();
                assert_eq!(a.nnz(), n + tail, "C={c} tail={tail}");
                let check = |got: Csr, label: &str| {
                    assert_eq!(
                        got.to_dense(),
                        a.to_dense(),
                        "C={c} tail={tail} {label} must match merged CSR"
                    );
                };
                match c {
                    4 => {
                        check(Sell::<4>::from_csr(&a).to_csr(), "sell");
                        check(
                            SellSigma::<4>::from_csr_sigma(&a, 2 * c).to_csr(),
                            "sell_c_sigma",
                        );
                    }
                    8 => {
                        check(Sell::<8>::from_csr(&a).to_csr(), "sell");
                        check(
                            SellSigma::<8>::from_csr_sigma(&a, 2 * c).to_csr(),
                            "sell_c_sigma",
                        );
                    }
                    _ => {
                        check(Sell::<16>::from_csr(&a).to_csr(), "sell");
                        check(
                            SellSigma::<16>::from_csr_sigma(&a, 2 * c).to_csr(),
                            "sell_c_sigma",
                        );
                    }
                }
                // The merged duplicates must also multiply correctly through
                // the padded kernels: diagonal 7.0, tail rows + 0.75·x[0].
                let x: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
                let mut y = vec![0.0; n];
                match c {
                    4 => Sell::<4>::from_csr(&a).apply(
                        &ExecCtx::serial(),
                        (&x).into(),
                        (&mut y).into(),
                        Apply::Set,
                    ),
                    8 => Sell::<8>::from_csr(&a).apply(
                        &ExecCtx::serial(),
                        (&x).into(),
                        (&mut y).into(),
                        Apply::Set,
                    ),
                    _ => Sell::<16>::from_csr(&a).apply(
                        &ExecCtx::serial(),
                        (&x).into(),
                        (&mut y).into(),
                        Apply::Set,
                    ),
                }
                for i in 0..n {
                    let want = 7.0 * x[i] + if i >= c { 0.75 * x[0] } else { 0.0 };
                    assert_eq!(y[i], want, "C={c} tail={tail} row {i}");
                }
            }
        }
    }
}
