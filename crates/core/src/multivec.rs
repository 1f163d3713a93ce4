//! Column-blocked multi-vector storage and the unified operand views.
//!
//! A [`MultiVec`] holds `k` right-hand sides *interleaved by row*: row
//! `i` stores its `k` values contiguously at `data[i*k .. i*k + k]`
//! (the `[n × k]` row-major block layout of the `sparse-ops` ELLPACK
//! mat-mul exemplar).  This is the layout the SpMM kernels want: one
//! matrix entry `a_ij` is loaded once, broadcast, and FMA-ed against the
//! contiguous `k`-wide block of row `j` of `X` — no gathers, and the
//! `12·nnz` matrix-traffic term of the §6 model is amortized over all
//! `k` vectors at once.
//!
//! The backing store is 64-byte aligned ([`AVec`]), so for the blocked
//! widths `k ∈ {1, 2, 4, 8}` no row block straddles a cache line (a speed
//! property: the loads are unaligned ones); those widths get monomorphized
//! scalar kernels and single-masked-block SIMD paths (ragged `k`, e.g. 7,
//! runs the same kernels through masked tails).
//!
//! [`VecView`]/[`VecViewMut`] unify plain `&[f64]` vectors (`k = 1`) and
//! `MultiVec` blocks behind one operand type, so the
//! [`Operator`](crate::traits::Operator) trait has a single `apply`
//! entry point for both SpMV and SpMM.

use crate::aligned::AVec;
use crate::exec::ExecCtx;
use crate::traits::Apply;

/// Block widths with monomorphized kernel specializations.  Any other
/// `k ≥ 1` is still supported through the runtime-`k` kernels.
pub const SPECIALIZED_K: [usize; 4] = [1, 2, 4, 8];

/// A dense block of `k` vectors of `rows` rows, interleaved by row
/// (`data[i*k + v]` is row `i` of vector `v`), 64-byte aligned.
///
/// ```
/// use sellkit_core::MultiVec;
///
/// let mv = MultiVec::from_columns(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(mv.k(), 2);
/// assert_eq!(mv.rows(), 2);
/// assert_eq!(mv.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MultiVec {
    data: AVec<f64>,
    rows: usize,
    k: usize,
}

impl MultiVec {
    /// An all-zero block of `k` vectors with `rows` rows each.
    pub fn zeros(rows: usize, k: usize) -> Self {
        assert!(k >= 1, "a MultiVec holds at least one vector");
        Self {
            data: AVec::zeroed(rows * k),
            rows,
            k,
        }
    }

    /// Builds a block from `k` equal-length column vectors.
    pub fn from_columns(cols: &[&[f64]]) -> Self {
        assert!(!cols.is_empty(), "a MultiVec holds at least one vector");
        let rows = cols[0].len();
        let mut mv = Self::zeros(rows, cols.len());
        for (v, col) in cols.iter().enumerate() {
            mv.set_column(v, col);
        }
        mv
    }

    /// Builds a block from an already-interleaved `rows*k` slice.
    pub fn from_interleaved(rows: usize, k: usize, data: &[f64]) -> Self {
        assert!(k >= 1, "a MultiVec holds at least one vector");
        assert_eq!(data.len(), rows * k, "interleaved data must be rows*k long");
        Self {
            data: AVec::from_slice(data),
            rows,
            k,
        }
    }

    /// Number of vectors in the block.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Rows per vector.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The interleaved storage, `rows*k` long.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable interleaved storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a contiguous `k`-wide block.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.k..(i + 1) * self.k]
    }

    /// Copies vector `v` out into a contiguous column.
    pub fn copy_column_into(&self, v: usize, out: &mut [f64]) {
        assert!(v < self.k, "column {v} out of range (k = {})", self.k);
        assert_eq!(out.len(), self.rows, "column buffer must be rows long");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data[i * self.k + v];
        }
    }

    /// Overwrites vector `v` from a contiguous column.
    pub fn set_column(&mut self, v: usize, src: &[f64]) {
        assert!(v < self.k, "column {v} out of range (k = {})", self.k);
        assert_eq!(src.len(), self.rows, "column must be rows long");
        for (i, s) in src.iter().enumerate() {
            self.data[i * self.k + v] = *s;
        }
    }

    /// A read view of the whole block.
    pub fn view(&self) -> VecView<'_> {
        VecView {
            data: &self.data,
            k: self.k,
        }
    }

    /// A write view of the whole block.
    pub fn view_mut(&mut self) -> VecViewMut<'_> {
        let k = self.k;
        VecViewMut {
            data: &mut self.data,
            k,
        }
    }
}

/// Read-only operand view: either a single vector (`k = 1`) or a
/// row-interleaved block of `k` vectors.  `Copy`, so it can be re-passed
/// across repeated [`Operator::apply`](crate::traits::Operator::apply)
/// calls.
#[derive(Clone, Copy, Debug)]
pub struct VecView<'a> {
    data: &'a [f64],
    k: usize,
}

impl<'a> VecView<'a> {
    /// Views a single vector (`k = 1`).
    pub fn single(data: &'a [f64]) -> Self {
        Self { data, k: 1 }
    }

    /// Views an interleaved block of `k` vectors (`data.len() % k == 0`).
    pub fn blocked(data: &'a [f64], k: usize) -> Self {
        assert!(k >= 1, "a view holds at least one vector");
        assert_eq!(data.len() % k, 0, "blocked view length must divide by k");
        Self { data, k }
    }

    /// Number of vectors in the view.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Rows per vector.
    pub fn rows(&self) -> usize {
        self.data.len() / self.k
    }

    /// The underlying (interleaved) storage.
    pub fn data(&self) -> &'a [f64] {
        self.data
    }
}

impl<'a> From<&'a [f64]> for VecView<'a> {
    fn from(data: &'a [f64]) -> Self {
        Self::single(data)
    }
}

impl<'a> From<&'a Vec<f64>> for VecView<'a> {
    fn from(data: &'a Vec<f64>) -> Self {
        Self::single(data)
    }
}

impl<'a, const N: usize> From<&'a [f64; N]> for VecView<'a> {
    fn from(data: &'a [f64; N]) -> Self {
        Self::single(data)
    }
}

impl<'a> From<&'a MultiVec> for VecView<'a> {
    fn from(mv: &'a MultiVec) -> Self {
        mv.view()
    }
}

/// Mutable operand view: the output side of
/// [`Operator::apply`](crate::traits::Operator::apply).
#[derive(Debug)]
pub struct VecViewMut<'a> {
    data: &'a mut [f64],
    k: usize,
}

impl<'a> VecViewMut<'a> {
    /// Views a single vector (`k = 1`).
    pub fn single(data: &'a mut [f64]) -> Self {
        Self { data, k: 1 }
    }

    /// Views an interleaved block of `k` vectors (`data.len() % k == 0`).
    pub fn blocked(data: &'a mut [f64], k: usize) -> Self {
        assert!(k >= 1, "a view holds at least one vector");
        assert_eq!(data.len() % k, 0, "blocked view length must divide by k");
        Self { data, k }
    }

    /// Number of vectors in the view.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Rows per vector.
    pub fn rows(&self) -> usize {
        self.data.len() / self.k
    }

    /// Read access to the underlying storage (for `Apply::Add` staging).
    pub fn data(&self) -> &[f64] {
        self.data
    }

    /// The underlying (interleaved) storage, consuming the view.
    pub fn into_data(self) -> &'a mut [f64] {
        self.data
    }
}

impl<'a> From<&'a mut [f64]> for VecViewMut<'a> {
    fn from(data: &'a mut [f64]) -> Self {
        Self::single(data)
    }
}

impl<'a> From<&'a mut Vec<f64>> for VecViewMut<'a> {
    fn from(data: &'a mut Vec<f64>) -> Self {
        Self::single(data)
    }
}

impl<'a, const N: usize> From<&'a mut [f64; N]> for VecViewMut<'a> {
    fn from(data: &'a mut [f64; N]) -> Self {
        Self::single(data)
    }
}

impl<'a> From<&'a mut MultiVec> for VecViewMut<'a> {
    fn from(mv: &'a mut MultiVec) -> Self {
        mv.view_mut()
    }
}

/// Column-by-column fallback for formats without a native SpMM kernel:
/// de-interleaves each of the `k` vectors into contiguous scratch,
/// applies the single-vector closure, and re-interleaves the result.
/// Allocates two scratch columns; hot-path formats (CSR, SELL,
/// SELL-C-σ) never take this path.
pub(crate) fn apply_columnwise<F>(
    ctx: &ExecCtx,
    x: VecView<'_>,
    y: VecViewMut<'_>,
    mode: Apply,
    f: F,
) where
    F: Fn(&ExecCtx, &[f64], &mut [f64], Apply),
{
    let k = x.k();
    debug_assert_eq!(k, y.k());
    if k == 1 {
        f(ctx, x.data(), y.into_data(), mode);
        return;
    }
    let (nx, ny) = (x.rows(), y.rows());
    let mut xc = vec![0.0; nx];
    let mut yc = vec![0.0; ny];
    let xd = x.data();
    let yd = y.into_data();
    for v in 0..k {
        for (i, c) in xc.iter_mut().enumerate() {
            *c = xd[i * k + v];
        }
        if matches!(mode, Apply::Add) {
            for (i, c) in yc.iter_mut().enumerate() {
                *c = yd[i * k + v];
            }
        }
        f(ctx, &xc, &mut yc, mode);
        for (i, c) in yc.iter().enumerate() {
            yd[i * k + v] = *c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_round_trip() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let mv = MultiVec::from_columns(&[&a, &b]);
        assert_eq!(mv.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let mut col = [0.0; 3];
        mv.copy_column_into(1, &mut col);
        assert_eq!(col, b);
        assert_eq!(mv.row(2), &[3.0, 6.0]);
    }

    #[test]
    fn views_unify_single_and_blocked() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let v: VecView = (&x).into();
        assert_eq!(v.k(), 1);
        assert_eq!(v.rows(), 4);
        let b = VecView::blocked(&x, 2);
        assert_eq!(b.k(), 2);
        assert_eq!(b.rows(), 2);
    }

    #[test]
    #[should_panic(expected = "divide by k")]
    fn ragged_blocked_view_panics() {
        let x = vec![0.0; 5];
        let _ = VecView::blocked(&x, 2);
    }

    #[test]
    fn zeros_is_aligned() {
        let mv = MultiVec::zeros(13, 7);
        assert_eq!(mv.as_slice().as_ptr() as usize % 64, 0);
        assert_eq!(mv.as_slice().len(), 91);
    }
}
