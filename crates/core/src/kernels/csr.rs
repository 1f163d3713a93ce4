//! The CSR bodies — Algorithm 1 of the paper, written once over
//! [`Lanes`]: vectorize the inner product of one matrix row with `x`.  The
//! row length is rarely a multiple of the SIMD width, so every row ends in
//! a *remainder* ([`Lanes::dot_tail`]) — the drawback motivating SELL
//! (§2.3).
//!
//! `rowptr` may be a window `&full_rowptr[r0..=r1]`: it carries absolute
//! offsets into the full `colidx`/`val`, while `y` is the matching window
//! and is indexed locally.

use super::lanes::Lanes;

/// `y = A·x` (or `y += A·x` when `ADD`).
///
/// `W` values stream from `val` per step, the matching entries of `x` are
/// gathered through `colidx`, and a multiply-add accumulates; the lanes
/// are summed ([`Lanes::hsum`]) once per row.  With `ADD`, `y` is added
/// *after* that reduction.
///
/// # Safety
///
/// * `requires: k * (len(rowptr) - 1) == len(y)` — with `k` = 1.
/// * `requires: monotone(rowptr)` — row offsets are nondecreasing.
/// * `requires: in_bounds(rowptr, val)` — every offset is `<= val.len()`.
/// * `requires: len(colidx) == len(val)`
/// * `requires: cols_in_bounds(colidx, x)` — every `colidx[j]` the window
///   touches is `< x.len()`.
#[inline(always)]
pub(super) unsafe fn spmv<L: Lanes, const ADD: bool>(
    l: L,
    rowptr: &[usize],
    colidx: &[u32],
    val: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let nrows = y.len();
    let (xp, vp, cp) = (x.as_ptr(), val.as_ptr(), colidx.as_ptr());
    for i in 0..nrows {
        let (mut idx, hi) = (rowptr[i], rowptr[i + 1]);
        let mut acc = l.zero();
        while idx + L::W <= hi {
            // SAFETY: idx + W <= hi <= val.len() == colidx.len() keeps
            // both loads in bounds; every column index addresses x.
            unsafe {
                let v = l.load(vp.add(idx));
                acc = l.fma(v, l.gather(xp, cp.add(idx)), acc);
            }
            idx += L::W;
        }
        // SAFETY: the hi - idx < W remaining entries are in bounds of
        // val/colidx as above, with column indices addressing x.
        let tail = unsafe { l.dot_tail(&mut acc, vp, cp, idx, hi, xp) };
        let sum = l.hsum(acc) + tail;
        if ADD {
            y[i] += sum;
        } else {
            y[i] = sum;
        }
    }
}

/// `Y = A·X` (or `Y += A·X` when `ADD`) over a `k`-wide row-interleaved
/// block (`x[col*k + t]`, `y[row*k + t]`).
///
/// The lanes run along `k`: each matrix entry is loaded once and broadcast
/// against the contiguous `k`-block of its column — interleaving the
/// right-hand sides turns the SpMV gather into a plain (masked) load.
/// Blocks wider than `W` run in `W`-lane chunks.  With `ADD`, `y` is
/// *preloaded* into the accumulator.
///
/// # Safety
///
/// * `requires: k != 0`
/// * `requires: k * (len(rowptr) - 1) == len(y)` — one `k`-block per row.
/// * `requires: monotone(rowptr)` — row offsets are nondecreasing.
/// * `requires: in_bounds(rowptr, val)` — every offset is `<= val.len()`.
/// * `requires: len(colidx) == len(val)`
/// * `requires: cols_in_bounds(colidx, x)` — every `(colidx[j] + 1) * k` the
///   window touches is `<= x.len()`: each column's whole block is in bounds.
#[inline(always)]
pub(super) unsafe fn spmm<L: Lanes, const ADD: bool>(
    l: L,
    rowptr: &[usize],
    colidx: &[u32],
    val: &[f64],
    x: &[f64],
    y: &mut [f64],
    k: usize,
) {
    let nrows = rowptr.len().saturating_sub(1);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    for i in 0..nrows {
        let (lo, hi) = (rowptr[i], rowptr[i + 1]);
        let mut cb = 0usize;
        while cb < k {
            let lanes = (k - cb).min(L::W);
            // SAFETY: i*k + cb + lanes <= nrows*k == y.len(); the partial
            // load/store touch only `lanes` elements.  A live column has
            // (colidx[j]+1)*k <= x.len() and cb + lanes <= k, so its
            // partial load stays inside x.
            unsafe {
                let ydst = yp.add(i * k + cb);
                let mut acc = if ADD {
                    l.load_first(ydst, lanes)
                } else {
                    l.zero()
                };
                for j in lo..hi {
                    let xv = l.load_first(xp.add(colidx[j] as usize * k + cb), lanes);
                    acc = l.fma(l.splat(val[j]), xv, acc);
                }
                l.store_first(ydst, lanes, acc);
            }
            cb += lanes;
        }
    }
}
