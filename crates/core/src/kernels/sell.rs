//! The SELL bodies — Algorithm 2 of the paper, written once over
//! [`Lanes`], the slice height `C` and the value codec: one slice of `C`
//! adjacent rows per outer iteration, values and indices streaming in
//! exactly storage order, `C` output entries per slice and *no remainder
//! loop* (padding absorbs it).
//!
//! Layout contract (see `crate::sell::Sell`): slice `s` occupies entries
//! `sliceptr[s]..sliceptr[s+1]` of the value stream and of `cidx16`,
//! column-major in `C`-entry columns; lane `r` of slice `s` is row
//! `s*C + r`.  Padding carries the value `0.0` and the sentinel column
//! `x.len()` (narrow form: offset `0xFFFF`), which the gathers mask, so it
//! contributes exactly `+0.0`.
//!
//! Classic f64 SELL and PackSELL are one body: [`Stored`] picks how a
//! value widens to an f64 lane.  The index form is per slice, whatever the
//! codec: `cbase[s] != u32::MAX` reads the narrow offsets
//! (`col = cbase[s] + cidx16[idx]`); `cbase[s] == u32::MAX` reads 4-byte
//! columns from `colidx`, which holds the wide slices only — slice `s` at
//! `wideptr[s]..wideptr[s+1]`, so its entry `idx` is
//! `colidx[idx - (sliceptr[s] - wideptr[s])]`.  `wideptr` is read only in
//! that arm: a narrow slice streams nothing it did not before.
//!
//! `sliceptr` (and `cbase`, `wideptr`) may be a window `&full[s0..=s1]`:
//! offsets stay absolute into the full entry arrays, `y`/`nrows` cover the
//! window's rows and are indexed locally.

use super::lanes::{narrow_col, Lanes, Scalar};

/// How SELL values are stored.
pub(super) trait Stored {
    /// One stored value.
    type Elem: Copy;

    /// `W` consecutive stored values widened to f64 lanes.
    ///
    /// # Safety
    ///
    /// * `requires: readable(p, W)`
    unsafe fn load<L: Lanes>(l: L, p: *const Self::Elem) -> L::V;
}

/// Classic SELL f64 values.
pub(super) struct F64;
/// PackSELL f32 values (little-endian bytes).
pub(super) struct F32;
/// PackSELL bf16 values (little-endian bytes).
pub(super) struct Bf16;

impl Stored for F64 {
    type Elem = f64;
    /// # Safety — `requires: readable(p, W)`
    #[inline(always)]
    unsafe fn load<L: Lanes>(l: L, p: *const f64) -> L::V {
        // SAFETY: the caller's contract is `Lanes::load`'s.
        unsafe { l.load(p) }
    }
}

impl Stored for F32 {
    type Elem = [u8; 4];
    /// # Safety — `requires: readable(p, W)`
    #[inline(always)]
    unsafe fn load<L: Lanes>(l: L, p: *const [u8; 4]) -> L::V {
        // SAFETY: the caller's contract is `Lanes::load_f32`'s.
        unsafe { l.load_f32(p) }
    }
}

impl Stored for Bf16 {
    type Elem = [u8; 2];
    /// # Safety — `requires: readable(p, W)`
    #[inline(always)]
    unsafe fn load<L: Lanes>(l: L, p: *const [u8; 2]) -> L::V {
        // SAFETY: the caller's contract is `Lanes::load_bf16`'s.
        unsafe { l.load_bf16(p) }
    }
}

/// How many slice columns ahead of the one being multiplied the SpMV loops
/// prefetch the value and index streams.  Measured on the out-of-cache
/// `spmv_dram` workload (EXPERIMENTS.md §5.5): the hardware prefetcher
/// stops at every 4 KiB page and one column ahead is already in flight,
/// while 64 columns of SELL-8 are 4 KiB of values — a page ahead.
const PREFETCH_COLS: usize = 64;

/// The entry arrays of a SELL matrix as the SpMV inner loop sees them.
struct Entries<D: Stored> {
    /// The wide slices' columns only (see the module docs).
    colidx: *const u32,
    cidx16: *const u16,
    val: *const D::Elem,
    x: *const f64,
    xlen: usize,
}

impl<D: Stored> Entries<D> {
    /// Hints the cache lines of the `C`-entry column [`PREFETCH_COLS`]
    /// ahead of entry offset `at`, in the value array and in the index
    /// array `base` selects (`skip`: see [`wide_skip`]).  The addresses may
    /// lie past the arrays: they are only ever prefetched.
    #[inline(always)]
    fn prefetch<L: Lanes, const C: usize>(&self, l: L, at: usize, base: u32, skip: usize) {
        #[inline(always)]
        fn span<L: Lanes, T>(l: L, p: *const T, n: usize) {
            for line in 0..(n * size_of::<T>()).div_ceil(64) {
                l.prefetch(p.cast::<u8>().wrapping_add(64 * line));
            }
        }
        let at = at + PREFETCH_COLS * C;
        span(l, self.val.wrapping_add(at), C);
        if base == u32::MAX {
            span(l, self.colidx.wrapping_add(at - skip), C);
        } else {
            span(l, self.cidx16.wrapping_add(at), C);
        }
    }

    /// One slice column at entry offset `at`: `acc[j] += val · x[col]` for
    /// each of the column's `acc.len()` vectors.  `base` is the slice's
    /// `cbase` entry (`u32::MAX`: wide indices, at `colidx[at - skip]`).
    ///
    /// # Safety
    ///
    /// * `requires: packed_vals(val, cidx16)` — entries
    ///   `at..at + acc.len() * W` exist.
    /// * `requires: cols_in_bounds_or_sentinel(colidx, x)` — and, in a wide
    ///   slice, `skip` is that slice's [`wide_skip`].
    /// * `requires: narrow_cols_in_bounds(cidx16, cbase, x)`
    #[inline(always)]
    unsafe fn column<L: Lanes>(
        &self,
        l: L,
        acc: &mut [L::V],
        mut at: usize,
        base: u32,
        skip: usize,
    ) {
        let mut j = 0;
        while j < acc.len() {
            // SAFETY: entries at..at + W lie inside the column; a wide
            // slice's are colidx[at - skip..], each < xlen or the
            // sentinel; narrow offsets resolve inside x or are the 0xFFFF
            // sentinel.
            unsafe {
                let v = D::load(l, self.val.add(at));
                let xv = if base == u32::MAX {
                    l.gather_live(self.x, self.xlen, self.colidx.add(at - skip))
                } else {
                    l.gather_live_narrow(self.x, self.cidx16.add(at), base)
                };
                acc[j] = l.fma(v, xv, acc[j]);
            }
            at += L::W;
            j += 1;
        }
    }
}

/// How far the entries of local slice `s` sit before their offset in the
/// compact `colidx`: entry `at` of a wide slice is `colidx[at - skip]`.
/// Reads `wideptr` only for a wide slice (`base == u32::MAX`); a narrow
/// slice never uses the result.
#[inline(always)]
fn wide_skip(base: u32, sliceptr: &[usize], wideptr: &[usize], s: usize) -> usize {
    if base == u32::MAX {
        sliceptr[s] - wideptr[s]
    } else {
        0
    }
}

/// Writes the first `rows <= acc.len() * W` lanes of a slice's accumulators
/// to `y` (adding `y` first when `ADD`): full vectors whole, the one
/// straddling `rows` masked, the rest not at all — only a final partial
/// slice takes the masked path (§5.5).
///
/// # Safety
///
/// * `requires: writable(y, rows)`
#[inline(always)]
unsafe fn store_slice<L: Lanes, const ADD: bool>(l: L, acc: &[L::V], y: *mut f64, rows: usize) {
    for (j, &a) in acc.iter().enumerate() {
        let n = rows.saturating_sub(j * L::W).min(L::W);
        if n == 0 {
            // Not even the pointer may be formed past the last row.
            break;
        }
        // SAFETY: j*W + n <= rows elements are writable at y.
        unsafe {
            let p = y.add(j * L::W);
            if n == L::W {
                l.store(p, if ADD { l.add(a, l.load(p)) } else { a });
            } else {
                let v = if ADD { l.add(a, l.load_first(p, n)) } else { a };
                l.store_first(p, n, v);
            }
        }
    }
}

/// `y = A·x` (or `y += A·x` when `ADD`) for SELL-`C`, `C` a multiple of
/// `L::W`.
///
/// Each slice column is `C / W` vector loads, sentinel-masked gathers and
/// multiply-adds into the slice's `C / W` accumulators — no reduction, one
/// lane per row — with the entry streams prefetched [`PREFETCH_COLS`]
/// columns ahead.  With `ADD`, `y` is added when the slice is stored.
/// `UNROLL` is the §5.5 manual tuning (two slices per iteration, the same
/// prefetch), which the paper finds "does not affect the performance
/// significantly"; it computes the same bits.
///
/// # Safety
///
/// * `requires: len(y) == nrows * k` — with `k` = 1.
/// * `requires: len(sliceptr) == slices(nrows, C) + 1`
/// * `requires: monotone(sliceptr)` — slice offsets are nondecreasing.
/// * `requires: in_bounds(sliceptr, cidx16)` — every offset `<= cidx16.len()`.
/// * `requires: aligned_offsets(sliceptr, C)` — slices are whole columns.
/// * `requires: packed_vals(val, cidx16)` — `val` points at one `D::Elem`
///   per `cidx16` entry.
/// * `requires: cols_in_bounds_or_sentinel(colidx, x)` — `wideptr`
///   parallels `sliceptr`, every wide slice `s` has
///   `wideptr[s] <= sliceptr[s]` and its `sliceptr[s+1] - sliceptr[s]`
///   entries at `colidx[wideptr[s]..]`, each `< x.len()` or the sentinel
///   `x.len()`.
/// * `requires: narrow_cols_in_bounds(cidx16, cbase, x)` — `cbase` has one
///   entry per slice, and in every narrow slice each offset is `0xFFFF` or
///   satisfies `cbase[s] + cidx16[idx] < x.len()`.
#[inline(always)]
pub(super) unsafe fn spmv<
    L: Lanes,
    D: Stored,
    const C: usize,
    const ADD: bool,
    const UNROLL: bool,
>(
    l: L,
    sliceptr: &[usize],
    cidx16: &[u16],
    cbase: &[u32],
    colidx: &[u32],
    wideptr: &[usize],
    val: *const D::Elem,
    nrows: usize,
    x: &[f64],
    y: &mut [f64],
) {
    let nslices = sliceptr.len() - 1;
    // Vectors per slice column; the caller keeps them within `L::Acc`.
    let nvec = C / L::W;
    let yp = y.as_mut_ptr();
    let e = Entries::<D> {
        colidx: colidx.as_ptr(),
        cidx16: cidx16.as_ptr(),
        val,
        x: x.as_ptr(),
        xlen: x.len(),
    };
    let mut s = 0usize;
    if UNROLL {
        // Independent accumulators for two slices hide load latency.
        while s + 2 <= nslices {
            let (mut acc0, mut acc1) = (l.zero_acc::<C>(), l.zero_acc::<C>());
            let (acc0, acc1) = (&mut acc0.as_mut()[..nvec], &mut acc1.as_mut()[..nvec]);
            let (mut i0, e0, e1) = (sliceptr[s], sliceptr[s + 1], sliceptr[s + 2]);
            let mut i1 = e0;
            let (b0, b1) = (cbase[s], cbase[s + 1]);
            let k0 = wide_skip(b0, sliceptr, wideptr, s);
            let k1 = wide_skip(b1, sliceptr, wideptr, s + 1);
            // SAFETY: as in the plain loop below, for both slices.
            unsafe {
                while i0 < e0 && i1 < e1 {
                    e.prefetch::<L, C>(l, i0, b0, k0);
                    e.prefetch::<L, C>(l, i1, b1, k1);
                    e.column(l, acc0, i0, b0, k0);
                    e.column(l, acc1, i1, b1, k1);
                    i0 += C;
                    i1 += C;
                }
                // Ragged tails: the two slices have independent widths.
                while i0 < e0 {
                    e.column(l, acc0, i0, b0, k0);
                    i0 += C;
                }
                while i1 < e1 {
                    e.column(l, acc1, i1, b1, k1);
                    i1 += C;
                }
                store_slice::<L, ADD>(l, acc0, yp.add(s * C), C);
                store_slice::<L, ADD>(l, acc1, yp.add((s + 1) * C), C.min(nrows - (s + 1) * C));
            }
            s += 2;
        }
    }
    while s < nslices {
        let mut acc = l.zero_acc::<C>();
        let acc = &mut acc.as_mut()[..nvec];
        let (mut idx, end) = (sliceptr[s], sliceptr[s + 1]);
        let base = cbase[s];
        let skip = wide_skip(base, sliceptr, wideptr, s);
        // SAFETY: idx is a C-aligned offset with idx + C <= end <=
        // cidx16.len(), so the column's entries exist in the value stream
        // and in cidx16 — and, for a wide slice, at idx - skip in colidx;
        // the cols clauses are the caller's.  Slice s holds rows
        // s*C .. min(s*C + C, nrows), all inside y.
        unsafe {
            while idx < end {
                e.prefetch::<L, C>(l, idx, base, skip);
                e.column(l, acc, idx, base, skip);
                idx += C;
            }
            store_slice::<L, ADD>(l, acc, yp.add(s * C), C.min(nrows - s * C));
        }
        s += 1;
    }
}

/// `Y = A·X` (or `Y += A·X` when `ADD`) for SELL-`C` over a `k`-wide
/// row-interleaved block (`x[col*k + t]`, `y[row*k + t]`), any `C`.
///
/// The lanes run along `k`, one accumulator per row of the slice: each
/// entry is decoded once and broadcast against the contiguous `k`-block of
/// its column.  Padding (a column at or past `x.len() / k`) is skipped
/// outright.  With `ADD`, `y` is *preloaded* into the accumulators.
///
/// # Safety
///
/// * `requires: k != 0`
/// * `requires: len(y) == nrows * k` — one `k`-block per row.
/// * `requires: len(sliceptr) == slices(nrows, C) + 1`
/// * `requires: monotone(sliceptr)` — slice offsets are nondecreasing.
/// * `requires: in_bounds(sliceptr, cidx16)` — every offset `<= cidx16.len()`.
/// * `requires: aligned_offsets(sliceptr, C)` — slices are whole columns.
/// * `requires: packed_vals(val, cidx16)` — `val` points at one `D::Elem`
///   per `cidx16` entry.
/// * `requires: cols_in_bounds_or_sentinel(colidx, x)` — as for [`spmv`]:
///   every wide-form column is the sentinel or has its whole block in
///   bounds (`(col + 1) * k <= x.len()`).
/// * `requires: narrow_cols_in_bounds(cidx16, cbase, x)` — as for
///   [`spmv`], with each resolved column's whole block in bounds.
#[inline(always)]
pub(super) unsafe fn spmm<L: Lanes, D: Stored, const C: usize, const ADD: bool>(
    l: L,
    sliceptr: &[usize],
    cidx16: &[u16],
    cbase: &[u32],
    colidx: &[u32],
    wideptr: &[usize],
    val: *const D::Elem,
    nrows: usize,
    x: &[f64],
    y: &mut [f64],
    k: usize,
) {
    let nslices = sliceptr.len().saturating_sub(1);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let ncols = x.len().checked_div(k).unwrap_or(0);
    for s in 0..nslices {
        let rows = C.min(nrows - s * C);
        let off = sliceptr[s];
        let width = (sliceptr[s + 1] - off) / C;
        let base = cbase[s];
        let skip = wide_skip(base, sliceptr, wideptr, s);
        let mut cb = 0usize;
        while cb < k {
            let lanes = (k - cb).min(L::W);
            let mut acc = [l.zero(); C];
            // SAFETY: (s*C + r)*k + cb + lanes <= nrows*k == y.len() for
            // r < rows; entry idx < sliceptr[s+1] exists in the value
            // stream and in cidx16 (a wide slice's at idx - skip in
            // colidx); a live column has (c+1)*k <= x.len() and cb + lanes
            // <= k, so its partial load stays inside x.
            unsafe {
                if ADD {
                    for r in 0..rows {
                        acc[r] = l.load_first(yp.add((s * C + r) * k + cb), lanes);
                    }
                }
                for col in 0..width {
                    for r in 0..rows {
                        let idx = off + col * C + r;
                        let c = if base == u32::MAX {
                            colidx[idx - skip] as usize
                        } else {
                            narrow_col(cidx16[idx], base, ncols)
                        };
                        if c < ncols {
                            let a = l.splat(D::load(Scalar, val.add(idx)));
                            let xv = l.load_first(xp.add(c * k + cb), lanes);
                            acc[r] = l.fma(a, xv, acc[r]);
                        }
                    }
                }
                for r in 0..rows {
                    l.store_first(yp.add((s * C + r) * k + cb), lanes, acc[r]);
                }
            }
            cb += lanes;
        }
    }
}

/// `y = A·x` (or `y += A·x` when `ADD`) for SELL-8 with the ESB bit array
/// (Liu et al.; paper §5.3): one lane-mask byte per slice column, masked
/// forms of every operation, `8 / W` accumulators per slice.  The ablation
/// the paper measures ~10 % slower than plain SELL.
///
/// `bits` starts at the window's first mask byte and is counted locally.
///
/// # Safety
///
/// * `requires: len(y) == nrows * k` — with `k` = 1.
/// * `requires: len(sliceptr) == slices(nrows, 8) + 1`
/// * `requires: monotone(sliceptr)`
/// * `requires: in_bounds(sliceptr, colidx)`
/// * `requires: aligned_offsets(sliceptr, 8)`
/// * `requires: packed_vals(val, colidx)` — `val` parallels `colidx`.
/// * `requires: cols_in_bounds_or_sentinel(colidx, x)`
/// * `requires: bits_cover_window(bits, val)` — one mask byte per slice
///   column of the window, bit `r` set ⇔ lane `r` holds a real nonzero
///   (so the sentinel is never gathered).
#[inline(always)]
pub(super) unsafe fn esb_spmv<L: Lanes, const ADD: bool>(
    l: L,
    sliceptr: &[usize],
    colidx: &[u32],
    val: &[f64],
    bits: &[u8],
    nrows: usize,
    x: &[f64],
    y: &mut [f64],
) {
    let nslices = sliceptr.len().saturating_sub(1);
    let (vp, cp, xp, yp) = (val.as_ptr(), colidx.as_ptr(), x.as_ptr(), y.as_mut_ptr());
    let mut col_at = 0usize;
    for s in 0..nslices {
        let mut acc = l.zero_acc::<8>();
        let acc = &mut acc.as_mut()[..8 / L::W];
        let w = (sliceptr[s + 1] - sliceptr[s]) / 8;
        for j in 0..w {
            let at = sliceptr[s] + j * 8;
            // SAFETY: col_at + j indexes one mask byte per window column;
            // at + 8 <= sliceptr[s+1] <= colidx.len() == val.len(); lanes
            // with a set bit hold live columns addressing x.
            unsafe {
                let m = *bits.get_unchecked(col_at + j);
                for (i, a) in acc.iter_mut().enumerate() {
                    let lane0 = i * L::W;
                    *a = l.fma_masked(m >> lane0, vp.add(at + lane0), cp.add(at + lane0), xp, *a);
                }
            }
        }
        col_at += w;
        // SAFETY: slice s holds rows s*8 .. min(s*8 + 8, nrows) of y.
        unsafe { store_slice::<L, ADD>(l, acc, yp.add(s * 8), 8.min(nrows - s * 8)) };
    }
}
