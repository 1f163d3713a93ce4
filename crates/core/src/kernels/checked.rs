//! The checked entry points — the *only* way into the unsafe kernel bodies.
//!
//! One safe function per operation.  Each asserts (in debug builds) every
//! precondition its body's `# Safety` contract states — one checker per
//! layout, parameterised by the block width `k` and the value codec — and
//! hands the body to [`run`], which asserts (always) that the requested
//! tier is present on the CPU and is the one place an [`Isa`] becomes a
//! [`Lanes`] type.
//!
//! Every entry point takes a **window**: the pointer array (`rowptr`,
//! `sliceptr`, and `cbase`/`wideptr` with it) may be a sub-slice `&full[i0..=i1]`
//! carrying its original *absolute* offsets, paired with the full entry
//! arrays and the matching window of `y`.  The bodies index entries
//! through the pointer array and `y` locally, so a whole matrix is simply
//! the one-part window; what only a whole matrix satisfies (`ptr[0] == 0`,
//! `ptr.last() == len`) is asserted by the whole-matrix callers.

use crate::isa::Isa;

use super::lanes::{Lanes, Scalar};
use super::sell::{Bf16, Stored, F32, F64};
use super::{csr, sell};

/// One operation over raw arrays, ready to run at any tier: [`run`] picks
/// the [`Lanes`] type, enters a `#[target_feature]` shim and calls
/// [`Kernel::on`], which forwards to an `#[inline(always)]` generic body —
/// so the body is compiled once per tier, with that tier's features.
pub(super) trait Kernel {
    /// Whether the body is written for `w`-lane vectors.  Every body runs
    /// with one lane.
    fn supports(_w: usize) -> bool {
        true
    }

    /// # Safety
    ///
    /// The `# Safety` contract of the body it forwards to.
    unsafe fn on<L: Lanes>(self, l: L);
}

/// Runs `op` at tier `isa` — or, when the kernel does not support that
/// tier's lane count, at the widest narrower tier it does.
///
/// # Safety
///
/// The contract of `op`'s body ([`Kernel::on`]).
unsafe fn run<K: Kernel>(isa: Isa, op: K) {
    // discharges: feature(avx), feature(avx2,fma), feature(avx512f,avx512vl)
    assert!(isa.available(), "ISA {isa} not available on this CPU");
    let tier = Isa::ALL
        .into_iter()
        .rev()
        .find(|t| *t <= isa && K::supports(t.f64_lanes()))
        .unwrap_or(Isa::Scalar);
    // SAFETY: `tier <= isa` is available on this CPU (asserted above), so
    // each shim's feature set is present; the body contract is the
    // caller's.
    unsafe {
        match tier {
            Isa::Scalar => op.on(Scalar),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => super::lanes::enter_avx(op),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => super::lanes::enter_avx2(op),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => super::lanes::enter_avx512(op),
            #[cfg(not(target_arch = "x86_64"))]
            _ => op.on(Scalar),
        }
    }
}

/// Debug-asserts the CSR contract over a row window at block width `k`
/// (`k` = 1 for SpMV).
///
/// `discharges: k != 0, k * (len(rowptr) - 1) == len(y), monotone(rowptr), in_bounds(rowptr, val), len(colidx) == len(val), cols_in_bounds(colidx, x)`
fn check_csr(rowptr: &[usize], colidx: &[u32], val: &[f64], x: &[f64], y: &[f64], k: usize) {
    // discharges: k != 0
    debug_assert!(k != 0, "at least one vector per block");
    // discharges: k * (len(rowptr) - 1) == len(y)
    debug_assert_eq!(
        k * rowptr.len().saturating_sub(1),
        y.len(),
        "y must hold one k-block per row"
    );
    // discharges: monotone(rowptr)
    debug_assert!(rowptr.windows(2).all(|w| w[0] <= w[1]), "rowptr monotone");
    // discharges: in_bounds(rowptr, val)
    debug_assert!(
        rowptr.last().copied().unwrap_or(0) <= val.len(),
        "rowptr window end in bounds of val"
    );
    // discharges: len(colidx) == len(val)
    debug_assert_eq!(colidx.len(), val.len(), "colidx/val length");
    // discharges: cols_in_bounds(colidx, x)
    debug_assert!(
        colidx[rowptr.first().copied().unwrap_or(0)..rowptr.last().copied().unwrap_or(0)]
            .iter()
            .all(|&c| (c as usize + 1) * k <= x.len()),
        "every colidx k-block in bounds of x"
    );
}

/// CSR `y = A·x` (or `y += A·x` when `ADD`) over a row window.
///
/// Panics if `isa` is not available on the running CPU.
pub(crate) fn csr_spmv<const ADD: bool>(
    isa: Isa,
    rowptr: &[usize],
    colidx: &[u32],
    val: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    check_csr(rowptr, colidx, val, x, y, 1);
    struct Op<'a, const ADD: bool> {
        rowptr: &'a [usize],
        colidx: &'a [u32],
        val: &'a [f64],
        x: &'a [f64],
        y: &'a mut [f64],
    }
    impl<const ADD: bool> Kernel for Op<'_, ADD> {
        /// # Safety — the contract of [`csr::spmv`].
        #[inline(always)]
        unsafe fn on<L: Lanes>(self, l: L) {
            // SAFETY: the caller's contract is the body's.
            unsafe { csr::spmv::<L, ADD>(l, self.rowptr, self.colidx, self.val, self.x, self.y) }
        }
    }
    // SAFETY: `check_csr` asserted the body's contract in debug builds;
    // `Csr` upholds it by construction, and a row window of a valid matrix
    // is itself in-contract.
    unsafe {
        run(
            isa,
            Op::<ADD> {
                rowptr,
                colidx,
                val,
                x,
                y,
            },
        )
    }
}

/// CSR `Y = A·X` (or `+=`) over a row window and a `k`-wide
/// row-interleaved block (`x[col*k + t]`, `y[row*k + t]`).
///
/// Panics if `isa` is not available on the running CPU.
pub(crate) fn csr_spmm<const ADD: bool>(
    isa: Isa,
    rowptr: &[usize],
    colidx: &[u32],
    val: &[f64],
    x: &[f64],
    y: &mut [f64],
    k: usize,
) {
    check_csr(rowptr, colidx, val, x, y, k);
    struct Op<'a, const ADD: bool> {
        rowptr: &'a [usize],
        colidx: &'a [u32],
        val: &'a [f64],
        x: &'a [f64],
        y: &'a mut [f64],
        k: usize,
    }
    impl<const ADD: bool> Kernel for Op<'_, ADD> {
        /// # Safety — the contract of [`csr::spmm`].
        #[inline(always)]
        unsafe fn on<L: Lanes>(self, l: L) {
            let (rowptr, colidx, val) = (self.rowptr, self.colidx, self.val);
            // SAFETY: the caller's contract is the body's.
            unsafe { csr::spmm::<L, ADD>(l, rowptr, colidx, val, self.x, self.y, self.k) }
        }
    }
    // SAFETY: as in `csr_spmv`, with `x`/`y` holding whole `k`-blocks
    // (the `MultiVec` layout).
    unsafe {
        run(
            isa,
            Op::<ADD> {
                rowptr,
                colidx,
                val,
                x,
                y,
                k,
            },
        )
    }
}

/// The stored values of a SELL matrix: classic f64, or PackSELL bytes at
/// codec stride (one little-endian f32 / bf16 per entry).
#[derive(Clone, Copy)]
pub(crate) enum SellVals<'a> {
    F64(&'a [f64]),
    F32(&'a [u8]),
    Bf16(&'a [u8]),
}

/// The raw arrays of a SELL matrix — or of a window of its slices.
#[derive(Clone, Copy)]
pub(crate) struct SellParts<'a> {
    /// Slice offsets (absolute), one more than the window's slices.
    pub sliceptr: &'a [usize],
    /// Full value stream, one value per entry.
    pub vals: SellVals<'a>,
    /// Full narrow-form offsets, one per entry (sentinel `0xFFFF`
    /// padding): the index stream of the narrow-form slices.
    pub cidx16: &'a [u16],
    /// Index-form selector per slice *of the window*: `u32::MAX` = wide,
    /// anything else = the narrow base column.
    pub cbase: &'a [u32],
    /// Full compact column array (sentinel `ncols` padding): the index
    /// stream of the wide-form slices, and their entries only.
    pub colidx: &'a [u32],
    /// Offsets (absolute) of the window's slices into `colidx`, one more
    /// than the slices; only a wide slice's span is non-empty.
    pub wideptr: &'a [usize],
    /// Rows the window covers.
    pub nrows: usize,
}

/// Debug-asserts what every sliced layout shares, over a slice window at
/// block width `k`.
///
/// `discharges: k != 0, len(y) == nrows * k, len(sliceptr) == slices(nrows, C) + 1, monotone(sliceptr), aligned_offsets(sliceptr, C)`
fn check_slices<const C: usize>(sliceptr: &[usize], nrows: usize, y: &[f64], k: usize) {
    // discharges: k != 0
    debug_assert!(k != 0, "at least one vector per block");
    // discharges: len(y) == nrows * k
    debug_assert_eq!(y.len(), nrows * k, "y must hold one k-block per row");
    // discharges: len(sliceptr) == slices(nrows, C) + 1
    debug_assert_eq!(sliceptr.len(), nrows.div_ceil(C) + 1, "sliceptr length");
    // discharges: monotone(sliceptr)
    debug_assert!(
        sliceptr.windows(2).all(|w| w[0] <= w[1]),
        "sliceptr monotone"
    );
    // discharges: aligned_offsets(sliceptr, C)
    debug_assert!(
        sliceptr.iter().all(|&p| p % C == 0),
        "slice offsets must be {C}-element aligned"
    );
}

/// Debug-asserts the SELL-`C` contract over a slice window at block width
/// `k` (`k` = 1 for SpMV), each slice on the index stream it uses.  A
/// column index counts as live below `x.len() / k` and must be the
/// sentinel otherwise: live entries address a whole `k`-block of `x`,
/// padding is masked or skipped by the bodies.
///
/// `discharges: k != 0, len(y) == nrows * k, len(sliceptr) == slices(nrows, C) + 1, monotone(sliceptr), aligned_offsets(sliceptr, C), in_bounds(sliceptr, cidx16), packed_vals(val, cidx16), cols_in_bounds_or_sentinel(colidx, x), narrow_cols_in_bounds(cidx16, cbase, x)`
fn check_sell<const C: usize>(m: &SellParts<'_>, x: &[f64], y: &[f64], k: usize) {
    let SellParts {
        sliceptr,
        cidx16,
        cbase,
        colidx,
        wideptr,
        ..
    } = *m;
    check_slices::<C>(sliceptr, m.nrows, y, k);
    // discharges: in_bounds(sliceptr, cidx16)
    debug_assert!(
        sliceptr.last().copied().unwrap_or(0) <= cidx16.len(),
        "sliceptr window end in bounds of cidx16"
    );
    // discharges: packed_vals(val, cidx16)
    debug_assert_eq!(
        match m.vals {
            SellVals::F64(v) => v.len(),
            SellVals::F32(b) => b.len() / 4,
            SellVals::Bf16(b) => b.len() / 2,
        },
        cidx16.len(),
        "one stored value per entry"
    );
    let slices = || sliceptr.windows(2).map(|w| w[0]..w[1]).enumerate();
    // A short `cbase` fails the narrow clause below; its missing slices
    // are checked as wide here rather than indexed out of bounds.
    let wide = |s: usize| cbase.get(s).is_none_or(|&b| b == u32::MAX);
    // discharges: cols_in_bounds_or_sentinel(colidx, x)
    debug_assert!(
        x.len().is_multiple_of(k)
            && wideptr.len() == sliceptr.len()
            && slices().filter(|(s, _)| wide(*s)).all(|(s, r)| {
                wideptr[s] <= r.start
                    && colidx
                        .get(wideptr[s]..wideptr[s] + r.len())
                        .is_some_and(|cols| cols.iter().all(|&c| c as usize <= x.len() / k))
            }),
        "every wide slice's entries inside colidx, each k-block in bounds of x or the padding sentinel"
    );
    // discharges: narrow_cols_in_bounds(cidx16, cbase, x)
    debug_assert!(
        cbase.len() == sliceptr.len() - 1
            && slices().filter(|(s, _)| !wide(*s)).all(|(s, r)| {
                cidx16[r]
                    .iter()
                    .all(|&o| o == u16::MAX || cbase[s] as usize + (o as usize) < x.len() / k)
            }),
        "cbase sized to the window, every narrow-form offset the sentinel or in bounds"
    );
}

/// Whether SELL-`C` SpMV is written for `w`-lane vectors: the lanes must
/// tile the slice height, and only the heights 4, 8 and 16 are vectorized
/// at all (so SELL-4 on an AVX-512 host runs the AVX2 lanes).
fn sell_spmv_supports<const C: usize>(w: usize) -> bool {
    w == 1 || matches!(C, 4 | 8 | 16) && C.is_multiple_of(w)
}

/// SELL-`C` `y = A·x` (or `y += A·x` when `ADD`) over a slice window, at
/// any value codec.  `UNROLL` selects the §5.5 manually tuned loop.
///
/// Panics if `isa` is not available on the running CPU.
pub(crate) fn sell_spmv<const C: usize, const ADD: bool, const UNROLL: bool>(
    isa: Isa,
    m: &SellParts<'_>,
    x: &[f64],
    y: &mut [f64],
) {
    check_sell::<C>(m, x, y, 1);
    struct Op<'a, D: Stored, const C: usize, const ADD: bool, const UNROLL: bool> {
        m: &'a SellParts<'a>,
        val: *const D::Elem,
        x: &'a [f64],
        y: &'a mut [f64],
    }
    impl<D: Stored, const C: usize, const ADD: bool, const UNROLL: bool> Kernel
        for Op<'_, D, C, ADD, UNROLL>
    {
        fn supports(w: usize) -> bool {
            sell_spmv_supports::<C>(w)
        }
        /// # Safety — the contract of [`sell::spmv`].
        #[inline(always)]
        unsafe fn on<L: Lanes>(self, l: L) {
            let m = self.m;
            // SAFETY: the caller's contract is the body's; `supports`
            // keeps `L::W` a divisor of `C` and `C / L::W` within the
            // tier's `Lanes::Acc` (16 rows at most on the SIMD tiers).
            unsafe {
                sell::spmv::<L, D, C, ADD, UNROLL>(
                    l, m.sliceptr, m.cidx16, m.cbase, m.colidx, m.wideptr, self.val, m.nrows,
                    self.x, self.y,
                )
            }
        }
    }
    // SAFETY: `check_sell` asserted the body's contract in debug builds;
    // `Sell::from_csr_codec` upholds it by construction (C-aligned
    // sliceptr, sentinel padding, one stored value and one offset per
    // entry, every wide slice's columns at its `wideptr`), and a slice
    // window of a valid matrix is itself in-contract.
    unsafe {
        match m.vals {
            SellVals::F64(v) => {
                let val = v.as_ptr();
                run(isa, Op::<F64, C, ADD, UNROLL> { m, val, x, y })
            }
            SellVals::F32(b) => {
                let val = b.as_ptr().cast();
                run(isa, Op::<F32, C, ADD, UNROLL> { m, val, x, y })
            }
            SellVals::Bf16(b) => {
                let val = b.as_ptr().cast();
                run(isa, Op::<Bf16, C, ADD, UNROLL> { m, val, x, y })
            }
        }
    }
}

/// SELL-`C` `Y = A·X` (or `+=`) over a slice window and a `k`-wide
/// row-interleaved block, at any value codec.
///
/// Panics if `isa` is not available on the running CPU.
pub(crate) fn sell_spmm<const C: usize, const ADD: bool>(
    isa: Isa,
    m: &SellParts<'_>,
    x: &[f64],
    y: &mut [f64],
    k: usize,
) {
    check_sell::<C>(m, x, y, k);
    struct Op<'a, D: Stored, const C: usize, const ADD: bool> {
        m: &'a SellParts<'a>,
        val: *const D::Elem,
        x: &'a [f64],
        y: &'a mut [f64],
        k: usize,
    }
    impl<D: Stored, const C: usize, const ADD: bool> Kernel for Op<'_, D, C, ADD> {
        /// # Safety — the contract of [`sell::spmm`].
        #[inline(always)]
        unsafe fn on<L: Lanes>(self, l: L) {
            let m = self.m;
            // SAFETY: the caller's contract is the body's.
            unsafe {
                sell::spmm::<L, D, C, ADD>(
                    l, m.sliceptr, m.cidx16, m.cbase, m.colidx, m.wideptr, self.val, m.nrows,
                    self.x, self.y, self.k,
                )
            }
        }
    }
    // SAFETY: as in `sell_spmv`, with `x`/`y` holding whole `k`-blocks and
    // the sentinel's block landing at `x.len()`.
    unsafe {
        match m.vals {
            SellVals::F64(v) => {
                let val = v.as_ptr();
                run(isa, Op::<F64, C, ADD> { m, val, x, y, k })
            }
            SellVals::F32(b) => {
                let val = b.as_ptr().cast();
                run(isa, Op::<F32, C, ADD> { m, val, x, y, k })
            }
            SellVals::Bf16(b) => {
                let val = b.as_ptr().cast();
                run(isa, Op::<Bf16, C, ADD> { m, val, x, y, k })
            }
        }
    }
}

/// SELL-ESB (bit-array) `y = A·x` (or `y += A·x` when `ADD`) over a slice
/// window of the §5.3 layout: `colidx` and `val` are the full entry
/// arrays, one 4-byte column (padding: the sentinel `x.len()`) and one f64
/// per entry, and `bits` starts at the window's first mask byte
/// (`full_bits[sliceptr[0] / 8]`).
///
/// Panics if `isa` is not available on the running CPU.
pub(crate) fn sell_esb_spmv<const ADD: bool>(
    isa: Isa,
    sliceptr: &[usize],
    colidx: &[u32],
    val: &[f64],
    bits: &[u8],
    x: &[f64],
    y: &mut [f64],
) {
    check_slices::<8>(sliceptr, y.len(), y, 1);
    let lo = sliceptr.first().copied().unwrap_or(0);
    let hi = sliceptr.last().copied().unwrap_or(0);
    // discharges: in_bounds(sliceptr, colidx)
    debug_assert!(
        hi <= colidx.len(),
        "sliceptr window end in bounds of colidx"
    );
    // discharges: packed_vals(val, colidx)
    debug_assert_eq!(val.len(), colidx.len(), "one stored value per entry");
    // discharges: cols_in_bounds_or_sentinel(colidx, x)
    debug_assert!(
        colidx[lo..hi].iter().all(|&c| c as usize <= x.len()),
        "every colidx in bounds of x or the padding sentinel"
    );
    // discharges: bits_cover_window(bits, val)
    debug_assert!(bits.len() * 8 >= hi - lo, "one mask byte per slice column");
    struct Op<'a, const ADD: bool> {
        sliceptr: &'a [usize],
        colidx: &'a [u32],
        val: &'a [f64],
        bits: &'a [u8],
        x: &'a [f64],
        y: &'a mut [f64],
    }
    impl<const ADD: bool> Kernel for Op<'_, ADD> {
        fn supports(w: usize) -> bool {
            8usize.is_multiple_of(w)
        }
        /// # Safety — the contract of [`sell::esb_spmv`].
        #[inline(always)]
        unsafe fn on<L: Lanes>(self, l: L) {
            let nrows = self.y.len();
            // SAFETY: the caller's contract is the body's; `supports`
            // keeps `8 / L::W` whole and within the tier's `Lanes::Acc`.
            unsafe {
                sell::esb_spmv::<L, ADD>(
                    l,
                    self.sliceptr,
                    self.colidx,
                    self.val,
                    self.bits,
                    nrows,
                    self.x,
                    self.y,
                )
            }
        }
    }
    // SAFETY: the assertions above state the body's contract in debug
    // builds; `SellEsb::from_csr` upholds it by construction — the inner
    // `Sell8`'s C-aligned sliceptr and f64 values, a column or the sentinel
    // per entry, one mask byte per column with bits only on live lanes.
    unsafe {
        run(
            isa,
            Op::<ADD> {
                sliceptr,
                colidx,
                val,
                bits,
                x,
                y,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooBuilder;
    use crate::csr::Csr;
    use crate::sell::Sell;
    use crate::traits::MatShape;

    /// The `W` lanes of `v`.
    fn spill<L: Lanes>(l: L, v: L::V) -> Vec<f64> {
        let mut o = vec![0.0f64; L::W];
        // SAFETY: `o` holds W elements.
        unsafe { l.store(o.as_mut_ptr(), v) };
        o
    }

    /// Exercises every [`Lanes`] operation of one tier against plain
    /// arithmetic on the same data.
    struct LaneProbe;

    impl Kernel for LaneProbe {
        /// # Safety — none beyond the tier being available.
        unsafe fn on<L: Lanes>(self, l: L) {
            let w = L::W;
            let x: Vec<f64> = (0..40).map(|i| i as f64 * 0.5 - 3.0).collect();
            let mut out = vec![0.0f64; w];
            let spill = |v: L::V| spill(l, v);
            // SAFETY: every pointer below addresses at least W (or the
            // stated n) elements of a live Vec; every live index is < 40.
            unsafe {
                let a = l.load(x.as_ptr().add(3));
                assert_eq!(spill(a), x[3..3 + w], "load/store");
                assert_eq!(spill(l.zero()), vec![0.0; w]);
                assert_eq!(spill(l.splat(2.5)), vec![2.5; w]);
                assert_eq!(
                    l.hsum(a),
                    spill(a).iter().sum::<f64>(),
                    "hsum of exact values"
                );
                let b = l.load(x.as_ptr().add(11));
                let fma = spill(l.fma(a, b, l.splat(1.0)));
                let sum = spill(l.add(a, b));
                for i in 0..w {
                    assert_eq!(fma[i], x[3 + i] * x[11 + i] + 1.0, "fma lane {i}");
                    assert_eq!(sum[i], x[3 + i] + x[11 + i], "add lane {i}");
                }

                for n in 0..=w {
                    let first = spill(l.load_first(x.as_ptr().add(5), n));
                    out.fill(-1.0);
                    l.store_first(out.as_mut_ptr(), n, a);
                    for i in 0..w {
                        assert_eq!(
                            first[i],
                            if i < n { x[5 + i] } else { 0.0 },
                            "load_first {n}"
                        );
                        assert_eq!(
                            out[i],
                            if i < n { x[3 + i] } else { -1.0 },
                            "store_first {n}"
                        );
                    }
                }

                let f32s: Vec<[u8; 4]> = (0..w)
                    .map(|i| (i as f32 * 0.3 - 1.0).to_le_bytes())
                    .collect();
                let bf16s: Vec<[u8; 2]> = (0..w)
                    .map(|i| (0x3F80u16 + 0x40 * i as u16).to_le_bytes())
                    .collect();
                let (wf, wb) = (
                    spill(l.load_f32(f32s.as_ptr())),
                    spill(l.load_bf16(bf16s.as_ptr())),
                );
                for i in 0..w {
                    assert_eq!(wf[i], (i as f32 * 0.3 - 1.0) as f64, "f32 lane {i}");
                    let want = f32::from_bits((0x3F80u32 + 0x40 * i as u32) << 16) as f64;
                    assert_eq!(wb[i], want, "bf16 lane {i}");
                }

                // Gathers: lane 1 of the masked forms is padding, and x
                // is poisoned where an unmasked read would land.
                let xlen = 32usize;
                let mut px = x.clone();
                px[xlen] = f64::NAN;
                let ci: Vec<u32> = (0..w as u32)
                    .map(|i| if i == 1 { xlen as u32 } else { 7 * i % 31 })
                    .collect();
                let live = spill(l.gather_live(px.as_ptr(), xlen, ci.as_ptr()));
                let off: Vec<u16> = (0..w as u16)
                    .map(|i| if i == 1 { u16::MAX } else { 3 * i })
                    .collect();
                let narrow = spill(l.gather_live_narrow(px.as_ptr(), off.as_ptr(), 4));
                let all: Vec<u32> = (0..w as u32).map(|i| 5 * i % 31).collect();
                let plain = spill(l.gather(px.as_ptr(), all.as_ptr()));
                for i in 0..w {
                    assert_eq!(
                        live[i],
                        if i == 1 { 0.0 } else { x[7 * i % 31] },
                        "gather_live {i}"
                    );
                    assert_eq!(
                        narrow[i],
                        if i == 1 { 0.0 } else { x[4 + 3 * i] },
                        "narrow {i}"
                    );
                    assert_eq!(plain[i], x[5 * i % 31], "gather {i}");
                }

                // Masked multiply-add: a lane with a clear bit keeps its
                // accumulator (the sign of -0.0 included) and its index,
                // the sentinel, is not read.
                for bits in 0..=u8::MAX {
                    let on = |i: usize| bits >> i & 1 != 0;
                    let ci: Vec<u32> = (0..w)
                        .map(|i| if on(i) { 3 * i as u32 } else { 40 })
                        .collect();
                    let got = spill(l.fma_masked(
                        bits,
                        x[9..].as_ptr(),
                        ci.as_ptr(),
                        x.as_ptr(),
                        l.splat(-0.0),
                    ));
                    for i in 0..w {
                        let want = if on(i) {
                            x[9 + i] * x[3 * i] + -0.0
                        } else {
                            -0.0
                        };
                        assert_eq!(
                            got[i].to_bits(),
                            want.to_bits(),
                            "fma_masked {bits:#x} lane {i}"
                        );
                    }
                }

                for n in 0..w {
                    let mut acc = l.zero();
                    let vals = x[2..].as_ptr();
                    let tail = l.dot_tail(&mut acc, vals, all.as_ptr(), 1, 1 + n, x.as_ptr());
                    let want: f64 = (1..1 + n).map(|j| x[2 + j] * x[5 * j % 31]).sum();
                    assert_eq!(l.hsum(acc) + tail, want, "dot_tail {n} (exact products)");
                }
            }
        }
    }

    #[test]
    fn every_tier_implements_the_lane_operations() {
        for isa in Isa::available_tiers() {
            // SAFETY: the probe reads and writes only its own buffers.
            unsafe { run(isa, LaneProbe) };
        }
    }

    /// Holds every operation that reads `x` through an index, lane for lane
    /// and bit for bit, to the one-lane tier on the same data: random
    /// indices with no, all or some lanes padding, and `x` a boxed slice of
    /// exactly `xlen` elements that is NaN wherever no live lane points —
    /// so a lane that dereferences its sentinel, or reads a neighbour,
    /// either leaves the allocation or shows up as NaN.
    struct GatherProbe;

    impl Kernel for GatherProbe {
        /// # Safety — none beyond the tier being available.
        unsafe fn on<L: Lanes>(self, l: L) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let w = L::W;
            let mut rng = StdRng::seed_from_u64(0x5E11);
            let spill = |v: L::V| spill(l, v);
            let same = |got: L::V, want: &[f64], what: &str| {
                for (i, (g, s)) in spill(got).iter().zip(want).enumerate() {
                    assert_eq!(g.to_bits(), s.to_bits(), "{what}: lane {i} of {w}");
                }
            };
            // Small multiples of 1/2: every product and every sum below is
            // exact, so fused and unfused tiers agree bitwise.
            let half = |rng: &mut StdRng| (rng.gen_range(0..65) - 32) as f64 * 0.5;
            for xlen in [0usize, 1, 7, 300, 70_000] {
                // 0 = no lane is padding, 1 = every lane, 2 = a coin per lane.
                for pads in 0..3 {
                    if xlen == 0 && pads != 1 {
                        continue;
                    }
                    for _ in 0..24 {
                        let pad: Vec<bool> = (0..w)
                            .map(|_| pads == 1 || pads == 2 && rng.gen_range(0..2) == 0)
                            .collect();
                        // The narrow form reaches x's last element: offsets
                        // 0..span count from `base = xlen - span`, and the
                        // first live lane takes the largest one.
                        let span = xlen.min(0xFFFF);
                        let base = (xlen - span) as u32;
                        let mut reach = span;
                        let off: Vec<u16> = (0..w)
                            .map(|i| {
                                if pad[i] {
                                    return u16::MAX;
                                }
                                let o = std::mem::replace(&mut reach, rng.gen_range(0..span) + 1);
                                (o - 1) as u16
                            })
                            .collect();
                        let ci: Vec<u32> = (0..w)
                            .map(|i| match pad[i] {
                                false => base + off[i] as u32,
                                true if rng.gen_range(0..4) == 0 => u32::MAX,
                                true => xlen as u32,
                            })
                            .collect();
                        let mut x = vec![f64::NAN; xlen].into_boxed_slice();
                        for i in (0..w).filter(|&i| !pad[i]) {
                            x[ci[i] as usize] = half(&mut rng);
                        }
                        let (xp, cp) = (x.as_ptr(), ci.as_ptr());
                        let bits = pad.iter().rev().fold(0u8, |b, &p| b << 1 | !p as u8);
                        let val: Vec<f64> = (0..w).map(|_| half(&mut rng)).collect();
                        let acc: Vec<f64> = (0..w).map(|_| half(&mut rng)).collect();
                        // SAFETY: ci/off/val/acc hold W elements; every live
                        // index is < xlen and every sentinel marks a pad.
                        unsafe {
                            let s = |f: &dyn Fn(usize) -> f64| (0..w).map(f).collect::<Vec<_>>();
                            same(
                                l.gather_live(xp, xlen, cp),
                                &s(&|i| Scalar.gather_live(xp, xlen, cp.add(i))),
                                "gather_live",
                            );
                            same(
                                l.gather_live_narrow(xp, off.as_ptr(), base),
                                &s(&|i| Scalar.gather_live_narrow(xp, off.as_ptr().add(i), base)),
                                "gather_live_narrow",
                            );
                            same(
                                l.fma_masked(bits, val.as_ptr(), cp, xp, l.load(acc.as_ptr())),
                                &s(&|i| {
                                    let (v, c) = (val.as_ptr().add(i), cp.add(i));
                                    Scalar.fma_masked(bits >> i, v, c, xp, acc[i])
                                }),
                                "fma_masked",
                            );
                            if pads == 0 {
                                same(
                                    l.gather(xp, cp),
                                    &s(&|i| Scalar.gather(xp, cp.add(i))),
                                    "gather",
                                );
                                // Entries 1..hi of arrays exactly hi long.
                                for hi in 1..=w {
                                    let (v, c) = (val[..hi].to_vec(), ci[..hi].to_vec());
                                    let mut a = l.load(acc.as_ptr());
                                    let t = l.dot_tail(&mut a, v.as_ptr(), c.as_ptr(), 1, hi, xp);
                                    let mut sa = 0.0;
                                    let st =
                                        Scalar.dot_tail(&mut sa, v.as_ptr(), c.as_ptr(), 1, hi, xp);
                                    let got = l.hsum(a) + t;
                                    let want = acc.iter().sum::<f64>() + sa + st;
                                    assert_eq!(got.to_bits(), want.to_bits(), "dot_tail 1..{hi}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_tier_gathers_the_bits_the_scalar_tier_does() {
        for isa in Isa::available_tiers() {
            // SAFETY: the probe reads and writes only its own buffers.
            unsafe { run(isa, GatherProbe) };
        }
    }

    #[test]
    fn sell_spmv_runs_at_the_widest_tier_that_tiles_the_slice() {
        assert!(sell_spmv_supports::<4>(4) && !sell_spmv_supports::<4>(8));
        assert!(sell_spmv_supports::<8>(4) && sell_spmv_supports::<8>(8));
        assert!(sell_spmv_supports::<16>(4) && sell_spmv_supports::<16>(8));
        // Heights other than 4/8/16 are scalar-only, even when they tile.
        assert!(sell_spmv_supports::<12>(1) && !sell_spmv_supports::<12>(4));
        assert!(sell_spmv_supports::<2>(1) && !sell_spmv_supports::<2>(4));
    }

    fn tiny_csr() -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        // 3x3: [[1,2,0],[0,3,0],[4,0,5]]
        (
            vec![0, 2, 3, 5],
            vec![0, 1, 1, 0, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
    }

    /// A row window carrying absolute rowptr offsets computes exactly the
    /// rows it covers — the windowing contract of the parallel engine.
    #[test]
    fn csr_row_window_matches_full_product() {
        let (rp, ci, v) = tiny_csr();
        let x = vec![1.0, 10.0, 100.0];
        let full = [21.0, 30.0, 504.0];
        for isa in Isa::available_tiers() {
            for (r0, r1) in [(0usize, 1usize), (1, 3), (0, 3), (2, 2)] {
                let mut y = [-7.0; 3];
                csr_spmv::<false>(isa, &rp[r0..=r1], &ci, &v, &x, &mut y[r0..r1]);
                let mut ya = [1.0; 3];
                csr_spmv::<true>(isa, &rp[r0..=r1], &ci, &v, &x, &mut ya[r0..r1]);
                for r in 0..3 {
                    let inside = (r0..r1).contains(&r);
                    assert_eq!(
                        y[r],
                        if inside { full[r] } else { -7.0 },
                        "{isa} {r0}..{r1} row {r}"
                    );
                    assert_eq!(
                        ya[r],
                        if inside { full[r] + 1.0 } else { 1.0 },
                        "{isa} add row {r}"
                    );
                }
            }
        }
    }

    fn ragged(n: usize) -> Csr {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            for j in 0..(i % 4 + 1) {
                b.push(i, (i + 2 * j) % n, (i * 3 + j) as f64 * 0.25 - 1.0);
            }
        }
        b.to_csr()
    }

    /// A slice window (absolute sliceptr offsets, full entry arrays, `y`
    /// window) computes exactly its slices — including a masked final
    /// partial slice — at every height, tier and mode, tuned loop included.
    #[test]
    fn sell_slice_window_matches_full_product() {
        fn case<const C: usize>(a: &Csr) {
            let n = a.nrows();
            let s = Sell::<C>::from_csr(a);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
            let mut full = vec![0.0; n];
            a.spmv_isa(Isa::Scalar, &x, &mut full);
            let nslices = s.nslices();
            for isa in Isa::available_tiers() {
                for (s0, s1) in [(0, nslices), (1, nslices), (0, 1), (nslices, nslices)] {
                    let (r0, r1) = (n.min(s0 * C), n.min(s1 * C));
                    let m = s.parts(s0, s1);
                    let mut y = vec![-9.0; n];
                    sell_spmv::<C, false, false>(isa, &m, &x, &mut y[r0..r1]);
                    let mut yt = vec![-9.0; n];
                    sell_spmv::<C, false, true>(isa, &m, &x, &mut yt[r0..r1]);
                    let mut ya = vec![0.5; n];
                    sell_spmv::<C, true, false>(isa, &m, &x, &mut ya[r0..r1]);
                    for r in 0..n {
                        let inside = (r0..r1).contains(&r);
                        let want = if inside { full[r] } else { -9.0 };
                        assert!(
                            (y[r] - want).abs() < 1e-12,
                            "C={C} {isa} {s0}..{s1} row {r}"
                        );
                        assert_eq!(yt[r].to_bits(), y[r].to_bits(), "C={C} {isa} tuned row {r}");
                        let want = if inside { full[r] + 0.5 } else { 0.5 };
                        assert!((ya[r] - want).abs() < 1e-12, "C={C} {isa} add row {r}");
                    }
                }
            }
        }
        // 5, 12, 21, 37 rows: final slices with 5/12/5/5 live lanes at
        // C = 16 (the high vector of the slice empty, partial, empty).
        for n in [5usize, 12, 21, 37] {
            let a = ragged(n);
            case::<4>(&a);
            case::<8>(&a);
            case::<16>(&a);
            case::<12>(&a);
        }
    }

    /// The checked entry points reject malformed inputs in debug builds.
    #[test]
    #[should_panic(expected = "sliceptr window end")]
    #[cfg(debug_assertions)]
    fn checked_entry_rejects_truncated_entry_arrays() {
        let m = SellParts {
            sliceptr: &[0, 8],
            vals: SellVals::F64(&[0.0; 4]),
            cidx16: &[0u16; 4], // too short: sliceptr says 8 entries
            cbase: &[0],
            colidx: &[],
            wideptr: &[0, 0],
            nrows: 8,
        };
        let mut y = vec![0.0; 8];
        sell_spmv::<8, false, false>(Isa::Scalar, &m, &[1.0], &mut y);
    }

    /// Out-of-bounds column indices are caught before any kernel runs.
    #[test]
    #[should_panic(expected = "colidx")]
    #[cfg(debug_assertions)]
    fn checked_entry_rejects_oob_colidx() {
        let (rp, ci, v) = tiny_csr();
        let x = vec![1.0]; // too short for colidx up to 2
        let mut y = vec![0.0; 3];
        csr_spmv::<false>(Isa::Scalar, &rp, &ci, &v, &x, &mut y);
    }
}
