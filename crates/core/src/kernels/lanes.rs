//! The thin vector layer every kernel body is written against: one
//! [`Lanes`] implementation per ISA tier, and the `#[target_feature]`
//! shims that enter a body at a tier.  The only file with `std::arch`
//! intrinsics.
//!
//! | tier | type | `W` | `fma` | partial vectors |
//! |---|---|---|---|---|
//! | scalar | [`Scalar`] | 1 | `a*b + c`, two roundings | – |
//! | AVX | `Ymm<false>` | 4 | `vmulpd` + `vaddpd` | `vmaskmovpd` |
//! | AVX2 | `Ymm<true>` | 4 | fused | `vmaskmovpd` |
//! | AVX-512 | `Avx512` | 8 | fused | opmask |
//!
//! Register operations are safe: an x86 lane value is a token that only
//! [`Ymm::new`]/[`Avx512::new`] mint, inside code compiled with the tier's
//! features.  Memory operations are `unsafe` and state what they read.
//!
//! No tier issues a hardware gather: every gather is written once, as `W`
//! scalar loads of `x` handed to the tier's [`Lanes::build`] — the §5.5
//! emulation, which the paper already measured ahead of `vgatherdpd` on
//! KNL and which EXPERIMENTS.md §5.5 measures 1.6–2.8× ahead of it out of
//! cache on a host under gather-mitigation microcode (`xtask lint` rejects
//! the intrinsic).  A SELL padding entry carries column `x.len()` (narrow
//! form: offset `0xFFFF`), which loads a static `0.0` instead of
//! dereferencing `x`, so padding contributes exactly `+0.0` even when `x`
//! holds Inf/NaN.

/// `p` if `on`, `pad` otherwise.  Selecting the *address* keeps the load
/// that follows unconditional, so no branch depends on the matrix's padding
/// pattern (a SELL matrix can be three quarters padding).
#[inline(always)]
fn ptr_if<T>(on: bool, p: *const T, pad: &'static T) -> *const T {
    if on {
        p
    } else {
        pad
    }
}

/// Reads `x[c]`, or `0.0` for the padding sentinel `c >= xlen`.
///
/// # Safety
///
/// * `requires: cols_in_bounds_or_sentinel(colidx, x)` — `c < xlen` must
///   address the `xlen`-element vector behind `x`.
#[inline(always)]
unsafe fn live(x: *const f64, xlen: usize, c: usize) -> f64 {
    // SAFETY: c < xlen is in bounds of x per the caller's contract; the
    // wrapped address of a sentinel is formed but never dereferenced.
    unsafe { *ptr_if(c < xlen, x.wrapping_add(c), &0.0) }
}

/// Bit mask selecting the first `n <= 8` lanes.
#[inline(always)]
fn first_bits(n: usize) -> u8 {
    ((1u16 << n) - 1) as u8
}

/// Column of a narrow-form entry: `base + off`, or the sentinel `xlen`
/// for the narrow padding marker `0xFFFF`.
#[inline(always)]
pub(super) fn narrow_col(off: u16, base: u32, xlen: usize) -> usize {
    if off == u16::MAX {
        xlen
    } else {
        base as usize + off as usize
    }
}

/// `Σ val[j] · x[ci[j]]` for `lo <= j < hi`, accumulated left to right from
/// `0.0` — every tier's CSR row remainder (AVX-512 only for two entries
/// or fewer, §4).
///
/// # Safety
///
/// * `requires: readable(val, hi)`
/// * `requires: readable(ci, hi)`
/// * `requires: cols_in_bounds(colidx, x)` — each `ci[j]` addresses `x`.
#[inline(always)]
unsafe fn scalar_tail(val: *const f64, ci: *const u32, lo: usize, hi: usize, x: *const f64) -> f64 {
    let mut tail = 0.0;
    for j in lo..hi {
        // SAFETY: j < hi elements of val/ci are readable and every column
        // index addresses x, per the caller's contract.
        tail += unsafe { *val.add(j) * *x.add(*ci.add(j) as usize) };
    }
    tail
}

mod sealed {
    pub trait Sealed {}
}

/// One ISA tier: a vector of `W` f64 lanes and the operations the kernel
/// bodies need.  `W` counts elements throughout (`readable(p, W)` is `W`
/// elements of `p`'s pointee type).
pub(super) trait Lanes: Copy + sealed::Sealed {
    /// f64 lanes per vector.
    const W: usize;
    /// The vector register type.
    type V: Copy;
    /// The accumulators of one SELL-`C` slice, one lane per row: `C / W`
    /// vectors.  An array length cannot divide, so each tier spells its
    /// own — `C` scalars, or room for the tallest slice its lanes tile
    /// (16 rows) — and the bodies use the first `C / W`.
    type Acc<const C: usize>: AsMut<[Self::V]>;

    /// Whether a CSR row remainder longer than two entries runs as one
    /// masked vector step ([`Lanes::dot_tail`]): only where masking a load
    /// is free (§3.3, §4).
    const MASKED_TAIL: bool = false;

    /// Lane `i` is `f(i)`, called for `i = 0 .. W` in order: the one way a
    /// vector is built from scalars, and so the only thing a tier
    /// contributes to the gathers below.
    fn build(self, f: impl FnMut(usize) -> f64) -> Self::V;
    /// All lanes `+0.0`.
    fn zero(self) -> Self::V;
    /// Every accumulator of a slice [`Lanes::zero`].
    fn zero_acc<const C: usize>(self) -> Self::Acc<C>;
    /// All lanes `a`.
    fn splat(self, a: f64) -> Self::V;
    /// `a·b + c` per lane: fused on AVX2/AVX-512, multiply then add (two
    /// roundings) on scalar/AVX — the tiers do not agree bitwise.
    fn fma(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `a + b` per lane.
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    /// Sum of the lanes, in the tier's own fixed reduction order.
    fn hsum(self, v: Self::V) -> f64;
    /// Prefetch hint for the cache line at `p` (any address; a no-op off
    /// x86).
    fn prefetch(self, p: *const u8);

    /// `W` consecutive f64, unaligned.
    ///
    /// # Safety
    ///
    /// * `requires: readable(p, W)`
    unsafe fn load(self, p: *const f64) -> Self::V;
    /// `W` consecutive little-endian f32, widened to f64 lanes.
    ///
    /// # Safety
    ///
    /// * `requires: readable(p, W)`
    unsafe fn load_f32(self, p: *const [u8; 4]) -> Self::V;
    /// `W` consecutive little-endian bf16 (the top half of an f32),
    /// widened to f64 lanes.
    ///
    /// # Safety
    ///
    /// * `requires: readable(p, W)`
    unsafe fn load_bf16(self, p: *const [u8; 2]) -> Self::V;
    /// The first `n <= W` f64 at `p`; the remaining lanes are `+0.0` and
    /// are not read.
    ///
    /// # Safety
    ///
    /// * `requires: readable(p, n)`
    unsafe fn load_first(self, p: *const f64, n: usize) -> Self::V;
    /// Stores all `W` lanes, unaligned.
    ///
    /// # Safety
    ///
    /// * `requires: writable(p, W)`
    unsafe fn store(self, p: *mut f64, v: Self::V);
    /// Stores the first `n <= W` lanes; nothing past them is written.
    ///
    /// # Safety
    ///
    /// * `requires: writable(p, n)`
    unsafe fn store_first(self, p: *mut f64, n: usize, v: Self::V);
    /// One vector of a SELL-ESB slice column (§5.3): `acc + val·x[ci]` on
    /// the lanes whose bit is set in the low `W` bits of `bits`, `acc`
    /// unchanged on the rest — a masked form of every operation, the
    /// overhead the paper measures.
    ///
    /// # Safety
    ///
    /// * `requires: readable(val, W)`
    /// * `requires: readable(ci, W)`
    /// * `requires: cols_in_bounds_or_sentinel(colidx, x)` — each `ci[i]`
    ///   with its bit set addresses `x`.
    unsafe fn fma_masked(
        self,
        bits: u8,
        val: *const f64,
        ci: *const u32,
        x: *const f64,
        acc: Self::V,
    ) -> Self::V;

    /// `x[ci[0..W]]`, every index live (CSR).
    ///
    /// # Safety
    ///
    /// * `requires: readable(ci, W)`
    /// * `requires: cols_in_bounds(colidx, x)` — each `ci[i]` addresses `x`.
    #[inline(always)]
    unsafe fn gather(self, x: *const f64, ci: *const u32) -> Self::V {
        // SAFETY: ci[0..W] are readable and each addresses x.
        self.build(|i| unsafe { *x.add(*ci.add(i) as usize) })
    }
    /// `x[ci[0..W]]` with sentinel lanes (`ci[i] >= xlen`) loading `0.0`
    /// undereferenced (SELL, wide u32 indices).
    ///
    /// # Safety
    ///
    /// * `requires: readable(ci, W)`
    /// * `requires: cols_in_bounds_or_sentinel(colidx, x)` — each
    ///   `ci[i] < xlen` addresses the `xlen`-element vector `x`.
    #[inline(always)]
    unsafe fn gather_live(self, x: *const f64, xlen: usize, ci: *const u32) -> Self::V {
        // SAFETY: ci[0..W] are readable; live()'s contract is the caller's.
        self.build(|i| unsafe { live(x, xlen, *ci.add(i) as usize) })
    }
    /// `x[base + off[0..W]]` with sentinel lanes (`off[i] == 0xFFFF`)
    /// loading `0.0` undereferenced (SELL, narrow u16 offsets).
    ///
    /// # Safety
    ///
    /// * `requires: readable(off, W)`
    /// * `requires: narrow_cols_in_bounds(cidx16, cbase, x)` — each
    ///   `base + off[i]` with `off[i] != 0xFFFF` addresses `x`.
    #[inline(always)]
    unsafe fn gather_live_narrow(self, x: *const f64, off: *const u16, base: u32) -> Self::V {
        self.build(|i| {
            // SAFETY: off[0..W] are readable; a live offset resolves to a
            // column addressing x, the sentinel's is never dereferenced.
            unsafe {
                let o = *off.add(i);
                *ptr_if(
                    o != u16::MAX,
                    x.wrapping_add(base as usize + o as usize),
                    &0.0,
                )
            }
        })
    }
    /// `x[ci[i]]` on the lanes whose bit is set in the low `W` bits of
    /// `bits`; a clear lane is `+0.0` and reads neither `ci[i]` nor `x`.
    ///
    /// # Safety
    ///
    /// * `requires: readable(ci, W)` — on the set lanes only.
    /// * `requires: cols_in_bounds_or_sentinel(colidx, x)` — each `ci[i]`
    ///   with its bit set addresses `x`.
    #[inline(always)]
    unsafe fn gather_bits(self, bits: u8, x: *const f64, ci: *const u32) -> Self::V {
        self.build(|i| {
            let on = bits >> i & 1 != 0;
            // SAFETY: a set lane's index is readable and addresses x; a
            // clear lane reads the two pads (index 0 forms x itself).
            unsafe {
                let c = *ptr_if(on, ci.wrapping_add(i), &0);
                *ptr_if(on, x.wrapping_add(c as usize), &0.0)
            }
        })
    }
    /// Folds a CSR row's last `hi - lo < W` products (entries `lo..hi` of
    /// `val`/`ci`): either into `acc` (one masked vector step, where
    /// [`Lanes::MASKED_TAIL`] and there are more than two) or into the
    /// returned scalar, which the caller adds after [`Lanes::hsum`].
    ///
    /// # Safety
    ///
    /// * `requires: readable(val, hi)`
    /// * `requires: readable(ci, hi)`
    /// * `requires: cols_in_bounds(colidx, x)` — each `ci[j]` addresses `x`.
    #[inline(always)]
    unsafe fn dot_tail(
        self,
        acc: &mut Self::V,
        val: *const f64,
        ci: *const u32,
        lo: usize,
        hi: usize,
        x: *const f64,
    ) -> f64 {
        // SAFETY: both arms touch only entries lo..hi: readable val/ci
        // elements whose indices address x.
        unsafe {
            if !Self::MASKED_TAIL || hi - lo <= 2 {
                return scalar_tail(val, ci, lo, hi, x);
            }
            let v = self.load_first(val.add(lo), hi - lo);
            let xv = self.gather_bits(first_bits(hi - lo), x, ci.add(lo));
            *acc = self.fma(v, xv, *acc);
            0.0
        }
    }
}

/// Portable one-lane tier: the reference every SIMD tier is tested
/// against, and the only tier off x86.
#[derive(Clone, Copy)]
pub(super) struct Scalar;

impl sealed::Sealed for Scalar {}

impl Lanes for Scalar {
    const W: usize = 1;
    type V = f64;
    type Acc<const C: usize> = [f64; C];

    #[inline(always)]
    fn build(self, mut f: impl FnMut(usize) -> f64) -> f64 {
        f(0)
    }
    #[inline(always)]
    fn zero(self) -> f64 {
        0.0
    }
    #[inline(always)]
    fn zero_acc<const C: usize>(self) -> [f64; C] {
        [0.0; C]
    }
    #[inline(always)]
    fn splat(self, a: f64) -> f64 {
        a
    }
    #[inline(always)]
    fn fma(self, a: f64, b: f64, c: f64) -> f64 {
        a * b + c
    }
    #[inline(always)]
    fn add(self, a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn hsum(self, v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn prefetch(self, _p: *const u8) {}

    /// # Safety — `requires: readable(p, W)`
    #[inline(always)]
    unsafe fn load(self, p: *const f64) -> f64 {
        // SAFETY: one readable element at p.
        unsafe { *p }
    }
    /// # Safety — `requires: readable(p, W)`
    #[inline(always)]
    unsafe fn load_f32(self, p: *const [u8; 4]) -> f64 {
        // SAFETY: one readable element at p (byte arrays have alignment 1).
        f32::from_le_bytes(unsafe { *p }) as f64
    }
    /// # Safety — `requires: readable(p, W)`
    #[inline(always)]
    unsafe fn load_bf16(self, p: *const [u8; 2]) -> f64 {
        // SAFETY: one readable element at p (byte arrays have alignment 1).
        let hi = u16::from_le_bytes(unsafe { *p });
        f32::from_bits((hi as u32) << 16) as f64
    }
    /// # Safety — `requires: readable(p, n)`
    #[inline(always)]
    unsafe fn load_first(self, p: *const f64, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        // SAFETY: n >= 1 readable elements at p.
        unsafe { *p }
    }
    /// # Safety — `requires: writable(p, W)`
    #[inline(always)]
    unsafe fn store(self, p: *mut f64, v: f64) {
        // SAFETY: one writable element at p.
        unsafe { *p = v }
    }
    /// # Safety — `requires: writable(p, n)`
    #[inline(always)]
    unsafe fn store_first(self, p: *mut f64, n: usize, v: f64) {
        if n != 0 {
            // SAFETY: n >= 1 writable elements at p.
            unsafe { *p = v }
        }
    }
    /// # Safety — `requires: readable(val, W)`, `requires: readable(ci, W)`, `requires: cols_in_bounds_or_sentinel(colidx, x)`
    #[inline(always)]
    unsafe fn fma_masked(
        self,
        bits: u8,
        val: *const f64,
        ci: *const u32,
        x: *const f64,
        acc: f64,
    ) -> f64 {
        if bits & 1 == 0 {
            return acc;
        }
        // SAFETY: val and ci are readable, and the set bit makes the
        // index live, addressing x.
        unsafe { self.fma(*val, *x.add(*ci as usize), acc) }
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) use x86::{enter_avx, enter_avx2, enter_avx512};

/// The three x86 tiers and the shims that enter a kernel at each.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::super::checked::Kernel;
    use super::{first_bits, sealed, Lanes};

    /// Runs `op` with AVX lanes.
    ///
    /// # Safety
    ///
    /// * `requires: feature(avx)` — and the contract of `op`'s body
    ///   ([`Kernel::on`]).
    #[target_feature(enable = "avx")]
    pub unsafe fn enter_avx<K: Kernel>(op: K) {
        // SAFETY: avx is enabled here; the body contract is the caller's.
        unsafe { op.on(Ymm::<false>::new()) }
    }

    /// Runs `op` with AVX2 + FMA lanes.
    ///
    /// # Safety
    ///
    /// * `requires: feature(avx2,fma)` — and the contract of `op`'s body
    ///   ([`Kernel::on`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn enter_avx2<K: Kernel>(op: K) {
        // SAFETY: avx2 and fma are enabled here; the body contract is the
        // caller's.
        unsafe { op.on(Ymm::<true>::new()) }
    }

    /// Runs `op` with AVX-512 lanes.
    ///
    /// # Safety
    ///
    /// * `requires: feature(avx512f,avx512vl)` — and the contract of `op`'s
    ///   body ([`Kernel::on`]).
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn enter_avx512<K: Kernel>(op: K) {
        // SAFETY: avx512f and avx512vl are enabled here; the body contract
        // is the caller's.
        unsafe { op.on(Avx512::new()) }
    }

    /// Slots `4b .. 4b + 4` hold `-1` in the lanes whose bit is set in the 4-bit
    /// `b`: the `vmaskmovpd`/blend mask of an arbitrary lane set.
    #[rustfmt::skip]
    static LANE_SETS: [i64; 64] = [
        0, 0, 0, 0,  -1, 0, 0, 0,  0, -1, 0, 0,  -1, -1, 0, 0,
        0, 0, -1, 0,  -1, 0, -1, 0,  0, -1, -1, 0,  -1, -1, -1, 0,
        0, 0, 0, -1,  -1, 0, 0, -1,  0, -1, 0, -1,  -1, -1, 0, -1,
        0, 0, -1, -1,  -1, 0, -1, -1,  0, -1, -1, -1,  -1, -1, -1, -1,
    ];

    /// 256-bit lanes.  AVX and AVX2 differ by one instruction (§5.5): with
    /// `AVX2 = false` the multiply-add is a multiply and an add.
    #[derive(Clone, Copy)]
    pub struct Ymm<const AVX2: bool>(());

    impl<const AVX2: bool> sealed::Sealed for Ymm<AVX2> {}

    // `self` is unused as data: it is the proof the features are present.
    #[allow(clippy::unused_self)]
    impl<const AVX2: bool> Ymm<AVX2> {
        /// # Safety
        ///
        /// * `requires: feature(avx)` — and `feature(avx2,fma)` when `AVX2`:
        ///   the token is the proof the safe lane operations rely on.
        #[inline(always)]
        unsafe fn new() -> Self {
            Self(())
        }

        /// `vmaskmovpd`/blend mask selecting the lanes set in the low four
        /// bits of `bits`.
        #[inline(always)]
        fn lane_mask(self, bits: u8) -> __m256i {
            // SAFETY: slots 4b .. 4b + 4 of the 64-slot table, for b < 16.
            unsafe { _mm256_loadu_si256(LANE_SETS.as_ptr().add(4 * (bits & 15) as usize).cast()) }
        }

        /// `vmaskmovpd` mask selecting the first `n <= 4` lanes.
        #[inline(always)]
        fn first_mask(self, n: usize) -> __m256i {
            self.lane_mask((1u8 << n) - 1)
        }
    }

    impl<const AVX2: bool> Lanes for Ymm<AVX2> {
        const W: usize = 4;
        type V = __m256d;
        type Acc<const C: usize> = [__m256d; 4];

        #[inline(always)]
        fn build(self, mut f: impl FnMut(usize) -> f64) -> __m256d {
            // SAFETY: the token proves avx.
            unsafe { _mm256_setr_pd(f(0), f(1), f(2), f(3)) }
        }
        #[inline(always)]
        fn zero(self) -> __m256d {
            // SAFETY: the token proves avx.
            unsafe { _mm256_setzero_pd() }
        }
        #[inline(always)]
        fn zero_acc<const C: usize>(self) -> [__m256d; 4] {
            [self.zero(); 4]
        }
        #[inline(always)]
        fn splat(self, a: f64) -> __m256d {
            // SAFETY: the token proves avx.
            unsafe { _mm256_set1_pd(a) }
        }
        #[inline(always)]
        fn fma(self, a: __m256d, b: __m256d, c: __m256d) -> __m256d {
            // SAFETY: the token proves avx, and fma when AVX2.
            unsafe {
                if AVX2 {
                    _mm256_fmadd_pd(a, b, c)
                } else {
                    _mm256_add_pd(_mm256_mul_pd(a, b), c)
                }
            }
        }
        #[inline(always)]
        fn add(self, a: __m256d, b: __m256d) -> __m256d {
            // SAFETY: the token proves avx.
            unsafe { _mm256_add_pd(a, b) }
        }
        #[inline(always)]
        fn hsum(self, v: __m256d) -> f64 {
            // SAFETY: the token proves avx.
            unsafe {
                let s = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
                _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
            }
        }
        #[inline(always)]
        fn prefetch(self, p: *const u8) {
            // SAFETY: a prefetch is a hint and may name any address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) }
        }

        /// # Safety — `requires: readable(p, W)`
        #[inline(always)]
        unsafe fn load(self, p: *const f64) -> __m256d {
            // SAFETY: 4 readable f64 at p; the token proves avx.
            unsafe { _mm256_loadu_pd(p) }
        }
        /// # Safety — `requires: readable(p, W)`
        #[inline(always)]
        unsafe fn load_f32(self, p: *const [u8; 4]) -> __m256d {
            // SAFETY: 4 readable f32 at p (x86 is little-endian).
            unsafe { _mm256_cvtps_pd(_mm_loadu_ps(p as *const f32)) }
        }
        /// # Safety — `requires: readable(p, W)`
        #[inline(always)]
        unsafe fn load_bf16(self, p: *const [u8; 2]) -> __m256d {
            // SAFETY: 4 readable u16 (8 bytes) at p; bf16 is the top half
            // of an f32, so shifting into place decodes it exactly.
            unsafe {
                let hi = _mm_cvtepu16_epi32(_mm_loadl_epi64(p as *const __m128i));
                _mm256_cvtps_pd(_mm_castsi128_ps(_mm_slli_epi32::<16>(hi)))
            }
        }
        /// # Safety — `requires: readable(p, n)`
        #[inline(always)]
        unsafe fn load_first(self, p: *const f64, n: usize) -> __m256d {
            // SAFETY: vmaskmovpd reads only the first n lanes.
            unsafe { _mm256_maskload_pd(p, self.first_mask(n)) }
        }
        /// # Safety — `requires: writable(p, W)`
        #[inline(always)]
        unsafe fn store(self, p: *mut f64, v: __m256d) {
            // SAFETY: 4 writable f64 at p.
            unsafe { _mm256_storeu_pd(p, v) }
        }
        /// # Safety — `requires: writable(p, n)`
        #[inline(always)]
        unsafe fn store_first(self, p: *mut f64, n: usize, v: __m256d) {
            // SAFETY: vmaskmovpd writes only the first n lanes.
            unsafe { _mm256_maskstore_pd(p, self.first_mask(n), v) }
        }
        /// # Safety — `requires: readable(val, W)`, `requires: readable(ci, W)`, `requires: cols_in_bounds_or_sentinel(colidx, x)`
        #[inline(always)]
        unsafe fn fma_masked(
            self,
            bits: u8,
            val: *const f64,
            ci: *const u32,
            x: *const f64,
            acc: __m256d,
        ) -> __m256d {
            // SAFETY: val/ci hold one full vector; only lanes with a set
            // bit are loaded from x, and those address x.
            unsafe {
                let k = self.lane_mask(bits);
                let v = _mm256_maskload_pd(val, k);
                let xv = self.gather_bits(bits, x, ci);
                _mm256_blendv_pd(acc, self.fma(v, xv, acc), _mm256_castsi256_pd(k))
            }
        }
    }

    /// 512-bit lanes with opmask registers (AVX-512F + VL).
    #[derive(Clone, Copy)]
    pub struct Avx512(());

    impl sealed::Sealed for Avx512 {}

    // `self` is unused as data: it is the proof the features are present.
    #[allow(clippy::unused_self)]
    impl Avx512 {
        /// # Safety
        ///
        /// * `requires: feature(avx512f,avx512vl)` — the token is the proof
        ///   the safe lane operations rely on.
        #[inline(always)]
        unsafe fn new() -> Self {
            Self(())
        }
    }

    impl Lanes for Avx512 {
        const W: usize = 8;
        type V = __m512d;
        type Acc<const C: usize> = [__m512d; 2];
        const MASKED_TAIL: bool = true;

        #[inline(always)]
        fn build(self, mut f: impl FnMut(usize) -> f64) -> __m512d {
            // SAFETY: the token proves avx512f.
            unsafe { _mm512_setr_pd(f(0), f(1), f(2), f(3), f(4), f(5), f(6), f(7)) }
        }
        #[inline(always)]
        fn zero(self) -> __m512d {
            // SAFETY: the token proves avx512f.
            unsafe { _mm512_setzero_pd() }
        }
        #[inline(always)]
        fn zero_acc<const C: usize>(self) -> [__m512d; 2] {
            [self.zero(); 2]
        }
        #[inline(always)]
        fn splat(self, a: f64) -> __m512d {
            // SAFETY: the token proves avx512f.
            unsafe { _mm512_set1_pd(a) }
        }
        #[inline(always)]
        fn fma(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
            // SAFETY: the token proves avx512f.
            unsafe { _mm512_fmadd_pd(a, b, c) }
        }
        #[inline(always)]
        fn add(self, a: __m512d, b: __m512d) -> __m512d {
            // SAFETY: the token proves avx512f.
            unsafe { _mm512_add_pd(a, b) }
        }
        #[inline(always)]
        fn hsum(self, v: __m512d) -> f64 {
            // SAFETY: the token proves avx512f.
            unsafe { _mm512_reduce_add_pd(v) }
        }
        #[inline(always)]
        fn prefetch(self, p: *const u8) {
            // SAFETY: a prefetch is a hint and may name any address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) }
        }

        /// # Safety — `requires: readable(p, W)`
        #[inline(always)]
        unsafe fn load(self, p: *const f64) -> __m512d {
            // SAFETY: 8 readable f64 at p; the token proves avx512f.
            unsafe { _mm512_loadu_pd(p) }
        }
        /// # Safety — `requires: readable(p, W)`
        #[inline(always)]
        unsafe fn load_f32(self, p: *const [u8; 4]) -> __m512d {
            // SAFETY: 8 readable f32 at p (x86 is little-endian).
            unsafe { _mm512_cvtps_pd(_mm256_loadu_ps(p as *const f32)) }
        }
        /// # Safety — `requires: readable(p, W)`
        #[inline(always)]
        unsafe fn load_bf16(self, p: *const [u8; 2]) -> __m512d {
            // SAFETY: 8 readable u16 (16 bytes) at p; bf16 is the top half
            // of an f32, so shifting into place decodes it exactly.
            unsafe {
                let hi = _mm256_cvtepu16_epi32(_mm_loadu_si128(p as *const __m128i));
                _mm512_cvtps_pd(_mm256_castsi256_ps(_mm256_slli_epi32::<16>(hi)))
            }
        }
        /// # Safety — `requires: readable(p, n)`
        #[inline(always)]
        unsafe fn load_first(self, p: *const f64, n: usize) -> __m512d {
            // SAFETY: the masked load reads only the first n lanes.
            unsafe { _mm512_maskz_loadu_pd(first_bits(n), p) }
        }
        /// # Safety — `requires: writable(p, W)`
        #[inline(always)]
        unsafe fn store(self, p: *mut f64, v: __m512d) {
            // SAFETY: 8 writable f64 at p.
            unsafe { _mm512_storeu_pd(p, v) }
        }
        /// # Safety — `requires: writable(p, n)`
        #[inline(always)]
        unsafe fn store_first(self, p: *mut f64, n: usize, v: __m512d) {
            // SAFETY: the masked store writes only the first n lanes.
            unsafe { _mm512_mask_storeu_pd(p, first_bits(n), v) }
        }
        /// # Safety — `requires: readable(val, W)`, `requires: readable(ci, W)`, `requires: cols_in_bounds_or_sentinel(colidx, x)`
        #[inline(always)]
        unsafe fn fma_masked(
            self,
            bits: u8,
            val: *const f64,
            ci: *const u32,
            x: *const f64,
            acc: __m512d,
        ) -> __m512d {
            // SAFETY: val/ci hold one full column; only lanes with a set
            // bit are gathered, and those address x.
            unsafe {
                let v = _mm512_maskz_loadu_pd(bits, val);
                let xv = self.gather_bits(bits, x, ci);
                _mm512_mask3_fmadd_pd(v, xv, acc, bits)
            }
        }
    }
}
