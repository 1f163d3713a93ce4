//! Real (wall-clock) SpMV measurement on the host CPU.
//!
//! Builds every kernel variant the host supports from one CSR matrix and
//! times them identically, so measured *ratios* are directly comparable
//! with the paper's Figure 8 legend.  [`best_of`] is the one timer of
//! every exhibit.

use std::time::Instant;

use sellkit_core::{Apply, Baij, Csr, ExecCtx, Isa, MatShape, Operator, Sell8};
use sellkit_solvers::ts::OdeProblem;
use sellkit_workloads::{GrayScott, GrayScottParams};

/// A named, runnable SpMV closure.
pub struct Variant {
    /// Label matching the paper's legends.
    pub label: String,
    /// The kernel, capturing its matrix.
    pub run: Box<dyn Fn(&[f64], &mut [f64])>,
}

impl Variant {
    /// `y = A·x` through [`Operator::apply`] on one thread, at `m`'s tier.
    pub fn op<M: Operator + 'static>(label: impl Into<String>, m: M) -> Self {
        Self {
            label: label.into(),
            run: Box::new(move |x, y| m.apply(&ExecCtx::serial(), x.into(), y.into(), Apply::Set)),
        }
    }
}

/// An "MKL-like" third-party CSR kernel: inspector-free, one indirect call
/// per row — the generic vendor-library stand-in (DESIGN.md §3).
pub struct MklLikeCsr {
    a: Csr,
    row_kernel: fn(&[u32], &[f64], &[f64]) -> f64,
}

impl MklLikeCsr {
    /// Wraps a CSR matrix.
    pub fn new(a: &Csr) -> Self {
        fn dot_row(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
            let mut s = 0.0;
            for (k, &c) in cols.iter().enumerate() {
                s += vals[k] * x[c as usize];
            }
            s
        }
        Self {
            a: a.clone(),
            row_kernel: dot_row,
        }
    }

    /// `y = A·x` through the per-row function pointer (defeats inlining,
    /// the way an opaque library boundary does).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        let f = std::hint::black_box(self.row_kernel);
        for i in 0..self.a.nrows() {
            y[i] = f(self.a.row_cols(i), self.a.row_vals(i), x);
        }
    }
}

/// Figure 8's "CSRPerm" series (PETSc `AIJPERM`, §2.4): CSR storage plus
/// a permutation grouping rows of equal length, so a group is swept
/// across the row index with non-unit-stride access to `val`/`colidx`.
/// A measurement stand-in, not a format.
struct AijPerm {
    a: Csr,
    /// Row indices sorted by row length.
    perm: Vec<u32>,
    /// `(end in perm, common row length)` of each group.
    groups: Vec<(usize, usize)>,
}

impl AijPerm {
    fn new(a: &Csr) -> Self {
        let mut perm: Vec<u32> = (0..a.nrows() as u32).collect();
        perm.sort_by_key(|&i| a.row_len(i as usize));
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for (at, &r) in perm.iter().enumerate() {
            let len = a.row_len(r as usize);
            match groups.last_mut() {
                Some(g) if g.1 == len => g.0 = at + 1,
                _ => groups.push((at + 1, len)),
            }
        }
        Self {
            a: a.clone(),
            perm,
            groups,
        }
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        let (rowptr, colidx, val) = (self.a.rowptr(), self.a.colidx(), self.a.values());
        let mut start = 0;
        for &(end, len) in &self.groups {
            let rows = &self.perm[start..end];
            for &r in rows {
                y[r as usize] = 0.0;
            }
            for j in 0..len {
                for &r in rows {
                    let k = rowptr[r as usize] + j;
                    y[r as usize] += val[k] * x[colidx[k] as usize];
                }
            }
            start = end;
        }
    }
}

/// SELL-8 `y = A·x` through the hardware gather — `vgatherdpd` under the
/// sentinel mask, the inner loop `sellkit-core` ran on its AVX2 and AVX-512
/// tiers until scalar loads replaced it (EXPERIMENTS.md §5.5).  A
/// measurement stand-in, not a kernel: f64 only, no plan, no windows, and
/// the pre-PR-18 layout — one 4-byte column per entry — in arrays of its
/// own, filled from [`Sell8::row`].
#[cfg(target_arch = "x86_64")]
mod hw_gather {
    use std::arch::x86_64::*;

    use sellkit_core::{MatShape, Sell8};

    pub struct HwGatherSell8 {
        nrows: usize,
        ncols: usize,
        sliceptr: Vec<usize>,
        /// One column per stored entry, padding the sentinel `ncols`.
        colidx: Vec<u32>,
        /// One value per stored entry, padding `0.0`.
        val: Vec<f64>,
    }

    impl HwGatherSell8 {
        pub fn new(sell: &Sell8) -> Self {
            let sliceptr = sell.sliceptr().to_vec();
            let mut colidx = vec![sell.ncols() as u32; sell.stored_elems()];
            let mut val = vec![0.0; sell.stored_elems()];
            for i in 0..sell.nrows() {
                for (j, (c, v)) in sell.row(i).enumerate() {
                    let at = sliceptr[i / 8] + j * 8 + i % 8;
                    (colidx[at], val[at]) = (c, v);
                }
            }
            Self {
                nrows: sell.nrows(),
                ncols: sell.ncols(),
                sliceptr,
                colidx,
                val,
            }
        }

        /// Whether the host has the gather `wide` picks: the 8-lane `zmm`
        /// one, or the 4-lane `ymm` one.
        pub fn available(wide: bool) -> bool {
            if wide {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
            } else {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
        }

        /// # Panics
        /// Unless [`Self::available`]`(wide)`.
        pub fn spmv(&self, wide: bool, x: &[f64], y: &mut [f64]) {
            assert!(Self::available(wide));
            assert_eq!((x.len(), y.len()), (self.ncols, self.nrows));
            // SAFETY: the features of the loop `wide` selects were just
            // detected; `new` keeps every slice a whole number of 8-entry
            // columns inside `colidx`/`val` (the `Sell8` geometry) and
            // every column index below `ncols == x.len()` or equal to it
            // (padding), which the gathers mask off.
            unsafe {
                if wide {
                    zmm(self, x, y)
                } else {
                    ymm(self, x, y)
                }
            }
        }
    }

    /// # Safety
    ///
    /// `avx512f` and `avx512vl` present; `x.len() == s.ncols`,
    /// `y.len() == s.nrows`.
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn zmm(s: &HwGatherSell8, x: &[f64], y: &mut [f64]) {
        let (sp, ci, val) = (&s.sliceptr, s.colidx.as_ptr(), s.val.as_ptr());
        // SAFETY: see `spmv`.
        unsafe {
            let xlen = _mm256_set1_epi32(x.len() as i32);
            for (slice, out) in y.chunks_mut(8).enumerate() {
                let mut acc = _mm512_setzero_pd();
                for at in (sp[slice]..sp[slice + 1]).step_by(8) {
                    let idx = _mm256_loadu_si256(ci.add(at).cast());
                    let live = _mm256_cmplt_epu32_mask(idx, xlen);
                    let xv =
                        _mm512_mask_i32gather_pd::<8>(_mm512_setzero_pd(), live, idx, x.as_ptr());
                    acc = _mm512_fmadd_pd(_mm512_loadu_pd(val.add(at)), xv, acc);
                }
                _mm512_mask_storeu_pd(out.as_mut_ptr(), ((1u16 << out.len()) - 1) as u8, acc);
            }
        }
    }

    /// # Safety
    ///
    /// `avx2` and `fma` present; `x.len() == s.ncols`,
    /// `y.len() == s.nrows`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn ymm(s: &HwGatherSell8, x: &[f64], y: &mut [f64]) {
        let (sp, ci, val) = (&s.sliceptr, s.colidx.as_ptr(), s.val.as_ptr());
        // SAFETY: see `spmv`.
        unsafe {
            let (xlen, zero) = (_mm_set1_epi32(x.len() as i32), _mm256_setzero_pd());
            for (slice, out) in y.chunks_mut(8).enumerate() {
                let mut acc = [zero; 2];
                for at in (sp[slice]..sp[slice + 1]).step_by(8) {
                    for (half, a) in acc.iter_mut().enumerate() {
                        let at = at + 4 * half;
                        let idx = _mm_loadu_si128(ci.add(at).cast());
                        let live = _mm256_cvtepi32_epi64(_mm_cmpgt_epi32(xlen, idx));
                        let live = _mm256_castsi256_pd(live);
                        let xv = _mm256_mask_i32gather_pd::<8>(zero, x.as_ptr(), idx, live);
                        *a = _mm256_fmadd_pd(_mm256_loadu_pd(val.add(at)), xv, *a);
                    }
                }
                let mut lanes = [0.0f64; 8];
                _mm256_storeu_pd(lanes.as_mut_ptr(), acc[0]);
                _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc[1]);
                out.copy_from_slice(&lanes[..out.len()]);
            }
        }
    }
}

/// The variants of the `gather` exhibit: SELL-8 at each SIMD tier as
/// `sellkit-core` runs it (`x` read with scalar loads), next to the same
/// loop through `vgatherdpd` where the host has it.
pub fn build_gather_variants(a: &Csr) -> Vec<Variant> {
    let mut out: Vec<Variant> = Vec::new();
    // One copy of the matrix for every variant: out of cache it is 250 MB.
    let shared = std::rc::Rc::new(Sell8::from_csr(a));
    for isa in Isa::available_tiers().into_iter().skip(1) {
        let sell = shared.clone();
        out.push(Variant {
            label: format!("scalar loads {isa}"),
            run: Box::new(move |x, y| sell.spmv_isa(isa, x, y)),
        });
    }
    #[cfg(target_arch = "x86_64")]
    {
        use hw_gather::HwGatherSell8;
        // The stand-in's 4-byte-index arrays, likewise built once.
        let hw = std::rc::Rc::new(HwGatherSell8::new(&shared));
        for (wide, label) in [(false, "vgatherdpd ymm"), (true, "vgatherdpd zmm")] {
            if HwGatherSell8::available(wide) {
                let hw = hw.clone();
                out.push(Variant {
                    label: label.into(),
                    run: Box::new(move |x, y| hw.spmv(wide, x, y)),
                });
            }
        }
    }
    out
}

/// Builds all kernel variants the host CPU can run, in Figure 8 order.
pub fn build_variants(a: &Csr) -> Vec<Variant> {
    let simd: Vec<Isa> = Isa::available_tiers()
        .into_iter()
        .rev()
        .filter(|&isa| isa != Isa::Scalar)
        .collect();
    let mut out: Vec<Variant> = simd
        .iter()
        .map(|&isa| {
            Variant::op(
                format!("SELL using {isa}"),
                Sell8::from_csr(a).with_isa(isa),
            )
        })
        .collect();
    out.extend(
        simd.iter()
            .map(|&isa| Variant::op(format!("CSR using {isa}"), a.clone().with_isa(isa))),
    );
    let perm = AijPerm::new(a);
    out.push(Variant {
        label: "CSRPerm".into(),
        run: Box::new(move |x, y| perm.spmv(x, y)),
    });
    out.push(Variant::op("CSR baseline", a.clone().with_isa(Isa::Scalar)));
    let mkl = MklLikeCsr::new(a);
    out.push(Variant {
        label: "MKL-like".into(),
        run: Box::new(move |x, y| mkl.spmv(x, y)),
    });
    out.push(Variant::op(
        "SELL using novec",
        Sell8::from_csr(a).with_isa(Isa::Scalar),
    ));
    out
}

/// Measured variants beyond the Figure 8 set: the §5.5 tuned kernel, the
/// §5.1 slice heights, σ-sorting and 2×2 blocks.
pub fn build_extended_variants(a: &Csr) -> Vec<Variant> {
    use sellkit_core::{Sell, SellSigma8};
    let tuned = Sell8::from_csr(a);
    vec![
        Variant {
            label: "SELL tuned (two-slice unroll)".into(),
            run: Box::new(move |x, y| tuned.spmv_tuned(x, y)),
        },
        Variant::op("SELL C=4", Sell::<4>::from_csr(a)),
        Variant::op("SELL C=16", Sell::<16>::from_csr(a)),
        Variant::op(
            "SELL sigma=global",
            SellSigma8::from_csr_sigma(a, a.nrows().max(1)),
        ),
        Variant::op("BAIJ bs=2", Baij::from_csr(a, 2)),
    ]
}

/// Best-of-`reps` wall time of one call of `f`, after a warm-up call.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    assert!(reps >= 1);
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` seconds of each variant's `y = A·x` on the same `x`.
pub fn time_variants(variants: &[Variant], x: &[f64], nrows: usize, reps: usize) -> Vec<f64> {
    let mut y = vec![0.0; nrows];
    variants
        .iter()
        .map(|v| best_of(reps, || (v.run)(x, std::hint::black_box(&mut y))))
        .collect()
}

/// The Gray-Scott Jacobian on a `g × g` grid at the initial condition.
pub fn jacobian(g: usize) -> Csr {
    let gs = GrayScott::new(g, GrayScottParams::default());
    gs.rhs_jacobian(0.0, &gs.initial_condition(1))
}

/// The input vector every exhibit multiplies: smooth, of length `n`.
pub fn probe_x(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.001).sin()).collect()
}

/// Converts nonzeros + seconds into Gflop/s (2 flops per nonzero).
pub fn gflops(nnz: usize, secs: f64) -> f64 {
    2.0 * nnz as f64 / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        sellkit_workloads::generators::stencil5(32)
    }

    #[test]
    fn variants_all_agree_numerically() {
        let a = sample();
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut want = vec![0.0; a.nrows()];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        for v in build_variants(&a) {
            let mut got = vec![0.0; a.nrows()];
            (v.run)(&x, &mut got);
            for i in 0..a.nrows() {
                assert!((got[i] - want[i]).abs() < 1e-12, "{} row {i}", v.label);
            }
        }
    }

    /// The hardware-gather stand-in computes the product the tiers do, a
    /// partial last slice and padded lanes included, and does not read `x`
    /// through a padding lane.
    #[test]
    fn gather_variants_agree_numerically() {
        let a = sellkit_workloads::generators::power_law(203, 1, 12, 1.3, 7);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut want = vec![0.0; a.nrows()];
        a.spmv_isa(Isa::Scalar, &x, &mut want);
        for v in build_gather_variants(&a) {
            let mut got = vec![f64::NAN; a.nrows()];
            (v.run)(&x, &mut got);
            for i in 0..a.nrows() {
                assert!((got[i] - want[i]).abs() < 1e-12, "{} row {i}", v.label);
            }
        }
    }

    #[test]
    fn variant_labels_cover_figure8_roles() {
        let labels: Vec<String> = build_variants(&sample())
            .into_iter()
            .map(|v| v.label)
            .collect();
        assert!(labels.iter().any(|l| l == "CSR baseline"));
        assert!(labels.iter().any(|l| l == "CSRPerm"));
        assert!(labels.iter().any(|l| l == "MKL-like"));
        assert!(labels.iter().any(|l| l.starts_with("SELL using")));
    }

    #[test]
    fn extended_variants_agree_numerically() {
        let a = sample();
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.02).cos()).collect();
        let mut want = vec![0.0; a.nrows()];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        for v in build_extended_variants(&a) {
            let mut got = vec![0.0; a.nrows()];
            (v.run)(&x, &mut got);
            for i in 0..a.nrows() {
                assert!((got[i] - want[i]).abs() < 1e-12, "{} row {i}", v.label);
            }
        }
    }

    #[test]
    fn timing_returns_positive() {
        let a = sample();
        let v = build_variants(&a);
        let t = time_variants(&v[..1], &probe_x(a.ncols()), a.nrows(), 3)[0];
        assert!(t > 0.0);
        assert!(gflops(a.nnz(), t) > 0.0);
    }

    #[test]
    fn mkl_like_matches_csr() {
        let a = sample();
        let x = vec![0.5; a.ncols()];
        let mut y1 = vec![0.0; a.nrows()];
        let mut y2 = vec![0.0; a.nrows()];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y1).into(),
            Apply::Set,
        );
        MklLikeCsr::new(&a).spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }
}
