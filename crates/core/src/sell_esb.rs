//! SELL with an ESB-style **bit array** (Liu et al., §5.3) — kept as an
//! ablation.
//!
//! The ESB format attaches a bitmask to every slice column marking which
//! lanes hold real nonzeros, so masked vector operations skip the padded
//! zeros entirely.  The paper rejects this for PETSc: the bit array costs
//! ~1/64 of the value-array storage plus extra memory traffic, masked
//! instructions need newer hardware, and skipping padding makes the value
//! loads unaligned.  Their measurement: **not** using the bit array is
//! ~10 % faster (§5.3).  This type exists so that comparison can be
//! re-measured (`benches/ablation_bitarray.rs`).

use crate::aligned::AVec;
use crate::csr::Csr;
use crate::exec::ExecCtx;
use crate::isa::Isa;
use crate::multivec::{VecView, VecViewMut};
use crate::plan::{PlanCache, SpmvPlan};
use crate::sell::Sell8;
use crate::traits::{check_apply_dims, check_spmv_dims, Apply, MatShape, Operator};

/// SELL-8 plus a per-column lane mask (ESB-style).
#[derive(Clone, Debug)]
pub struct SellEsb {
    sell: Sell8,
    /// One 8-bit mask per slice column: bit `r` set ⇔ lane `r` is a real
    /// nonzero of its row (not padding).
    bits: AVec<u8>,
    /// Cached threaded execution plans; invalidated on pattern change.
    plan: PlanCache,
}

impl SellEsb {
    /// Converts from CSR via SELL-8, computing the lane masks.
    pub fn from_csr(csr: &Csr) -> Self {
        let sell = Sell8::from_csr(csr);
        let sliceptr = sell.sliceptr();
        let nslices = sell.nslices();
        let ncolumns = sell.stored_elems() / 8;
        let mut bits: AVec<u8> = AVec::zeroed(ncolumns);
        let mut col_at = 0usize;
        for s in 0..nslices {
            let w = (sliceptr[s + 1] - sliceptr[s]) / 8;
            for j in 0..w {
                let mut m = 0u8;
                for r in 0..8 {
                    let row = s * 8 + r;
                    if row < sell.nrows() && (j as u32) < sell.rlen()[row] {
                        m |= 1 << r;
                    }
                }
                bits[col_at + j] = m;
            }
            col_at += w;
        }
        Self {
            sell,
            bits,
            plan: PlanCache::new(),
        }
    }

    /// The underlying SELL-8 matrix.
    pub fn sell(&self) -> &Sell8 {
        &self.sell
    }

    /// The bit array (one mask byte per slice column).
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// Extra storage for the bit array, in bytes (≈ `val` bytes / 64).
    pub fn bit_array_bytes(&self) -> usize {
        self.bits.len()
    }

    /// SpMV with an explicit ISA.
    pub fn spmv_isa(&self, isa: Isa, x: &[f64], y: &mut [f64]) {
        check_spmv_dims(self.sell.nrows(), self.sell.ncols(), x, y);
        self.slices(isa, 0, self.sell.nslices(), x, y);
    }

    /// The product over slices `s0..s1` into the matching window `y` (the
    /// whole matrix is the one-part window): the masked AVX-512 kernel at
    /// that tier, the scalar masked kernel at every other.  The bit array
    /// is windowed to the first slice's mask byte.
    fn slices(&self, isa: Isa, s0: usize, s1: usize, x: &[f64], y: &mut [f64]) {
        let m = self.sell.parts(s0, s1);
        let bits = &self.bits[m.sliceptr[0] / 8..];
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => crate::kernels::sell_esb_spmv(&m, bits, x, y),
            _ => esb_spmv_scalar(
                m.sliceptr,
                m.colidx,
                self.sell.values(),
                bits,
                m.nrows,
                x,
                y,
            ),
        }
    }
}

/// The scalar masked kernel body, windowing like the SIMD entry
/// points: `sliceptr` may be a sub-window with absolute offsets into the
/// full `val`/`colidx`, `bits` starts at the window's first mask byte
/// (`full_bits[sliceptr[0] / 8]`), `nrows` and `y` cover the window's rows.
fn esb_spmv_scalar(
    sliceptr: &[usize],
    colidx: &[u32],
    val: &[f64],
    bits: &[u8],
    nrows: usize,
    x: &[f64],
    y: &mut [f64],
) {
    let nslices = sliceptr.len().saturating_sub(1);
    let mut col_at = 0usize;
    for s in 0..nslices {
        let mut acc = [0.0f64; 8];
        let w = (sliceptr[s + 1] - sliceptr[s]) / 8;
        for j in 0..w {
            let m = bits[col_at + j];
            let base = sliceptr[s] + j * 8;
            for r in 0..8 {
                if m & (1 << r) != 0 {
                    acc[r] += val[base + r] * x[colidx[base + r] as usize];
                }
            }
        }
        col_at += w;
        let lanes = 8.min(nrows - s * 8);
        y[s * 8..s * 8 + lanes].copy_from_slice(&acc[..lanes]);
    }
}

impl MatShape for SellEsb {
    fn nrows(&self) -> usize {
        self.sell.nrows()
    }
    fn ncols(&self) -> usize {
        self.sell.ncols()
    }
    fn nnz(&self) -> usize {
        self.sell.nnz()
    }
}

impl SellEsb {
    /// Overwriting `y = A·x` body shared by both [`Operator::apply`]
    /// modes (the accumulate mode stages through a scratch column: the
    /// masked ESB kernels overwrite `y`, and this ablation format sits on
    /// no solver hot path that needs a fused accumulate).
    fn spmv_set(&self, ctx: &ExecCtx, x: &[f64], y: &mut [f64]) {
        check_spmv_dims(self.sell.nrows(), self.sell.ncols(), x, y);
        if ctx.is_serial() {
            self.spmv_isa(self.sell.isa(), x, y);
            return;
        }
        // Slice-aligned plan, like plain SELL-8; each part runs the *same*
        // masked kernel the serial path uses (bitwise determinism).
        let plan = self.plan.get_or_build(ctx.threads(), |epoch| {
            SpmvPlan::from_prefix(
                self.sell.sliceptr(),
                8,
                self.sell.nrows(),
                ctx.threads(),
                self.sell.isa(),
                epoch,
            )
        });
        let isa = plan.isa();
        plan.run_on(ctx, y, &|_, part, win| {
            self.slices(isa, part.item0, part.item1, x, win);
        });
    }
}

impl Operator for SellEsb {
    /// Blocked operands (`k > 1`) run column by column; the ESB bit-array
    /// ablation has no native SpMM kernel.
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        check_apply_dims(self.sell.nrows(), self.sell.ncols(), &x, &y);
        crate::multivec::apply_columnwise(ctx, x, y, mode, |ctx, xc, yc, m| match m {
            Apply::Set => self.spmv_set(ctx, xc, yc),
            Apply::Add => {
                let mut tmp = vec![0.0; yc.len()];
                self.spmv_set(ctx, xc, &mut tmp);
                for (o, t) in yc.iter_mut().zip(&tmp) {
                    *o += *t;
                }
            }
        });
    }

    fn spmv_traffic(&self) -> crate::traffic::TrafficEstimate {
        crate::traffic::sell_traffic(self.sell.nrows(), self.sell.ncols(), self.sell.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooBuilder;

    fn irregular(n: usize) -> Csr {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            let len = i % 7 + 1;
            for j in 0..len {
                b.push(i, (i + j * 5) % n, ((i + j) as f64).sin() + 2.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn bit_count_equals_nnz() {
        let a = irregular(50);
        let e = SellEsb::from_csr(&a);
        let set: u32 = e.bits().iter().map(|b| b.count_ones()).sum();
        assert_eq!(set as usize, a.nnz());
    }

    #[test]
    fn scalar_matches_csr() {
        let a = irregular(61);
        let e = SellEsb::from_csr(&a);
        let x: Vec<f64> = (0..61).map(|i| 1.0 / (i + 1) as f64).collect();
        let mut want = vec![0.0; 61];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        let mut got = vec![0.0; 61];
        e.spmv_isa(Isa::Scalar, &x, &mut got);
        for i in 0..61 {
            assert!((got[i] - want[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn avx512_matches_scalar_if_available() {
        if !Isa::Avx512.available() {
            return;
        }
        let a = irregular(100);
        let e = SellEsb::from_csr(&a);
        let x: Vec<f64> = (0..100).map(|i| (i as f64).cos()).collect();
        let mut want = vec![0.0; 100];
        e.spmv_isa(Isa::Scalar, &x, &mut want);
        let mut got = vec![0.0; 100];
        e.spmv_isa(Isa::Avx512, &x, &mut got);
        for i in 0..100 {
            assert!((got[i] - want[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn bit_array_storage_overhead_is_small() {
        let a = irregular(1000);
        let e = SellEsb::from_csr(&a);
        // One byte per 8 doubles = 1/64 of the value array (§5.3).
        assert_eq!(e.bit_array_bytes() * 64, e.sell().stored_elems() * 8);
    }
}
