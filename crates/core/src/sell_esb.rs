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
//! re-measured (`exhibit bit_array`).
//!
//! The ablation keeps the **paper's layout** — one 4-byte column index per
//! stored entry, `12·nnz` bytes streamed — so it holds a private wide copy
//! of the pattern beside the inner [`Sell8`], whose own index streams (the
//! narrow offsets) its kernel never reads.

use crate::aligned::AVec;
use crate::csr::Csr;
use crate::exec::ExecCtx;
use crate::isa::Isa;
use crate::multivec::{VecView, VecViewMut};
use crate::sell::Sell8;
use crate::traits::{check_apply_dims, check_spmv_dims, Apply, MatShape, Operator};

/// SELL-8 plus a per-column lane mask (ESB-style).
#[derive(Clone, Debug)]
pub struct SellEsb {
    sell: Sell8,
    /// One `u32` column per stored entry, slice-column-major, padding the
    /// sentinel `ncols` — Figure 6's `colidx`, what the masked kernel reads.
    colidx: AVec<u32>,
    /// One 8-bit mask per slice column: bit `r` set ⇔ lane `r` is a real
    /// nonzero of its row (not padding).
    bits: AVec<u8>,
}

impl SellEsb {
    /// Converts from CSR via SELL-8, computing the lane masks.
    pub fn from_csr(csr: &Csr) -> Self {
        let sell = Sell8::from_csr(csr);
        let sliceptr = sell.sliceptr();
        let nslices = sell.nslices();
        let ncolumns = sell.stored_elems() / 8;
        let mut bits: AVec<u8> = AVec::zeroed(ncolumns);
        let mut colidx: AVec<u32> = AVec::zeroed(sell.stored_elems());
        colidx.fill(csr.ncols() as u32);
        let mut col_at = 0usize;
        for s in 0..nslices {
            let w = (sliceptr[s + 1] - sliceptr[s]) / 8;
            for r in 0..8.min(sell.nrows() - s * 8) {
                for (j, (c, _)) in sell.row(s * 8 + r).enumerate() {
                    bits[col_at + j] |= 1 << r;
                    colidx[sliceptr[s] + j * 8 + r] = c;
                }
            }
            col_at += w;
        }
        Self { sell, colidx, bits }
    }

    /// The underlying SELL-8 matrix.
    pub fn sell(&self) -> &Sell8 {
        &self.sell
    }

    /// The column indices the masked kernel reads: one per stored entry,
    /// slice-column-major, padding the sentinel `ncols`.
    pub fn colidx(&self) -> &[u32] {
        &self.colidx
    }

    /// The bit array (one mask byte per slice column).
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// Extra storage for the bit array, in bytes (≈ `val` bytes / 64).
    pub fn bit_array_bytes(&self) -> usize {
        self.bits.len()
    }

    /// Overrides the dispatch ISA (panics if unavailable on this CPU).
    pub fn with_isa(mut self, isa: Isa) -> Self {
        self.sell = self.sell.with_isa(isa);
        self
    }

    /// SpMV with an explicit ISA.
    pub fn spmv_isa(&self, isa: Isa, x: &[f64], y: &mut [f64]) {
        check_spmv_dims(self.sell.nrows(), self.sell.ncols(), x, y);
        self.slices::<false>(isa, 0, self.sell.nslices(), x, y);
    }

    /// The masked product over slices `s0..s1` into the matching window
    /// `y` (the whole matrix is the one-part window), at tier `isa`.  The
    /// bit array is windowed to the first slice's mask byte.
    fn slices<const ADD: bool>(&self, isa: Isa, s0: usize, s1: usize, x: &[f64], y: &mut [f64]) {
        let sliceptr = &self.sell.sliceptr()[s0..=s1];
        let bits = &self.bits[sliceptr[0] / 8..];
        let val = self.sell.values();
        crate::kernels::sell_esb_spmv::<ADD>(isa, sliceptr, &self.colidx, val, bits, x, y);
    }

    /// Shared body of both [`Operator::apply`] modes for one vector: the
    /// slice-aligned partition plain SELL-8 uses, each part running the
    /// *same* masked kernel (bitwise determinism).
    fn spmv<const ADD: bool>(&self, ctx: &ExecCtx, x: &[f64], y: &mut [f64]) {
        let isa = self.sell.isa();
        ctx.dispatch_weighted(self.sell.sliceptr(), 8, y, 1, &|s0, s1, win| {
            self.slices::<ADD>(isa, s0, s1, x, win);
        });
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

impl Operator for SellEsb {
    /// Blocked operands (`k > 1`) run column by column; the ESB bit-array
    /// ablation has no native SpMM kernel.
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        check_apply_dims(self.sell.nrows(), self.sell.ncols(), &x, &y);
        crate::multivec::apply_columnwise(ctx, x, y, mode, |ctx, xc, yc, m| match m {
            Apply::Set => self.spmv::<false>(ctx, xc, yc),
            Apply::Add => self.spmv::<true>(ctx, xc, yc),
        });
    }

    /// `12·nnz + bits + 10·m + 8·n`: the masked kernel streams the f64
    /// values and this type's own `u32` `colidx` (never the inner matrix's
    /// narrow offsets), plus the bit array, one byte per slice column
    /// (§5.3's "extra memory traffic").
    fn spmv_traffic(&self) -> crate::traffic::TrafficEstimate {
        let mut t = crate::traffic::sell_traffic(self.nrows(), self.ncols(), self.nnz());
        t.bytes += self.bits.len() as u64;
        t
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
    fn every_tier_matches_csr_in_both_modes() {
        let a = irregular(61);
        let x: Vec<f64> = (0..61).map(|i| 1.0 / (i + 1) as f64).collect();
        let mut want = vec![0.0; 61];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        for isa in Isa::available_tiers() {
            let e = SellEsb::from_csr(&a).with_isa(isa);
            let mut got = vec![f64::NAN; 61];
            e.spmv_isa(isa, &x, &mut got);
            let mut acc = vec![0.5; 61];
            e.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut acc).into(),
                Apply::Add,
            );
            for i in 0..61 {
                assert!((got[i] - want[i]).abs() < 1e-12, "{isa} row {i}");
                assert!((acc[i] - want[i] - 0.5).abs() < 1e-12, "{isa} add row {i}");
            }
        }
    }

    #[test]
    fn traffic_counts_the_bit_array() {
        let e = SellEsb::from_csr(&irregular(100));
        let (esb, sell) = (e.spmv_traffic(), e.sell().spmv_traffic());
        let paper = crate::traffic::sell_traffic(100, 100, e.nnz());
        assert_eq!(esb.bytes, paper.bytes + e.bit_array_bytes() as u64);
        // ESB stays on 4-byte indices: over the plain SELL-8 stream it also
        // pays 2 bytes per narrow nonzero, less the `cbase` selectors.
        let narrow = e.sell().narrow_nnz();
        assert_eq!(narrow, e.nnz() as u64, "n = 100 fits every slice in u16");
        assert_eq!(
            esb.bytes + 4 * e.sell().nslices() as u64,
            sell.bytes + e.bit_array_bytes() as u64 + 2 * narrow
        );
        assert_eq!(esb.flops, sell.flops);
    }

    #[test]
    fn bit_array_storage_overhead_is_small() {
        let a = irregular(1000);
        let e = SellEsb::from_csr(&a);
        // One byte per 8 doubles = 1/64 of the value array (§5.3).
        assert_eq!(e.bit_array_bytes() * 64, e.sell().stored_elems() * 8);
    }
}
