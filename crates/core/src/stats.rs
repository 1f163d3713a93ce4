//! Per-format storage statistics, for the padding/overhead comparisons the
//! paper makes when motivating slicing (§2.5, §5.1).

use crate::baij::Baij;
use crate::csr::Csr;
use crate::sell::Sell;
use crate::sell_esb::SellEsb;
use crate::traffic::{BYTES_F64, BYTES_IDX};
use crate::traits::MatShape;
use std::fmt;

/// Storage footprint and padding summary of one matrix in one format.
#[derive(Clone, Debug)]
pub struct FormatStats {
    /// Human-readable format name (matching the paper's legend labels).
    pub format: &'static str,
    /// Logical rows.
    pub nrows: usize,
    /// Logical columns.
    pub ncols: usize,
    /// Logical nonzeros.
    pub nnz: usize,
    /// Stored elements including padding/fill.
    pub stored_elems: usize,
    /// Total heap bytes of all arrays.
    pub bytes: usize,
}

impl FormatStats {
    /// Fraction of stored elements that are padding or block fill.
    pub fn padding_ratio(&self) -> f64 {
        if self.stored_elems == 0 {
            0.0
        } else {
            (self.stored_elems - self.nnz) as f64 / self.stored_elems as f64
        }
    }

    /// Bytes per logical nonzero — the storage-efficiency figure of merit.
    pub fn bytes_per_nnz(&self) -> f64 {
        if self.nnz == 0 {
            0.0
        } else {
            self.bytes as f64 / self.nnz as f64
        }
    }

    /// Stats for a CSR matrix.
    pub fn for_csr(a: &Csr) -> Self {
        Self {
            format: "CSR",
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
            stored_elems: a.nnz(),
            bytes: a.nnz() * (BYTES_F64 + BYTES_IDX) + (a.nrows() + 1) * 8,
        }
    }

    /// Stats for a SELL matrix: every array the struct holds — the f64
    /// and `u32` master arrays, the packed value bytes of a reduced codec,
    /// the narrow offsets and their per-slice bases, `sliceptr`, `rlen`.
    pub fn for_sell<const C: usize>(a: &Sell<C>) -> Self {
        Self {
            format: "SELL",
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
            stored_elems: a.stored_elems(),
            bytes: size_of_val(a.values())
                + size_of_val(a.colidx())
                + size_of_val(a.packed_values())
                + size_of_val(a.cidx16())
                + size_of_val(a.cbase())
                + size_of_val(a.sliceptr())
                + size_of_val(a.rlen()),
        }
    }

    /// Stats for a BAIJ matrix.
    pub fn for_baij(a: &Baij) -> Self {
        let bs = a.block_size();
        Self {
            format: "BAIJ",
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
            stored_elems: a.stored_elems(),
            // One index per block instead of per nonzero.
            bytes: a.stored_elems() * BYTES_F64
                + a.nblocks() * BYTES_IDX
                + (a.nrows() / bs + 1) * 8,
        }
    }

    /// Stats for the ESB-style SELL-with-bit-array variant.
    pub fn for_sell_esb(a: &SellEsb) -> Self {
        let mut s = Self::for_sell(a.sell());
        s.format = "SELL+bitarray";
        s.bytes += a.bit_array_bytes();
        s
    }
}

impl fmt::Display for FormatStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>9} x {:<9} nnz={:<10} stored={:<10} padding={:>6.2}% {:>8.2} B/nnz",
            self.format,
            self.nrows,
            self.ncols,
            self.nnz,
            self.stored_elems,
            self.padding_ratio() * 100.0,
            self.bytes_per_nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooBuilder;
    use crate::sell::Sell8;

    fn banded(n: usize) -> Csr {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            for d in [-1i64, 0, 1] {
                let j = i as i64 + d;
                if (0..n as i64).contains(&j) {
                    b.push(i, j as usize, 1.0);
                }
            }
        }
        b.to_csr()
    }

    #[test]
    fn csr_has_zero_padding() {
        let a = banded(100);
        let s = FormatStats::for_csr(&a);
        assert_eq!(s.padding_ratio(), 0.0);
        assert_eq!(s.stored_elems, a.nnz());
    }

    #[test]
    fn sell_padding_small_for_banded() {
        let a = banded(128);
        let s = Sell8::from_csr(&a);
        let st = FormatStats::for_sell(&s);
        // First/last slice have rows of length 2 padded to 3.
        assert!(st.padding_ratio() < 0.01, "padding {}", st.padding_ratio());
    }

    #[test]
    fn sell_bytes_count_the_arrays_held() {
        use crate::codec::Codec;
        let a = banded(128);
        let held = |c: Codec| FormatStats::for_sell(&Sell8::from_csr_codec(&a, c)).bytes;
        let s = Sell8::from_csr(&a);
        // 8 (val) + 4 (colidx) + 2 (cidx16) per stored entry, 4 (cbase) per
        // slice, sliceptr, rlen; a reduced codec adds its packed bytes.
        let f64_bytes = s.stored_elems() * 14 + s.nslices() * 4 + (s.nslices() + 1) * 8 + 128 * 4;
        assert_eq!(held(Codec::F64), f64_bytes);
        assert_eq!(held(Codec::F32), f64_bytes + s.stored_elems() * 4);
        assert_eq!(held(Codec::Bf16), f64_bytes + s.stored_elems() * 2);
    }

    #[test]
    fn esb_costs_more_than_plain_sell() {
        let a = banded(256);
        let sell = Sell8::from_csr(&a);
        let esb = SellEsb::from_csr(&a);
        let s1 = FormatStats::for_sell(&sell);
        let s2 = FormatStats::for_sell_esb(&esb);
        assert!(s2.bytes > s1.bytes);
        assert_eq!(s2.bytes - s1.bytes, esb.bit_array_bytes());
    }

    #[test]
    fn display_is_stable() {
        let a = banded(16);
        let line = FormatStats::for_csr(&a).to_string();
        assert!(line.contains("CSR"));
        assert!(line.contains("nnz="));
    }
}
