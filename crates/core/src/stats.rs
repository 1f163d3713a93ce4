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

    /// Stats for a SELL matrix: every array the struct holds, each stream
    /// once — the values (f64 or the codec's packed bytes), the narrow
    /// offsets and their per-slice bases, the wide slices' `u32` columns
    /// and their prefix, `sliceptr`, `rlen`.
    pub fn for_sell<const C: usize>(a: &Sell<C>) -> Self {
        Self {
            format: "SELL",
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
            stored_elems: a.stored_elems(),
            bytes: size_of_val(a.values())
                + size_of_val(a.packed_values())
                + size_of_val(a.cidx16())
                + size_of_val(a.cbase())
                + size_of_val(a.colidx())
                + size_of_val(a.wideptr())
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
        s.bytes += a.bit_array_bytes() + size_of_val(a.colidx());
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
        // `banded`: every slice narrow.  With row 3 reaching 70 000 columns
        // away, slice 0 goes wide — a mixed matrix, like every Gray-Scott
        // Jacobian from grid 256 up (the periodic wrap rows).
        let mixed = {
            let mut b = CooBuilder::new(24, 70_000);
            for i in 0..24 {
                b.push(i, i, 1.0);
                b.push(i, if i == 3 { 69_999 } else { i + 1 }, 2.0);
            }
            b.to_csr()
        };
        for (a, wide_slices) in [(banded(128), 0), (mixed, 1)] {
            for codec in [Codec::F64, Codec::F32, Codec::Bf16] {
                let s = Sell8::from_csr_codec(&a, codec);
                let (stored, nslices) = (s.stored_elems(), s.nslices());
                let wide_entries = s.colidx().len();
                assert_eq!(
                    s.cbase().iter().filter(|&&b| b == u32::MAX).count(),
                    wide_slices
                );
                assert_eq!(
                    wide_entries,
                    wide_slices * 8 * 2,
                    "two columns per wide slice"
                );
                // One value and one 2-byte offset per stored entry, 4 bytes
                // per entry of a wide slice, `cbase` per slice, the two
                // prefixes, `rlen`: 10 / 6 / 4 bytes a stored entry where
                // the two-copy layout held 14 / 18 / 16.
                assert_eq!(
                    FormatStats::for_sell(&s).bytes,
                    (codec.bytes_per_value() + 2) * stored
                        + 4 * wide_entries
                        + 4 * nslices
                        + 8 * 2 * (nslices + 1)
                        + 4 * a.nrows(),
                    "{codec:?}, {wide_slices} wide"
                );
            }
        }
    }

    #[test]
    fn esb_costs_more_than_plain_sell() {
        let a = banded(256);
        let sell = Sell8::from_csr(&a);
        let esb = SellEsb::from_csr(&a);
        let s1 = FormatStats::for_sell(&sell);
        let s2 = FormatStats::for_sell_esb(&esb);
        // The bit array, and the paper's 4-byte index per stored entry.
        assert_eq!(
            s2.bytes - s1.bytes,
            esb.bit_array_bytes() + 4 * sell.stored_elems()
        );
    }

    #[test]
    fn display_is_stable() {
        let a = banded(16);
        let line = FormatStats::for_csr(&a).to_string();
        assert!(line.contains("CSR"));
        assert!(line.contains("nnz="));
    }
}
