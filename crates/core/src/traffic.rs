//! The §6 memory-traffic model.
//!
//! SpMV is memory-bandwidth bound on every architecture in the paper, so
//! the *minimum* memory traffic of a kernel predicts its performance.  With
//! 8-byte floats and 4-byte column indices, for an `m × n` matrix with
//! `nnz` nonzeros:
//!
//! * **CSR**:  `12·nnz + 24·m + 8·n` bytes — value+index per nonzero
//!   (`12·nnz`), the output vector (`8·m`), the input vector (`8·n`), and a
//!   row-pointer entry per row for *both* the diagonal and the off-diagonal
//!   block (`8·m + 8·m`).
//! * **SELL**: `12·nnz + 10·m + 8·n` bytes — the slice pointers are one
//!   8-byte entry per 8 rows for each of the two blocks
//!   (`2 · m/8 · 8 = 2·m`), replacing CSR's `16·m` of row pointers.
//!
//! Those two are the **paper's §6 model** ([`csr_traffic`],
//! [`sell_traffic`]): what `exhibit traffic_model` and
//! `tests/paper_claims.rs` evaluate on the paper's shapes.  What this
//! crate's `Sell` actually streams — the **measured stream**,
//! `sell_stream_traffic`, behind `Sell`'s `Operator::spmv_traffic` and
//! [`for_sell`] — deviates from it in the per-nonzero term:
//!
//! * `w·nnz` value bytes with `w ∈ {8, 4, 2}` for f64/f32/bf16, plus
//!   2 index bytes per nonzero in slices whose column span fits a `u16`
//!   offset (narrow form) and 4 bytes in the rest, plus a 4-byte per-slice
//!   base: 10 B/nnz instead of the paper's 12 on any banded f64 matrix.
//!
//! Padding bytes are deliberately *not* counted (§6: "extra memory overhead
//! contributed by padded zeros are not counted in order to eliminate
//! artifacts due to implementation").  [`sell_traffic_with_padding`]
//! adds them back for studying irregular matrices.

use crate::csr::Csr;
use crate::sell::Sell;
use crate::traits::{MatShape, Operator};

/// Bytes per double-precision value.
pub(crate) const BYTES_F64: usize = 8;
/// Bytes per column index.
pub(crate) const BYTES_IDX: usize = 4;

/// Minimum-traffic estimate for one SpMV.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficEstimate {
    /// Minimum bytes moved from memory.
    pub bytes: u64,
    /// Floating-point operations (2 per nonzero).
    pub flops: u64,
}

impl TrafficEstimate {
    /// Arithmetic intensity in flops/byte.  For the paper's Gray-Scott
    /// matrices this lands near **0.132** (Figure 9).
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops as f64 / self.bytes as f64
    }

    /// Predicted execution time (seconds) at a given memory bandwidth
    /// (bytes/s), assuming the kernel is purely bandwidth-bound.
    pub fn time_at_bandwidth(&self, bytes_per_sec: f64) -> f64 {
        self.bytes as f64 / bytes_per_sec
    }

    /// Predicted Gflop/s at a given memory bandwidth (GB/s).
    pub fn gflops_at_bandwidth(&self, gb_per_sec: f64) -> f64 {
        self.arithmetic_intensity() * gb_per_sec
    }
}

/// CSR minimum traffic: `12·nnz + 24·m + 8·n`.
pub fn csr_traffic(m: usize, n: usize, nnz: usize) -> TrafficEstimate {
    TrafficEstimate {
        bytes: (12 * nnz + 24 * m + 8 * n) as u64,
        flops: 2 * nnz as u64,
    }
}

/// SELL minimum traffic, paper §6 model: `12·nnz + 10·m + 8·n` — the only
/// spelling of the paper's formula, whatever index form a [`Sell`] holds.
pub fn sell_traffic(m: usize, n: usize, nnz: usize) -> TrafficEstimate {
    TrafficEstimate {
        bytes: (12 * nnz + 10 * m + 8 * n) as u64,
        flops: 2 * nnz as u64,
    }
}

/// SELL minimum traffic, measured stream: what the `Sell` kernels move at
/// any codec.  Per live nonzero, `value_bytes` (8 for f64, 4 for f32, 2 for
/// bf16) plus its index: 2 bytes under the narrow per-slice form, 4 bytes
/// wide.  Each slice additionally reads its 4-byte `cbase` selector
/// (`4·nslices`), and the vector terms (`8·m` out, `8·n` in) plus the `2·m`
/// sliceptr bytes match [`sell_traffic`].  Padding is not counted, per the
/// §6 convention.
pub(crate) fn sell_stream_traffic(
    m: usize,
    n: usize,
    nnz: usize,
    value_bytes: usize,
    narrow_nnz: u64,
    nslices: usize,
) -> TrafficEstimate {
    let wide_nnz = nnz as u64 - narrow_nnz;
    TrafficEstimate {
        bytes: (value_bytes * nnz) as u64
            + 2 * narrow_nnz
            + 4 * wide_nnz
            + 4 * nslices as u64
            + (10 * m + 8 * n) as u64,
        flops: 2 * nnz as u64,
    }
}

/// ELLPACK-family traffic including padding: padded entries still move
/// their 12 bytes even though they do no useful work.
pub fn sell_traffic_with_padding(
    m: usize,
    n: usize,
    nnz: usize,
    stored_elems: usize,
) -> TrafficEstimate {
    let base = sell_traffic(m, n, nnz);
    TrafficEstimate {
        bytes: base.bytes + 12 * (stored_elems - nnz) as u64,
        flops: base.flops,
    }
}

/// Traffic estimate for a concrete CSR matrix.
pub fn for_csr(a: &Csr) -> TrafficEstimate {
    csr_traffic(a.nrows(), a.ncols(), a.nnz())
}

/// Traffic estimate for a concrete SELL matrix — the measured stream,
/// i.e. `a.spmv_traffic()` (paper convention: padding not counted).  The
/// paper §6 model of the same shape is [`sell_traffic`].
pub fn for_sell<const C: usize>(a: &Sell<C>) -> TrafficEstimate {
    a.spmv_traffic()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_match_paper() {
        // m = n, 10 nonzeros per row — the Gray-Scott 5-point, dof-2 case.
        let m = 1000usize;
        let nnz = 10 * m;
        let c = csr_traffic(m, m, nnz);
        let s = sell_traffic(m, m, nnz);
        assert_eq!(c.bytes, (12 * nnz + 24 * m + 8 * m) as u64);
        assert_eq!(s.bytes, (12 * nnz + 10 * m + 8 * m) as u64);
        assert_eq!(c.flops, s.flops);
        assert!(s.bytes < c.bytes);
    }

    #[test]
    fn gray_scott_arithmetic_intensity_near_paper_value() {
        // The paper reads AI ≈ 0.132 off its analysis for the 2048² grid
        // with 10 nnz/row.  Check the CSR model lands close.
        let m = 2048 * 2048 * 2;
        let ai = csr_traffic(m, m, 10 * m).arithmetic_intensity();
        assert!((ai - 0.132).abs() < 0.01, "AI = {ai}");
    }

    #[test]
    fn sell_ai_exceeds_csr_ai() {
        let m = 4096;
        let nnz = 9 * m;
        let csr = csr_traffic(m, m, nnz).arithmetic_intensity();
        let sell = sell_traffic(m, m, nnz).arithmetic_intensity();
        assert!(sell > csr, "SELL moves fewer bytes per flop");
    }

    #[test]
    fn padding_increases_bytes_only() {
        let base = sell_traffic(100, 100, 500);
        let padded = sell_traffic_with_padding(100, 100, 500, 600);
        assert_eq!(padded.flops, base.flops);
        assert_eq!(padded.bytes, base.bytes + 1200);
    }

    #[test]
    fn bandwidth_prediction_is_linear() {
        let t = csr_traffic(1000, 1000, 5000);
        let g1 = t.gflops_at_bandwidth(100.0);
        let g2 = t.gflops_at_bandwidth(400.0);
        assert!((g2 / g1 - 4.0).abs() < 1e-12);
        assert!((t.time_at_bandwidth(1e9) - t.bytes as f64 / 1e9).abs() < 1e-15);
    }
}
