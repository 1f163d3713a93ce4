//! SpMV/SpMM kernels: each operation written once, instantiated per ISA
//! tier.
//!
//! The paper's two loops — **CSR** (Algorithm 1: vectorize one row's inner
//! product, with an unavoidable remainder loop) and **SELL** (Algorithm 2:
//! one slice of `C` adjacent rows per iteration, streaming in storage
//! order, no remainder) — differ across AVX, AVX2 and AVX-512 only in
//! register width and FMA (§5.3, §5.5).  So each operation is one
//! `#[inline(always)]` body generic over a [`lanes::Lanes`] tier:
//!
//! | body | generic over | what it is |
//! |---|---|---|
//! | `csr::spmv` | `L`, `ADD` | Algorithm 1; row remainder per tier |
//! | `csr::spmm` | `L`, `ADD` | `k`-wide blocks, lanes along `k` |
//! | `sell::spmv` | `L`, codec, `C`, `ADD`, `UNROLL` | Algorithm 2 for f64 and PackSELL values, wide and narrow indices; `UNROLL` = the §5.5 tuning ablation |
//! | `sell::spmm` | `L`, codec, `C`, `ADD` | `k`-wide blocks, lanes along `k` |
//! | `sell::esb_spmv` | `L`, `ADD` | the §5.3 bit-array ablation: SELL-8, one masked multiply-add per vector |
//!
//! | tier | lanes `W` | multiply-add |
//! |---|---|---|
//! | scalar | 1 | two roundings |
//! | AVX | 4 | two instructions, two roundings |
//! | AVX2 | 4 | fused |
//! | AVX-512 | 8 | fused; masked CSR remainder |
//!
//! Every tier reads `x` with scalar loads — the §5.5 emulated gather,
//! written once over [`lanes::Lanes::build`]; none issues `vgatherdpd`.
//!
//! SELL SpMV keeps `C / W` accumulator vectors per slice, so `W` must
//! divide `C`; a tier that does not (SELL-4 on AVX-512) runs the widest
//! narrower one that does, and heights other than 4, 8 and 16 run the
//! scalar lanes.
//!
//! [`checked`] holds the only entry points: safe functions that assert the
//! bodies' contracts (debug builds) and the CPU features (always), then
//! monomorphise the body inside a `#[target_feature]` shim.  The format
//! types (`Csr`, `Sell`, `SellEsb`) are their only callers.
//!
//! All *live* column indices must be in bounds of `x`; SELL padding
//! carries the sentinel index `ncols` (== `x.len()`), which every body
//! masks to `0.0` instead of dereferencing — the paper's local-copy
//! padding (§5.5) would alias live `x` entries and turn `0.0 × Inf` into
//! NaN.

mod checked;
mod csr;
mod lanes;
mod sell;

pub(crate) use checked::{
    csr_spmm, csr_spmv, sell_esb_spmv, sell_spmm, sell_spmv, SellParts, SellVals,
};
