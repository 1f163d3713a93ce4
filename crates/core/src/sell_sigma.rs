//! SELL-C-σ storage (Kreutzer et al.) — sliced ELLPACK with σ-window row
//! sorting as a first-class format.
//!
//! The paper deliberately ships PETSc's `SELL` **unsorted** (§5.4): the
//! Gray-Scott stencil matrices are regular enough that sorting buys
//! nothing and permuting breaks the assembly-order contract.  On
//! irregular matrices, however, a long row inflates its whole slice to
//! its width and every shorter lane pays the padding in memory traffic.
//! SELL-C-σ fixes this locally: rows are sorted by descending length
//! **within windows of σ rows**, so slices group similar-length rows
//! while the reordering stays confined to a σ-row neighbourhood (σ = 1
//! degenerates to the unsorted format, σ = nrows to full pJDS-style
//! sorting, at the cost of a global permutation's cache behaviour).
//!
//! Implementation: the stored matrix is a plain [`Sell<C>`] built from
//! the row-permuted CSR, so **every existing kernel — scalar, AVX, AVX2,
//! AVX-512, and the pooled slice partition — is reused unchanged**.
//! Column indices are untouched (only rows move), so `x` is gathered
//! directly; the kernels write the *sorted* output into a scratch vector
//! owned by the matrix, and each logical row then gathers its value back
//! through the verified inverse [`Permutation`] (`y[i] = sorted[inv[i]]`,
//! over even windows of `y` on a pool — parallel and bitwise-deterministic,
//! since each element is assigned exactly once).  The scratch is
//! allocated once at construction, keeping `apply` allocation-free on the
//! hot path at any thread count.

use std::sync::Mutex;

use crate::assemble::RowAssembler;
use crate::codec::Codec;
use crate::csr::Csr;
use crate::exec::ExecCtx;
use crate::isa::Isa;
use crate::multivec::{VecView, VecViewMut};
use crate::sell::Sell;
use crate::traits::{check_apply_dims, Apply, MatShape, Operator};

/// A SELL-C-σ matrix: σ-window sorted [`Sell<C>`] plus the row
/// permutation that undoes the sort on output.
///
/// ```
/// use sellkit_core::{Apply, Csr, ExecCtx, Operator, SellSigma8};
///
/// let csr = Csr::from_dense(3, 3, &[2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0]);
/// let s = SellSigma8::from_csr_sigma(&csr, 3);
/// let mut y = vec![0.0; 3];
/// s.apply(&ExecCtx::serial(), (&[1.0, 2.0, 3.0]).into(), (&mut y).into(), Apply::Set);
/// assert_eq!(y, vec![0.0, 0.0, 4.0]);
/// ```
#[derive(Debug)]
pub struct SellSigma<const C: usize> {
    /// The sorted matrix in plain SELL storage (its logical row `k` is
    /// the storage position holding our logical row `perm[k]`).
    inner: Sell<C>,
    /// Storage position `k` → logical row `perm[k]` (verified bijection).
    perm: Permutation,
    /// Logical row → storage position (cached inverse).
    inv: Permutation,
    sigma: usize,
    /// Reusable sorted-output staging buffer (`nrows` long, allocated at
    /// construction so the product path never allocates).
    scratch: Mutex<Vec<f64>>,
}

/// SELL-C-σ with slice height 4.
pub type SellSigma4 = SellSigma<4>;
/// SELL-C-σ with slice height 8 — the AVX-512 configuration.
pub type SellSigma8 = SellSigma<8>;
/// SELL-C-σ with slice height 16.
pub type SellSigma16 = SellSigma<16>;

impl<const C: usize> SellSigma<C> {
    /// Converts a CSR matrix with sorting windows of `sigma` rows
    /// (any σ ≥ 1; σ = 1 keeps the original order, σ ≥ nrows sorts
    /// globally).  The sort is stable, so equal-length rows keep their
    /// relative order and conversion is deterministic.
    pub fn from_csr_sigma(csr: &Csr, sigma: usize) -> Self {
        Self::from_csr_sigma_codec(csr, sigma, Codec::F64)
    }

    /// σ-sorted conversion storing values through a PackSELL `codec` —
    /// the sorted inner matrix is a packed [`Sell<C>`], so reduced
    /// precision and index compression compose with the σ permutation.
    pub fn from_csr_sigma_codec(csr: &Csr, sigma: usize, codec: Codec) -> Self {
        assert!(sigma >= 1, "sigma must be at least 1");
        let nrows = csr.nrows();
        let mut fwd: Vec<u32> = (0..nrows as u32).collect();
        for window in fwd.chunks_mut(sigma) {
            window.sort_by_key(|&i| std::cmp::Reverse(csr.row_len(i as usize)));
        }
        let perm = Permutation::new(fwd);
        let inv = perm.inverse();
        let inner = Sell::<C>::from_csr_codec(&permute_rows(csr, perm.as_slice()), codec);
        Self {
            inner,
            perm,
            inv,
            sigma,
            scratch: Mutex::new(vec![0.0; nrows]),
        }
    }

    /// The value-storage codec of the inner packed matrix.
    pub fn codec(&self) -> Codec {
        self.inner.codec()
    }

    /// The sorting-window size this matrix was built with.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// The sorted matrix in plain SELL storage.  Its row `k` is our
    /// logical row `perm[k]`; its `rlen` is therefore indexed by
    /// **storage position**, not logical row.
    pub fn sell(&self) -> &Sell<C> {
        &self.inner
    }

    /// Storage position → logical row (the sort permutation).
    pub fn perm(&self) -> &Permutation {
        &self.perm
    }

    /// Logical row → storage position (inverse of [`Self::perm`]).
    pub fn inv_perm(&self) -> &Permutation {
        &self.inv
    }

    /// Slice height.
    pub const fn slice_height(&self) -> usize {
        C
    }

    /// Slice offsets in elements (length `nslices + 1`).
    pub fn sliceptr(&self) -> &[usize] {
        self.inner.sliceptr()
    }

    /// Row lengths indexed by **storage position** `k` (the length of
    /// logical row `perm[k]`) — the array the σ-window monotonicity
    /// invariant is stated over.
    pub fn rlen(&self) -> &[u32] {
        self.inner.rlen()
    }

    /// Total stored elements including padding.
    pub fn stored_elems(&self) -> usize {
        self.inner.stored_elems()
    }

    /// Number of explicit padding entries.
    pub fn padded_elems(&self) -> usize {
        self.inner.padded_elems()
    }

    /// Fraction of stored elements that are padding — the quantity
    /// σ-sorting exists to shrink.
    pub fn padding_ratio(&self) -> f64 {
        self.inner.padding_ratio()
    }

    /// Overrides the dispatch ISA (panics if unavailable on this CPU).
    pub fn with_isa(mut self, isa: Isa) -> Self {
        self.inner = self.inner.with_isa(isa);
        self
    }

    /// The ISA this matrix dispatches to.
    pub fn isa(&self) -> Isa {
        self.inner.isa()
    }

    /// Converts back to CSR in logical row order (dropping padding).
    pub fn to_csr(&self) -> Csr {
        permute_rows(&self.inner.to_csr(), self.inv.as_slice())
    }

    /// Overwrites values in place from a CSR matrix with the **same
    /// sparsity pattern** (the Jacobian-refresh path).  The permutation
    /// depends only on row lengths, so it survives.
    ///
    /// # Panics
    /// As [`Sell::set_values_from_csr`]: on any difference in shape, row
    /// lengths or columns, in every build profile.
    pub fn set_values_from_csr(&mut self, csr: &Csr) {
        assert!(
            self.try_set_values(csr),
            "pattern mismatch: shape, row lengths or columns differ from the stored pattern"
        );
    }

    /// Stored row `k` takes the values of logical row `perm[k]`; `false`
    /// on a pattern difference (see [`Sell::try_set_values`]).
    pub(crate) fn try_set_values(&mut self, csr: &Csr) -> bool {
        let perm = self.perm.as_slice();
        self.inner.try_set_values(csr, |k| perm[k] as usize)
    }

    /// Shared body of [`Operator::apply`]: the plain SELL kernels compute
    /// the sorted product into the cached scratch buffer on the same
    /// context, then every logical row `i` takes its block of `k` values
    /// from sorted row `inv[i]`, over even windows of `y`.  Both stages
    /// are bitwise-deterministic across thread counts, so the whole
    /// product is too.  The scratch holds `nrows` doubles at construction
    /// and grows (once) to `nrows * k` on the first blocked product.
    fn apply_parts<const ADD: bool>(&self, ctx: &ExecCtx, x: &[f64], y: &mut [f64], k: usize) {
        let n = self.nrows() * k;
        let mut scratch = self
            .scratch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if scratch.len() < n {
            scratch.resize(n, 0.0);
        }
        let sorted = &mut scratch[..n];
        self.inner.apply(
            ctx,
            VecView::blocked(x, k),
            VecViewMut::blocked(sorted, k),
            Apply::Set,
        );
        let inv = self.inv.as_slice();
        ctx.dispatch_even(y, &|off, win| {
            // The window may start and end inside a row block.
            let (mut i, mut t) = (off / k, off % k);
            for v in win {
                let s = sorted[inv[i] as usize * k + t];
                if ADD {
                    *v += s;
                } else {
                    *v = s;
                }
                t += 1;
                if t == k {
                    (i, t) = (i + 1, 0);
                }
            }
        });
    }
}

/// Clone re-derives the scratch buffer.
impl<const C: usize> Clone for SellSigma<C> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            perm: self.perm.clone(),
            inv: self.inv.clone(),
            sigma: self.sigma,
            scratch: Mutex::new(vec![0.0; self.nrows()]),
        }
    }
}

impl<const C: usize> MatShape for SellSigma<C> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
}

impl<const C: usize> Operator for SellSigma<C> {
    /// Single entry point for SpMV (`k = 1`) and SpMM (`k > 1`).  The
    /// accumulate path is fused: the unsort scatter accumulates directly
    /// into `y`, so no second scratch buffer is needed at any thread
    /// count.
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        check_apply_dims(self.nrows(), self.ncols(), &x, &y);
        let k = x.k();
        let (xd, yd) = (x.data(), y.into_data());
        match mode {
            Apply::Set => self.apply_parts::<false>(ctx, xd, yd, k),
            Apply::Add => self.apply_parts::<true>(ctx, xd, yd, k),
        }
    }

    /// The inner (possibly packed) SELL traffic plus the unsort overhead:
    /// the permutation read (4 bytes/row) and the scratch round-trip
    /// (16 bytes/row) — the price of sorting that §5.4 avoids by not
    /// sorting.
    fn spmv_traffic(&self) -> crate::traffic::TrafficEstimate {
        let mut t = self.inner.spmv_traffic();
        t.bytes += 20 * self.nrows() as u64;
        t
    }
}

/// A **verified** permutation of `0..n`: storage position `k` maps to
/// logical position `fwd[k]`.  Bijectivity is checked once at
/// construction, which is what lets SELL-C-σ's unsort assign every
/// output element exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    fwd: Vec<u32>,
}

impl Permutation {
    /// Wraps `fwd`, verifying it is a bijection of `0..fwd.len()`.
    ///
    /// # Panics
    /// If any entry is out of range or duplicated.
    pub fn new(fwd: Vec<u32>) -> Self {
        let n = fwd.len();
        let mut seen = vec![false; n];
        for &v in &fwd {
            let v = v as usize;
            assert!(v < n, "permutation entry {v} out of range 0..{n}");
            assert!(!seen[v], "duplicate permutation entry {v}");
            seen[v] = true;
        }
        Self { fwd }
    }

    /// Number of permuted positions.
    pub fn len(&self) -> usize {
        self.fwd.len()
    }

    /// Whether the permutation is over the empty set.
    pub fn is_empty(&self) -> bool {
        self.fwd.is_empty()
    }

    /// The forward map: storage `k` → logical `self.as_slice()[k]`.
    pub fn as_slice(&self) -> &[u32] {
        &self.fwd
    }

    /// The inverse map (logical → storage).
    pub(crate) fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.fwd.len()];
        for (k, &v) in self.fwd.iter().enumerate() {
            inv[v as usize] = k as u32;
        }
        // Inverse of a verified bijection is a bijection; skip re-checking.
        Permutation { fwd: inv }
    }
}

/// A CSR matrix with rows reordered so row `k` of the result is row
/// `perm[k]` of the input (columns untouched).
fn permute_rows(csr: &Csr, perm: &[u32]) -> Csr {
    debug_assert_eq!(perm.len(), csr.nrows());
    let mut out = RowAssembler::with_capacity(csr.nrows(), csr.ncols(), csr.nnz());
    for &row in perm {
        let row = row as usize;
        for (&c, &v) in csr.row_cols(row).iter().zip(csr.row_vals(row)) {
            out.push(c as usize, v);
        }
        out.end_row();
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooBuilder;

    fn irregular(n: usize, seed: u64) -> Csr {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            let len = next() % 9; // ragged, some rows empty
            let mut cols: Vec<usize> = (0..len).map(|_| next() % n).collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                b.push(i, c, (next() % 1000) as f64 / 50.0 - 10.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn permutation_round_trips() {
        let p = Permutation::new(vec![2, 0, 3, 1]);
        let inv = p.inverse();
        for k in 0..4 {
            assert_eq!(inv.as_slice()[p.as_slice()[k] as usize] as usize, k);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate permutation entry")]
    fn permutation_rejects_duplicates() {
        Permutation::new(vec![0, 1, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn permutation_rejects_out_of_range() {
        Permutation::new(vec![0, 4, 1, 2]);
    }

    #[test]
    fn round_trip_preserves_matrix() {
        let a = irregular(61, 5);
        for sigma in [1usize, 8, 32, 61, 200] {
            let s = SellSigma8::from_csr_sigma(&a, sigma);
            assert_eq!(s.to_csr().to_dense(), a.to_dense(), "sigma={sigma}");
            assert_eq!(s.nnz(), a.nnz());
        }
    }

    #[test]
    fn sigma_one_is_identity_order() {
        let a = irregular(20, 9);
        let s = SellSigma8::from_csr_sigma(&a, 1);
        assert_eq!(s.perm(), &Permutation::new((0..20).collect()));
    }

    #[test]
    fn windows_are_sorted_descending() {
        let a = irregular(100, 3);
        let s = SellSigma8::from_csr_sigma(&a, 16);
        for window in s.rlen().chunks(16) {
            for w in window.windows(2) {
                assert!(w[0] >= w[1], "window not descending: {window:?}");
            }
        }
    }

    #[test]
    fn sorting_does_not_increase_padding() {
        let a = irregular(256, 11);
        let plain = Sell::<8>::from_csr(&a);
        let sorted = SellSigma8::from_csr_sigma(&a, 64);
        assert!(sorted.padded_elems() <= plain.padded_elems());
    }

    #[test]
    fn spmv_bitwise_matches_csr_scalar() {
        // Scalar-vs-scalar comparison: identical per-row accumulation
        // order makes bitwise equality the contract, not a tolerance.
        let a = irregular(77, 7);
        let x: Vec<f64> = (0..77).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut want = vec![0.0; 77];
        a.spmv_isa(Isa::Scalar, &x, &mut want);
        for sigma in [1usize, 8, 32, 77] {
            let s = SellSigma8::from_csr_sigma(&a, sigma).with_isa(Isa::Scalar);
            let mut got = vec![0.0; 77];
            s.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut got).into(),
                Apply::Set,
            );
            assert_eq!(got, want, "sigma={sigma}");
        }
    }

    #[test]
    fn spmv_add_accumulates() {
        let a = irregular(40, 13);
        let s = SellSigma8::from_csr_sigma(&a, 16);
        let x = vec![0.7; 40];
        let mut y1 = vec![1.5; 40];
        let mut y2 = vec![1.5; 40];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y1).into(),
            Apply::Add,
        );
        s.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y2).into(),
            Apply::Add,
        );
        for i in 0..40 {
            assert!((y1[i] - y2[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let a = irregular(150, 17);
        let s = SellSigma8::from_csr_sigma(&a, 32);
        let x: Vec<f64> = (0..150).map(|i| 1.0 / (i + 2) as f64).collect();
        let mut want = vec![0.0; 150];
        s.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        for threads in [2usize, 4, 7] {
            let ctx = ExecCtx::new(threads);
            let mut got = vec![0.0; 150];
            s.apply(&ctx, (&x).into(), (&mut got).into(), Apply::Set);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn blocked_unsort_matches_serial_for_any_lane_count() {
        // 50 rows of k = 3: the even windows of `y` start inside row blocks.
        let (n, k) = (50, 3);
        let s = SellSigma8::from_csr_sigma(&irregular(n, 43), 16);
        let x: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.11).sin()).collect();
        let y0: Vec<f64> = (0..n * k).map(|i| i as f64 * 0.5).collect();
        for mode in [Apply::Set, Apply::Add] {
            let mut want = y0.clone();
            let xv = VecView::blocked(&x, k);
            s.apply(
                &ExecCtx::serial(),
                xv,
                VecViewMut::blocked(&mut want, k),
                mode,
            );
            for threads in [2usize, 4, 7] {
                let mut got = y0.clone();
                s.apply(
                    &ExecCtx::new(threads),
                    xv,
                    VecViewMut::blocked(&mut got, k),
                    mode,
                );
                assert_eq!(got, want, "{mode:?} threads={threads}");
            }
        }
    }

    #[test]
    fn all_isas_match_within_tolerance() {
        let a = irregular(130, 19);
        let x: Vec<f64> = (0..130).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut want = vec![0.0; 130];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        for isa in Isa::available_tiers() {
            let s = SellSigma8::from_csr_sigma(&a, 32).with_isa(isa);
            let mut got = vec![0.0; 130];
            s.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut got).into(),
                Apply::Set,
            );
            for i in 0..130 {
                assert!((got[i] - want[i]).abs() < 1e-10, "{isa} row {i}");
            }
        }
    }

    #[test]
    fn other_slice_heights() {
        let a = irregular(45, 23);
        let x = vec![1.0; 45];
        let mut want = vec![0.0; 45];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        let s4 = SellSigma4::from_csr_sigma(&a, 16);
        let s16 = SellSigma16::from_csr_sigma(&a, 16);
        let mut y4 = vec![0.0; 45];
        let mut y16 = vec![0.0; 45];
        s4.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y4).into(),
            Apply::Set,
        );
        s16.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y16).into(),
            Apply::Set,
        );
        for i in 0..45 {
            assert!((y4[i] - want[i]).abs() < 1e-12, "C=4 row {i}");
            assert!((y16[i] - want[i]).abs() < 1e-12, "C=16 row {i}");
        }
    }

    #[test]
    fn perm_round_trips() {
        let a = irregular(90, 29);
        for sigma in [1usize, 8, 32, 90] {
            let s = SellSigma8::from_csr_sigma(&a, sigma);
            let (p, q) = (s.perm().as_slice(), s.inv_perm().as_slice());
            for k in 0..90 {
                assert_eq!(q[p[k] as usize] as usize, k, "sigma={sigma}");
            }
        }
    }

    #[test]
    fn set_values_refresh_keeps_permutation() {
        let a = irregular(64, 31);
        let mut s = SellSigma8::from_csr_sigma(&a, 16);
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= -2.0;
        }
        s.set_values_from_csr(&a2);
        let x = vec![1.0; 64];
        let mut want = vec![0.0; 64];
        let mut got = vec![0.0; 64];
        a2.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        s.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut got).into(),
            Apply::Set,
        );
        for i in 0..64 {
            assert!((want[i] - got[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn empty_matrix() {
        let a = Csr::from_dense(0, 0, &[]);
        let s = SellSigma8::from_csr_sigma(&a, 4);
        let mut y: Vec<f64> = vec![];
        s.apply(
            &ExecCtx::serial(),
            (&[]).into(),
            (&mut y).into(),
            Apply::Set,
        );
        assert_eq!(s.nnz(), 0);
    }

    #[test]
    fn packed_codec_composes_with_sigma() {
        let a = irregular(120, 41);
        let x: Vec<f64> = (0..120).map(|i| (i as f64 * 0.23).sin()).collect();
        for codec in [Codec::F32, Codec::Bf16] {
            // Oracle: quantize the CSR through the codec, multiply in f64.
            let mut q = a.clone();
            for v in q.values_mut() {
                *v = codec.quantize(*v);
            }
            let mut want = vec![0.0; 120];
            q.spmv_isa(Isa::Scalar, &x, &mut want);
            let s = SellSigma8::from_csr_sigma_codec(&a, 16, codec);
            assert_eq!(s.codec(), codec);
            // Packed traffic (plus unsort overhead) undercuts classic SELL.
            let classic = crate::traffic::sell_traffic(120, 120, a.nnz()).bytes;
            assert!(s.spmv_traffic().bytes < classic + 20 * 120);
            for isa in Isa::available_tiers() {
                let s = SellSigma8::from_csr_sigma_codec(&a, 16, codec).with_isa(isa);
                let mut got = vec![0.0; 120];
                s.apply(
                    &ExecCtx::serial(),
                    (&x).into(),
                    (&mut got).into(),
                    Apply::Set,
                );
                for i in 0..120 {
                    assert!((got[i] - want[i]).abs() < 1e-12, "{codec:?} {isa} row {i}");
                }
            }
        }
    }

    #[test]
    fn traffic_exceeds_plain_sell() {
        let a = irregular(50, 37);
        let s = SellSigma8::from_csr_sigma(&a, 16);
        let plain = s.sell().spmv_traffic();
        assert_eq!(s.spmv_traffic().bytes, plain.bytes + 20 * 50);
    }
}
