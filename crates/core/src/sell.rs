//! Sliced ELLPACK storage (PETSc `SELL`) — the paper's contribution (§5).
//!
//! The matrix is partitioned into slices of `C` adjacent rows.  Within a
//! slice, nonzeros are shifted left and stored **column by column** in a
//! dense `C × width` block, where `width` is the longest row of that slice;
//! shorter rows are padded with explicit zeros.  Figure 6 describes the
//! matrix with four arrays — values, column indices, `rlen`, `sliceptr`;
//! this type holds the same four streams, each **once**, in the form the
//! kernels read:
//!
//! * values, padded, slice-column-major: `val` (f64) under [`Codec::F64`],
//!   the packed bytes `pval` under a reduced codec — never both.  Values
//!   are encoded at build and decoded by [`Sell::row`], so a packed matrix
//!   round-trips to the *rounded* values;
//! * column indices, same layout, chosen **per slice** (a deviation from
//!   the paper's 12 bytes per nonzero, at every value codec): a slice whose
//!   live columns span fewer than `0xFFFF` columns — every slice of a
//!   stencil or banded matrix but the periodic wrap rows — stores 2-byte
//!   offsets `cidx16` from its minimum column `cbase[s]`, 10 bytes per f64
//!   nonzero; any other slice (`cbase[s] = u32::MAX`) stores 4-byte columns
//!   in `colidx`, which holds the wide slices **only**, one after the other,
//!   located by the prefix `wideptr`.  `cidx16` stays entry-parallel to the
//!   values (zero under a wide slice), so the narrow kernel path indexes
//!   both streams with one offset.  Padding indices hold a **sentinel**
//!   (`0xFFFF` narrow, `ncols` wide — one past the last valid column) that
//!   every kernel masks, so padded lanes never read `x` at all — a strictly
//!   stronger guarantee than the paper's local-copy scheme (§5.5), which
//!   can contaminate lanes with NaN when `x` holds non-finite values;
//! * `rlen` — the true length of every row (§5.2: not needed by SpMV, but
//!   used for assembly, preallocation, and identifying padding);
//! * `sliceptr` — the element offset where each slice begins.
//!
//! Everything that is not a kernel reads the matrix through [`Sell::row`],
//! which hides which stream an entry lives in.
//!
//! Design choices reproduced from the paper:
//!
//! * slice height `C` is a multiple of the SIMD width; **8** for AVX-512
//!   doubles ([`Sell8`], fixed on KNL);
//! * **no bit array** (§5.3) — contrast [`crate::SellEsb`];
//! * **no sorting** (§5.4) — storage lane `k` is row `k`; σ-window
//!   sorting is the separate [`crate::SellSigma`] format, which wraps a
//!   `Sell` of the row-permuted matrix;
//! * the final partial slice is padded to full height so only its *store*
//!   is masked (§5.5).

use crate::aligned::AVec;
use crate::assemble::RowAssembler;
use crate::codec::{self, Codec};
use crate::csr::Csr;
use crate::exec::ExecCtx;
use crate::isa::Isa;
use crate::kernels;
use crate::multivec::{VecView, VecViewMut};
use crate::traits::{check_apply_dims, check_spmv_dims, Apply, MatShape, Operator};

/// Narrow-form sentinel in the compressed `cidx16` offsets: `0xFFFF`
/// marks a padded lane; live offsets are therefore bounded by `0xFFFE`,
/// which is also the largest column span a slice may have to qualify
/// for the narrow form.
pub(crate) const NARROW_SENTINEL: u16 = u16::MAX;

/// A sliced-ELLPACK matrix with compile-time slice height `C`.
///
/// ```
/// use sellkit_core::{Apply, Csr, ExecCtx, MatShape, Operator, Sell8};
///
/// let csr = Csr::from_dense(3, 3, &[2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0]);
/// let sell = Sell8::from_csr(&csr);
/// assert_eq!(sell.nnz(), csr.nnz());
/// // 3 rows pad up to one slice of 8 lanes, 3 columns wide.
/// assert_eq!(sell.stored_elems(), 8 * 3);
///
/// let x = [1.0, 2.0, 3.0];
/// let mut y = vec![0.0; 3];
/// sell.apply(&ExecCtx::serial(), (&x[..]).into(), (&mut y[..]).into(), Apply::Set);
/// assert_eq!(y, vec![0.0, 0.0, 4.0]);
/// ```
#[derive(Clone, Debug)]
pub struct Sell<const C: usize> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    sliceptr: Vec<usize>,
    rlen: Vec<u32>,
    isa: Isa,
    /// Value-storage codec (PackSELL): `F64` holds `val`, a reduced codec
    /// `pval` (one codec-stride encoding per entry); the other is empty.
    codec: Codec,
    val: AVec<f64>,
    pval: AVec<u8>,
    /// Narrow-form column offsets (`col = cbase[s] + cidx16[idx]`), one per
    /// entry, [`NARROW_SENTINEL`] on padded lanes; zero under a wide slice.
    cidx16: AVec<u16>,
    /// Per-slice index-form selector: `u32::MAX` = wide (read `colidx`),
    /// anything else = the narrow form's base column.
    cbase: Vec<u32>,
    /// The 4-byte columns of the wide-form slices only (padding: `ncols`),
    /// slice `s` at `wideptr[s]..wideptr[s + 1]` — empty for a narrow one.
    colidx: AVec<u32>,
    wideptr: Vec<usize>,
    /// Live nonzeros stored under the narrow (u16) index form — the rest
    /// of `nnz` moves 4-byte wide indices.  Drives the traffic estimate.
    narrow_nnz: u64,
}

/// SELL with slice height 4 (AVX/AVX2 lane count).
pub type Sell4 = Sell<4>;
/// SELL with slice height 8 — the paper's KNL/AVX-512 configuration.
pub type Sell8 = Sell<8>;
/// SELL with slice height 16 (two ZMM registers per slice column).
pub type Sell16 = Sell<16>;

impl<const C: usize> Sell<C> {
    /// Converts a CSR matrix; rows keep their order (§5.4).
    pub fn from_csr(csr: &Csr) -> Self {
        Self::from_csr_codec(csr, Codec::F64)
    }

    /// Converts, storing values through `codec` (PackSELL) and each
    /// slice's indices in the form its column span allows (module docs).
    /// `F32`/`Bf16` values are encoded here, once; [`Sell::row`], `get` and
    /// `to_csr` decode them, so they observe the **rounded** matrix
    /// (`codec.quantize(v)`) — the one the kernels multiply by.
    pub fn from_csr_codec(csr: &Csr, codec: Codec) -> Self {
        assert!(
            C > 0 && C.is_multiple_of(4) || C == 1 || C == 2,
            "unsupported slice height {C}"
        );
        let nrows = csr.nrows();
        let ncols = csr.ncols();
        let nslices = nrows.div_ceil(C);
        let mut sliceptr = vec![0usize; nslices + 1];
        let mut wideptr = vec![0usize; nslices + 1];
        let mut cbase = vec![u32::MAX; nslices];
        let mut narrow_nnz = 0u64;
        for s in 0..nslices {
            // Width, live count and column span of the slice.  CSR rows are
            // strictly increasing (`Csr::from_parts` asserts it), so the
            // span is max(last col) − min(first col) over the rows.
            let (mut w, mut live, mut lo, mut hi) = (0usize, 0usize, u32::MAX, 0u32);
            for row in s * C..((s + 1) * C).min(nrows) {
                let cols = csr.row_cols(row);
                w = w.max(cols.len());
                live += cols.len();
                if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
                    lo = lo.min(first);
                    hi = hi.max(last);
                }
            }
            sliceptr[s + 1] = sliceptr[s] + C * w;
            wideptr[s + 1] = wideptr[s];
            if live == 0 {
                // An all-padding slice is trivially narrow, with base 0.
                cbase[s] = 0;
            } else if hi - lo < NARROW_SENTINEL as u32 {
                cbase[s] = lo;
                narrow_nnz += live as u64;
            } else {
                wideptr[s + 1] += C * w;
            }
        }
        let total = sliceptr[nslices];
        let stride = codec.bytes_per_value();
        // Padding values stay 0.0 from the zeroed allocation (all-zero
        // bytes at every codec), as do the offsets under wide-form slices.
        let (mut val, mut pval): (AVec<f64>, AVec<u8>) = match codec {
            Codec::F64 => (AVec::zeroed(total), AVec::zeroed(0)),
            _ => (AVec::zeroed(0), AVec::zeroed(total * stride)),
        };
        let mut cidx16: AVec<u16> = AVec::zeroed(total);
        let mut colidx: AVec<u32> = AVec::zeroed(wideptr[nslices]);
        let mut rlen = vec![0u32; nrows];

        for s in 0..nslices {
            let base = sliceptr[s];
            let w = (sliceptr[s + 1] - base) / C;
            let cb = cbase[s];
            // A wide slice's entry `at` is `colidx[at - skip]`.
            let skip = base - wideptr[s];
            for r in 0..C {
                let row = s * C + r;
                let (cols, vals) = if row < nrows {
                    rlen[row] = csr.row_len(row) as u32;
                    (csr.row_cols(row), csr.row_vals(row))
                } else {
                    (&[] as &[u32], &[] as &[f64])
                };
                // Padding lanes carry the sentinel index (`ncols`, one past
                // the last valid column; narrow form: `0xFFFF`).  The paper
                // re-reads a local column (§5.5), but aliasing a live entry
                // makes `0.0 × x[pad]` poison the lane whenever x holds
                // Inf/NaN there; kernels instead mask the sentinel and
                // substitute 0.0, so padded lanes contribute exactly +0.0
                // regardless of x.
                for j in 0..w {
                    let at = base + j * C + r;
                    let col = cols.get(j).copied();
                    if cb == u32::MAX {
                        colidx[at - skip] = col.unwrap_or(ncols as u32);
                    } else {
                        cidx16[at] = col.map_or(NARROW_SENTINEL, |c| (c - cb) as u16);
                    }
                    if let Some(&v) = vals.get(j) {
                        match codec {
                            Codec::F64 => val[at] = v,
                            c => {
                                codec::encode_into(c, v, &mut pval[at * stride..(at + 1) * stride])
                            }
                        }
                    }
                }
            }
        }

        Self {
            nrows,
            ncols,
            nnz: csr.nnz(),
            sliceptr,
            rlen,
            isa: Isa::detect(),
            codec,
            val,
            pval,
            cidx16,
            cbase,
            colidx,
            wideptr,
            narrow_nnz,
        }
    }

    /// Overrides the dispatch ISA (panics if unavailable on this CPU).
    pub fn with_isa(mut self, isa: Isa) -> Self {
        assert!(isa.available(), "ISA {isa} not available on this CPU");
        self.isa = isa;
        self
    }

    /// The ISA this matrix dispatches to.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Slice height.
    pub const fn slice_height(&self) -> usize {
        C
    }

    /// Number of slices.
    pub fn nslices(&self) -> usize {
        self.sliceptr.len() - 1
    }

    /// Slice offsets in elements (length `nslices + 1`).
    pub fn sliceptr(&self) -> &[usize] {
        &self.sliceptr
    }

    /// The 4-byte columns of the **wide-form slices only**, as held: slice
    /// after slice in slice-column-major order, slice `s` at
    /// `wideptr()[s]..wideptr()[s + 1]`, padding the sentinel `ncols`.
    /// Empty when every slice is narrow.
    pub fn colidx(&self) -> &[u32] {
        &self.colidx
    }

    /// Where each slice's entries begin in [`Sell::colidx`] (length
    /// `nslices + 1`): a wide slice spans its entry count, a narrow slice
    /// nothing.
    pub fn wideptr(&self) -> &[usize] {
        &self.wideptr
    }

    /// The f64 value stream, padded, slice-column-major — empty under a
    /// reduced codec, whose values are [`Sell::packed_values`].
    pub fn values(&self) -> &[f64] {
        &self.val
    }

    /// True row lengths (the `rlen` array of §5.2).
    pub fn rlen(&self) -> &[u32] {
        &self.rlen
    }

    /// The value-storage codec (PackSELL); [`Codec::F64`] for the classic
    /// layout.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// The packed value stream of a reduced codec, one codec-stride
    /// encoding per entry — empty for [`Codec::F64`], whose values are
    /// [`Sell::values`].
    pub fn packed_values(&self) -> &[u8] {
        &self.pval
    }

    /// Per-slice index-form selectors: `u32::MAX` marks a wide (u32) slice,
    /// anything else is the narrow form's base column.
    pub fn cbase(&self) -> &[u32] {
        &self.cbase
    }

    /// Narrow-form 2-byte column offsets, one per stored entry (zero under
    /// wide-form slices).
    pub fn cidx16(&self) -> &[u16] {
        &self.cidx16
    }

    /// Live nonzeros stored under the narrow (u16) index form; the
    /// remaining `nnz() - narrow_nnz()` move 4-byte indices.
    pub fn narrow_nnz(&self) -> u64 {
        self.narrow_nnz
    }

    /// Total stored elements including padding.
    pub fn stored_elems(&self) -> usize {
        self.sliceptr[self.nslices()]
    }

    /// Number of explicit padding entries.
    pub fn padded_elems(&self) -> usize {
        self.stored_elems() - self.nnz
    }

    /// Fraction of stored elements that are padding (0 for a perfectly
    /// regular matrix; the quantity slicing/sorting minimize).
    pub fn padding_ratio(&self) -> f64 {
        if self.stored_elems() == 0 {
            0.0
        } else {
            self.padded_elems() as f64 / self.stored_elems() as f64
        }
    }

    /// How slice `s` stores its columns: its `cbase` entry and, for a wide
    /// slice, how far its entries sit before their offset in `colidx`.
    fn index_form(&self, s: usize) -> (u32, usize) {
        match self.cbase[s] {
            u32::MAX => (u32::MAX, self.sliceptr[s] - self.wideptr[s]),
            base => (base, 0),
        }
    }

    /// The column of the entry at offset `at` of a slice of the given
    /// [`Sell::index_form`], whichever stream holds it; padding reads as
    /// the sentinel `ncols`.
    fn col_at(&self, (base, skip): (u32, usize), at: usize) -> u32 {
        if base == u32::MAX {
            return self.colidx[at - skip];
        }
        match self.cidx16[at] {
            NARROW_SENTINEL => self.ncols as u32,
            off => base + off as u32,
        }
    }

    /// The live entries of row `i` as `(column, value)`, columns strictly
    /// increasing — the one reader that hides the layout: each column is
    /// resolved from the stream its slice uses (`cbase[s] + cidx16[e]` or
    /// the wide entry) and each value decoded from the stream the codec
    /// holds, so a packed matrix yields its *rounded* values.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let form = self.index_form(i / C);
        let first = self.sliceptr[i / C] + i % C;
        let (codec, stride) = (self.codec, self.codec.bytes_per_value());
        (0..self.rlen[i] as usize).map(move |j| {
            let at = first + j * C;
            let v = match codec {
                Codec::F64 => self.val[at],
                c => codec::decode(c, &self.pval[at * stride..(at + 1) * stride]),
            };
            (self.col_at(form, at), v)
        })
    }

    /// The stored value at logical position `(i, j)`, or `None`.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        self.row(i).find(|&(c, _)| c as usize == j).map(|(_, v)| v)
    }

    /// Converts back to CSR, dropping padding.
    pub fn to_csr(&self) -> Csr {
        let mut out = RowAssembler::with_capacity(self.nrows, self.ncols, self.nnz);
        for i in 0..self.nrows {
            for (c, v) in self.row(i) {
                out.push(c as usize, v);
            }
            out.end_row();
        }
        out.finish()
    }

    /// Overwrites values in place from a CSR matrix with the **same
    /// sparsity pattern** (the Jacobian-refresh path: TS/SNES re-assemble
    /// values every Newton step without changing the pattern).
    ///
    /// # Panics
    /// If the shape, a row length or a column of `csr` differs from the
    /// stored pattern — in every build profile.  Values of the rows before
    /// the first difference have been overwritten by then.
    pub fn set_values_from_csr(&mut self, csr: &Csr) {
        assert!(
            self.try_set_values(csr, |row| row),
            "pattern mismatch: shape, row lengths or columns differ from the stored pattern"
        );
    }

    /// The value-only update behind [`Sell::set_values_from_csr`]: stored
    /// row `k` takes the values of `csr`'s row `src(k)`, written to the one
    /// value stream the codec holds (the index streams depend on the
    /// pattern alone).  Returns `false` at the first entry whose position
    /// differs from the stored pattern; the values before it are already
    /// overwritten, so the caller either panics or rebuilds.
    pub(crate) fn try_set_values(&mut self, csr: &Csr, src: impl Fn(usize) -> usize) -> bool {
        if (csr.nrows(), csr.ncols(), csr.nnz()) != (self.nrows, self.ncols, self.nnz) {
            return false;
        }
        let (codec, stride) = (self.codec, self.codec.bytes_per_value());
        for row in 0..self.nrows {
            let from = src(row);
            let (cols, vals) = (csr.row_cols(from), csr.row_vals(from));
            if cols.len() != self.rlen[row] as usize {
                return false;
            }
            let form = self.index_form(row / C);
            let first = self.sliceptr[row / C] + row % C;
            for (j, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                let at = first + j * C;
                if self.col_at(form, at) != c {
                    return false;
                }
                match codec {
                    Codec::F64 => self.val[at] = v,
                    c => codec::encode_into(c, v, &mut self.pval[at * stride..(at + 1) * stride]),
                }
            }
        }
        true
    }

    /// SpMV with an explicit ISA tier.  SELL-4/8/16 are vectorized at every
    /// tier whose lane count divides the slice height (SELL-4 on AVX-512
    /// runs the AVX2 lanes); other heights run the scalar lanes.
    pub fn spmv_isa(&self, isa: Isa, x: &[f64], y: &mut [f64]) {
        check_spmv_dims(self.nrows, self.ncols, x, y);
        self.slices::<false, false>(isa, 0, self.nslices(), x, y, None);
    }

    /// SpMM (`Y = A·X` over a `k`-wide row-interleaved block) with an
    /// explicit ISA — the blocked sibling of [`Sell::spmv_isa`], used by
    /// the differential fuzzer to force each tier in turn.
    pub fn spmm_isa(&self, isa: Isa, x: &[f64], y: &mut [f64], k: usize) {
        assert_eq!(x.len(), self.ncols * k, "x must hold k interleaved vectors");
        assert_eq!(y.len(), self.nrows * k, "y must hold k interleaved vectors");
        self.slices::<false, false>(isa, 0, self.nslices(), x, y, Some(k));
    }

    /// SpMV through the §5.5 manually-tuned loop (two-slice unroll; the
    /// software prefetch is the plain loop's too) of the matrix's own tier.
    ///
    /// The paper notes these classic tunings "do not affect the
    /// performance significantly" — `exhibit fig8` times them beside the plain loop.
    pub fn spmv_tuned(&self, x: &[f64], y: &mut [f64]) {
        check_spmv_dims(self.nrows, self.ncols, x, y);
        self.slices::<false, true>(self.isa, 0, self.nslices(), x, y, None);
    }

    /// The kernel arrays of slices `s0..s1` — the whole matrix is the
    /// one-part window `0..nslices`.
    pub(crate) fn parts(&self, s0: usize, s1: usize) -> kernels::SellParts<'_> {
        // The whole-matrix half of the kernel contract (`from_csr_codec`
        // establishes it; a window carries neither end).
        debug_assert_eq!((self.sliceptr[0], self.wideptr[0]), (0, 0), "ptr starts");
        debug_assert_eq!(
            (self.stored_elems(), self.wideptr[self.nslices()]),
            (self.cidx16.len(), self.colidx.len()),
            "sliceptr / wideptr ends"
        );
        kernels::SellParts {
            sliceptr: &self.sliceptr[s0..=s1],
            vals: match self.codec {
                Codec::F64 => kernels::SellVals::F64(&self.val),
                Codec::F32 => kernels::SellVals::F32(&self.pval),
                Codec::Bf16 => kernels::SellVals::Bf16(&self.pval),
            },
            cidx16: &self.cidx16,
            cbase: &self.cbase[s0..s1],
            colidx: &self.colidx,
            wideptr: &self.wideptr[s0..=s1],
            nrows: self.nrows.min(s1 * C) - self.nrows.min(s0 * C),
        }
    }

    /// The product over slices `s0..s1` into the matching window `y`.
    /// `block` is `None` for SpMV, `Some(k)`
    /// for the blocked SpMM kernel.
    fn slices<const ADD: bool, const UNROLL: bool>(
        &self,
        isa: Isa,
        s0: usize,
        s1: usize,
        x: &[f64],
        y: &mut [f64],
        block: Option<usize>,
    ) {
        let m = self.parts(s0, s1);
        match block {
            None => kernels::sell_spmv::<C, ADD, UNROLL>(isa, &m, x, y),
            Some(k) => kernels::sell_spmm::<C, ADD>(isa, &m, x, y, k),
        }
    }

    /// Shared body of both [`Operator::apply`] modes: the whole-matrix
    /// product on a serial context, a slice-aligned, nnz-balanced partition
    /// on a pool — the slice is the natural unit of multi-threaded SELL, so
    /// a partition never splits one, and SpMV and SpMM split alike.
    fn apply_parts<const ADD: bool>(&self, ctx: &ExecCtx, x: &[f64], y: &mut [f64], k: usize) {
        let block = (k != 1).then_some(k);
        ctx.dispatch_weighted(&self.sliceptr, C, y, k, &|s0, s1, win| {
            self.slices::<ADD, false>(self.isa, s0, s1, x, win, block);
        });
    }
}

impl<const C: usize> MatShape for Sell<C> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
}

impl<const C: usize> Operator for Sell<C> {
    /// Single entry point for SpMV (`k = 1`) and SpMM (`k > 1`).  The
    /// accumulate path is fused — no scratch vector at any thread count.
    /// At `k > 1` each
    /// slice column is streamed **once** and multiplied against all `k`
    /// vectors — the blocked-RHS optimization that matters exactly
    /// because SpMV is bandwidth-bound (§6): matrix bytes dominate, so
    /// amortizing them across vectors multiplies the arithmetic
    /// intensity by nearly `k`.
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        check_apply_dims(self.nrows, self.ncols, &x, &y);
        let k = x.k();
        let (xd, yd) = (x.data(), y.into_data());
        match mode {
            Apply::Set => self.apply_parts::<false>(ctx, xd, yd, k),
            Apply::Add => self.apply_parts::<true>(ctx, xd, yd, k),
        }
    }

    /// The stream the kernel moves (measured stream, not the paper's §6
    /// model): the codec's value bytes, 2- or 4-byte indices by slice form
    /// and one `cbase` selector per slice.
    fn spmv_traffic(&self) -> crate::traffic::TrafficEstimate {
        crate::traffic::sell_stream_traffic(
            self.nrows,
            self.ncols,
            self.nnz,
            self.codec.bytes_per_value(),
            self.narrow_nnz,
            self.nslices(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooBuilder;

    fn random_csr(nrows: usize, ncols: usize, seed: u64) -> Csr {
        // Small deterministic LCG so we don't need rand here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut b = CooBuilder::new(nrows, ncols);
        for i in 0..nrows {
            let len = next() % 12; // irregular rows, some empty
            let mut cols: Vec<usize> = (0..len).map(|_| next() % ncols).collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                b.push(i, c, (next() % 1000) as f64 / 100.0 - 5.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn round_trip_preserves_matrix() {
        let a = random_csr(53, 47, 7);
        let s = Sell8::from_csr(&a);
        assert_eq!(s.to_csr().to_dense(), a.to_dense());
        assert_eq!(s.nnz(), a.nnz());
    }

    #[test]
    fn spmv_matches_csr_all_isas() {
        let a = random_csr(100, 90, 42);
        let x: Vec<f64> = (0..90).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut want = vec![0.0; 100];
        a.spmv_isa(Isa::Scalar, &x, &mut want);
        let s = Sell8::from_csr(&a);
        for isa in Isa::available_tiers() {
            let mut got = vec![0.0; 100];
            s.spmv_isa(isa, &x, &mut got);
            for i in 0..100 {
                assert!(
                    (got[i] - want[i]).abs() < 1e-12,
                    "{isa} row {i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn spmv_add_matches() {
        let a = random_csr(40, 40, 9);
        let s = Sell8::from_csr(&a);
        let x = vec![1.0; 40];
        let mut y1 = vec![2.0; 40];
        let mut y2 = vec![2.0; 40];
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
    fn slice_offsets_are_simd_aligned() {
        let a = random_csr(100, 100, 13);
        let s = Sell8::from_csr(&a);
        assert!(s.sliceptr().iter().all(|&p| p % 8 == 0));
        assert_eq!(s.nslices(), 13);
    }

    #[test]
    fn padding_indices_are_sentinel_or_in_bounds() {
        // Real entries index a valid column; every padded lane holds its
        // stream's sentinel so kernels can mask it without aliasing live
        // x — all narrow at 25 columns, all wide at 70 000.
        for ncols in [25usize, 70_000] {
            let a = random_csr(30, ncols, 17);
            let s = Sell8::from_csr(&a);
            let wide = ncols > 0xFFFF;
            assert_eq!(s.colidx().len(), if wide { s.stored_elems() } else { 0 });
            let mut pads = s.colidx().iter().filter(|&&c| c as usize == ncols).count();
            assert!(s.colidx().iter().all(|&c| c as usize <= ncols));
            if !wide {
                pads += s.cidx16().iter().filter(|&&o| o == NARROW_SENTINEL).count();
                assert!(s.cidx16().iter().all(|&o| o == NARROW_SENTINEL || o < 25));
            }
            assert_eq!(pads, s.padded_elems(), "{ncols} columns");
        }
    }

    #[test]
    fn row_resolves_each_entry_from_the_stream_its_slice_uses() {
        // Slice 0 wide (row 3 reaches 69 000 columns away), slice 1 narrow,
        // at every codec: `row`, `get` and `to_csr` see the input pattern
        // and the rounded values whichever array holds them.
        let mut b = CooBuilder::new(12, 70_000);
        for i in 0..12 {
            b.push(i, 100 + i, 1.1 + i as f64);
            b.push(i, if i == 3 { 69_100 } else { 150 + 2 * i }, 0.3 - i as f64);
        }
        let a = b.to_csr();
        for codec in [Codec::F64, Codec::F32, Codec::Bf16] {
            let s = Sell8::from_csr_codec(&a, codec);
            assert_eq!(s.cbase(), [u32::MAX, 108], "{codec:?}");
            assert_eq!(s.wideptr(), [0, 16, 16], "{codec:?}");
            assert_eq!(s.colidx().len(), 16);
            let held = (s.values().len(), s.packed_values().len());
            let stride = codec.bytes_per_value();
            assert_eq!(
                held,
                if codec == Codec::F64 {
                    (32, 0)
                } else {
                    (0, 32 * stride)
                },
                "{codec:?}: one value stream"
            );
            let q = quantized_csr(&a, codec);
            for i in 0..12 {
                let want: Vec<(u32, f64)> = q
                    .row_cols(i)
                    .iter()
                    .copied()
                    .zip(q.row_vals(i).iter().copied())
                    .collect();
                assert_eq!(s.row(i).collect::<Vec<_>>(), want, "{codec:?} row {i}");
                assert_eq!(s.get(i, 100 + i), Some(want[0].1));
                assert_eq!(s.get(i, 99), None);
            }
            let back = s.to_csr();
            assert_eq!(back.colidx(), q.colidx());
            assert_eq!(back.values(), q.values());
        }
    }

    #[test]
    fn other_slice_heights_work_scalar() {
        let a = random_csr(33, 33, 23);
        let x: Vec<f64> = (0..33).map(|i| i as f64).collect();
        let mut want = vec![0.0; 33];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        let s4 = Sell4::from_csr(&a);
        let s16 = Sell16::from_csr(&a);
        let mut y4 = vec![0.0; 33];
        let mut y16 = vec![0.0; 33];
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
        for i in 0..33 {
            assert!((y4[i] - want[i]).abs() < 1e-12);
            assert!((y16[i] - want[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn c1_sell_is_csr_storage_sized() {
        // §2.5: "If the slice height C is chosen as 1, the sliced ELLPACK
        // format becomes identical to the CSR format" — zero padding.
        let a = random_csr(60, 60, 31);
        let s = Sell::<1>::from_csr(&a);
        assert_eq!(s.padded_elems(), 0);
        assert_eq!(s.stored_elems(), a.nnz());
    }

    #[test]
    fn set_values_refresh() {
        let a = random_csr(50, 50, 19);
        let mut s = Sell8::from_csr(&a);
        // Scale all values by 3 in CSR, refresh SELL in place.
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 3.0;
        }
        s.set_values_from_csr(&a2);
        let x = vec![1.0; 50];
        let mut y1 = vec![0.0; 50];
        let mut y2 = vec![0.0; 50];
        a2.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y1).into(),
            Apply::Set,
        );
        s.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y2).into(),
            Apply::Set,
        );
        for i in 0..50 {
            assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn spmm_matches_repeated_spmv() {
        let a = random_csr(45, 38, 61);
        let s = Sell8::from_csr(&a);
        let k = 3;
        let x: Vec<f64> = (0..k * 38).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut y_block = vec![0.0; k * 45];
        s.spmm(&x, k, &mut y_block);
        for v in 0..k {
            let mut y_single = vec![0.0; 45];
            s.apply(
                &ExecCtx::serial(),
                (&x[v * 38..(v + 1) * 38]).into(),
                (&mut y_single).into(),
                Apply::Set,
            );
            for i in 0..45 {
                assert!(
                    (y_block[v * 45 + i] - y_single[i]).abs() < 1e-12,
                    "v={v} row {i}"
                );
            }
        }
    }

    #[test]
    fn spmm_with_c16() {
        let a = random_csr(30, 30, 71);
        let k = 2;
        let x: Vec<f64> = (0..k * 30).map(|i| i as f64 * 0.05).collect();
        let mut want = vec![0.0; k * 30];
        a.spmm(&x, k, &mut want); // CSR default path
        let s16 = Sell16::from_csr(&a);
        let mut y = vec![0.0; k * 30];
        s16.spmm(&x, k, &mut y);
        for i in 0..k * 30 {
            assert!((y[i] - want[i]).abs() < 1e-12, "C=16 i={i}");
        }
    }

    #[test]
    fn spmm_k_zero_is_noop() {
        let a = random_csr(10, 10, 81);
        let s = Sell8::from_csr(&a);
        let mut y: Vec<f64> = vec![];
        s.spmm(&[], 0, &mut y);
    }

    #[test]
    fn empty_matrix() {
        let a = Csr::from_dense(0, 0, &[]);
        let s = Sell8::from_csr(&a);
        let mut y: Vec<f64> = vec![];
        s.apply(
            &ExecCtx::serial(),
            (&[]).into(),
            (&mut y).into(),
            Apply::Set,
        );
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.nslices(), 0);
    }

    #[test]
    fn sell4_and_sell16_simd_match_scalar() {
        let a = random_csr(121, 121, 29);
        let x: Vec<f64> = (0..121).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut want = vec![0.0; 121];
        a.spmv_isa(Isa::Scalar, &x, &mut want);
        for isa in Isa::available_tiers() {
            let mut y4 = vec![0.0; 121];
            Sell4::from_csr(&a).spmv_isa(isa, &x, &mut y4);
            let mut y16 = vec![0.0; 121];
            Sell16::from_csr(&a).spmv_isa(isa, &x, &mut y16);
            for i in 0..121 {
                assert!((y4[i] - want[i]).abs() < 1e-12, "C=4 {isa} row {i}");
                assert!((y16[i] - want[i]).abs() < 1e-12, "C=16 {isa} row {i}");
            }
        }
    }

    #[test]
    fn sell4_and_sell16_spmv_add() {
        let a = random_csr(37, 37, 31);
        let x = vec![0.5; 37];
        let mut want = vec![1.0; 37];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Add,
        );
        let mut y4 = vec![1.0; 37];
        Sell4::from_csr(&a).apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y4).into(),
            Apply::Add,
        );
        let mut y16 = vec![1.0; 37];
        Sell16::from_csr(&a).apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y16).into(),
            Apply::Add,
        );
        for i in 0..37 {
            assert!((y4[i] - want[i]).abs() < 1e-12, "C=4 row {i}");
            assert!((y16[i] - want[i]).abs() < 1e-12, "C=16 row {i}");
        }
    }

    #[test]
    fn tuned_kernel_matches_plain() {
        // Odd and even slice counts, ragged widths, partial last slice.
        for n in [8usize, 16, 24, 25, 39, 40, 41, 100] {
            let a = random_csr(n, n, n as u64 + 3);
            let s = Sell8::from_csr(&a);
            let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
            let mut plain = vec![0.0; n];
            let mut tuned = vec![0.0; n];
            s.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut plain).into(),
                Apply::Set,
            );
            s.spmv_tuned(&x, &mut tuned);
            for i in 0..n {
                assert!((plain[i] - tuned[i]).abs() < 1e-12, "n={n} row {i}");
            }
        }
    }

    /// Quantizes every value of a CSR matrix through `codec` — the f64
    /// oracle the packed kernels must match bit-for-bit (the packed bytes
    /// decode to exactly these numbers).
    fn quantized_csr(a: &Csr, codec: Codec) -> Csr {
        let mut q = a.clone();
        for v in q.values_mut() {
            *v = codec.quantize(*v);
        }
        q
    }

    #[test]
    fn packed_spmv_matches_quantized_f64_all_isas() {
        let a = random_csr(137, 123, 97);
        let x: Vec<f64> = (0..123).map(|i| (i as f64 * 0.29).sin() * 3.0).collect();
        for codec in [Codec::F32, Codec::Bf16] {
            let q = quantized_csr(&a, codec);
            let mut want = vec![0.0; 137];
            q.spmv_isa(Isa::Scalar, &x, &mut want);
            let s = Sell8::from_csr_codec(&a, codec);
            assert_eq!(s.codec(), codec);
            for isa in Isa::available_tiers() {
                let mut got = vec![0.0; 137];
                s.spmv_isa(isa, &x, &mut got);
                for i in 0..137 {
                    assert!(
                        (got[i] - want[i]).abs() < 1e-12,
                        "{codec:?} {isa} row {i}: {} vs {}",
                        got[i],
                        want[i]
                    );
                }
            }
        }
    }

    #[test]
    fn packed_all_slice_heights_and_add() {
        let a = random_csr(61, 61, 203);
        let x: Vec<f64> = (0..61).map(|i| 0.1 * i as f64 - 3.0).collect();
        for codec in [Codec::F32, Codec::Bf16] {
            let q = quantized_csr(&a, codec);
            let mut want = vec![1.0; 61];
            q.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut want).into(),
                Apply::Add,
            );
            let s4 = Sell4::from_csr_codec(&a, codec);
            let s16 = Sell16::from_csr_codec(&a, codec);
            let mut y4 = vec![1.0; 61];
            let mut y16 = vec![1.0; 61];
            s4.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut y4).into(),
                Apply::Add,
            );
            s16.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut y16).into(),
                Apply::Add,
            );
            for i in 0..61 {
                assert!((y4[i] - want[i]).abs() < 1e-12, "{codec:?} C=4 row {i}");
                assert!((y16[i] - want[i]).abs() < 1e-12, "{codec:?} C=16 row {i}");
            }
        }
    }

    #[test]
    fn packed_spmm_matches_repeated_spmv() {
        let a = random_csr(52, 44, 303);
        let k = 3;
        let x: Vec<f64> = (0..k * 44).map(|i| (i as f64 * 0.17).cos()).collect();
        for codec in [Codec::F32, Codec::Bf16] {
            let s = Sell8::from_csr_codec(&a, codec);
            for isa in Isa::available_tiers() {
                let mut y_block = vec![0.0; k * 52];
                s.spmm_isa(isa, &x, &mut y_block, k);
                for v in 0..k {
                    let xv: Vec<f64> = (0..44).map(|c| x[c * k + v]).collect();
                    let mut y_single = vec![0.0; 52];
                    s.spmv_isa(isa, &xv, &mut y_single);
                    for i in 0..52 {
                        assert!(
                            (y_block[i * k + v] - y_single[i]).abs() < 1e-12,
                            "{codec:?} {isa} v={v} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_wide_slices_fall_back_to_u32_indices() {
        // A matrix wide enough that some slice spans ≥ 0xFFFF columns and
        // must keep wide indices, mixed with narrow-compressible slices.
        let n = 70_000usize;
        let mut b = CooBuilder::new(24, n);
        for i in 0..24 {
            b.push(i, i * 3, 1.0 + i as f64);
            if i < 8 {
                b.push(i, n - 1 - i, 0.5 * i as f64); // span ≈ n ≫ 0xFFFF
            }
        }
        let a = b.to_csr();
        let s = Sell8::from_csr_codec(&a, Codec::F32);
        assert!(s.cbase().contains(&u32::MAX), "wide slice expected");
        assert!(
            s.cbase().iter().any(|&b| b != u32::MAX),
            "narrow slice expected"
        );
        assert!(s.narrow_nnz() > 0 && s.narrow_nnz() < s.nnz() as u64);
        let x: Vec<f64> = (0..n).map(|i| ((i % 97) as f64) * 0.01).collect();
        let q = quantized_csr(&a, Codec::F32);
        let mut want = vec![0.0; 24];
        q.spmv_isa(Isa::Scalar, &x, &mut want);
        for isa in Isa::available_tiers() {
            let mut got = vec![0.0; 24];
            s.spmv_isa(isa, &x, &mut got);
            for i in 0..24 {
                assert!((got[i] - want[i]).abs() < 1e-12, "{isa} row {i}");
            }
        }
    }

    #[test]
    fn index_form_is_chosen_per_slice_at_the_u16_boundary() {
        // Six SELL-8 slices: live spans 0xFFFD and 0xFFFE (narrow), 0xFFFF
        // (wide), all padding (narrow, base 0), 0xFFFE ending on the last
        // column, and a ragged 3-row slice — what `sellkit-fuzz`'s
        // `narrow_edge` family generates.
        let n = 0x1_0000 + 10;
        let mut b = CooBuilder::new(5 * 8 + 3, n);
        let top = n - 1 - 0xFFFE;
        for (s, lo, span) in [
            (0, 2, 0xFFFD),
            (1, 1, 0xFFFE),
            (2, 0, 0xFFFF),
            (4, top, 0xFFFE),
            (5, 7, 0xFFFD),
        ] {
            b.push(s * 8 + 1, lo, 1.0 + s as f64);
            b.push(s * 8 + 1, lo + span, -0.5);
            b.push(s * 8 + 2, lo + 5, 0.25);
        }
        let a = b.to_csr();
        let x: Vec<f64> = (0..n).map(|i| ((i % 89) as f64) * 0.125 - 3.0).collect();
        for codec in [Codec::F64, Codec::F32, Codec::Bf16] {
            let s = Sell8::from_csr_codec(&a, codec);
            assert_eq!(s.cbase(), [2, 1, u32::MAX, 0, top as u32, 7], "{codec:?}");
            // Three live entries in each of the four narrow, non-empty slices.
            assert_eq!(s.narrow_nnz(), 12, "{codec:?}");
            assert_eq!(s.nnz(), 15);
            // Slice 1, second column: lane 1 holds the largest live offset,
            // every other lane the padding sentinel right above it.
            let col = &s.cidx16()[s.sliceptr()[1] + 8..s.sliceptr()[2]];
            assert_eq!(col[1], 0xFFFE);
            assert!(col.iter().enumerate().all(|(r, &o)| r == 1 || o == 0xFFFF));
            // The wide slice leaves its offsets untouched, and is the only
            // one with entries in `colidx`.
            let wide = s.sliceptr()[2]..s.sliceptr()[3];
            assert_eq!(
                s.wideptr(),
                [0, 0, 0, wide.len(), wide.len(), wide.len(), wide.len()]
            );
            assert_eq!(s.colidx().len(), wide.len());
            assert!(s.cidx16()[wide].iter().all(|&o| o == 0));
            let q = quantized_csr(&a, codec);
            let mut want = vec![0.0; a.nrows()];
            q.spmv_isa(Isa::Scalar, &x, &mut want);
            for isa in Isa::available_tiers() {
                let mut got = vec![f64::NAN; a.nrows()];
                s.spmv_isa(isa, &x, &mut got);
                assert_eq!(
                    got, want,
                    "{codec:?} {isa}: at most two exact products per row"
                );
            }
        }
    }

    #[test]
    fn packed_sentinel_padding_immune_to_nonfinite_x() {
        // §5.5 contract survives packing: padded lanes (narrow sentinel
        // 0xFFFF / wide sentinel ncols) never read x, so poisoning x with
        // NaN/Inf at any live column still yields finite rows that don't
        // touch those columns.
        let a = Csr::from_dense(3, 3, &[2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 4.0]);
        for codec in [Codec::F32, Codec::Bf16] {
            let s = Sell8::from_csr_codec(&a, codec);
            let x = [2.0, f64::NAN, f64::INFINITY];
            for isa in Isa::available_tiers() {
                let mut y = vec![0.0; 3];
                s.spmv_isa(isa, &x, &mut y);
                assert_eq!(y[0], 4.0, "{codec:?} {isa}");
                assert!(y[1].is_nan(), "{codec:?} {isa}");
                assert_eq!(y[2], f64::INFINITY, "{codec:?} {isa}");
            }
        }
    }

    #[test]
    fn packed_set_values_refresh_reencodes() {
        let a = random_csr(50, 50, 419);
        let mut s = Sell8::from_csr_codec(&a, Codec::Bf16);
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= -1.5;
        }
        s.set_values_from_csr(&a2);
        let q = quantized_csr(&a2, Codec::Bf16);
        let x: Vec<f64> = (0..50).map(|i| (i as f64).sqrt()).collect();
        let mut want = vec![0.0; 50];
        q.spmv_isa(Isa::Scalar, &x, &mut want);
        for isa in Isa::available_tiers() {
            let mut got = vec![0.0; 50];
            s.spmv_isa(isa, &x, &mut got);
            for i in 0..50 {
                assert!((got[i] - want[i]).abs() < 1e-12, "{isa} row {i}");
            }
        }
    }

    #[test]
    fn packed_threaded_matches_serial() {
        let a = random_csr(512, 512, 777);
        let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.031).sin()).collect();
        let ctx = ExecCtx::new(4);
        for codec in [Codec::F32, Codec::Bf16] {
            let s = Sell8::from_csr_codec(&a, codec);
            let mut serial = vec![0.0; 512];
            let mut threaded = vec![0.0; 512];
            s.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut serial).into(),
                Apply::Set,
            );
            s.apply(&ctx, (&x).into(), (&mut threaded).into(), Apply::Set);
            assert_eq!(serial, threaded, "{codec:?} spmv");
            // Blocked path too.
            let k = 2;
            let xb: Vec<f64> = (0..k * 512).map(|i| (i as f64 * 0.011).cos()).collect();
            let xv = crate::MultiVec::from_interleaved(512, k, &xb);
            let mut sb = crate::MultiVec::zeros(512, k);
            let mut tb = crate::MultiVec::zeros(512, k);
            s.apply(&ExecCtx::serial(), xv.view(), sb.view_mut(), Apply::Set);
            s.apply(&ctx, xv.view(), tb.view_mut(), Apply::Set);
            assert_eq!(sb.as_slice(), tb.as_slice(), "{codec:?} spmm");
        }
    }

    #[test]
    fn packed_traffic_is_cheaper() {
        let a = random_csr(4096, 4096, 4242);
        let f64_bytes = Sell8::from_csr(&a).spmv_traffic().bytes;
        let f32_bytes = Sell8::from_csr_codec(&a, Codec::F32).spmv_traffic().bytes;
        let bf16_bytes = Sell8::from_csr_codec(&a, Codec::Bf16).spmv_traffic().bytes;
        assert!(f32_bytes < f64_bytes, "{f32_bytes} vs {f64_bytes}");
        assert!(bf16_bytes < f32_bytes, "{bf16_bytes} vs {f32_bytes}");
        // Flops are codec-independent.
        assert_eq!(
            Sell8::from_csr_codec(&a, Codec::F32).spmv_traffic().flops,
            Sell8::from_csr(&a).spmv_traffic().flops
        );
    }

    #[test]
    fn packed_roundtrip_exposes_quantized_values() {
        // get()/to_csr() observe the quantized matrix — the same numbers
        // the kernels multiply by.
        let a = Csr::from_dense(2, 2, &[0.1, 0.0, 0.0, 0.3]);
        let s = Sell8::from_csr_codec(&a, Codec::F32);
        assert_eq!(s.get(0, 0), Some(0.1f32 as f64));
        assert_eq!(s.to_csr().to_dense()[3], 0.3f32 as f64);
    }

    #[test]
    fn single_row_matrix() {
        let a = Csr::from_dense(1, 3, &[1.0, 0.0, 2.0]);
        let s = Sell8::from_csr(&a);
        let mut y = vec![0.0];
        s.apply(
            &ExecCtx::serial(),
            (&[1.0, 1.0, 1.0]).into(),
            (&mut y).into(),
            Apply::Set,
        );
        assert_eq!(y, vec![3.0]);
        assert_eq!(s.padded_elems(), 7 * 2); // 7 padded lanes × width 2
    }
}
