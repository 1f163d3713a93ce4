//! `sellkit-check` — structural-invariant verification for every matrix
//! format in `sellkit-core`.
//!
//! The SIMD kernels (§5 of the paper) are only sound under unwritten
//! structural invariants: monotone row/slice pointers, in-bounds column
//! indices, padding indices holding the masked *sentinel* `ncols` so
//! padded lanes never read `x` (stricter than the paper's §5.5 local-copy
//! scheme, which NaN-contaminates lanes when `x` holds Inf/NaN at the
//! aliased column) and `rlen` consistent with the slice width.  A conversion
//! bug that breaks one of these produces silently wrong numerics or an
//! out-of-bounds read.  Beside them stands one *speed* invariant: every
//! stream of a SELL format starts on a 64-byte boundary (§3.1), so that a
//! slice column is one cache line — all loads are unaligned ones, so a
//! shifted stream is slow, not unsound, and `CSR`/`BAIJ`/`SBAIJ`, whose
//! rows and blocks start anywhere, are not asked for it.  This crate makes
//! the invariants explicit and checkable:
//!
//! * [`Validate`] is implemented by every format (`COO`, `CSR`,
//!   `SELL<4/8/16>`, `SELL-ESB`, `SELL-C-σ`, `BAIJ`, `SBAIJ`);
//! * violations come back as structured [`Violation`] values carrying
//!   row/slice coordinates, so tests can assert the exact defect and
//!   diagnostics can point at the offending entry;
//! * the `check_*_parts` functions operate on raw slices, so tests can
//!   corrupt individual arrays and verify each invariant is actually
//!   enforced (see `tests/validate.rs`).
//!
//! A format holds each stream once, so there is no "the copies agree"
//! invariant to check: every check reads the one array the kernels read.
//! Validation is `O(stored elements)` and allocates nothing on a valid
//! matrix (the σ variant: one `rlen` re-indexing); it is meant for tests,
//! registration-time and post-assembly audits, not the SpMV hot path (the
//! `debug_assert!` preconditions of `sellkit_core`'s checked kernel entry
//! points cover that).

#![forbid(unsafe_code)]

use sellkit_core::aligned::ALIGN;
use sellkit_core::{Baij, Codec, CooBuilder, Csr, MatShape, Sbaij, Sell, SellEsb, SellSigma};
use std::fmt;

/// Location of an offending entry inside a format's flat storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Loc {
    /// Index into the flat entry arrays (for SELL: the entry's offset in
    /// the value stream, whichever index stream its slice uses).
    pub at: usize,
    /// Logical matrix row the entry belongs to (for padded lanes past the
    /// end of the matrix, the storage row `slice * C + lane`).
    pub row: usize,
    /// Slice index for sliced formats; 0 for unsliced formats.
    pub slice: usize,
}

/// One structural-invariant violation, with coordinates.
///
/// [`Violation::kind`] strips the payload for easy matching in tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A pointer array (`rowptr`/`sliceptr`/`browptr`) has the
    /// wrong length.
    PtrLen {
        array: &'static str,
        expected: usize,
        found: usize,
    },
    /// A pointer array does not start at 0.
    PtrStart { array: &'static str, found: usize },
    /// `array[at + 1] < array[at]` — the pointer array decreases.
    PtrNonMonotone {
        array: &'static str,
        at: usize,
        prev: usize,
        next: usize,
    },
    /// The final pointer entry disagrees with the data-array length.
    PtrEnd {
        array: &'static str,
        expected: usize,
        found: usize,
    },
    /// Two arrays that must be parallel have different lengths.
    ArrLen {
        array: &'static str,
        expected: usize,
        found: usize,
    },
    /// A slice's extent is not a multiple of the lane count `C`.
    SliceNotLaneAligned {
        slice: usize,
        elems: usize,
        lanes: usize,
    },
    /// A column index is out of range for the matrix width.
    ColOutOfBounds { loc: Loc, col: u32, ncols: usize },
    /// Column indices within a row are not strictly increasing.
    ColsNotSorted { loc: Loc, prev: u32, next: u32 },
    /// A padding entry's column index is not the sentinel `ncols`: it
    /// aliases a live column of `x` (or some other in-range index), so a
    /// non-finite value there would leak into the padded lane as
    /// `0.0 × Inf = NaN`.  Kernels mask the sentinel and substitute 0.0,
    /// which is only sound if *every* padded slot carries it.
    PaddingAliasesLiveColumn { loc: Loc, col: u32 },
    /// A padding entry stores a nonzero value (would corrupt the product).
    PaddingValueNonzero { loc: Loc, value: f64 },
    /// `rlen[row]` exceeds the width available to that row.
    RlenExceedsWidth {
        row: usize,
        rlen: usize,
        width: usize,
    },
    /// Nonzero accounting failed (e.g. `sum(rlen) != nnz`).
    NnzMismatch { claimed: usize, found: usize },
    /// A stream of a SELL format is not 64-byte aligned (§3.1): every
    /// slice-column load of it would straddle two cache lines.
    Misaligned { array: &'static str, rem: usize },
    /// A permutation entry is out of range.
    PermOutOfRange { at: usize, row: usize, n: usize },
    /// A permutation maps two lanes to the same row.
    PermDuplicate {
        row: usize,
        first: usize,
        second: usize,
    },
    /// An SBAIJ block lies below the diagonal (only the upper triangle may
    /// be stored).
    NotUpperTriangular { brow: usize, at: usize, bcol: u32 },
    /// An ESB bit-array byte disagrees with `rlen` (bit `r` must be set iff
    /// lane `r` holds a real nonzero at that slice column).
    BitMaskMismatch {
        slice: usize,
        j: usize,
        expected: u8,
        found: u8,
    },
    /// Row lengths within a SELL-C-σ sorting window are not
    /// non-increasing (the sort invariant that keeps padding minimal).
    SigmaWindowNotSorted {
        window: usize,
        at: usize,
        prev: u32,
        next: u32,
    },
}

/// Payload-free discriminant of [`Violation`], for assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    PtrLen,
    PtrStart,
    PtrNonMonotone,
    PtrEnd,
    ArrLen,
    SliceNotLaneAligned,
    ColOutOfBounds,
    ColsNotSorted,
    PaddingAliasesLiveColumn,
    PaddingValueNonzero,
    RlenExceedsWidth,
    NnzMismatch,
    Misaligned,
    PermOutOfRange,
    PermDuplicate,
    NotUpperTriangular,
    BitMaskMismatch,
    SigmaWindowNotSorted,
}

impl Violation {
    /// The payload-free kind of this violation.
    pub fn kind(&self) -> ViolationKind {
        match self {
            Violation::PtrLen { .. } => ViolationKind::PtrLen,
            Violation::PtrStart { .. } => ViolationKind::PtrStart,
            Violation::PtrNonMonotone { .. } => ViolationKind::PtrNonMonotone,
            Violation::PtrEnd { .. } => ViolationKind::PtrEnd,
            Violation::ArrLen { .. } => ViolationKind::ArrLen,
            Violation::SliceNotLaneAligned { .. } => ViolationKind::SliceNotLaneAligned,
            Violation::ColOutOfBounds { .. } => ViolationKind::ColOutOfBounds,
            Violation::ColsNotSorted { .. } => ViolationKind::ColsNotSorted,
            Violation::PaddingAliasesLiveColumn { .. } => ViolationKind::PaddingAliasesLiveColumn,
            Violation::PaddingValueNonzero { .. } => ViolationKind::PaddingValueNonzero,
            Violation::RlenExceedsWidth { .. } => ViolationKind::RlenExceedsWidth,
            Violation::NnzMismatch { .. } => ViolationKind::NnzMismatch,
            Violation::Misaligned { .. } => ViolationKind::Misaligned,
            Violation::PermOutOfRange { .. } => ViolationKind::PermOutOfRange,
            Violation::PermDuplicate { .. } => ViolationKind::PermDuplicate,
            Violation::NotUpperTriangular { .. } => ViolationKind::NotUpperTriangular,
            Violation::BitMaskMismatch { .. } => ViolationKind::BitMaskMismatch,
            Violation::SigmaWindowNotSorted { .. } => ViolationKind::SigmaWindowNotSorted,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::PtrLen {
                array,
                expected,
                found,
            } => {
                write!(f, "{array} has {found} entries, expected {expected}")
            }
            Violation::PtrStart { array, found } => {
                write!(f, "{array}[0] is {found}, expected 0")
            }
            Violation::PtrNonMonotone {
                array,
                at,
                prev,
                next,
            } => {
                write!(f, "{array} decreases at {at}: {prev} -> {next}")
            }
            Violation::PtrEnd {
                array,
                expected,
                found,
            } => {
                write!(f, "{array} ends at {found}, expected {expected}")
            }
            Violation::ArrLen {
                array,
                expected,
                found,
            } => {
                write!(f, "{array} has length {found}, expected {expected}")
            }
            Violation::SliceNotLaneAligned {
                slice,
                elems,
                lanes,
            } => {
                write!(
                    f,
                    "slice {slice} holds {elems} elements, not a multiple of C={lanes}"
                )
            }
            Violation::ColOutOfBounds { loc, col, ncols } => {
                write!(
                    f,
                    "column {col} out of bounds ({ncols}) at index {} (row {}, slice {})",
                    loc.at, loc.row, loc.slice
                )
            }
            Violation::ColsNotSorted { loc, prev, next } => {
                write!(
                    f,
                    "row {} columns not strictly increasing at index {}: {prev} -> {next}",
                    loc.row, loc.at
                )
            }
            Violation::PaddingAliasesLiveColumn { loc, col } => {
                write!(
                    f,
                    "padding at index {} (row {}, slice {}) aliases live column {col} \
                     instead of the ncols sentinel",
                    loc.at, loc.row, loc.slice
                )
            }
            Violation::PaddingValueNonzero { loc, value } => {
                write!(
                    f,
                    "padding at index {} (row {}, slice {}) stores nonzero value {value}",
                    loc.at, loc.row, loc.slice
                )
            }
            Violation::RlenExceedsWidth { row, rlen, width } => {
                write!(f, "rlen[{row}] = {rlen} exceeds available width {width}")
            }
            Violation::NnzMismatch { claimed, found } => {
                write!(
                    f,
                    "nnz accounting: claimed {claimed}, storage implies {found}"
                )
            }
            Violation::Misaligned { array, rem } => {
                write!(
                    f,
                    "{array} base address is {rem} bytes past a {ALIGN}-byte boundary"
                )
            }
            Violation::PermOutOfRange { at, row, n } => {
                write!(f, "perm[{at}] = {row} out of range ({n} rows)")
            }
            Violation::PermDuplicate { row, first, second } => {
                write!(f, "perm maps lanes {first} and {second} both to row {row}")
            }
            Violation::NotUpperTriangular { brow, at, bcol } => {
                write!(
                    f,
                    "block ({brow}, {bcol}) at index {at} lies below the diagonal"
                )
            }
            Violation::BitMaskMismatch {
                slice,
                j,
                expected,
                found,
            } => {
                write!(
                    f,
                    "bit mask for slice {slice} column {j} is {found:#010b}, expected {expected:#010b}"
                )
            }
            Violation::SigmaWindowNotSorted {
                window,
                at,
                prev,
                next,
            } => {
                write!(
                    f,
                    "σ-window {window}: row lengths increase at storage position {at}: {prev} -> {next}"
                )
            }
        }
    }
}

/// A matrix format whose structural invariants can be verified.
pub trait Validate {
    /// Checks every structural invariant, returning all violations found
    /// (not just the first).
    fn validate(&self) -> Result<(), Vec<Violation>>;
}

fn finish(v: Vec<Violation>) -> Result<(), Vec<Violation>> {
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

/// `ArrLen` if an array is not as long as the one it must parallel.
fn arr_len(array: &'static str, expected: usize, found: usize) -> Option<Violation> {
    (expected != found).then_some(Violation::ArrLen {
        array,
        expected,
        found,
    })
}

// ---------------------------------------------------------------------------
// Parts-level checkers (public so mutation tests can corrupt raw arrays).
// ---------------------------------------------------------------------------

/// Checks a pointer array: length `n + 1`, starts at 0, monotone, ends at
/// `data_len`.  Index-dependent checks are skipped once the length is wrong.
pub(crate) fn check_ptr_array(
    array: &'static str,
    ptr: &[usize],
    n: usize,
    data_len: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if ptr.len() != n + 1 {
        out.push(Violation::PtrLen {
            array,
            expected: n + 1,
            found: ptr.len(),
        });
        return out;
    }
    if ptr[0] != 0 {
        out.push(Violation::PtrStart {
            array,
            found: ptr[0],
        });
    }
    for (i, w) in ptr.windows(2).enumerate() {
        if w[1] < w[0] {
            out.push(Violation::PtrNonMonotone {
                array,
                at: i,
                prev: w[0],
                next: w[1],
            });
        }
    }
    if ptr[n] != data_len {
        out.push(Violation::PtrEnd {
            array,
            expected: data_len,
            found: ptr[n],
        });
    }
    out
}

/// Checks that a stream read in whole slice columns starts on a 64-byte
/// boundary (§3.1; empty arrays are exempt — the kernels never load from
/// them).
pub fn check_alignment<T>(array: &'static str, data: &[T]) -> Vec<Violation> {
    let rem = data.as_ptr() as usize % ALIGN;
    if data.is_empty() || rem == 0 {
        Vec::new()
    } else {
        vec![Violation::Misaligned { array, rem }]
    }
}

/// Checks that `perm` is a permutation of `0..n`.
pub(crate) fn check_permutation(perm: &[u32], n: usize) -> Vec<Violation> {
    let mut out = Vec::from_iter(arr_len("perm", n, perm.len()));
    if !out.is_empty() {
        return out;
    }
    let mut first_at = vec![usize::MAX; n];
    for (at, &row) in perm.iter().enumerate() {
        let row = row as usize;
        if row >= n {
            out.push(Violation::PermOutOfRange { at, row, n });
        } else if first_at[row] != usize::MAX {
            out.push(Violation::PermDuplicate {
                row,
                first: first_at[row],
                second: at,
            });
        } else {
            first_at[row] = at;
        }
    }
    out
}

/// Checks CSR invariants over raw parts.
pub fn check_csr_parts(
    nrows: usize,
    ncols: usize,
    rowptr: &[usize],
    colidx: &[u32],
    val: &[f64],
) -> Vec<Violation> {
    let mut out = check_ptr_array("rowptr", rowptr, nrows, val.len());
    out.extend(arr_len("colidx", val.len(), colidx.len()));
    if !out.is_empty() {
        return out; // row extents are unreliable; stop before indexing with them
    }
    for i in 0..nrows {
        let row = &colidx[rowptr[i]..rowptr[i + 1]];
        for (j, &c) in row.iter().enumerate() {
            let at = rowptr[i] + j;
            if c as usize >= ncols {
                out.push(Violation::ColOutOfBounds {
                    loc: Loc {
                        at,
                        row: i,
                        slice: 0,
                    },
                    col: c,
                    ncols,
                });
            }
            if j > 0 && row[j - 1] >= c {
                out.push(Violation::ColsNotSorted {
                    loc: Loc {
                        at,
                        row: i,
                        slice: 0,
                    },
                    prev: row[j - 1],
                    next: c,
                });
            }
        }
    }
    out
}

/// The arrays of a SELL matrix as [`Sell`] holds them (see its getters),
/// one per stream — what [`check_sell_parts`] walks, borrowed so a
/// mutation test can swap in a corrupted copy of exactly one of them.
#[derive(Debug, Clone, Copy)]
pub struct SellStreams<'a> {
    pub nrows: usize,
    pub ncols: usize,
    pub nnz: usize,
    pub sliceptr: &'a [usize],
    /// By logical row.
    pub rlen: &'a [u32],
    /// Which of `val` / `pval` holds the values; the other is empty.
    pub codec: Codec,
    pub val: &'a [f64],
    pub pval: &'a [u8],
    pub cidx16: &'a [u16],
    pub cbase: &'a [u32],
    pub colidx: &'a [u32],
    pub wideptr: &'a [usize],
}

impl<'a> SellStreams<'a> {
    /// The streams of `sell`, as held.
    pub fn of<const C: usize>(sell: &'a Sell<C>) -> Self {
        Self {
            nrows: sell.nrows(),
            ncols: sell.ncols(),
            nnz: sell.nnz(),
            sliceptr: sell.sliceptr(),
            rlen: sell.rlen(),
            codec: sell.codec(),
            val: sell.values(),
            pval: sell.packed_values(),
            cidx16: sell.cidx16(),
            cbase: sell.cbase(),
            colidx: sell.colidx(),
            wideptr: sell.wideptr(),
        }
    }
}

/// Independent decode of one packed value — deliberately *not* shared
/// with the core kernels' decode path, so a bug there cannot hide from
/// the padding-value check.
fn decode_packed(codec: Codec, pval: &[u8], at: usize) -> f64 {
    let byte = |i: usize| pval[codec.bytes_per_value() * at + i];
    match codec {
        Codec::F64 => unreachable!("F64 values are not packed"),
        Codec::F32 => f32::from_le_bytes([byte(0), byte(1), byte(2), byte(3)]) as f64,
        Codec::Bf16 => f32::from_bits((u16::from_le_bytes([byte(0), byte(1)]) as u32) << 16) as f64,
    }
}

/// Checks SELL invariants over raw parts, each slice **on the index stream
/// it uses** and the values on the one stream the codec holds.
///
/// Geometry first (a failure returns early — later checks would index with
/// it): `sliceptr` against the entry-parallel `cidx16`, one value per entry
/// in the codec's stream and none in the other, `cbase`/`rlen` lengths,
/// `wideptr` advancing by exactly the size of each wide slice and ending at
/// `colidx.len()`.  Then lane alignment, `rlen` against the slice width,
/// `sum(rlen) == nnz`, and every lane's entries resolved as the kernels
/// resolve them: live columns in bounds and strictly increasing, padding
/// the stream's sentinel (`0xFFFF` / `ncols`) with value zero.  Allocates
/// nothing on a valid matrix (`Server::register` runs it).
///
/// `lanes` is the slice height `C`; `perm`, if present, maps storage lane
/// `k` to logical row `perm[k]` — `check_sell_sigma_parts` passes the
/// σ-sort permutation, a plain [`Sell`] has none.
pub fn check_sell_parts(lanes: usize, m: &SellStreams<'_>, perm: Option<&[u32]>) -> Vec<Violation> {
    let SellStreams {
        nrows,
        ncols,
        sliceptr,
        rlen,
        cidx16,
        cbase,
        colidx,
        wideptr,
        ..
    } = *m;
    let nslices = nrows.div_ceil(lanes);
    let total = cidx16.len();
    let mut out = check_ptr_array("sliceptr", sliceptr, nslices, total);
    let (vals, bytes) = match m.codec {
        Codec::F64 => (total, 0),
        c => (0, total * c.bytes_per_value()),
    };
    out.extend(arr_len("val", vals, m.val.len()));
    out.extend(arr_len("pval", bytes, m.pval.len()));
    out.extend(arr_len("cbase", nslices, cbase.len()));
    out.extend(arr_len("wideptr", nslices + 1, wideptr.len()));
    out.extend(arr_len("rlen", nrows, rlen.len()));
    if let Some(p) = perm {
        out.extend(check_permutation(p, nrows));
    }
    if !out.is_empty() {
        return out; // slice extents / lane-to-row mapping are unreliable
    }
    let wide = |s: usize| cbase[s] == u32::MAX;
    let mut held = 0usize;
    for s in 0..=nslices {
        if let Some(v) = arr_len("wideptr", held, wideptr[s]) {
            return vec![v]; // a wide slice's entries cannot be located
        }
        if s < nslices && wide(s) {
            held += sliceptr[s + 1] - sliceptr[s];
        }
    }
    if let Some(v) = arr_len("colidx", held, colidx.len()) {
        return vec![v];
    }

    let total: usize = rlen.iter().map(|&l| l as usize).sum();
    if total != m.nnz {
        out.push(Violation::NnzMismatch {
            claimed: m.nnz,
            found: total,
        });
    }

    for s in 0..nslices {
        let base = sliceptr[s];
        let elems = sliceptr[s + 1] - base;
        if !elems.is_multiple_of(lanes) {
            out.push(Violation::SliceNotLaneAligned {
                slice: s,
                elems,
                lanes,
            });
            continue; // width is undefined for this slice
        }
        let w = elems / lanes;
        // The entry at `at` as the kernels resolve it: its column, and
        // whether it is this stream's padding sentinel.  A narrow offset
        // past the u32 range saturates; it is out of bounds either way.
        let resolve = |at: usize| -> (u32, bool) {
            if wide(s) {
                let c = colidx[wideptr[s] + (at - base)];
                (c, c as usize == ncols)
            } else if cidx16[at] == u16::MAX {
                (ncols as u32, true)
            } else {
                (cbase[s].saturating_add(cidx16[at] as u32), false)
            }
        };
        for r in 0..lanes {
            let k = s * lanes + r;
            // Logical row of this lane; lanes past nrows are pure padding.
            let (row, len) = if k < nrows {
                let row = perm.map_or(k, |p| p[k] as usize);
                (row, rlen[row] as usize)
            } else {
                (k, 0)
            };
            if len > w {
                out.push(Violation::RlenExceedsWidth {
                    row,
                    rlen: len,
                    width: w,
                });
                continue;
            }
            // Real entries: in-bounds columns, strictly increasing — what
            // `to_csr` and the value refresh take for granted.
            let mut prev = None;
            for j in 0..len {
                let at = base + j * lanes + r;
                let loc = Loc { at, row, slice: s };
                let (col, sentinel) = resolve(at);
                if sentinel || col as usize >= ncols {
                    out.push(Violation::ColOutOfBounds { loc, col, ncols });
                }
                if let Some(prev) = prev.filter(|&p| p >= col) {
                    out.push(Violation::ColsNotSorted {
                        loc,
                        prev,
                        next: col,
                    });
                }
                prev = Some(col);
            }
            // Padding entries: zero value and the sentinel, which the
            // kernels mask — any other index is dereferenced, aliasing a
            // live column of x (NaN from 0.0 × Inf) or leaving it.
            for j in len..w {
                let at = base + j * lanes + r;
                let loc = Loc { at, row, slice: s };
                let (col, sentinel) = resolve(at);
                if !sentinel {
                    out.push(Violation::PaddingAliasesLiveColumn { loc, col });
                }
                let value = match m.codec {
                    Codec::F64 => m.val[at],
                    c => decode_packed(c, m.pval, at),
                };
                if value != 0.0 {
                    out.push(Violation::PaddingValueNonzero { loc, value });
                }
            }
        }
    }
    out
}

/// Checks SELL-C-σ invariants over raw parts: everything
/// [`check_sell_parts`] enforces over the inner matrix's streams `m`
/// (whose `rlen` is indexed by **storage position** `k` — the length of
/// logical row `perm[k]`, matching [`sellkit_core::SellSigma::rlen`]),
/// plus the σ-specific invariants — `perm` is a bijection of `0..nrows`
/// and row lengths are non-increasing within every σ-row sorting window.
pub(crate) fn check_sell_sigma_parts(
    lanes: usize,
    sigma: usize,
    m: &SellStreams<'_>,
    perm: &[u32],
) -> Vec<Violation> {
    assert!(sigma >= 1, "sigma must be at least 1");
    let (nrows, rlen) = (m.nrows, m.rlen);
    let mut out = check_permutation(perm, nrows);
    out.extend(arr_len("rlen", nrows, rlen.len()));
    if !out.is_empty() {
        return out; // the storage→logical mapping is unreliable
    }
    for (w, window) in rlen.chunks(sigma).enumerate() {
        for (i, pair) in window.windows(2).enumerate() {
            if pair[1] > pair[0] {
                out.push(Violation::SigmaWindowNotSorted {
                    window: w,
                    at: w * sigma + i + 1,
                    prev: pair[0],
                    next: pair[1],
                });
            }
        }
    }
    // Delegate the SELL-layout checks with rlen re-indexed by logical
    // row, which is what `check_sell_parts` expects alongside `perm`.
    let mut rlen_logical = vec![0u32; nrows];
    for (k, &row) in perm.iter().enumerate() {
        rlen_logical[row as usize] = rlen[k];
    }
    let logical = SellStreams {
        rlen: &rlen_logical,
        ..*m
    };
    out.extend(check_sell_parts(lanes, &logical, Some(perm)));
    out
}

/// Checks block-CSR invariants over raw parts (`upper_triangular` adds the
/// SBAIJ `bcol >= brow` requirement and symmetric nnz accounting).
#[allow(clippy::too_many_arguments)]
pub fn check_block_parts(
    mbs: usize,
    nbs: usize,
    bs: usize,
    nnz: usize,
    browptr: &[usize],
    bcolidx: &[u32],
    val: &[f64],
    upper_triangular: bool,
) -> Vec<Violation> {
    let mut out = check_ptr_array("browptr", browptr, mbs, bcolidx.len());
    out.extend(arr_len("val", bcolidx.len() * bs * bs, val.len()));
    if !out.is_empty() {
        return out;
    }
    for bi in 0..mbs {
        let row = &bcolidx[browptr[bi]..browptr[bi + 1]];
        for (j, &bc) in row.iter().enumerate() {
            let at = browptr[bi] + j;
            if bc as usize >= nbs {
                out.push(Violation::ColOutOfBounds {
                    loc: Loc {
                        at,
                        row: bi,
                        slice: 0,
                    },
                    col: bc,
                    ncols: nbs,
                });
            }
            if j > 0 && row[j - 1] >= bc {
                out.push(Violation::ColsNotSorted {
                    loc: Loc {
                        at,
                        row: bi,
                        slice: 0,
                    },
                    prev: row[j - 1],
                    next: bc,
                });
            }
            if upper_triangular && (bc as usize) < bi {
                out.push(Violation::NotUpperTriangular {
                    brow: bi,
                    at,
                    bcol: bc,
                });
            }
        }
    }
    // Pattern entries may be explicit zeros, so nonzero stored values only
    // bound nnz from below; block fill bounds it from above.  For SBAIJ the
    // claimed count is for the full symmetric matrix: stored off-diagonal
    // blocks count twice.
    let (lo, hi) = if upper_triangular {
        let mut diag_elems = 0usize;
        let mut diag_nonzero = 0usize;
        let mut off_nonzero = 0usize;
        for bi in 0..mbs {
            for k in browptr[bi]..browptr[bi + 1] {
                let blk = &val[k * bs * bs..(k + 1) * bs * bs];
                let nz = blk.iter().filter(|&&v| v != 0.0).count();
                if bcolidx[k] as usize == bi {
                    diag_elems += bs * bs;
                    diag_nonzero += nz;
                } else {
                    off_nonzero += nz;
                }
            }
        }
        (
            diag_nonzero + 2 * off_nonzero,
            diag_elems + 2 * (val.len() - diag_elems),
        )
    } else {
        (val.iter().filter(|&&v| v != 0.0).count(), val.len())
    };
    if nnz < lo || nnz > hi {
        out.push(Violation::NnzMismatch {
            claimed: nnz,
            found: lo,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Validate impls for the seven formats (and the COO builder).
// ---------------------------------------------------------------------------

impl Validate for CooBuilder {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        let (rows, cols, vals) = (self.rows(), self.cols(), self.vals());
        let mut out = Vec::from_iter(arr_len("rows", vals.len(), rows.len()));
        out.extend(arr_len("cols", vals.len(), cols.len()));
        if !out.is_empty() {
            return finish(out);
        }
        for at in 0..vals.len() {
            if rows[at] as usize >= self.nrows() {
                out.push(Violation::ColOutOfBounds {
                    loc: Loc {
                        at,
                        row: rows[at] as usize,
                        slice: 0,
                    },
                    col: rows[at],
                    ncols: self.nrows(),
                });
            }
            if cols[at] as usize >= self.ncols() {
                out.push(Violation::ColOutOfBounds {
                    loc: Loc {
                        at,
                        row: rows[at] as usize,
                        slice: 0,
                    },
                    col: cols[at],
                    ncols: self.ncols(),
                });
            }
        }
        finish(out)
    }
}

impl Validate for Csr {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        finish(check_csr_parts(
            self.nrows(),
            self.ncols(),
            self.rowptr(),
            self.colidx(),
            self.values(),
        ))
    }
}

/// Alignment of every stream a SELL kernel loads from (§3.1).
pub fn check_sell_alignment(m: &SellStreams<'_>) -> Vec<Violation> {
    let mut out = check_alignment("val", m.val);
    out.extend(check_alignment("pval", m.pval));
    out.extend(check_alignment("cidx16", m.cidx16));
    out.extend(check_alignment("colidx", m.colidx));
    out
}

impl<const C: usize> Validate for Sell<C> {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        let m = SellStreams::of(self);
        let mut out = check_sell_parts(C, &m, None);
        out.extend(check_sell_alignment(&m));
        finish(out)
    }
}

impl Validate for SellEsb {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        let sell = self.sell();
        let mut out = sell.validate().err().unwrap_or_default();
        // The kernel's own streams: one mask byte per slice column and the
        // paper's one `u32` per entry.
        let (bits, colidx) = (self.bits(), self.colidx());
        out.extend(arr_len("bits", sell.stored_elems() / 8, bits.len()));
        out.extend(arr_len("colidx", sell.stored_elems(), colidx.len()));
        if !out.is_empty() {
            return finish(out); // slice geometry unreliable; skip mask check
        }
        let sliceptr = sell.sliceptr();
        let (nrows, ncols) = (sell.nrows(), sell.ncols());
        let mut col_at = 0usize;
        for s in 0..sell.nslices() {
            let w = (sliceptr[s + 1] - sliceptr[s]) / 8;
            for j in 0..w {
                let mut expected = 0u8;
                for r in 0..8 {
                    let row = s * 8 + r;
                    let live = row < nrows && (j as u32) < sell.rlen()[row];
                    expected |= (live as u8) << r;
                    let at = sliceptr[s] + j * 8 + r;
                    let (loc, col) = (Loc { at, row, slice: s }, colidx[at]);
                    if live && col as usize >= ncols {
                        out.push(Violation::ColOutOfBounds { loc, col, ncols });
                    } else if !live && col as usize != ncols {
                        out.push(Violation::PaddingAliasesLiveColumn { loc, col });
                    }
                }
                let found = bits[col_at + j];
                if found != expected {
                    out.push(Violation::BitMaskMismatch {
                        slice: s,
                        j,
                        expected,
                        found,
                    });
                }
            }
            col_at += w;
        }
        out.extend(check_alignment("bits", bits));
        out.extend(check_alignment("colidx", colidx));
        finish(out)
    }
}

impl<const C: usize> Validate for SellSigma<C> {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        let m = SellStreams::of(self.sell());
        let mut out = check_sell_sigma_parts(C, self.sigma(), &m, self.perm().as_slice());
        out.extend(check_sell_alignment(&m));
        finish(out)
    }
}

impl Validate for Baij {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        finish(check_block_parts(
            self.brows(),
            self.bcols(),
            self.block_size(),
            self.nnz(),
            self.browptr(),
            self.bcolidx(),
            self.values(),
            false,
        ))
    }
}

impl Validate for Sbaij {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        finish(check_block_parts(
            self.brows(),
            self.brows(),
            self.block_size(),
            self.nnz(),
            self.browptr(),
            self.bcolidx(),
            self.values(),
            true,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn irregular(n: usize) -> Csr {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            let len = i % 5 + 1;
            for j in 0..len {
                b.push(i, (i + j * 3) % n, (i * 7 + j) as f64 * 0.1 - 1.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn all_formats_validate_clean() {
        let a = irregular(37);
        assert_eq!(a.validate(), Ok(()));
        assert_eq!(sellkit_core::Sell4::from_csr(&a).validate(), Ok(()));
        assert_eq!(sellkit_core::Sell8::from_csr(&a).validate(), Ok(()));
        assert_eq!(sellkit_core::Sell16::from_csr(&a).validate(), Ok(()));
        assert_eq!(SellEsb::from_csr(&a).validate(), Ok(()));
        let mut b = CooBuilder::new(37, 37);
        b.push(0, 0, 1.0);
        assert_eq!(b.validate(), Ok(()));
    }

    #[test]
    fn packed_sell_validates_clean() {
        let a = irregular(41);
        for codec in [Codec::F32, Codec::Bf16] {
            assert_eq!(
                sellkit_core::Sell8::from_csr_codec(&a, codec).validate(),
                Ok(()),
                "{codec:?}"
            );
            assert_eq!(
                SellSigma::<4>::from_csr_sigma_codec(&a, 8, codec).validate(),
                Ok(()),
                "{codec:?} SellSigma C=4"
            );
            assert_eq!(
                SellSigma::<8>::from_csr_sigma_codec(&a, 16, codec).validate(),
                Ok(()),
                "{codec:?} SellSigma"
            );
        }
    }

    /// A packed matrix holds its values once, as bytes: the checks run on
    /// that stream — its length against the entry count, nothing in the
    /// other one, and a padding value decoded before it is compared.
    #[test]
    fn packed_value_stream_is_checked_in_place() {
        let a = irregular(19);
        for codec in [Codec::F32, Codec::Bf16] {
            let s = sellkit_core::Sell8::from_csr_codec(&a, codec);
            let m = SellStreams::of(&s);
            let stride = codec.bytes_per_value();
            assert_eq!((m.val.len(), m.pval.len()), (0, s.stored_elems() * stride));

            let short = SellStreams {
                pval: &m.pval[..m.pval.len() - stride],
                ..m
            };
            assert_eq!(
                check_sell_parts(8, &short, None),
                vec![Violation::ArrLen {
                    array: "pval",
                    expected: m.pval.len(),
                    found: m.pval.len() - stride
                }],
                "{codec:?}"
            );
            let both = SellStreams { val: &[0.0], ..m };
            assert_eq!(
                check_sell_parts(8, &both, None),
                vec![Violation::ArrLen {
                    array: "val",
                    expected: 0,
                    found: 1
                }],
                "{codec:?}: a second value stream"
            );

            // Row 8 holds 4 entries in a slice 5 wide: entry (j = 4, r = 0)
            // of slice 1 is padding.  Its bytes become 1.0 in the codec.
            let at = s.sliceptr()[1] + 4 * 8;
            let mut pval = m.pval.to_vec();
            let one = 1.0f32.to_le_bytes();
            pval[at * stride..(at + 1) * stride].copy_from_slice(&one[4 - stride..]);
            let dirty = SellStreams { pval: &pval, ..m };
            assert_eq!(
                check_sell_parts(8, &dirty, None),
                vec![Violation::PaddingValueNonzero {
                    loc: Loc {
                        at,
                        row: 8,
                        slice: 1
                    },
                    value: 1.0
                }],
                "{codec:?}"
            );
        }
    }

    #[test]
    fn sell_sigma_format_validates_across_sigmas() {
        let a = irregular(53);
        for sigma in [1usize, 8, 32, 53, 500] {
            let s = sellkit_core::SellSigma8::from_csr_sigma(&a, sigma);
            assert_eq!(s.validate(), Ok(()), "sigma={sigma}");
        }
        assert_eq!(
            sellkit_core::SellSigma4::from_csr_sigma(&a, 16).validate(),
            Ok(())
        );
        assert_eq!(
            sellkit_core::SellSigma16::from_csr_sigma(&a, 16).validate(),
            Ok(())
        );
    }

    #[test]
    fn unsorted_sigma_window_is_reported() {
        let a = irregular(24);
        let s = sellkit_core::SellSigma8::from_csr_sigma(&a, 8);
        // Swap two unequal lengths inside window 0 to break the sort.
        let mut rlen = s.rlen().to_vec();
        let (lo, hi) = (0, 7);
        assert_ne!(rlen[lo], rlen[hi], "fixture needs unequal lengths");
        rlen.swap(lo, hi);
        let m = SellStreams {
            rlen: &rlen,
            ..SellStreams::of(s.sell())
        };
        let v = check_sell_sigma_parts(8, 8, &m, s.perm().as_slice());
        assert!(
            v.iter()
                .any(|x| x.kind() == ViolationKind::SigmaWindowNotSorted),
            "{v:?}"
        );
    }

    #[test]
    fn corrupt_sigma_permutation_is_reported() {
        let a = irregular(24);
        let s = sellkit_core::SellSigma8::from_csr_sigma(&a, 8);
        let mut perm = s.perm().as_slice().to_vec();
        perm[1] = perm[0]; // duplicate → no longer a bijection
        let v = check_sell_sigma_parts(8, 8, &SellStreams::of(s.sell()), &perm);
        assert!(
            v.iter().any(|x| x.kind() == ViolationKind::PermDuplicate),
            "{v:?}"
        );
    }

    #[test]
    fn sigma_padding_accounting_is_enforced() {
        let a = irregular(24);
        let s = sellkit_core::SellSigma8::from_csr_sigma(&a, 8);
        // Claim one fewer nonzero than the rlen array accounts for.
        let m = SellStreams {
            nnz: a.nnz() - 1,
            ..SellStreams::of(s.sell())
        };
        let v = check_sell_sigma_parts(8, 8, &m, s.perm().as_slice());
        assert!(
            v.iter().any(|x| x.kind() == ViolationKind::NnzMismatch),
            "{v:?}"
        );
    }

    #[test]
    fn block_formats_validate_clean() {
        let a = Csr::from_dense(
            4,
            4,
            &[
                2.0, 1.0, 0.0, 0.0, 1.0, 3.0, 0.5, 0.0, 0.0, 0.5, 4.0, 0.0, 0.0, 0.0, 0.0, 5.0,
            ],
        );
        assert_eq!(Baij::from_csr(&a, 2).validate(), Ok(()));
        assert_eq!(Sbaij::from_csr(&a, 2).validate(), Ok(()));
    }

    #[test]
    fn empty_matrix_validates() {
        let a = CooBuilder::new(0, 0).to_csr();
        assert_eq!(a.validate(), Ok(()));
        assert_eq!(sellkit_core::Sell8::from_csr(&a).validate(), Ok(()));
    }

    #[test]
    fn bad_rowptr_is_reported_with_coordinates() {
        let v = check_csr_parts(2, 3, &[0, 4, 2], &[0, 1], &[1.0, 2.0]);
        assert!(v.iter().any(|x| matches!(
            x,
            Violation::PtrNonMonotone {
                array: "rowptr",
                at: 1,
                prev: 4,
                next: 2
            }
        )));
        let v = check_csr_parts(2, 3, &[0, 1, 3], &[0, 1], &[1.0, 2.0]);
        assert!(v.iter().any(|x| matches!(
            x,
            Violation::PtrEnd {
                array: "rowptr",
                expected: 2,
                found: 3
            }
        )));
    }

    /// Sweeps every format over the seed matrix generators — the audit
    /// that surfaces latent conversion bugs (each such bug then gets a
    /// dedicated regression test).
    #[test]
    fn seed_generators_validate_across_all_formats() {
        use sellkit_workloads::generators;
        let mats = [
            ("stencil5", generators::stencil5(9)),
            ("stencil9", generators::stencil9(7)),
            ("stencil7_3d", generators::stencil7_3d(4)),
            ("banded", generators::banded(40, 3, 7)),
            ("random_uniform", generators::random_uniform(48, 5, 11)),
            ("power_law", generators::power_law(64, 1, 24, 2.2, 3)),
            ("diagonal", generators::diagonal(33, 5)),
        ];
        for (name, a) in &mats {
            assert_eq!(a.validate(), Ok(()), "{name}: csr");
            assert_eq!(
                sellkit_core::Sell4::from_csr(a).validate(),
                Ok(()),
                "{name}: sell4"
            );
            assert_eq!(
                sellkit_core::Sell8::from_csr(a).validate(),
                Ok(()),
                "{name}: sell8"
            );
            assert_eq!(
                sellkit_core::Sell16::from_csr(a).validate(),
                Ok(()),
                "{name}: sell16"
            );
            assert_eq!(SellEsb::from_csr(a).validate(), Ok(()), "{name}: sell-esb");
            if a.nrows().is_multiple_of(2) {
                assert_eq!(Baij::from_csr(a, 2).validate(), Ok(()), "{name}: baij");
            }
        }
    }

    #[test]
    fn display_is_human_readable() {
        let v = Violation::ColOutOfBounds {
            loc: Loc {
                at: 7,
                row: 2,
                slice: 1,
            },
            col: 99,
            ncols: 10,
        };
        let s = v.to_string();
        assert!(
            s.contains("99") && s.contains("row 2") && s.contains("slice 1"),
            "{s}"
        );
    }
}
