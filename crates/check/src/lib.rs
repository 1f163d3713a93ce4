//! `sellkit-check` — structural-invariant verification for every matrix
//! format in `sellkit-core`.
//!
//! The SIMD kernels (§5 of the paper) are only sound under unwritten
//! structural invariants: monotone row/slice pointers, in-bounds column
//! indices, padding indices holding the masked *sentinel* `ncols` so
//! padded lanes never read `x` (stricter than the paper's §5.5 local-copy
//! scheme, which NaN-contaminates lanes when `x` holds Inf/NaN at the
//! aliased column), `rlen` consistent with the slice width,
//! and 64-byte-aligned value/index arrays (§3.1).  A conversion bug that
//! breaks one of these produces silently wrong numerics — or, with aligned
//! loads, a crash.  This crate makes the invariants explicit and checkable:
//!
//! * [`Validate`] is implemented by every format (`COO`, `CSR`,
//!   `SELL<4/8/16>`, `SELL-ESB`, `SELL-C-σ`, `BAIJ`, `SBAIJ`);
//! * violations come back as structured [`Violation`] values carrying
//!   row/slice coordinates, so tests can assert the exact defect and
//!   diagnostics can point at the offending entry;
//! * the `check_*_parts` functions operate on raw slices, so tests can
//!   corrupt individual arrays and verify each invariant is actually
//!   enforced (see `tests/mutations.rs`).
//!
//! Validation is `O(stored elements)` and allocates only small per-row
//! scratch; it is meant for debug builds, tests, and post-assembly audits,
//! not the SpMV hot path (the `debug_assert!` preconditions of
//! `sellkit_core`'s checked kernel entry points cover that).

#![forbid(unsafe_code)]

use sellkit_core::aligned::ALIGN;
use sellkit_core::{Baij, Codec, CooBuilder, Csr, MatShape, Sbaij, Sell, SellEsb, SellSigma};
use std::fmt;

/// Location of an offending entry inside a format's flat storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Loc {
    /// Index into the flat `colidx`/`val` array.
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
    /// An array the kernels load with aligned SIMD instructions is not
    /// 64-byte aligned (§3.1).
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
    /// A SELL sidecar disagrees with the master arrays: the packed bytes
    /// at `at` don't decode to `val[at]` (`array = "pval"`), or a
    /// narrow-form offset doesn't resolve to `colidx[at]`
    /// (`array = "cidx16"`, at every codec).  The kernels read only the
    /// sidecars, so any such divergence silently computes with a different
    /// matrix than `values()` / `colidx()` report.
    PackedSidecarMismatch { array: &'static str, at: usize },
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
    PackedSidecarMismatch,
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
            Violation::PackedSidecarMismatch { .. } => ViolationKind::PackedSidecarMismatch,
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
            Violation::PackedSidecarMismatch { array, at } => {
                write!(
                    f,
                    "packed sidecar {array} disagrees with the master array at index {at}"
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

// ---------------------------------------------------------------------------
// Parts-level checkers (public so mutation tests can corrupt raw arrays).
// ---------------------------------------------------------------------------

/// Checks a pointer array: length `n + 1`, starts at 0, monotone, ends at
/// `data_len`.  Index-dependent checks are skipped once the length is wrong.
pub fn check_ptr_array(
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

/// Checks that a kernel-visible array starts on a 64-byte boundary
/// (§3.1; empty arrays are exempt — the kernels never load from them).
pub fn check_alignment<T>(array: &'static str, data: &[T]) -> Vec<Violation> {
    let rem = data.as_ptr() as usize % ALIGN;
    if data.is_empty() || rem == 0 {
        Vec::new()
    } else {
        vec![Violation::Misaligned { array, rem }]
    }
}

/// Checks that `perm` is a permutation of `0..n`.
pub fn check_permutation(perm: &[u32], n: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    if perm.len() != n {
        out.push(Violation::ArrLen {
            array: "perm",
            expected: n,
            found: perm.len(),
        });
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
    if colidx.len() != val.len() {
        out.push(Violation::ArrLen {
            array: "colidx",
            expected: val.len(),
            found: colidx.len(),
        });
    }
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

/// Checks SELL invariants over raw parts: slice-pointer shape, lane
/// alignment, in-bounds columns, sentinel padding indices (`== ncols`,
/// masked by the kernels), zero padding values, `rlen` vs. slice width,
/// and `sum(rlen) == nnz`.
///
/// `lanes` is the slice height `C`; `perm`, if present, maps storage lane
/// `k` to logical row `perm[k]` — [`check_sell_sigma_parts`] passes the
/// σ-sort permutation, a plain [`Sell`] has none.
#[allow(clippy::too_many_arguments)]
pub fn check_sell_parts(
    lanes: usize,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    sliceptr: &[usize],
    colidx: &[u32],
    val: &[f64],
    rlen: &[u32],
    perm: Option<&[u32]>,
) -> Vec<Violation> {
    let nslices = nrows.div_ceil(lanes);
    let mut out = check_ptr_array("sliceptr", sliceptr, nslices, val.len());
    if colidx.len() != val.len() {
        out.push(Violation::ArrLen {
            array: "colidx",
            expected: val.len(),
            found: colidx.len(),
        });
    }
    if rlen.len() != nrows {
        out.push(Violation::ArrLen {
            array: "rlen",
            expected: nrows,
            found: rlen.len(),
        });
    }
    if let Some(p) = perm {
        out.extend(check_permutation(p, nrows));
    }
    if !out.is_empty() {
        return out; // slice extents / lane-to-row mapping are unreliable
    }

    let total: usize = rlen.iter().map(|&l| l as usize).sum();
    if total != nnz {
        out.push(Violation::NnzMismatch {
            claimed: nnz,
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
            // Real entries: in-bounds columns.
            for j in 0..len {
                let at = base + j * lanes + r;
                let c = colidx[at];
                if c as usize >= ncols {
                    out.push(Violation::ColOutOfBounds {
                        loc: Loc { at, row, slice: s },
                        col: c,
                        ncols,
                    });
                }
            }
            // Padding entries: zero value and the sentinel column `ncols`,
            // which the kernels mask — any other index aliases a live
            // column of x and can pick up NaN from 0.0 × Inf.
            for j in len..w {
                let at = base + j * lanes + r;
                let c = colidx[at];
                if c as usize != ncols {
                    out.push(Violation::PaddingAliasesLiveColumn {
                        loc: Loc { at, row, slice: s },
                        col: c,
                    });
                }
                if val[at] != 0.0 {
                    out.push(Violation::PaddingValueNonzero {
                        loc: Loc { at, row, slice: s },
                        value: val[at],
                    });
                }
            }
        }
    }
    out
}

/// Checks SELL-C-σ invariants over raw parts: everything
/// [`check_sell_parts`] enforces (slice geometry, in-bounds columns,
/// sentinel padding indices, zero padding values, padding accounting via
/// `sum(rlen) == nnz`), plus the σ-specific invariants — `perm` is a
/// bijection of `0..nrows` and row lengths are non-increasing within
/// every σ-row sorting window.
///
/// `rlen` is indexed by **storage position** `k` (the length of logical
/// row `perm[k]`), matching [`sellkit_core::SellSigma::rlen`].
#[allow(clippy::too_many_arguments)]
pub fn check_sell_sigma_parts(
    lanes: usize,
    sigma: usize,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    sliceptr: &[usize],
    colidx: &[u32],
    val: &[f64],
    rlen: &[u32],
    perm: &[u32],
) -> Vec<Violation> {
    assert!(sigma >= 1, "sigma must be at least 1");
    let mut out = check_permutation(perm, nrows);
    if rlen.len() != nrows {
        out.push(Violation::ArrLen {
            array: "rlen",
            expected: nrows,
            found: rlen.len(),
        });
    }
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
    out.extend(check_sell_parts(
        lanes,
        nrows,
        ncols,
        nnz,
        sliceptr,
        colidx,
        val,
        &rlen_logical,
        Some(perm),
    ));
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
    let expected = bcolidx.len() * bs * bs;
    if val.len() != expected {
        out.push(Violation::ArrLen {
            array: "val",
            expected,
            found: val.len(),
        });
    }
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
// Validate impls for the ten formats.
// ---------------------------------------------------------------------------

impl Validate for CooBuilder {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        let (rows, cols, vals) = (self.rows(), self.cols(), self.vals());
        let mut out = Vec::new();
        if rows.len() != vals.len() {
            out.push(Violation::ArrLen {
                array: "rows",
                expected: vals.len(),
                found: rows.len(),
            });
        }
        if cols.len() != vals.len() {
            out.push(Violation::ArrLen {
                array: "cols",
                expected: vals.len(),
                found: cols.len(),
            });
        }
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
        let mut out = check_csr_parts(
            self.nrows(),
            self.ncols(),
            self.rowptr(),
            self.colidx(),
            self.values(),
        );
        out.extend(check_alignment("colidx", self.colidx()));
        out.extend(check_alignment("val", self.values()));
        finish(out)
    }
}

/// Independent decode of one packed value — deliberately *not* shared
/// with the core kernels' decode path, so a bug there cannot hide from
/// the verifier.
fn decode_packed(codec: Codec, pval: &[u8], at: usize) -> f64 {
    match codec {
        Codec::F64 => unreachable!("F64 has no packed sidecar"),
        Codec::F32 => f32::from_le_bytes([
            pval[4 * at],
            pval[4 * at + 1],
            pval[4 * at + 2],
            pval[4 * at + 3],
        ]) as f64,
        Codec::Bf16 => {
            let hi = u16::from_le_bytes([pval[2 * at], pval[2 * at + 1]]);
            f32::from_bits((hi as u32) << 16) as f64
        }
    }
}

/// Verifies the sidecars of a [`Sell`] against its master arrays.  At
/// every codec: length accounting and narrow-form index resolution
/// (`colidx[at] == cbase[s] + cidx16[at]`, sentinel ↔ sentinel).  At a
/// reduced codec also the bit-exact value decode and the quantization
/// contract (`val` is a fixed point of `codec.quantize`, so kernels and
/// accessors agree on the matrix); `F64` has no packed values (`pval`
/// must be empty — its kernels read `val`).
#[allow(clippy::too_many_arguments)]
pub fn check_packed_sidecars(
    codec: Codec,
    ncols: usize,
    sliceptr: &[usize],
    colidx: &[u32],
    val: &[f64],
    pval: &[u8],
    cidx16: &[u16],
    cbase: &[u32],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let total = colidx.len();
    let stride = match codec {
        Codec::F64 => 0,
        _ => codec.bytes_per_value(),
    };
    if pval.len() != total * stride {
        out.push(Violation::ArrLen {
            array: "pval",
            expected: total * stride,
            found: pval.len(),
        });
    }
    if cidx16.len() != total {
        out.push(Violation::ArrLen {
            array: "cidx16",
            expected: total,
            found: cidx16.len(),
        });
    }
    let nslices = sliceptr.len().saturating_sub(1);
    if cbase.len() != nslices {
        out.push(Violation::ArrLen {
            array: "cbase",
            expected: nslices,
            found: cbase.len(),
        });
    }
    if !out.is_empty() {
        return out; // sidecar geometry unreliable; element checks would index OOB
    }
    if codec != Codec::F64 {
        for (at, &v) in val.iter().enumerate().take(total) {
            let q = codec.quantize(v);
            if decode_packed(codec, pval, at).to_bits() != v.to_bits() || q.to_bits() != v.to_bits()
            {
                out.push(Violation::PackedSidecarMismatch { array: "pval", at });
            }
        }
    }
    let sentinel = ncols as u32;
    for s in 0..nslices {
        let base = cbase[s];
        if base == u32::MAX {
            continue; // wide slice: kernels read colidx directly
        }
        for at in sliceptr[s]..sliceptr[s + 1].min(total) {
            let resolved_ok = if cidx16[at] == u16::MAX {
                colidx[at] == sentinel
            } else {
                colidx[at] != sentinel && base as u64 + cidx16[at] as u64 == colidx[at] as u64
            };
            if !resolved_ok {
                out.push(Violation::PackedSidecarMismatch {
                    array: "cidx16",
                    at,
                });
            }
        }
    }
    out
}

impl<const C: usize> Validate for Sell<C> {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        let mut out = check_sell_parts(
            C,
            self.nrows(),
            self.ncols(),
            self.nnz(),
            self.sliceptr(),
            self.colidx(),
            self.values(),
            self.rlen(),
            None,
        );
        out.extend(check_alignment("colidx", self.colidx()));
        out.extend(check_alignment("val", self.values()));
        out.extend(check_packed_sidecars(
            self.codec(),
            self.ncols(),
            self.sliceptr(),
            self.colidx(),
            self.values(),
            self.packed_values(),
            self.cidx16(),
            self.cbase(),
        ));
        out.extend(check_alignment("pval", self.packed_values()));
        out.extend(check_alignment("cidx16", self.cidx16()));
        finish(out)
    }
}

impl Validate for SellEsb {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        let sell = self.sell();
        let mut out = sell.validate().err().unwrap_or_default();
        let bits = self.bits();
        if bits.len() * 8 != sell.stored_elems() {
            out.push(Violation::ArrLen {
                array: "bits",
                expected: sell.stored_elems() / 8,
                found: bits.len(),
            });
            return finish(out);
        }
        if !out.is_empty() {
            return finish(out); // slice geometry unreliable; skip mask check
        }
        let sliceptr = sell.sliceptr();
        let nrows = sell.nrows();
        let mut col_at = 0usize;
        for s in 0..sell.nslices() {
            let w = (sliceptr[s + 1] - sliceptr[s]) / 8;
            for j in 0..w {
                let mut expected = 0u8;
                for r in 0..8 {
                    let row = s * 8 + r;
                    if row < nrows && (j as u32) < sell.rlen()[row] {
                        expected |= 1 << r;
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
        finish(out)
    }
}

impl<const C: usize> Validate for SellSigma<C> {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        let sell = self.sell();
        let mut out = check_sell_sigma_parts(
            C,
            self.sigma(),
            self.nrows(),
            self.ncols(),
            self.nnz(),
            self.sliceptr(),
            sell.colidx(),
            sell.values(),
            self.rlen(),
            self.perm().as_slice(),
        );
        out.extend(check_alignment("colidx", sell.colidx()));
        out.extend(check_alignment("val", sell.values()));
        out.extend(check_packed_sidecars(
            sell.codec(),
            sell.ncols(),
            sell.sliceptr(),
            sell.colidx(),
            sell.values(),
            sell.packed_values(),
            sell.cidx16(),
            sell.cbase(),
        ));
        finish(out)
    }
}

impl Validate for Baij {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        let mut out = check_block_parts(
            self.brows(),
            self.bcols(),
            self.block_size(),
            self.nnz(),
            self.browptr(),
            self.bcolidx(),
            self.values(),
            false,
        );
        out.extend(check_alignment("val", self.values()));
        finish(out)
    }
}

impl Validate for Sbaij {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        let mut out = check_block_parts(
            self.brows(),
            self.brows(),
            self.block_size(),
            self.nnz(),
            self.browptr(),
            self.bcolidx(),
            self.values(),
            true,
        );
        out.extend(check_alignment("val", self.values()));
        finish(out)
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

    #[test]
    fn packed_sidecar_value_corruption_detected() {
        let a = irregular(19);
        let s = sellkit_core::Sell8::from_csr_codec(&a, Codec::F32);
        // Flip one bit in one packed value byte.
        let mut pval = s.packed_values().to_vec();
        pval[5] ^= 0x01;
        let out = check_packed_sidecars(
            Codec::F32,
            s.ncols(),
            s.sliceptr(),
            s.colidx(),
            s.values(),
            &pval,
            s.cidx16(),
            s.cbase(),
        );
        assert!(
            out.iter()
                .any(|v| v.kind() == ViolationKind::PackedSidecarMismatch),
            "{out:?}"
        );
    }

    #[test]
    fn packed_sidecar_index_corruption_detected() {
        let a = irregular(19);
        let s = sellkit_core::Sell8::from_csr_codec(&a, Codec::Bf16);
        assert!(s.cbase().iter().any(|&b| b != u32::MAX));
        // Find a live narrow entry and nudge its offset.
        let mut cidx16 = s.cidx16().to_vec();
        let at = (0..cidx16.len())
            .find(|&i| cidx16[i] != u16::MAX && narrow_slice_of(s.sliceptr(), s.cbase(), i))
            .expect("a live narrow entry exists");
        cidx16[at] ^= 1;
        let out = check_packed_sidecars(
            Codec::Bf16,
            s.ncols(),
            s.sliceptr(),
            s.colidx(),
            s.values(),
            s.packed_values(),
            &cidx16,
            s.cbase(),
        );
        assert!(
            out.iter().any(|v| matches!(
                v,
                Violation::PackedSidecarMismatch {
                    array: "cidx16",
                    ..
                }
            )),
            "{out:?}"
        );
    }

    /// Whether flat index `i` falls in a narrow-form slice.
    fn narrow_slice_of(sliceptr: &[usize], cbase: &[u32], i: usize) -> bool {
        (0..cbase.len()).any(|s| cbase[s] != u32::MAX && sliceptr[s] <= i && i < sliceptr[s + 1])
    }

    #[test]
    fn packed_sidecar_length_mismatch_detected() {
        let a = irregular(19);
        let s = sellkit_core::Sell8::from_csr_codec(&a, Codec::F32);
        let out = check_packed_sidecars(
            Codec::F32,
            s.ncols(),
            s.sliceptr(),
            s.colidx(),
            s.values(),
            &s.packed_values()[..s.packed_values().len() - 4],
            s.cidx16(),
            s.cbase(),
        );
        assert!(
            out.iter()
                .any(|v| matches!(v, Violation::ArrLen { array: "pval", .. })),
            "{out:?}"
        );
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
        let v = check_sell_sigma_parts(
            8,
            8,
            24,
            24,
            a.nnz(),
            s.sliceptr(),
            s.sell().colidx(),
            s.sell().values(),
            &rlen,
            s.perm().as_slice(),
        );
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
        let v = check_sell_sigma_parts(
            8,
            8,
            24,
            24,
            a.nnz(),
            s.sliceptr(),
            s.sell().colidx(),
            s.sell().values(),
            s.rlen(),
            &perm,
        );
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
        let v = check_sell_sigma_parts(
            8,
            8,
            24,
            24,
            a.nnz() - 1,
            s.sliceptr(),
            s.sell().colidx(),
            s.sell().values(),
            s.rlen(),
            s.perm().as_slice(),
        );
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
