//! Matrix-level operations on CSR (PETSc `MatAXPY`, `MatShift`,
//! `MatScale`, `MatDiagonalScale`, `MatNorm`, …).
//!
//! §7.3 of the paper: "the changes in the matrix representation result in
//! implementation differences for certain matrix operations such as
//! setting the nonzero entries and assembling the matrix", and §8 claims
//! "no noticeable performance penalty in other core operations".  These
//! are those operations; they run on CSR (the assembly format) and feed
//! SELL through `set_values_from_csr`/`from_csr`.

use crate::assemble::RowAssembler;
use crate::csr::Csr;
use crate::traits::MatShape;

/// `B = alpha·A` (returns a scaled copy; use `scale_in_place` to avoid
/// the copy).
pub fn scale(a: &Csr, alpha: f64) -> Csr {
    let mut out = a.clone();
    scale_in_place(&mut out, alpha);
    out
}

/// `A *= alpha` without touching the pattern.
pub(crate) fn scale_in_place(a: &mut Csr, alpha: f64) {
    for v in a.values_mut() {
        *v *= alpha;
    }
}

/// `C = alpha·A + B` with pattern union (PETSc `MatAXPY` with
/// `DIFFERENT_NONZERO_PATTERN`).  Each row of `alpha·A` is pushed before the
/// same row of `B`, so where both store a position the assembler sums
/// `alpha·a + b`, in that order.
pub fn axpy(alpha: f64, a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.nrows(), b.nrows(), "MatAXPY shape mismatch");
    assert_eq!(a.ncols(), b.ncols(), "MatAXPY shape mismatch");
    let mut out = RowAssembler::with_capacity(a.nrows(), a.ncols(), a.nnz() + b.nnz());
    for i in 0..a.nrows() {
        for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            out.push(c as usize, alpha * v);
        }
        for (&c, &v) in b.row_cols(i).iter().zip(b.row_vals(i)) {
            out.push(c as usize, v);
        }
        out.end_row();
    }
    out.finish()
}

/// `C = A + shift·I` with the diagonal added to the pattern if missing
/// (PETSc `MatShift`).  Square matrices only.
pub fn shift(a: &Csr, shift: f64) -> Csr {
    identity_plus_scaled(shift, 1.0, a)
}

/// `C = gamma·I + alpha·A` — the Newton-system matrix `I − Δt·θ·J` of the
/// θ-scheme (used by `sellkit_solvers::ts`): the values scaled and `gamma`
/// added at the diagonal (the bits of `gamma + alpha·v`), which is inserted
/// where `A` stores none.  A copy of `a` through
/// [`identity_plus_scaled_owned`].
pub fn identity_plus_scaled(gamma: f64, alpha: f64, a: &Csr) -> Csr {
    identity_plus_scaled_owned(gamma, alpha, a.clone())
}

/// [`identity_plus_scaled`] of a matrix the caller is done with: the square
/// form of [`identity_plus_scaled_rows`], at row 0.
pub fn identity_plus_scaled_owned(gamma: f64, alpha: f64, a: Csr) -> Csr {
    assert_eq!(a.nrows(), a.ncols(), "needs a square matrix");
    identity_plus_scaled_rows(gamma, alpha, a, 0)
}

/// The row block `a` (global columns, one rank's rows) of `gamma·I + alpha·A`:
/// row `i`'s diagonal is column `first_row + i`.  If every row stores its
/// diagonal, as a Jacobian's does, the values are rewritten in place;
/// otherwise the pattern grows through a [`RowAssembler`].
pub fn identity_plus_scaled_rows(gamma: f64, alpha: f64, mut a: Csr, first_row: usize) -> Csr {
    assert!(first_row + a.nrows() <= a.ncols(), "diagonal out of bounds");
    let (rowptr, colidx, vals) = a.pattern_and_values_mut();
    let diagonal_of = |i: usize| {
        let row = &colidx[rowptr[i]..rowptr[i + 1]];
        // Lossless: `Csr` dimensions fit 32 bits.
        Some(rowptr[i] + row.binary_search(&((first_row + i) as u32)).ok()?)
    };
    // Nothing is written before every row is known to have its diagonal.
    if (0..rowptr.len() - 1).any(|i| diagonal_of(i).is_none()) {
        let mut out = RowAssembler::with_capacity(a.nrows(), a.ncols(), a.nnz() + a.nrows());
        for i in 0..a.nrows() {
            for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                out.push(c as usize, alpha * v);
            }
            // Summed after a stored `alpha·v`: IEEE addition commutes, so
            // these are the bits of `gamma + alpha·v`.
            out.push(first_row + i, gamma);
            out.end_row();
        }
        return out.finish();
    }
    for v in vals.iter_mut() {
        *v *= alpha;
    }
    for i in 0..rowptr.len() - 1 {
        // IEEE addition commutes: the bits of `gamma + alpha·v`.
        vals[diagonal_of(i).expect("checked above")] += gamma;
    }
    a
}

/// `A = diag(l) · A · diag(r)` in place (PETSc `MatDiagonalScale`).
pub fn diagonal_scale(a: &mut Csr, left: Option<&[f64]>, right: Option<&[f64]>) {
    if let Some(l) = left {
        assert_eq!(l.len(), a.nrows());
    }
    if let Some(r) = right {
        assert_eq!(r.len(), a.ncols());
    }
    let (rowptr, colidx, vals) = a.pattern_and_values_mut();
    for i in 0..rowptr.len() - 1 {
        for k in rowptr[i]..rowptr[i + 1] {
            let mut v = vals[k];
            if let Some(l) = left {
                v *= l[i];
            }
            if let Some(r) = right {
                v *= r[colidx[k] as usize];
            }
            vals[k] = v;
        }
    }
}

/// Matrix norms (PETSc `MatNorm`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatNorm {
    /// Maximum absolute column sum.
    One,
    /// Maximum absolute row sum.
    Infinity,
    /// Frobenius norm.
    Frobenius,
}

/// Computes the requested norm of `a`.
pub fn norm(a: &Csr, which: MatNorm) -> f64 {
    match which {
        MatNorm::Infinity => (0..a.nrows())
            .map(|i| a.row_vals(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max),
        MatNorm::One => {
            let mut col = vec![0.0f64; a.ncols()];
            for i in 0..a.nrows() {
                for (k, &c) in a.row_cols(i).iter().enumerate() {
                    col[c as usize] += a.row_vals(i)[k].abs();
                }
            }
            col.into_iter().fold(0.0, f64::max)
        }
        MatNorm::Frobenius => a.values().iter().map(|v| v * v).sum::<f64>().sqrt(),
    }
}

/// Extracts the main diagonal (missing entries are 0) — `MatGetDiagonal`.
pub fn diagonal(a: &Csr) -> Vec<f64> {
    let (rowptr, colidx, vals) = (a.rowptr(), a.colidx(), a.values());
    (0..a.nrows().min(a.ncols()))
        .map(|i| {
            (rowptr[i]..rowptr[i + 1])
                .find(|&k| colidx[k] as usize == i)
                .map_or(0.0, |k| vals[k])
        })
        .collect()
}

/// Extracts the contiguous submatrix `rows × cols` (global indices kept
/// dense: the result is `rows.len() × cols.len()`).
pub fn submatrix(a: &Csr, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> Csr {
    assert!(rows.end <= a.nrows() && cols.end <= a.ncols());
    let mut out = RowAssembler::new(rows.len(), cols.len());
    for i in rows {
        for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let c = c as usize;
            if cols.contains(&c) {
                out.push(c - cols.start, v);
            }
        }
        out.end_row();
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecCtx;
    use crate::traits::{Apply, Operator};

    fn sample() -> Csr {
        Csr::from_dense(3, 3, &[2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0])
    }

    #[test]
    fn scale_and_in_place() {
        let a = sample();
        let b = scale(&a, -2.0);
        assert_eq!(b.get(0, 0), Some(-4.0));
        assert_eq!(b.get(0, 1), Some(2.0));
        let mut c = a.clone();
        scale_in_place(&mut c, -2.0);
        assert_eq!(c.to_dense(), b.to_dense());
    }

    #[test]
    fn axpy_pattern_union() {
        let a = Csr::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let b = Csr::from_dense(2, 2, &[0.0, 2.0, 0.0, 3.0]);
        let c = axpy(10.0, &a, &b);
        assert_eq!(c.to_dense(), vec![10.0, 2.0, 0.0, 13.0]);
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn shift_adds_missing_diagonal() {
        let a = Csr::from_dense(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let s = shift(&a, 5.0);
        assert_eq!(s.to_dense(), vec![5.0, 1.0, 1.0, 5.0]);
        assert_eq!(s.nnz(), 4);
    }

    #[test]
    fn identity_plus_scaled_matches_manual() {
        let j = sample();
        let g = identity_plus_scaled(1.0, -0.5, &j);
        // G = I - 0.5 J
        let x = vec![1.0, 2.0, 3.0];
        let mut gx = vec![0.0; 3];
        g.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut gx).into(),
            Apply::Set,
        );
        let mut jx = vec![0.0; 3];
        j.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut jx).into(),
            Apply::Set,
        );
        for i in 0..3 {
            assert!((gx[i] - (x[i] - 0.5 * jx[i])).abs() < 1e-14);
        }
    }

    #[test]
    fn owned_shift_is_the_copying_one_bit_for_bit() {
        // Every diagonal stored: rewritten in place.  A stored -0.0 and a
        // stored 0.0 on the diagonal tell `gamma + alpha·v` from anything
        // that drops the sum.
        let full = Csr::from_parts(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 2, 0, 1, 2, 1, 2],
            vec![-0.0, 0.1, 3.0, 0.0, -1.0, 0.7, 1e-300],
        );
        // Row 1 stores no diagonal: the pattern grows, through the copy.
        let missing = Csr::from_dense(3, 3, &[2.0, -1.0, 0.0, -1.0, 0.0, -1.0, 0.0, -1.0, 2.0]);
        for a in [&full, &missing, &sample()] {
            for (gamma, alpha) in [(1.0, -0.5), (0.0, 1.0), (-2.5, 0.0)] {
                let want = identity_plus_scaled(gamma, alpha, a);
                let got = identity_plus_scaled_owned(gamma, alpha, a.clone());
                assert_eq!(got.rowptr(), want.rowptr());
                assert_eq!(got.colidx(), want.colidx());
                let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "gamma {gamma}, alpha {alpha}");
            }
        }
    }

    #[test]
    fn a_grown_pattern_holds_gamma_plus_alpha_v() {
        // Row 0 stores -0.0 on its diagonal, row 1 no diagonal, row 2 a
        // tiny one.
        let a = Csr::from_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 0, 1, 2],
            vec![-0.0, 0.1, 3.0, 0.7, 1e-300],
        );
        for (gamma, alpha) in [(1.0, -0.5), (0.0, 1.0), (-2.5, 0.0), (-0.0, 1.0)] {
            let g = identity_plus_scaled_owned(gamma, alpha, a.clone());
            assert_eq!(g.rowptr(), &[0, 2, 4, 6]);
            assert_eq!(g.colidx(), &[0, 2, 0, 1, 1, 2]);
            let want = [
                gamma + alpha * -0.0,
                alpha * 0.1,
                alpha * 3.0,
                gamma,
                alpha * 0.7,
                gamma + alpha * 1e-300,
            ];
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(g.values()),
                bits(&want),
                "gamma {gamma}, alpha {alpha}"
            );
        }
    }

    #[test]
    fn a_row_block_shifts_as_its_rows_of_the_square_matrix() {
        // Row 1 stores no diagonal: a block holding it grows its pattern.
        let missing = Csr::from_dense(3, 3, &[2.0, -1.0, 0.0, -1.0, 0.0, -1.0, 0.0, -1.0, 2.0]);
        for a in [&missing, &sample()] {
            let whole = identity_plus_scaled(1.0, -0.5, a);
            for (start, end) in [(0, 3), (0, 1), (1, 3), (2, 3)] {
                let block = submatrix(a, start..end, 0..3);
                let got = identity_plus_scaled_rows(1.0, -0.5, block, start);
                let want = submatrix(&whole, start..end, 0..3);
                assert_eq!(got.rowptr(), want.rowptr(), "rows {start}..{end}");
                assert_eq!(got.colidx(), want.colidx(), "rows {start}..{end}");
                let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "rows {start}..{end}");
            }
        }
    }

    #[test]
    fn axpy_merges_rows_in_column_order() {
        let a = Csr::from_dense(2, 4, &[1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 3.0]);
        let b = Csr::from_dense(2, 4, &[0.0, 4.0, 5.0, 6.0, 7.0, 0.0, 0.0, 0.0]);
        let c = axpy(-2.0, &a, &b);
        assert_eq!(c.row_cols(0), &[0, 1, 2, 3]);
        assert_eq!(c.row_vals(0), &[-2.0, 4.0, 1.0, 6.0]);
        assert_eq!(c.row_cols(1), &[0, 3]);
        assert_eq!(c.row_vals(1), &[7.0, -6.0]);
    }

    #[test]
    fn diagonal_scale_both_sides() {
        let mut a = sample();
        diagonal_scale(&mut a, Some(&[1.0, 2.0, 3.0]), Some(&[1.0, 1.0, 0.5]));
        assert_eq!(a.get(1, 0), Some(-2.0)); // 2 * -1 * 1
        assert_eq!(a.get(1, 2), Some(-1.0)); // 2 * -1 * 0.5
        assert_eq!(a.get(2, 2), Some(3.0)); // 3 * 2 * 0.5
    }

    #[test]
    fn norms() {
        let a = sample();
        assert_eq!(norm(&a, MatNorm::Infinity), 4.0);
        assert_eq!(norm(&a, MatNorm::One), 4.0);
        let fro = (4.0f64 + 1.0 + 1.0 + 4.0 + 1.0 + 1.0 + 4.0).sqrt();
        assert!((norm(&a, MatNorm::Frobenius) - fro).abs() < 1e-14);
    }

    #[test]
    fn diagonal_and_row_sums() {
        let a = sample();
        assert_eq!(diagonal(&a), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn submatrix_extraction() {
        let a = sample();
        let s = submatrix(&a, 0..2, 1..3);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.to_dense(), vec![-1.0, 0.0, 2.0, -1.0]);
    }
}
