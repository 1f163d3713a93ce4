//! Sparse matrix-matrix multiplication (CSR SpGEMM) — the substrate for
//! Galerkin coarse operators `A_c = R·A·P` in geometric multigrid.
//!
//! Gustavson's row-merge algorithm in PETSc's `MatProduct` shape: a
//! [`Product`] is built once from the operand *patterns*
//! ([`Product::symbolic`]) and filled from their *values* as often as those
//! change ([`Product::numeric`]).  [`spgemm`] is one of each.

use sellkit_core::{Csr, MatShape};

/// A kept product `C = A · B`: `C`'s pattern, its values, and the workspace
/// that refills them without allocating.
///
/// The pattern is **structural**: position `(i, c)` is stored whenever some
/// `k` has `(i, k)` stored in `A` and `(k, c)` stored in `B`, whatever the
/// values — so it stays valid for as long as the operands keep their
/// patterns, and numerically cancelled entries stay in it (as in PETSc).
#[derive(Clone, Debug)]
pub struct Product {
    c: Csr,
    /// Column → position in `c`'s arrays, valid for the row being filled.
    slot: Vec<u32>,
    /// `(nnz(A), nnz(B))` at the symbolic phase: the cheap half of the
    /// "same patterns" precondition of [`Product::numeric`].
    operand_nnz: (usize, usize),
}

impl Product {
    /// The symbolic phase: `C`'s pattern from the patterns of `a` and `b`.
    /// Every value is `+0.0` until [`Product::numeric`] runs.
    pub fn symbolic(a: &Csr, b: &Csr) -> Self {
        assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
        let (m, n) = (a.nrows(), b.ncols());
        let mut rowptr = Vec::with_capacity(m + 1);
        rowptr.push(0);
        // A first guess the size of the inputs; the vector grows past it.
        let mut colidx: Vec<u32> = Vec::with_capacity(a.nnz() + b.nnz());
        // `seen[c]` holds the last row (plus one) that touched column `c`.
        let mut seen = vec![0usize; n];
        for i in 0..m {
            let start = colidx.len();
            for &j in a.row_cols(i) {
                for &c in b.row_cols(j as usize) {
                    if seen[c as usize] != i + 1 {
                        seen[c as usize] = i + 1;
                        colidx.push(c);
                    }
                }
            }
            colidx[start..].sort_unstable();
            rowptr.push(colidx.len());
        }
        assert!(
            colidx.len() <= u32::MAX as usize,
            "product pattern exceeds the 32-bit slot space"
        );
        Self {
            c: Csr::zeros_with_pattern(m, n, rowptr, colidx),
            slot: vec![0; n],
            operand_nnz: (a.nnz(), b.nnz()),
        }
    }

    /// The numeric phase: zeroes `C`'s values and refills them from `a` and
    /// `b`, which must have the patterns given to [`Product::symbolic`]
    /// (shapes and entry counts are checked, positions only in debug
    /// builds).  Allocates nothing.
    ///
    /// Entry `(i, c)` accumulates `aᵢₖ·bₖ꜀` from `+0.0` over row `i` of `a`
    /// left to right and row `k` of `b` left to right.  A stored
    /// `aᵢₖ == 0.0` contributes nothing (not even `0·∞`), so a position
    /// reached only through such entries holds exactly `+0.0`.
    pub fn numeric(&mut self, a: &Csr, b: &Csr) {
        assert_eq!(
            (a.nrows(), a.ncols(), b.ncols()),
            (self.c.nrows(), b.nrows(), self.c.ncols()),
            "operand shapes differ from the symbolic phase"
        );
        assert_eq!(
            (a.nnz(), b.nnz()),
            self.operand_nnz,
            "operand patterns differ from the symbolic phase"
        );
        let slot = &mut self.slot;
        let (rowptr, colidx, val) = self.c.pattern_and_values_mut();
        let (b_rowptr, b_colidx, b_val) = (b.rowptr(), b.colidx(), b.values());
        for i in 0..a.nrows() {
            let row = rowptr[i]..rowptr[i + 1];
            for k in row.clone() {
                // Lossless: `symbolic` bounds the entry count.
                slot[colidx[k] as usize] = k as u32;
                val[k] = 0.0;
            }
            for (&j, &aij) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                if aij == 0.0 {
                    continue;
                }
                let b_row = b_rowptr[j as usize]..b_rowptr[j as usize + 1];
                for (&c, &v) in b_colidx[b_row.clone()].iter().zip(&b_val[b_row]) {
                    let at = slot[c as usize] as usize;
                    debug_assert!(
                        row.contains(&at) && colidx[at] == c,
                        "({i}, {c}) is not in the symbolic pattern"
                    );
                    val[at] += aij * v;
                }
            }
        }
    }

    /// The product as of the last [`Product::numeric`].
    pub fn matrix(&self) -> &Csr {
        &self.c
    }

    /// Gives up the workspace and keeps the matrix.
    pub fn into_matrix(self) -> Csr {
        self.c
    }
}

/// Computes `C = A · B` in CSR: the symbolic phase, then the numeric one.
pub fn spgemm(a: &Csr, b: &Csr) -> Csr {
    let mut product = Product::symbolic(a, b);
    product.numeric(a, b);
    product.into_matrix()
}

/// Computes the Galerkin triple product `R · A · P`.
pub fn rap(r: &Csr, a: &Csr, p: &Csr) -> Csr {
    spgemm(&spgemm(r, a), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_mul(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for l in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matches_dense_multiply() {
        let ad = vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0];
        let bd = vec![0.0, 4.0, 5.0, 0.0, 0.0, 6.0];
        let a = Csr::from_dense(2, 3, &ad);
        let b = Csr::from_dense(3, 2, &bd);
        let c = spgemm(&a, &b);
        assert_eq!(c.to_dense(), dense_mul(&ad, &bd, 2, 3, 2));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Csr::from_dense(3, 3, &[1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 5.0, 0.0, 6.0]);
        let eye = Csr::from_dense(3, 3, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(spgemm(&a, &eye).to_dense(), a.to_dense());
        assert_eq!(spgemm(&eye, &a).to_dense(), a.to_dense());
    }

    #[test]
    fn rap_triple_product() {
        // R (1x2), A (2x2), P (2x1).
        let r = Csr::from_dense(1, 2, &[1.0, 1.0]);
        let a = Csr::from_dense(2, 2, &[2.0, -1.0, -1.0, 2.0]);
        let p = Csr::from_dense(2, 1, &[1.0, 1.0]);
        let c = rap(&r, &a, &p);
        assert_eq!(c.to_dense(), vec![2.0]); // sum of all entries of A
    }

    #[test]
    fn cancellation_keeps_explicit_zero() {
        // (1)(1) + (1)(-1) = 0 — the entry is numerically zero but in the
        // product pattern; Gustavson keeps it (PETSc does too).
        let a = Csr::from_dense(1, 2, &[1.0, 1.0]);
        let b = Csr::from_dense(2, 1, &[1.0, -1.0]);
        let c = spgemm(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.to_dense(), vec![0.0]);
    }

    #[test]
    fn stored_zero_in_a_stays_in_the_pattern_and_multiplies_nothing() {
        let a = Csr::from_parts(1, 2, vec![0, 2], vec![0, 1], vec![0.0, 2.0]);
        let b = Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![f64::INFINITY, 3.0]);
        let c = spgemm(&a, &b);
        assert_eq!(c.row_cols(0), &[0, 1], "(0, 0) is structural");
        assert_eq!(c.values()[0].to_bits(), 0.0f64.to_bits(), "0·∞ skipped");
        assert_eq!(c.values()[1], 6.0);
    }

    #[test]
    fn kept_product_follows_its_operands_values() {
        let a = Csr::from_dense(2, 2, &[1.0, 2.0, 0.0, 3.0]);
        let b = Csr::from_dense(2, 2, &[4.0, 0.0, 5.0, 6.0]);
        let mut kept = Product::symbolic(&a, &b);
        assert!(kept.matrix().values().iter().all(|v| v.to_bits() == 0));
        for scale in [1.0, -0.5, 0.0, 7.0] {
            let mut scaled = a.clone();
            for v in scaled.values_mut() {
                *v *= scale;
            }
            kept.numeric(&scaled, &b);
            let fresh = spgemm(&scaled, &b);
            assert_eq!(kept.matrix().colidx(), fresh.colidx());
            assert_eq!(kept.matrix().values(), fresh.values());
        }
    }

    #[test]
    #[should_panic(expected = "differ from the symbolic phase")]
    fn numeric_rejects_other_operands() {
        let a = Csr::from_dense(2, 2, &[1.0, 2.0, 0.0, 3.0]);
        let mut kept = Product::symbolic(&a, &a);
        kept.numeric(&a, &Csr::from_dense(2, 2, &[1.0, 0.0, 0.0, 3.0]));
    }

    #[test]
    fn random_shapes_agree_with_dense() {
        // Deterministic pseudo-random pattern.
        let mut st = 12345u64;
        let mut next = move || {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            (st >> 33) as usize
        };
        let (m, k, n) = (17, 11, 13);
        let mut ad = vec![0.0; m * k];
        let mut bd = vec![0.0; k * n];
        for v in &mut ad {
            if next() % 3 == 0 {
                *v = (next() % 9) as f64 - 4.0;
            }
        }
        for v in &mut bd {
            if next() % 3 == 0 {
                *v = (next() % 9) as f64 - 4.0;
            }
        }
        let a = Csr::from_dense(m, k, &ad);
        let b = Csr::from_dense(k, n, &bd);
        let c = spgemm(&a, &b);
        let want = dense_mul(&ad, &bd, m, k, n);
        let got = c.to_dense();
        for i in 0..m * n {
            assert!((got[i] - want[i]).abs() < 1e-12, "entry {i}");
        }
    }
}
