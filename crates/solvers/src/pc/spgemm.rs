//! Sparse matrix-matrix multiplication (CSR SpGEMM) — the substrate for
//! Galerkin coarse operators `A_c = R·A·P` in geometric multigrid.
//!
//! Classic Gustavson row-merge algorithm with a dense accumulator.

use sellkit_core::{Csr, MatShape, RowAssembler};

/// Computes `C = A · B` in CSR.
pub fn spgemm(a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let m = a.nrows();
    let n = b.ncols();

    // A first guess the size of the inputs; the assembler grows past it.
    let mut out = RowAssembler::with_capacity(m, n, a.nnz() + b.nnz());

    // Dense accumulator + touched list per row (Gustavson); `seen[c]`
    // holds the last row (plus one) that touched column `c`.
    let mut acc = vec![0.0f64; n];
    let mut seen = vec![0usize; n];
    let mut touched: Vec<u32> = Vec::with_capacity(64);

    for i in 0..m {
        touched.clear();
        for (&j, &aij) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            if aij == 0.0 {
                continue;
            }
            let j = j as usize;
            for (&c, &v) in b.row_cols(j).iter().zip(b.row_vals(j)) {
                let cu = c as usize;
                if seen[cu] != i + 1 {
                    seen[cu] = i + 1;
                    touched.push(c);
                }
                acc[cu] += aij * v;
            }
        }
        for &c in &touched {
            out.push(c as usize, std::mem::take(&mut acc[c as usize]));
        }
        out.end_row();
    }
    out.finish()
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
