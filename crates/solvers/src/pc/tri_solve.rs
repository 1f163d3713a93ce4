//! Sparse triangular solves — the substrate for ILU preconditioning, and
//! the kernel class the paper names as future work for SELL (§8).
//!
//! These operate on CSR: triangular sweeps have loop-carried dependencies
//! across rows, so SELL's slice-parallel layout does not apply — exactly
//! the "balance the generality of CSR with the SpMV-centric nature of
//! SELL" tension §8 describes.

use sellkit_core::{Csr, MatShape};

/// Solves `L z = r` where `L` is the strict lower triangle of `lu` with an
/// implicit unit diagonal (the L factor of an in-place ILU).
pub(crate) fn solve_lower_unit(lu: &Csr, r: &[f64], z: &mut [f64]) {
    let n = lu.nrows();
    debug_assert_eq!(r.len(), n);
    for i in 0..n {
        let mut s = r[i];
        for (k, &c) in lu.row_cols(i).iter().enumerate() {
            let c = c as usize;
            if c >= i {
                break; // columns sorted: rest is diagonal/upper
            }
            s -= lu.row_vals(i)[k] * z[c];
        }
        z[i] = s;
    }
}

/// Solves `U z = r` where `U` is the upper triangle of `lu` including the
/// diagonal (the U factor of an in-place ILU).
pub(crate) fn solve_upper(lu: &Csr, r: &[f64], z: &mut [f64]) {
    let n = lu.nrows();
    debug_assert_eq!(r.len(), n);
    for i in (0..n).rev() {
        let cols = lu.row_cols(i);
        let vals = lu.row_vals(i);
        let mut s = r[i];
        let mut diag = 0.0;
        for (k, &c) in cols.iter().enumerate() {
            let c = c as usize;
            match c.cmp(&i) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => diag = vals[k],
                std::cmp::Ordering::Greater => s -= vals[k] * z[c],
            }
        }
        debug_assert!(diag != 0.0, "zero pivot in upper solve at row {i}");
        z[i] = s / diag;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_unit_solve() {
        // L = [[1,0],[2,1]] stored as the strict lower part of lu.
        let lu = Csr::from_dense(2, 2, &[9.0, 0.0, 2.0, 9.0]); // diag ignored by L-solve
        let mut z = vec![0.0; 2];
        solve_lower_unit(&lu, &[1.0, 4.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0]);
    }

    #[test]
    fn upper_solve() {
        // U = [[2,1],[0,4]]
        let lu = Csr::from_dense(2, 2, &[2.0, 1.0, 0.0, 4.0]);
        let mut z = vec![0.0; 2];
        solve_upper(&lu, &[5.0, 8.0], &mut z);
        assert_eq!(z, vec![1.5, 2.0]);
    }

    #[test]
    fn combined_lu_round_trip() {
        // A = L*U with L = [[1,0],[0.5,1]], U = [[4,2],[0,3]]
        // => A = [[4,2],[2,4]], in-place LU storage = [[4,2],[0.5,3]].
        let lu = Csr::from_dense(2, 2, &[4.0, 2.0, 0.5, 3.0]);
        let b = [8.0, 10.0];
        let mut y = vec![0.0; 2];
        let mut z = vec![0.0; 2];
        solve_lower_unit(&lu, &b, &mut y);
        solve_upper(&lu, &y, &mut z);
        // Check A z = b with A = [[4,2],[2,4]].
        assert!((4.0 * z[0] + 2.0 * z[1] - 8.0).abs() < 1e-12);
        assert!((2.0 * z[0] + 4.0 * z[1] - 10.0).abs() < 1e-12);
    }
}
