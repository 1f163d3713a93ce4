//! ILU(0): incomplete LU factorization with zero fill-in (§8 future work).
//!
//! The factorization keeps exactly the sparsity pattern of `A`; `L` (unit
//! diagonal, implicit) and `U` (including diagonal) share one CSR in
//! place, PETSc-style.  Application is a forward then a backward sparse
//! triangular solve.

use sellkit_core::{Csr, MatShape};

use super::tri_solve::{solve_lower_unit, solve_upper};
use super::Precond;

/// An ILU(0) preconditioner.
#[derive(Clone, Debug)]
pub struct Ilu0 {
    lu: Csr,
}

impl Ilu0 {
    /// Factorizes `a` in ILU(0).  Panics on a structurally missing or
    /// numerically zero pivot (no pivoting is performed, as in PETSc's
    /// default ILU).
    pub fn factor(a: &Csr) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "ILU needs a square matrix");
        let n = a.nrows();
        let mut lu = a.clone();
        // IKJ-ordered in-place factorization restricted to the pattern.
        for i in 0..n {
            // Split row i at the diagonal.
            let row_start = lu.rowptr()[i];
            let row_end = lu.rowptr()[i + 1];
            for kk in row_start..row_end {
                let k = lu.colidx()[kk] as usize;
                if k >= i {
                    break;
                }
                // pivot = U[k,k]
                let pivot = get_entry(&lu, k, k)
                    .unwrap_or_else(|| panic!("ILU(0): missing pivot at row {k}"));
                assert!(pivot != 0.0, "ILU(0): zero pivot at row {k}");
                let lik = lu.values()[kk] / pivot;
                lu.values_mut()[kk] = lik;
                // Update the rest of row i within the pattern:
                // A[i,j] -= L[i,k] * U[k,j] for j > k.
                for jj in kk + 1..row_end {
                    let j = lu.colidx()[jj] as usize;
                    if let Some(ukj) = get_entry(&lu, k, j) {
                        lu.values_mut()[jj] -= lik * ukj;
                    }
                }
            }
            assert!(
                get_entry(&lu, i, i).is_some_and(|d| d != 0.0),
                "ILU(0): zero or missing diagonal at row {i}"
            );
        }
        Self { lu }
    }
}

fn get_entry(a: &Csr, i: usize, j: usize) -> Option<f64> {
    let cols = a.row_cols(i);
    cols.binary_search(&(j as u32))
        .ok()
        .map(|k| a.row_vals(i)[k])
}

impl Precond for Ilu0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let mut y = vec![0.0; r.len()];
        solve_lower_unit(&self.lu, r, &mut y);
        solve_upper(&self.lu, &y, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::{Apply, ExecCtx};
    use sellkit_core::{CooBuilder, Operator as CoreOperator};

    fn laplace2d(nx: usize) -> Csr {
        let n = nx * nx;
        let mut b = CooBuilder::new(n, n);
        for y in 0..nx {
            for x in 0..nx {
                let i = y * nx + x;
                b.push(i, i, 4.0);
                if x > 0 {
                    b.push(i, i - 1, -1.0);
                }
                if x + 1 < nx {
                    b.push(i, i + 1, -1.0);
                }
                if y > 0 {
                    b.push(i, i - nx, -1.0);
                }
                if y + 1 < nx {
                    b.push(i, i + nx, -1.0);
                }
            }
        }
        b.to_csr()
    }

    #[test]
    fn ilu_on_triangular_matrix_is_exact() {
        // For an already-lower/upper triangular A, ILU(0) is exact LU.
        let a = Csr::from_dense(3, 3, &[2.0, 1.0, 0.0, 0.0, 3.0, 1.0, 0.0, 0.0, 4.0]);
        let ilu = Ilu0::factor(&a);
        let b = [4.0, 7.0, 8.0];
        let mut z = vec![0.0; 3];
        ilu.apply(&b, &mut z);
        let mut az = vec![0.0; 3];
        a.apply(
            &ExecCtx::serial(),
            (&z).into(),
            (&mut az).into(),
            Apply::Set,
        );
        for i in 0..3 {
            assert!((az[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn ilu_preserves_pattern() {
        let a = laplace2d(5);
        let ilu = Ilu0::factor(&a);
        assert_eq!(ilu.lu.nnz(), a.nnz());
        assert_eq!(ilu.lu.rowptr(), a.rowptr());
        assert_eq!(ilu.lu.colidx(), a.colidx());
    }

    #[test]
    fn ilu_reduces_residual_better_than_jacobi() {
        use crate::vecops::norm2;
        let a = laplace2d(8);
        let n = a.nrows();
        let r = vec![1.0; n];
        let ilu = Ilu0::factor(&a);
        let jac = super::super::jacobi::JacobiPc::from_csr(&a);
        let res = |z: &[f64]| {
            let mut az = vec![0.0; n];
            a.apply(&ExecCtx::serial(), (z).into(), (&mut az).into(), Apply::Set);
            for i in 0..n {
                az[i] -= r[i];
            }
            norm2(&az)
        };
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        ilu.apply(&r, &mut z1);
        jac.apply(&r, &mut z2);
        assert!(res(&z1) < res(&z2), "ILU(0) should beat Jacobi on Laplace");
    }

    #[test]
    fn ilu_equals_lu_on_tridiagonal() {
        // Tridiagonal matrices have no fill-in, so ILU(0) = exact LU and
        // one application solves the system.
        let n = 20;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        let a = b.to_csr();
        let ilu = Ilu0::factor(&a);
        let rhs: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let mut z = vec![0.0; n];
        ilu.apply(&rhs, &mut z);
        let mut az = vec![0.0; n];
        a.apply(
            &ExecCtx::serial(),
            (&z).into(),
            (&mut az).into(),
            Apply::Set,
        );
        for i in 0..n {
            assert!((az[i] - rhs[i]).abs() < 1e-10, "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rectangular_rejected() {
        Ilu0::factor(&Csr::from_dense(2, 3, &[1.0; 6]));
    }
}
