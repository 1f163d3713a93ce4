//! Point Jacobi (diagonal) preconditioning — the smoother and coarse
//! solver of the paper's multigrid setup (`-mg_levels_pc_type jacobi`,
//! `-mg_coarse_pc_type jacobi`, §7.2).

use sellkit_core::{Csr, MatShape};

use super::Precond;

/// `z = D⁻¹ r` where `D = diag(A)`.
#[derive(Clone, Debug)]
pub struct JacobiPc {
    inv_diag: Vec<f64>,
}

impl JacobiPc {
    /// Extracts the inverse diagonal from a CSR matrix.
    ///
    /// Zero diagonal entries are treated as 1 (PETSc's
    /// `PCJacobiSetUseAbs`-adjacent fallback keeps the solver running on
    /// structurally deficient rows).
    pub fn from_csr(a: &Csr) -> Self {
        let mut inv_diag = vec![0.0; a.nrows()];
        invert_diagonal(a, &mut inv_diag);
        Self { inv_diag }
    }

    /// Builds directly from a diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        Self {
            inv_diag: diag
                .iter()
                .map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 })
                .collect(),
        }
    }

    /// The stored inverse diagonal.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }
}

/// `out[i] = 1/aᵢᵢ`, one entry per row of `a`; a missing or zero diagonal
/// entry counts as 1.
pub(crate) fn invert_diagonal(a: &Csr, out: &mut [f64]) {
    debug_assert_eq!(out.len(), a.nrows());
    for (i, d) in out.iter_mut().enumerate() {
        *d = match a.get(i, i) {
            Some(aii) if aii != 0.0 => 1.0 / aii,
            _ => 1.0,
        };
    }
}

impl Precond for JacobiPc {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.inv_diag.len());
        for i in 0..r.len() {
            z[i] = self.inv_diag[i] * r[i];
        }
    }

    /// Parallel diagonal scaling: element-wise disjoint, so the context
    /// path is bitwise identical to [`Precond::apply`] at any thread
    /// count — the parallel Jacobi smoother of the multigrid setup.
    fn apply_ctx(&self, ctx: &sellkit_core::ExecCtx, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.inv_diag.len());
        crate::vecops::pointwise_mult_ctx(ctx, z, &self.inv_diag, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverts_diagonal_matrix_exactly() {
        let a = Csr::from_dense(3, 3, &[2.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 8.0]);
        let pc = JacobiPc::from_csr(&a);
        let mut z = vec![0.0; 3];
        pc.apply(&[2.0, 4.0, 8.0], &mut z);
        assert_eq!(z, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn parallel_apply_matches_serial_bitwise() {
        let n = 9000; // crosses the vecops parallel threshold
        let diag: Vec<f64> = (0..n).map(|i| 1.5 + (i % 7) as f64).collect();
        let pc = JacobiPc::from_diagonal(&diag);
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let mut want = vec![0.0; n];
        pc.apply(&r, &mut want);
        for threads in [1usize, 2, 4] {
            let ctx = sellkit_core::ExecCtx::new(threads);
            let mut z = vec![0.0; n];
            pc.apply_ctx(&ctx, &r, &mut z);
            assert_eq!(z, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_diagonal_falls_back_to_identity() {
        let a = Csr::from_dense(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let pc = JacobiPc::from_csr(&a);
        assert_eq!(pc.inv_diag(), &[1.0, 1.0]);
    }

    #[test]
    fn from_diagonal_matches_from_csr() {
        let a = Csr::from_dense(2, 2, &[5.0, 1.0, 1.0, 10.0]);
        let p1 = JacobiPc::from_csr(&a);
        let p2 = JacobiPc::from_diagonal(&[5.0, 10.0]);
        assert_eq!(p1.inv_diag(), p2.inv_diag());
    }
}
