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
        invert_diagonal_at(a.values(), &diagonal_positions(a), &mut inv_diag);
        Self { inv_diag }
    }

    /// The stored inverse diagonal.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }
}

/// Where each row of `a` stores its diagonal entry in `a`'s value array,
/// `usize::MAX` where it stores none.  The pattern fixes these, so a
/// set-up that keeps the pattern finds its diagonal without a search
/// ([`invert_diagonal_at`]).
pub(crate) fn diagonal_positions(a: &Csr) -> Vec<usize> {
    (0..a.nrows())
        .map(|i| {
            // Lossless: `Csr` dimensions fit 32 bits.
            let at = a.row_cols(i).binary_search(&(i as u32));
            at.map_or(usize::MAX, |k| a.rowptr()[i] + k)
        })
        .collect()
}

/// `out[i] = 1/aᵢᵢ` of a matrix whose values are `vals` and whose diagonal
/// positions are `at` ([`diagonal_positions`] of its pattern); a missing or
/// zero diagonal entry counts as 1.
pub(crate) fn invert_diagonal_at(vals: &[f64], at: &[usize], out: &mut [f64]) {
    debug_assert_eq!(out.len(), at.len());
    for (d, &k) in out.iter_mut().zip(at) {
        *d = match vals.get(k) {
            Some(&aii) if aii != 0.0 => 1.0 / aii,
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

    /// Jacobi's set-up is all numeric: any matrix with this one's row count
    /// refreshes it in place, to [`JacobiPc::from_csr`]'s bits.
    fn refresh(&mut self, a: &Csr) -> bool {
        if a.nrows() != self.inv_diag.len() {
            return false;
        }
        invert_diagonal_at(a.values(), &diagonal_positions(a), &mut self.inv_diag);
        true
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
        let mut b = sellkit_core::CooBuilder::new(n, n);
        for (i, &d) in diag.iter().enumerate() {
            b.push(i, i, d);
        }
        let pc = JacobiPc::from_csr(&b.to_csr());
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
        assert_eq!(JacobiPc::from_csr(&a).inv_diag(), &[0.2, 0.1]);
    }

    /// A refresh on new values gives `from_csr`'s bits, whatever the old
    /// matrix's pattern; a matrix of another size is refused and changes
    /// nothing.
    #[test]
    fn refresh_gives_from_csr_bits_and_refuses_another_size() {
        let a = Csr::from_dense(3, 3, &[5.0, 1.0, 0.0, 1.0, 10.0, 2.0, 0.0, 2.0, 3.0]);
        let b = Csr::from_dense(3, 3, &[7.0, 0.0, 3.0, 0.0, 0.0, 1.0, 1.0, 1.0, -0.3]);
        let mut pc = JacobiPc::from_csr(&a);
        assert!(pc.refresh(&b));
        let bits = |p: &JacobiPc| p.inv_diag().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pc), bits(&JacobiPc::from_csr(&b)));
        let c = Csr::from_dense(2, 2, &[5.0, 1.0, 1.0, 10.0]);
        assert!(!pc.refresh(&c));
        assert_eq!(bits(&pc), bits(&JacobiPc::from_csr(&b)));
    }
}
