//! Symmetric block CSR storage (PETSc `SBAIJ`), one of the PETSc formats
//! the paper's introduction enumerates.
//!
//! Only the upper block triangle (including diagonal blocks) is stored;
//! SpMV applies each off-diagonal block twice — once as stored, once
//! transposed — halving matrix memory for symmetric problems at the cost
//! of a scatter-style update to `y` that is harder to vectorize (one
//! reason PETSc keeps it a specialist format).

use crate::assemble::RowAssembler;
use crate::baij::Baij;
use crate::csr::Csr;
use crate::exec::ExecCtx;
use crate::multivec::{VecView, VecViewMut};
use crate::traits::{check_apply_dims, Apply, MatShape, Operator};

/// A symmetric matrix in block-upper-triangular storage: a [`Baij`] of the
/// blocks on and above the block diagonal.
#[derive(Clone, Debug)]
pub struct Sbaij {
    upper: Baij,
    /// Logical nonzeros of the full (symmetric) matrix.
    nnz_full: usize,
}

impl Sbaij {
    /// Converts a **symmetric** CSR matrix with dimensions divisible by
    /// `bs`.  Panics if the matrix is not numerically symmetric.
    pub fn from_csr(csr: &Csr, bs: usize) -> Self {
        assert!(bs > 0);
        assert_eq!(csr.nrows(), csr.ncols(), "SBAIJ needs a square matrix");
        assert_eq!(csr.nrows() % bs, 0, "rows not a multiple of bs");
        // Symmetry check (structure and values).
        for i in 0..csr.nrows() {
            for (k, &c) in csr.row_cols(i).iter().enumerate() {
                let v = csr.row_vals(i)[k];
                let vt = csr.get(c as usize, i).unwrap_or(0.0);
                assert!(
                    (v - vt).abs() <= 1e-12 * (1.0 + v.abs()),
                    "matrix not symmetric at ({i}, {c}): {v} vs {vt}"
                );
            }
        }
        // The lower block triangle is implied by symmetry.
        let mut upper = RowAssembler::with_capacity(csr.nrows(), csr.ncols(), csr.nnz());
        for i in 0..csr.nrows() {
            for (&c, &v) in csr.row_cols(i).iter().zip(csr.row_vals(i)) {
                if c as usize / bs >= i / bs {
                    upper.push(c as usize, v);
                }
            }
            upper.end_row();
        }
        Self {
            upper: Baij::from_csr(&upper.finish(), bs),
            nnz_full: csr.nnz(),
        }
    }

    /// Block size.
    pub fn block_size(&self) -> usize {
        self.upper.block_size()
    }

    /// Stored blocks (upper triangle only).
    pub fn nblocks(&self) -> usize {
        self.upper.nblocks()
    }

    /// Stored elements — roughly half of BAIJ's for a dense-ish pattern.
    pub fn stored_elems(&self) -> usize {
        self.upper.stored_elems()
    }

    /// Number of block rows (== block columns; the matrix is square).
    pub fn brows(&self) -> usize {
        self.upper.brows()
    }

    /// Block-row pointer array (`mbs + 1` entries into [`Self::bcolidx`]).
    pub fn browptr(&self) -> &[usize] {
        self.upper.browptr()
    }

    /// Block column indices (upper triangle: `bcolidx()[k] >=` block row).
    pub fn bcolidx(&self) -> &[u32] {
        self.upper.bcolidx()
    }

    /// Stored block values, each block row-major `bs × bs`.
    pub fn values(&self) -> &[f64] {
        self.upper.values()
    }
}

impl MatShape for Sbaij {
    fn nrows(&self) -> usize {
        self.upper.nrows()
    }
    fn ncols(&self) -> usize {
        self.upper.ncols()
    }
    fn nnz(&self) -> usize {
        self.nnz_full
    }
}

impl Operator for Sbaij {
    /// Mirror-block scatter updates (`y_bj += Bᵀ·x_bi`) are not
    /// row-disjoint, so SBAIJ is a documented serial fallback: it ignores
    /// the context and computes on the calling thread.  The accumulate
    /// mode reuses the same loops without the zero fill — no scratch
    /// vector.  Blocked operands (`k > 1`) run column by column.
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        check_apply_dims(self.nrows(), self.ncols(), &x, &y);
        crate::multivec::apply_columnwise(ctx, x, y, mode, |_, xc, yc, m| {
            if matches!(m, Apply::Set) {
                yc.fill(0.0);
            }
            self.accumulate(xc, yc);
        });
    }
}

impl Sbaij {
    /// `y += A·x` over the upper-triangle storage: each stored block is
    /// applied in place, and off-diagonal blocks again transposed at the
    /// mirror position.
    fn accumulate(&self, x: &[f64], y: &mut [f64]) {
        let (bs, browptr, bcolidx) = (self.block_size(), self.browptr(), self.bcolidx());
        for bi in 0..self.brows() {
            for k in browptr[bi]..browptr[bi + 1] {
                let bj = bcolidx[k] as usize;
                let blk = &self.values()[k * bs * bs..(k + 1) * bs * bs];
                // y_bi += B · x_bj
                for r in 0..bs {
                    let mut s = 0.0;
                    for c in 0..bs {
                        s += blk[r * bs + c] * x[bj * bs + c];
                    }
                    y[bi * bs + r] += s;
                }
                // Off-diagonal blocks contribute transposed to the mirror
                // position: y_bj += Bᵀ · x_bi.
                if bj != bi {
                    for c in 0..bs {
                        let mut s = 0.0;
                        for r in 0..bs {
                            s += blk[r * bs + c] * x[bi * bs + r];
                        }
                        y[bj * bs + c] += s;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooBuilder;

    fn symmetric_block(n_blocks: usize, bs: usize) -> Csr {
        // Block tridiagonal SPD-ish symmetric matrix.
        let n = n_blocks * bs;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0 + (i % 3) as f64);
        }
        for bi in 0..n_blocks.saturating_sub(1) {
            for r in 0..bs {
                for c in 0..bs {
                    let v = 0.1 * (r * bs + c + 1) as f64;
                    b.push(bi * bs + r, (bi + 1) * bs + c, v);
                    b.push((bi + 1) * bs + c, bi * bs + r, v);
                }
            }
        }
        b.to_csr()
    }

    #[test]
    fn spmv_matches_csr() {
        for bs in [1usize, 2, 3] {
            let a = symmetric_block(7, bs);
            let s = Sbaij::from_csr(&a, bs);
            let n = a.nrows();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
            let mut want = vec![0.0; n];
            a.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut want).into(),
                Apply::Set,
            );
            let mut got = vec![0.0; n];
            s.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut got).into(),
                Apply::Set,
            );
            for i in 0..n {
                assert!((got[i] - want[i]).abs() < 1e-12, "bs={bs} row {i}");
            }
        }
    }

    #[test]
    fn stores_roughly_half_of_baij() {
        let a = symmetric_block(20, 2);
        let s = Sbaij::from_csr(&a, 2);
        let full = crate::baij::Baij::from_csr(&a, 2);
        // Block tridiagonal: 39 of 58 blocks survive (diag + one of the
        // two off-diagonals) ≈ 0.67; dense patterns approach 0.5.
        assert!(
            s.stored_elems() * 10 <= full.stored_elems() * 7,
            "SBAIJ {} vs BAIJ {}",
            s.stored_elems(),
            full.stored_elems()
        );
        assert_eq!(s.nnz(), a.nnz());
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn asymmetric_rejected() {
        let a = Csr::from_dense(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        Sbaij::from_csr(&a, 1);
    }

    #[test]
    fn diagonal_matrix_round_trips() {
        let a = Csr::from_dense(
            4,
            4,
            &[
                2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0, 5.0,
            ],
        );
        let s = Sbaij::from_csr(&a, 2);
        let mut y = vec![0.0; 4];
        s.apply(
            &ExecCtx::serial(),
            (&[1.0, 1.0, 1.0, 1.0]).into(),
            (&mut y).into(),
            Apply::Set,
        );
        assert_eq!(y, vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.nblocks(), 2);
    }
}
