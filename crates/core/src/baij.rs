//! Block CSR storage (PETSc `BAIJ`, §3.2).
//!
//! For PDE problems with multiple degrees of freedom per grid point (the
//! Gray-Scott system has 2: `u` and `v`), the matrix has natural `bs × bs`
//! dense blocks.  BAIJ stores one column index per *block*, cutting index
//! memory traffic and letting the kernel reuse `bs` input-vector entries
//! across `bs` rows — the register-blocking idea that, per §3.2, works for
//! natural blocks but is not pursued for general matrices on KNL.

use crate::csr::Csr;
use crate::exec::ExecCtx;
use crate::multivec::{VecView, VecViewMut};
use crate::traits::{check_apply_dims, check_spmv_dims, Apply, MatShape, Operator};

/// A block-CSR matrix with runtime block size `bs`.
#[derive(Clone, Debug)]
pub struct Baij {
    /// Rows/cols in *blocks*.
    mbs: usize,
    nbs: usize,
    bs: usize,
    nnz: usize,
    browptr: Vec<usize>,
    bcolidx: Vec<u32>,
    /// Blocks stored contiguously, each row-major `bs × bs`.
    val: Vec<f64>,
}

impl Baij {
    /// Converts a CSR matrix whose dimensions are multiples of `bs`.
    /// Any block containing at least one nonzero is stored densely
    /// (zero-filled), as PETSc's BAIJ assembly does.
    pub fn from_csr(csr: &Csr, bs: usize) -> Self {
        assert!(bs > 0, "block size must be positive");
        assert_eq!(csr.nrows() % bs, 0, "nrows not a multiple of bs");
        assert_eq!(csr.ncols() % bs, 0, "ncols not a multiple of bs");
        let mbs = csr.nrows() / bs;
        let nbs = csr.ncols() / bs;

        let mut browptr = vec![0usize; mbs + 1];
        let mut bcolidx: Vec<u32> = Vec::new();
        let mut blocks: Vec<f64> = Vec::new();

        for bi in 0..mbs {
            // Collect the set of block columns touched by the bs rows.
            let mut bcols: Vec<u32> = Vec::new();
            for r in 0..bs {
                for &c in csr.row_cols(bi * bs + r) {
                    let bc = c / bs as u32;
                    if let Err(pos) = bcols.binary_search(&bc) {
                        bcols.insert(pos, bc);
                    }
                }
            }
            let row_block_start = blocks.len();
            blocks.resize(row_block_start + bcols.len() * bs * bs, 0.0);
            for r in 0..bs {
                let i = bi * bs + r;
                for (k, &c) in csr.row_cols(i).iter().enumerate() {
                    let bc = c / bs as u32;
                    let pos = bcols.binary_search(&bc).expect("block column present");
                    let off = row_block_start + pos * bs * bs + r * bs + (c as usize % bs);
                    blocks[off] = csr.row_vals(i)[k];
                }
            }
            bcolidx.extend_from_slice(&bcols);
            browptr[bi + 1] = bcolidx.len();
        }

        Self {
            mbs,
            nbs,
            bs,
            nnz: csr.nnz(),
            browptr,
            bcolidx,
            val: blocks,
        }
    }

    /// Block size.
    pub fn block_size(&self) -> usize {
        self.bs
    }

    /// Number of stored blocks.
    pub fn nblocks(&self) -> usize {
        self.bcolidx.len()
    }

    /// Stored elements including block fill (`nblocks × bs²`).
    pub fn stored_elems(&self) -> usize {
        self.val.len()
    }

    /// Number of block rows.
    pub fn brows(&self) -> usize {
        self.mbs
    }

    /// Number of block columns.
    pub fn bcols(&self) -> usize {
        self.nbs
    }

    /// Block-row pointer array (`mbs + 1` entries into [`Self::bcolidx`]).
    pub fn browptr(&self) -> &[usize] {
        &self.browptr
    }

    /// Block column indices, one per stored block.
    pub fn bcolidx(&self) -> &[u32] {
        &self.bcolidx
    }

    /// Stored block values, each block row-major `bs × bs`.
    pub fn values(&self) -> &[f64] {
        &self.val
    }

    /// Converts back to CSR (dropping exact zeros introduced by block fill
    /// is *not* done, mirroring PETSc, where the block pattern persists).
    pub fn to_dense(&self) -> Vec<f64> {
        let (m, n) = (self.mbs * self.bs, self.nbs * self.bs);
        let mut d = vec![0.0; m * n];
        for bi in 0..self.mbs {
            for k in self.browptr[bi]..self.browptr[bi + 1] {
                let bc = self.bcolidx[k] as usize;
                for r in 0..self.bs {
                    for c in 0..self.bs {
                        d[(bi * self.bs + r) * n + bc * self.bs + c] =
                            self.val[k * self.bs * self.bs + r * self.bs + c];
                    }
                }
            }
        }
        d
    }
}

impl MatShape for Baij {
    fn nrows(&self) -> usize {
        self.mbs * self.bs
    }
    fn ncols(&self) -> usize {
        self.nbs * self.bs
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
}

impl Operator for Baij {
    /// Fused accumulate: block accumulators land in `y` with `+=` instead
    /// of overwrite — no scratch vector at any thread count.  Blocked
    /// operands (`k > 1`) run column by column; BAIJ has no native SpMM
    /// kernel.
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        check_apply_dims(self.nrows(), self.ncols(), &x, &y);
        crate::multivec::apply_columnwise(ctx, x, y, mode, |ctx, xc, yc, m| match m {
            Apply::Set => self.spmv_parts::<false>(ctx, xc, yc),
            Apply::Add => self.spmv_parts::<true>(ctx, xc, yc),
        });
    }
}

impl Baij {
    /// Shared body of both [`Operator::apply`] modes for one vector: all
    /// block rows on a serial context, an nnz-balanced block-row partition
    /// on a pool (`browptr` counts blocks, which is proportional to stored
    /// work).
    fn spmv_parts<const ADD: bool>(&self, ctx: &ExecCtx, x: &[f64], y: &mut [f64]) {
        check_spmv_dims(self.nrows(), self.ncols(), x, y);
        ctx.dispatch_weighted(&self.browptr, self.bs, y, 1, &|b0, _, win| {
            self.spmv_range::<ADD>(b0, x, win);
        });
    }

    /// Block rows `[b0, b0 + win.len()/bs)` into the matching `y` window.
    fn spmv_range<const ADD: bool>(&self, b0: usize, x: &[f64], win: &mut [f64]) {
        match self.bs {
            2 => self.spmv_bs2::<ADD>(b0, x, win),
            _ => self.spmv_generic::<ADD>(b0, x, win),
        }
    }

    /// Generic block kernel: `bs` accumulators, `bs` reused x entries.
    /// Accumulators live on the stack for realistic block sizes so the
    /// threaded hot path stays allocation-free.
    fn spmv_generic<const ADD: bool>(&self, b0: usize, x: &[f64], win: &mut [f64]) {
        let bs = self.bs;
        let mut stack = [0.0f64; 16];
        let mut heap;
        let acc: &mut [f64] = if bs <= stack.len() {
            &mut stack[..bs]
        } else {
            heap = vec![0.0f64; bs];
            &mut heap
        };
        for (o, yb) in win.chunks_exact_mut(bs).enumerate() {
            let bi = b0 + o;
            acc.fill(0.0);
            for k in self.browptr[bi]..self.browptr[bi + 1] {
                let bc = self.bcolidx[k] as usize;
                let xb = &x[bc * bs..(bc + 1) * bs];
                let blk = &self.val[k * bs * bs..(k + 1) * bs * bs];
                for r in 0..bs {
                    let mut s = 0.0;
                    for c in 0..bs {
                        s += blk[r * bs + c] * xb[c];
                    }
                    acc[r] += s;
                }
            }
            if ADD {
                for (yi, &a) in yb.iter_mut().zip(acc.iter()) {
                    *yi += a;
                }
            } else {
                yb.copy_from_slice(acc);
            }
        }
    }

    /// Specialized 2×2 kernel (the Gray-Scott `dof = 2` case): fully
    /// unrolled so the compiler keeps the block in registers.
    fn spmv_bs2<const ADD: bool>(&self, b0: usize, x: &[f64], win: &mut [f64]) {
        for (o, yb) in win.chunks_exact_mut(2).enumerate() {
            let bi = b0 + o;
            let (mut y0, mut y1) = (0.0f64, 0.0f64);
            for k in self.browptr[bi]..self.browptr[bi + 1] {
                let bc = self.bcolidx[k] as usize;
                let x0 = x[bc * 2];
                let x1 = x[bc * 2 + 1];
                let b = &self.val[k * 4..k * 4 + 4];
                y0 += b[0] * x0 + b[1] * x1;
                y1 += b[2] * x0 + b[3] * x1;
            }
            if ADD {
                yb[0] += y0;
                yb[1] += y1;
            } else {
                yb[0] = y0;
                yb[1] = y1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_matrix() -> Csr {
        // 4x4 with 2x2 block structure, one block row fully coupled.
        Csr::from_dense(
            4,
            4,
            &[
                1.0, 2.0, 0.0, 0.0, //
                3.0, 4.0, 0.0, 0.0, //
                0.0, 5.0, 6.0, 0.0, //
                0.0, 0.0, 7.0, 8.0,
            ],
        )
    }

    #[test]
    fn round_trip_dense() {
        let a = block_matrix();
        let b = Baij::from_csr(&a, 2);
        assert_eq!(b.to_dense(), a.to_dense());
        assert_eq!(b.nblocks(), 3); // (0,0), (1,0..1 spans two block cols)
    }

    #[test]
    fn spmv_matches_csr_bs2_and_generic() {
        let a = block_matrix();
        let x = vec![1.0, -1.0, 2.0, 0.5];
        let mut want = vec![0.0; 4];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );

        let b2 = Baij::from_csr(&a, 2);
        let mut y = vec![0.0; 4];
        b2.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
        assert_eq!(y, want);

        let b4 = Baij::from_csr(&a, 4);
        let mut y4 = vec![0.0; 4];
        b4.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y4).into(),
            Apply::Set,
        );
        assert_eq!(y4, want);

        let b1 = Baij::from_csr(&a, 1);
        let mut y1 = vec![0.0; 4];
        b1.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y1).into(),
            Apply::Set,
        );
        assert_eq!(y1, want);
    }

    #[test]
    #[should_panic(expected = "multiple of bs")]
    fn non_divisible_dims_rejected() {
        Baij::from_csr(&Csr::from_dense(3, 3, &[1.0; 9]), 2);
    }

    #[test]
    fn block_fill_counts_as_storage_not_nnz() {
        let a = block_matrix();
        let b = Baij::from_csr(&a, 2);
        assert_eq!(b.nnz(), a.nnz());
        assert_eq!(b.stored_elems(), 3 * 4);
        assert!(b.stored_elems() > b.nnz());
    }
}
