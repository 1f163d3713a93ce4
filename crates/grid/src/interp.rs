//! Bilinear interpolation between periodic grid levels — the prolongation
//! operators from which the multigrid hierarchy builds its Galerkin coarse
//! matrices.

use sellkit_core::{Csr, RowAssembler};

use crate::da::Grid2D;

/// Builds the bilinear prolongation `P` from `fine.coarsen()` to `fine`
/// (`n_fine × n_coarse`); components interpolate independently.
///
/// Coarse node `(X, Y)` coincides with fine node `(2X, 2Y)`:
///
/// * coincident fine nodes copy the coarse value (weight 1);
/// * edge midpoints average their 2 coarse neighbours (weights ½);
/// * cell centers average their 4 coarse corners (weights ¼);
///
/// with periodic wrapping at the boundary.
pub fn bilinear_interpolation(fine: &Grid2D) -> Csr {
    let coarse = fine.coarsen();
    let nf = fine.n_unknowns();
    let nc = coarse.n_unknowns();
    let mut b = RowAssembler::with_capacity(nf, nc, 4 * nf);

    for y in 0..fine.ny {
        for x in 0..fine.nx {
            let cx = (x / 2) as isize;
            let cy = (y / 2) as isize;
            for c in 0..fine.dof {
                match (x % 2, y % 2) {
                    (0, 0) => {
                        b.push(coarse.idx_wrap(cx, cy, c), 1.0);
                    }
                    (1, 0) => {
                        b.push(coarse.idx_wrap(cx, cy, c), 0.5);
                        b.push(coarse.idx_wrap(cx + 1, cy, c), 0.5);
                    }
                    (0, 1) => {
                        b.push(coarse.idx_wrap(cx, cy, c), 0.5);
                        b.push(coarse.idx_wrap(cx, cy + 1, c), 0.5);
                    }
                    (1, 1) => {
                        b.push(coarse.idx_wrap(cx, cy, c), 0.25);
                        b.push(coarse.idx_wrap(cx + 1, cy, c), 0.25);
                        b.push(coarse.idx_wrap(cx, cy + 1, c), 0.25);
                        b.push(coarse.idx_wrap(cx + 1, cy + 1, c), 0.25);
                    }
                    _ => unreachable!(),
                }
                b.end_row();
            }
        }
    }
    b.finish()
}

/// Builds the whole interpolation chain for `levels` grids:
/// `out[l]` prolongates level `l+1` (coarser) to level `l` (finer).
pub fn interpolation_chain(fine: &Grid2D, levels: usize) -> Vec<Csr> {
    assert!(levels >= 1);
    let mut out = Vec::with_capacity(levels - 1);
    let mut g = *fine;
    for _ in 1..levels {
        out.push(bilinear_interpolation(&g));
        g = g.coarsen();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::{Apply, ExecCtx};
    use sellkit_core::{MatShape, Operator};

    #[test]
    fn shapes_and_row_sums() {
        let fine = Grid2D::new(8, 8, 2);
        let p = bilinear_interpolation(&fine);
        assert_eq!(p.nrows(), 128);
        assert_eq!(p.ncols(), 32);
        // Interpolation preserves constants: every row sums to 1.
        for i in 0..p.nrows() {
            let s: f64 = p.row_vals(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn constants_are_reproduced_exactly() {
        let fine = Grid2D::new(16, 16, 1);
        let p = bilinear_interpolation(&fine);
        let xc = vec![7.5; p.ncols()];
        let mut xf = vec![0.0; p.nrows()];
        p.apply(
            &ExecCtx::serial(),
            (&xc).into(),
            (&mut xf).into(),
            Apply::Set,
        );
        for v in xf {
            assert!((v - 7.5).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_functions_are_reproduced_in_the_interior() {
        // Away from the periodic seam, bilinear interpolation is exact on
        // linear functions of x.
        let fine = Grid2D::new(16, 16, 1);
        let coarse = fine.coarsen();
        let p = bilinear_interpolation(&fine);
        let xc: Vec<f64> = (0..coarse.n_unknowns())
            .map(|i| {
                let (x, _, _) = coarse.coords(i);
                2.0 * x as f64
            })
            .collect();
        let mut xf = vec![0.0; fine.n_unknowns()];
        p.apply(
            &ExecCtx::serial(),
            (&xc).into(),
            (&mut xf).into(),
            Apply::Set,
        );
        for i in 0..fine.n_unknowns() {
            let (x, _, _) = fine.coords(i);
            if x < fine.nx - 1 {
                assert!(
                    (xf[i] - x as f64).abs() < 1e-12,
                    "node {i} x={x}: {}",
                    xf[i]
                );
            }
        }
    }

    #[test]
    fn chain_has_matching_dimensions() {
        let fine = Grid2D::new(32, 32, 2);
        let chain = interpolation_chain(&fine, 4);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0].nrows(), 2048);
        assert_eq!(chain[0].ncols(), 512);
        assert_eq!(chain[1].nrows(), 512);
        assert_eq!(chain[1].ncols(), 128);
        assert_eq!(chain[2].nrows(), 128);
        assert_eq!(chain[2].ncols(), 32);
    }

    #[test]
    fn transpose_is_valid_restriction() {
        // P^T of a constant fine vector distributes weights summing to 4
        // per coarse point (the total stencil mass of bilinear P).
        let fine = Grid2D::new(8, 8, 1);
        let p = bilinear_interpolation(&fine);
        let r = p.transpose();
        let xf = vec![1.0; 64];
        let mut xc = vec![0.0; 16];
        r.apply(
            &ExecCtx::serial(),
            (&xf).into(),
            (&mut xc).into(),
            Apply::Set,
        );
        for v in xc {
            assert!((v - 4.0).abs() < 1e-12);
        }
    }
}
