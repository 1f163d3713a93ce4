//! 5-point star-stencil assembly on periodic grids.

use sellkit_core::{Csr, RowAssembler};

use crate::da::Grid2D;

/// Assembles the 5-point Laplacian `-∇²` scaled by `coeff[c]` for each
/// component `c`, on a periodic grid with spacing `h` (central finite
/// differences, the discretization of §7).
///
/// Row for component `c` at `(x, y)`:
/// `coeff[c]/h² · (4·u(x,y) − u(x±1,y) − u(x,y±1))`.
pub fn laplacian_5pt(grid: &Grid2D, coeff: &[f64], h: f64) -> Csr {
    assert_eq!(coeff.len(), grid.dof, "one coefficient per component");
    assert!(h > 0.0);
    let n = grid.n_unknowns();
    let ih2 = 1.0 / (h * h);
    let mut b = RowAssembler::with_capacity(n, n, 5 * n);
    for y in 0..grid.ny as isize {
        for x in 0..grid.nx as isize {
            for c in 0..grid.dof {
                let k = coeff[c] * ih2;
                b.push(grid.idx_wrap(x, y, c), 4.0 * k);
                b.push(grid.idx_wrap(x - 1, y, c), -k);
                b.push(grid.idx_wrap(x + 1, y, c), -k);
                b.push(grid.idx_wrap(x, y - 1, c), -k);
                b.push(grid.idx_wrap(x, y + 1, c), -k);
                b.end_row();
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::{Apply, ExecCtx};
    use sellkit_core::{MatShape, Operator};

    #[test]
    fn constant_vector_is_in_nullspace() {
        // Periodic Laplacian annihilates constants.
        let g = Grid2D::new(8, 8, 1);
        let a = laplacian_5pt(&g, &[1.0], 1.0);
        let x = vec![3.0; 64];
        let mut y = vec![1.0; 64];
        a.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
        for v in y {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn row_sums_zero_and_five_entries() {
        let g = Grid2D::new(6, 4, 2);
        let a = laplacian_5pt(&g, &[1.0, 2.5], 0.5);
        assert_eq!(a.nnz(), 5 * g.n_unknowns());
        for i in 0..a.nrows() {
            assert_eq!(a.row_len(i), 5, "row {i}");
            let s: f64 = a.row_vals(i).iter().sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn eigenvector_check() {
        // For periodic Laplacian on n points, u = cos(2πkx/n) is an
        // eigenvector with eigenvalue (2 - 2cos(2πk/n))·2/h² in 2D when
        // applied along one axis only... verify via a plane wave in x.
        let n = 16;
        let g = Grid2D::new(n, n, 1);
        let a = laplacian_5pt(&g, &[1.0], 1.0);
        let k = 3.0;
        let x: Vec<f64> = (0..n * n)
            .map(|i| {
                let (xx, _, _) = g.coords(i);
                (2.0 * std::f64::consts::PI * k * xx as f64 / n as f64).cos()
            })
            .collect();
        let lambda = 2.0 - 2.0 * (2.0 * std::f64::consts::PI * k / n as f64).cos();
        let mut y = vec![0.0; n * n];
        a.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
        for i in 0..n * n {
            assert!((y[i] - lambda * x[i]).abs() < 1e-10, "node {i}");
        }
    }

    #[test]
    fn dof2_components_are_decoupled() {
        let g = Grid2D::new(4, 4, 2);
        let a = laplacian_5pt(&g, &[1.0, 3.0], 1.0);
        for i in 0..a.nrows() {
            let (_, _, c) = g.coords(i);
            for &col in a.row_cols(i) {
                let (_, _, cc) = g.coords(col as usize);
                assert_eq!(c, cc, "Laplacian must not couple components");
            }
        }
    }
}
