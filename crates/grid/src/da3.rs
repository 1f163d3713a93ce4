//! 3D periodic structured grids — the 3D counterpart of [`crate::Grid2D`],
//! for the finite-difference problems (7-point stencils) that PETSc's DMDA
//! supports in three dimensions.

use sellkit_core::{Csr, RowAssembler};

/// An `nx × ny × nz` periodic grid with `dof` unknowns per node,
/// interlaced layout: component `c` of node `(x, y, z)` lives at
/// `((z·ny + y)·nx + x)·dof + c`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid3D {
    /// Nodes in x.
    pub nx: usize,
    /// Nodes in y.
    pub ny: usize,
    /// Nodes in z.
    pub nz: usize,
    /// Unknowns per node.
    pub dof: usize,
}

impl Grid3D {
    /// Creates a grid; all dimensions must be positive.
    pub fn new(nx: usize, ny: usize, nz: usize, dof: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0 && dof > 0);
        Self { nx, ny, nz, dof }
    }

    /// Cubic single-component grid.
    pub fn cube(n: usize) -> Self {
        Self::new(n, n, n, 1)
    }

    /// Number of grid nodes.
    pub fn n_nodes(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Number of unknowns.
    pub fn n_unknowns(&self) -> usize {
        self.n_nodes() * self.dof
    }

    /// Global index (no wrapping).
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize, c: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz && c < self.dof);
        ((z * self.ny + y) * self.nx + x) * self.dof + c
    }

    /// Global index with periodic wrapping of signed offsets.
    #[inline]
    pub fn idx_wrap(&self, x: isize, y: isize, z: isize, c: usize) -> usize {
        let xw = x.rem_euclid(self.nx as isize) as usize;
        let yw = y.rem_euclid(self.ny as isize) as usize;
        let zw = z.rem_euclid(self.nz as isize) as usize;
        self.idx(xw, yw, zw, c)
    }

    /// Inverse of [`Grid3D::idx`].
    pub fn coords(&self, g: usize) -> (usize, usize, usize, usize) {
        let c = g % self.dof;
        let node = g / self.dof;
        let x = node % self.nx;
        let y = (node / self.nx) % self.ny;
        let z = node / (self.nx * self.ny);
        (x, y, z, c)
    }

    /// The next-coarser grid (all dimensions halved); requires even sizes.
    pub fn coarsen(&self) -> Grid3D {
        assert!(
            self.nx.is_multiple_of(2) && self.ny.is_multiple_of(2) && self.nz.is_multiple_of(2),
            "grid not coarsenable: {self:?}"
        );
        Grid3D {
            nx: self.nx / 2,
            ny: self.ny / 2,
            nz: self.nz / 2,
            dof: self.dof,
        }
    }
}

/// Assembles the 7-point Laplacian `-∇²` scaled by `coeff[c]` per
/// component, periodic, spacing `h`.
pub fn laplacian_7pt(grid: &Grid3D, coeff: &[f64], h: f64) -> Csr {
    assert_eq!(coeff.len(), grid.dof);
    assert!(h > 0.0);
    let n = grid.n_unknowns();
    let ih2 = 1.0 / (h * h);
    let mut b = RowAssembler::with_capacity(n, n, 7 * n);
    for z in 0..grid.nz as isize {
        for y in 0..grid.ny as isize {
            for x in 0..grid.nx as isize {
                for c in 0..grid.dof {
                    let k = coeff[c] * ih2;
                    b.push(grid.idx_wrap(x, y, z, c), 6.0 * k);
                    for (dx, dy, dz) in [
                        (-1isize, 0isize, 0isize),
                        (1, 0, 0),
                        (0, -1, 0),
                        (0, 1, 0),
                        (0, 0, -1),
                        (0, 0, 1),
                    ] {
                        b.push(grid.idx_wrap(x + dx, y + dy, z + dz, c), -k);
                    }
                    b.end_row();
                }
            }
        }
    }
    b.finish()
}

/// Builds the trilinear prolongation from `fine.coarsen()` to `fine`
/// (periodic): coarse node `(X, Y, Z)` coincides with fine `(2X, 2Y, 2Z)`;
/// fine nodes average the `2^d` nearest coarse nodes with weights
/// `∏ (1 or ½)` per direction.
pub fn trilinear_interpolation(fine: &Grid3D) -> Csr {
    let coarse = fine.coarsen();
    let nf = fine.n_unknowns();
    let nc = coarse.n_unknowns();
    let mut b = RowAssembler::with_capacity(nf, nc, 8 * nf);

    for z in 0..fine.nz {
        for y in 0..fine.ny {
            for x in 0..fine.nx {
                let (cx, cy, cz) = ((x / 2) as isize, (y / 2) as isize, (z / 2) as isize);
                // Per direction: coincident → one point weight 1;
                // midpoint → two points weight ½ each.
                let xs: &[(isize, f64)] = if x % 2 == 0 {
                    &[(0, 1.0)]
                } else {
                    &[(0, 0.5), (1, 0.5)]
                };
                let ys: &[(isize, f64)] = if y % 2 == 0 {
                    &[(0, 1.0)]
                } else {
                    &[(0, 0.5), (1, 0.5)]
                };
                let zs: &[(isize, f64)] = if z % 2 == 0 {
                    &[(0, 1.0)]
                } else {
                    &[(0, 0.5), (1, 0.5)]
                };
                for c in 0..fine.dof {
                    for &(dx, wx) in xs {
                        for &(dy, wy) in ys {
                            for &(dz, wz) in zs {
                                b.push(coarse.idx_wrap(cx + dx, cy + dy, cz + dz, c), wx * wy * wz);
                            }
                        }
                    }
                    b.end_row();
                }
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
    fn index_round_trip() {
        let g = Grid3D::new(4, 3, 5, 2);
        for z in 0..5 {
            for y in 0..3 {
                for x in 0..4 {
                    for c in 0..2 {
                        assert_eq!(g.coords(g.idx(x, y, z, c)), (x, y, z, c));
                    }
                }
            }
        }
        assert_eq!(g.n_unknowns(), 120);
    }

    #[test]
    fn wrap_is_periodic_in_all_axes() {
        let g = Grid3D::cube(4);
        assert_eq!(g.idx_wrap(-1, 0, 0, 0), g.idx(3, 0, 0, 0));
        assert_eq!(g.idx_wrap(0, 4, 0, 0), g.idx(0, 0, 0, 0));
        assert_eq!(g.idx_wrap(0, 0, -1, 0), g.idx(0, 0, 3, 0));
    }

    #[test]
    fn laplacian_annihilates_constants_and_has_7_per_row() {
        let g = Grid3D::cube(4);
        let a = laplacian_7pt(&g, &[1.0], 1.0);
        assert_eq!(a.nnz(), 7 * 64);
        let x = vec![2.5; 64];
        let mut y = vec![1.0; 64];
        a.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
        for v in y {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn trilinear_rows_sum_to_one() {
        let fine = Grid3D::cube(8);
        let p = trilinear_interpolation(&fine);
        assert_eq!(p.nrows(), 512);
        assert_eq!(p.ncols(), 64);
        for i in 0..p.nrows() {
            let s: f64 = p.row_vals(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums {s}");
        }
    }

    #[test]
    fn multigrid_works_in_3d() {
        use sellkit_core::CooBuilder;
        use sellkit_solvers::ksp::{gmres, KspConfig};
        use sellkit_solvers::operator::{MatOperator, SeqDot};
        use sellkit_solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig};

        // Shifted periodic 3D Laplacian (definite).
        let g = Grid3D::cube(8);
        let lap = laplacian_7pt(&g, &[1.0], 1.0);
        let n = lap.nrows();
        let mut bb = CooBuilder::new(n, n);
        for i in 0..n {
            bb.push(i, i, 0.4);
            for (k, &c) in lap.row_cols(i).iter().enumerate() {
                bb.push(i, c as usize, lap.row_vals(i)[k]);
            }
        }
        let a = bb.to_csr();
        let interps = vec![trilinear_interpolation(&g)];
        let mg: Multigrid<Csr> = Multigrid::new(
            &a,
            &interps,
            MultigridConfig {
                coarse: CoarseSolve::Direct,
                ..Default::default()
            },
        );
        let rhs: Vec<f64> = (0..n).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
        let mut x_mg = vec![0.0; n];
        let cfg = KspConfig {
            rtol: 1e-8,
            ..Default::default()
        };
        let r_mg = gmres(&MatOperator(&a), &mg, &SeqDot, &rhs, &mut x_mg, &cfg);
        assert!(r_mg.converged());
        let mut x_nopc = vec![0.0; n];
        let r_nopc = gmres(
            &MatOperator(&a),
            &sellkit_solvers::pc::IdentityPc,
            &SeqDot,
            &rhs,
            &mut x_nopc,
            &cfg,
        );
        assert!(
            r_mg.iterations < r_nopc.iterations,
            "3D multigrid must accelerate: {} vs {}",
            r_mg.iterations,
            r_nopc.iterations
        );
    }

    #[test]
    #[should_panic(expected = "not coarsenable")]
    fn odd_grid_cannot_coarsen() {
        Grid3D::new(6, 7, 8, 1).coarsen();
    }
}
