//! The Gray-Scott reaction-diffusion model (§7 of the paper):
//!
//! ```text
//! du/dt = D₁∇²u − u·v² + γ(1 − u)
//! dv/dt = D₂∇²v + u·v² − (γ + κ)·v
//! ```
//!
//! discretized with central finite differences on a 2D periodic grid
//! (5-point stencil), 2 unknowns per node.  "Each row has 10 elements"
//! (§7): 5 stencil points × dof coupling at the center — the diagonal
//! block of the Jacobian carries a 2×2 reaction block, off-center stencil
//! entries are diagonal in the components.
//!
//! Parameters follow Hundsdorfer & Verwer (p. 21) as the paper states:
//! `D₁ = 8·10⁻⁵, D₂ = 4·10⁻⁵, γ = 0.024, κ = 0.06` on the unit square
//! scaled to `[0, 2.5]²`, with Pearson's localized square perturbation as
//! the initial condition.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sellkit_core::{Csr, RowAssembler};
use sellkit_grid::Grid2D;
use sellkit_solvers::ts::OdeProblem;

/// Physical parameters of the Gray-Scott system.
#[derive(Clone, Copy, Debug)]
pub struct GrayScottParams {
    /// Diffusion coefficient of `u`.
    pub d1: f64,
    /// Diffusion coefficient of `v`.
    pub d2: f64,
    /// Feed rate γ.
    pub gamma: f64,
    /// Kill rate κ.
    pub kappa: f64,
    /// Domain edge length (grid spacing is `length / nx`).
    pub length: f64,
}

impl Default for GrayScottParams {
    fn default() -> Self {
        // Hundsdorfer & Verwer, "Numerical Solution of Time-Dependent
        // Advection-Diffusion-Reaction Equations", p. 21.
        Self {
            d1: 8.0e-5,
            d2: 4.0e-5,
            gamma: 0.024,
            kappa: 0.06,
            length: 2.5,
        }
    }
}

/// The discretized Gray-Scott system on a periodic grid.
#[derive(Clone, Debug)]
pub struct GrayScott {
    grid: Grid2D,
    params: GrayScottParams,
    h: f64,
}

impl GrayScott {
    /// Creates the system on an `n × n` periodic grid (dof = 2).
    pub fn new(n: usize, params: GrayScottParams) -> Self {
        let grid = Grid2D::new(n, n, 2);
        let h = params.length / n as f64;
        Self { grid, params, h }
    }

    /// The underlying grid (dof = 2).
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// The physical parameters.
    pub fn params(&self) -> &GrayScottParams {
        &self.params
    }

    /// Grid spacing.
    pub fn spacing(&self) -> f64 {
        self.h
    }

    /// Pearson's initial condition: `u = 1, v = 0` everywhere except a
    /// central square where `(u, v) = (½, ¼)`, plus ±1 % uniform noise
    /// (deterministic under `seed`).
    pub fn initial_condition(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        let mut state = vec![0.0; self.grid.n_unknowns()];
        for y in 0..ny {
            for x in 0..nx {
                let iu = self.grid.idx(x, y, 0);
                let iv = self.grid.idx(x, y, 1);
                let in_square =
                    x >= 7 * nx / 16 && x < 9 * nx / 16 && y >= 7 * ny / 16 && y < 9 * ny / 16;
                let (u, v): (f64, f64) = if in_square { (0.5, 0.25) } else { (1.0, 0.0) };
                let noise_u: f64 = rng.gen_range(-0.01..0.01);
                let noise_v: f64 = rng.gen_range(-0.01..0.01);
                state[iu] = u + u * noise_u;
                state[iv] = v + v.abs() * noise_v;
            }
        }
        state
    }

    #[inline]
    fn laplacian_at(&self, w: &[f64], x: isize, y: isize, c: usize) -> f64 {
        let g = &self.grid;
        let center = w[g.idx_wrap(x, y, c)];
        let sum = w[g.idx_wrap(x - 1, y, c)]
            + w[g.idx_wrap(x + 1, y, c)]
            + w[g.idx_wrap(x, y - 1, c)]
            + w[g.idx_wrap(x, y + 1, c)];
        (sum - 4.0 * center) / (self.h * self.h)
    }
}

impl GrayScott {
    /// Assembles only the Jacobian rows in `rows` (half-open global row
    /// range), with **global** column indices — the block each MPI rank
    /// builds for [`DistMat::from_local_rows`] without ever forming the
    /// global matrix (how real PETSc applications assemble).
    ///
    /// 10 nonzeros per row — the 5-point diffusion stencil (diagonal in the
    /// components) plus the dense 2×2 reaction block at the grid point
    /// (§7: "the matrix consists of small 2 × 2 blocks. Each row has 10
    /// elements").
    ///
    /// Requires the full state `w` only for the stencil neighbourhood of
    /// the owned rows; passing the whole vector keeps the API simple here.
    ///
    /// [`DistMat::from_local_rows`]: ../../sellkit_dist/dmat/struct.DistMat.html
    pub fn rhs_jacobian_rows(&self, _t: f64, w: &[f64], rows: std::ops::Range<usize>) -> Csr {
        let n = self.grid.n_unknowns();
        assert!(rows.end <= n);
        let mut b = RowAssembler::with_capacity(rows.len(), n, 10 * rows.len());
        for row in rows {
            let (x, y, c) = self.grid.coords(row);
            let iu = self.grid.idx(x, y, 0);
            self.jacobian_row(x as isize, y as isize, c, w[iu], w[iu + 1], &mut b);
        }
        b.finish()
    }

    /// Pushes and closes the row of component `c` at node `(x, y)`, where
    /// the state is `(u, v)`.
    ///
    /// Full 2×2 blocks at all 5 stencil points, as PETSc's blocked
    /// preallocation stores them: off-center blocks are diagonal
    /// (cross-component entries are explicit zeros), so every row has
    /// exactly 10 stored elements (§7).
    pub(crate) fn jacobian_row(
        &self,
        x: isize,
        y: isize,
        c: usize,
        u: f64,
        v: f64,
        b: &mut RowAssembler,
    ) {
        let p = &self.params;
        let ih2 = 1.0 / (self.h * self.h);
        // The row's diffusion coefficient and its half of the reaction block.
        let (d, reaction) = if c == 0 {
            (p.d1, (-v * v - p.gamma, -2.0 * u * v))
        } else {
            (p.d2, (v * v, 2.0 * u * v - (p.gamma + p.kappa)))
        };
        for (dx, dy) in [(0isize, 0isize), (-1, 0), (1, 0), (0, -1), (0, 1)] {
            let center = dx == 0 && dy == 0;
            let ju = self.grid.idx_wrap(x + dx, y + dy, 0);
            let diffusion = if center { -4.0 * d * ih2 } else { d * ih2 };
            let (to_u, to_v) = if center { reaction } else { (0.0, 0.0) };
            // Diffusion couples a component only to itself.
            if c == 0 {
                b.push(ju, diffusion + to_u);
                b.push(ju + 1, to_v);
            } else {
                b.push(ju, to_u);
                b.push(ju + 1, diffusion + to_v);
            }
        }
        b.end_row();
    }
}

impl OdeProblem for GrayScott {
    fn dim(&self) -> usize {
        self.grid.n_unknowns()
    }

    fn rhs(&self, _t: f64, w: &[f64], f: &mut [f64]) {
        let p = &self.params;
        for y in 0..self.grid.ny as isize {
            for x in 0..self.grid.nx as isize {
                let iu = self.grid.idx(x as usize, y as usize, 0);
                let iv = iu + 1;
                let u = w[iu];
                let v = w[iv];
                let uvv = u * v * v;
                f[iu] = p.d1 * self.laplacian_at(w, x, y, 0) - uvv + p.gamma * (1.0 - u);
                f[iv] = p.d2 * self.laplacian_at(w, x, y, 1) + uvv - (p.gamma + p.kappa) * v;
            }
        }
    }

    fn rhs_jacobian(&self, t: f64, w: &[f64]) -> Csr {
        self.rhs_jacobian_rows(t, w, 0..self.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::MatShape;

    #[test]
    fn jacobian_has_ten_nonzeros_per_row() {
        let gs = GrayScott::new(8, GrayScottParams::default());
        let w = gs.initial_condition(42);
        let j = gs.rhs_jacobian(0.0, &w);
        // §7: "Each row has 10 elements" — full 2×2 blocks at all 5
        // stencil points (off-center cross-component entries are stored
        // explicit zeros, as PETSc's blocked preallocation produces).
        for i in 0..j.nrows() {
            assert_eq!(j.row_len(i), 10, "row {i}");
        }
        assert_eq!(j.nnz(), 10 * gs.dim());
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let gs = GrayScott::new(6, GrayScottParams::default());
        let w = gs.initial_condition(7);
        let j = gs.rhs_jacobian(0.0, &w);
        let n = gs.dim();
        let eps = 1e-7;
        let mut f0 = vec![0.0; n];
        gs.rhs(0.0, &w, &mut f0);
        // Probe a handful of columns.
        for col in [0usize, 1, 13, n / 2, n - 2, n - 1] {
            let mut wp = w.clone();
            wp[col] += eps;
            let mut fp = vec![0.0; n];
            gs.rhs(0.0, &wp, &mut fp);
            for row in 0..n {
                let fd = (fp[row] - f0[row]) / eps;
                let an = j.get(row, col).unwrap_or(0.0);
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "J[{row},{col}]: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn local_row_assembly_matches_global() {
        let gs = GrayScott::new(10, GrayScottParams::default());
        let w = gs.initial_condition(5);
        let full = gs.rhs_jacobian(0.0, &w);
        let n = gs.dim();
        // Arbitrary uneven split points, including mid-node cuts.
        for (start, end) in [(0usize, n), (0, 37), (37, 120), (120, n), (n - 1, n)] {
            let block = gs.rhs_jacobian_rows(0.0, &w, start..end);
            assert_eq!(block.nrows(), end - start);
            assert_eq!(block.ncols(), n);
            for (li, g) in (start..end).enumerate() {
                assert_eq!(block.row_cols(li), full.row_cols(g), "row {g} cols");
                assert_eq!(block.row_vals(li), full.row_vals(g), "row {g} vals");
            }
        }
    }

    #[test]
    fn uniform_steady_state_is_fixed_point() {
        // (u, v) = (1, 0) is an equilibrium of the reaction and diffusion.
        let gs = GrayScott::new(8, GrayScottParams::default());
        let mut w = vec![0.0; gs.dim()];
        for i in (0..gs.dim()).step_by(2) {
            w[i] = 1.0;
        }
        let mut f = vec![0.0; gs.dim()];
        gs.rhs(0.0, &w, &mut f);
        for v in f {
            assert!(v.abs() < 1e-14);
        }
    }

    #[test]
    fn initial_condition_is_deterministic_and_perturbed() {
        let gs = GrayScott::new(16, GrayScottParams::default());
        let a = gs.initial_condition(1);
        let b = gs.initial_condition(1);
        let c = gs.initial_condition(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The central square carries v > 0.
        let center = gs.grid().idx(8, 8, 1);
        assert!(a[center] > 0.2);
        // Far corner is near (1, 0).
        let corner_u = gs.grid().idx(0, 0, 0);
        assert!((a[corner_u] - 1.0).abs() < 0.02);
    }
}
