//! 2D advection-diffusion on a periodic grid — the problem family of the
//! PETSc tutorial directory the paper's test lives in
//! (`src/ts/examples/tutorials/advection-diffusion/ex5adj.c`).
//!
//! ```text
//! du/dt = D·∇²u − vx·∂u/∂x − vy·∂u/∂y
//! ```
//!
//! discretized with central differences for diffusion and first-order
//! *upwind* differences for advection (the PETSc tutorial's stable
//! choice).  Linear, so the Jacobian is state-independent — a contrast
//! case to Gray-Scott where re-assembly dominates: here `SELL`'s
//! `set_values_from_csr` refresh path is never needed and SpMV is an even
//! larger fraction of the implicit solve.

use sellkit_core::{Csr, RowAssembler};
use sellkit_grid::Grid2D;
use sellkit_solvers::ts::OdeProblem;

/// Parameters of the advection-diffusion problem.
#[derive(Clone, Copy, Debug)]
pub struct AdvectionDiffusionParams {
    /// Diffusion coefficient.
    pub diffusion: f64,
    /// Advection velocity in x.
    pub vx: f64,
    /// Advection velocity in y.
    pub vy: f64,
    /// Domain edge length.
    pub length: f64,
}

impl Default for AdvectionDiffusionParams {
    fn default() -> Self {
        Self {
            diffusion: 1e-3,
            vx: 1.0,
            vy: 0.5,
            length: 1.0,
        }
    }
}

/// The discretized advection-diffusion operator on an `n × n` periodic
/// grid (1 dof per node).
#[derive(Clone, Debug)]
pub struct AdvectionDiffusion {
    grid: Grid2D,
    params: AdvectionDiffusionParams,
    h: f64,
}

impl AdvectionDiffusion {
    /// Creates the problem on an `n × n` periodic grid.
    pub fn new(n: usize, params: AdvectionDiffusionParams) -> Self {
        let grid = Grid2D::new(n, n, 1);
        Self {
            grid,
            params,
            h: params.length / n as f64,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// A Gaussian bump initial condition centered in the domain.
    pub fn gaussian_initial(&self) -> Vec<f64> {
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        let mut u = vec![0.0; self.grid.n_unknowns()];
        for y in 0..ny {
            for x in 0..nx {
                let dx = (x as f64 / nx as f64) - 0.5;
                let dy = (y as f64 / ny as f64) - 0.5;
                u[self.grid.idx(x, y, 0)] = (-80.0 * (dx * dx + dy * dy)).exp();
            }
        }
        u
    }

    /// Stencil coefficients: (center, west, east, south, north).
    fn coefficients(&self) -> (f64, f64, f64, f64, f64) {
        let p = &self.params;
        let ih2 = 1.0 / (self.h * self.h);
        let ih = 1.0 / self.h;
        let d = p.diffusion * ih2;
        // Upwind advection: flow in +x takes u from the west.
        let (aw, ae) = if p.vx >= 0.0 {
            (p.vx * ih, 0.0)
        } else {
            (0.0, -p.vx * ih)
        };
        let (as_, an) = if p.vy >= 0.0 {
            (p.vy * ih, 0.0)
        } else {
            (0.0, -p.vy * ih)
        };
        let center = -4.0 * d - aw - ae - as_ - an;
        (center, d + aw, d + ae, d + as_, d + an)
    }
}

impl OdeProblem for AdvectionDiffusion {
    fn dim(&self) -> usize {
        self.grid.n_unknowns()
    }

    fn rhs(&self, _t: f64, u: &[f64], f: &mut [f64]) {
        let (c, w, e, s, n) = self.coefficients();
        for y in 0..self.grid.ny as isize {
            for x in 0..self.grid.nx as isize {
                let i = self.grid.idx(x as usize, y as usize, 0);
                f[i] = c * u[i]
                    + w * u[self.grid.idx_wrap(x - 1, y, 0)]
                    + e * u[self.grid.idx_wrap(x + 1, y, 0)]
                    + s * u[self.grid.idx_wrap(x, y - 1, 0)]
                    + n * u[self.grid.idx_wrap(x, y + 1, 0)];
            }
        }
    }

    fn rhs_jacobian(&self, _t: f64, _u: &[f64]) -> Csr {
        let (c, w, e, s, n) = self.coefficients();
        let nu = self.grid.n_unknowns();
        let mut b = RowAssembler::with_capacity(nu, nu, 5 * nu);
        for y in 0..self.grid.ny as isize {
            for x in 0..self.grid.nx as isize {
                b.push(self.grid.idx_wrap(x, y, 0), c);
                b.push(self.grid.idx_wrap(x - 1, y, 0), w);
                b.push(self.grid.idx_wrap(x + 1, y, 0), e);
                b.push(self.grid.idx_wrap(x, y - 1, 0), s);
                b.push(self.grid.idx_wrap(x, y + 1, 0), n);
                b.end_row();
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::MatShape;
    use sellkit_core::{Apply, ExecCtx};

    #[test]
    fn jacobian_matches_rhs_for_linear_problem() {
        let p = AdvectionDiffusion::new(8, AdvectionDiffusionParams::default());
        let u = p.gaussian_initial();
        let j = p.rhs_jacobian(0.0, &u);
        // Linear: f(u) = J·u exactly.
        let mut f = vec![0.0; p.dim()];
        p.rhs(0.0, &u, &mut f);
        let mut ju = vec![0.0; p.dim()];
        use sellkit_core::Operator;
        j.apply(
            &ExecCtx::serial(),
            (&u).into(),
            (&mut ju).into(),
            Apply::Set,
        );
        for i in 0..p.dim() {
            assert!((f[i] - ju[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn mass_is_conserved_by_the_stencil() {
        // Periodic + conservative stencil: column sums of J are zero, so
        // d/dt Σu = 0 analytically.
        let p = AdvectionDiffusion::new(6, AdvectionDiffusionParams::default());
        let u = p.gaussian_initial();
        let j = p.rhs_jacobian(0.0, &u);
        let t = j.transpose();
        for i in 0..t.nrows() {
            let s: f64 = t.row_vals(i).iter().sum();
            assert!(s.abs() < 1e-12, "column {i} sum {s}");
        }
    }

    #[test]
    fn upwind_switches_with_flow_direction() {
        let mut params = AdvectionDiffusionParams {
            vx: 1.0,
            ..Default::default()
        };
        let p1 = AdvectionDiffusion::new(4, params);
        let (_, w1, e1, _, _) = p1.coefficients();
        assert!(w1 > e1, "flow +x takes from the west");
        params.vx = -1.0;
        let p2 = AdvectionDiffusion::new(4, params);
        let (_, w2, e2, _, _) = p2.coefficients();
        assert!(e2 > w2, "flow -x takes from the east");
    }

    #[test]
    fn five_point_pattern() {
        let p = AdvectionDiffusion::new(5, AdvectionDiffusionParams::default());
        let j = p.rhs_jacobian(0.0, &p.gaussian_initial());
        assert_eq!(j.nnz(), 5 * 25);
        for i in 0..j.nrows() {
            assert_eq!(j.row_len(i), 5);
        }
    }
}
