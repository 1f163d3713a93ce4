//! 3D Gray-Scott on a periodic cube — the 3D counterpart of the paper's
//! experiment (7-point Laplacian stencil, 2 dof per node, so each Jacobian
//! row carries 14 stored elements with the same full-block assembly
//! convention as the 2D case).
//!
//! Included as the natural scaling direction the paper's conclusion points
//! at: 3D stencils have more neighbours per row (7 vs 5), pushing row
//! lengths further from SIMD-width multiples — CSR's remainder problem
//! (§2.3) worsens while SELL stays remainder-free.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sellkit_core::{Csr, RowAssembler};
use sellkit_grid::Grid3D;
use sellkit_solvers::ts::OdeProblem;

use crate::gray_scott::GrayScottParams;

/// The discretized 3D Gray-Scott system.
#[derive(Clone, Debug)]
pub struct GrayScott3D {
    grid: Grid3D,
    params: GrayScottParams,
    h: f64,
}

impl GrayScott3D {
    /// Creates the system on an `n × n × n` periodic grid (dof = 2).
    pub fn new(n: usize, params: GrayScottParams) -> Self {
        let grid = Grid3D::new(n, n, n, 2);
        let h = params.length / n as f64;
        Self { grid, params, h }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid3D {
        &self.grid
    }

    /// Pearson-style initial condition: `(u, v) = (1, 0)` with a perturbed
    /// cube of `(½, ¼)` in the center.
    pub fn initial_condition(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.grid.nx;
        let mut w = vec![0.0; self.grid.n_unknowns()];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let inside = |q: usize| q >= 7 * n / 16 && q < 9 * n / 16;
                    let in_cube = inside(x) && inside(y) && inside(z);
                    let (u, v): (f64, f64) = if in_cube { (0.5, 0.25) } else { (1.0, 0.0) };
                    let nu: f64 = rng.gen_range(-0.01..0.01);
                    let nv: f64 = rng.gen_range(-0.01..0.01);
                    w[self.grid.idx(x, y, z, 0)] = u + u * nu;
                    w[self.grid.idx(x, y, z, 1)] = v + v.abs() * nv;
                }
            }
        }
        w
    }

    const STENCIL: [(isize, isize, isize); 7] = [
        (0, 0, 0),
        (-1, 0, 0),
        (1, 0, 0),
        (0, -1, 0),
        (0, 1, 0),
        (0, 0, -1),
        (0, 0, 1),
    ];
}

impl OdeProblem for GrayScott3D {
    fn dim(&self) -> usize {
        self.grid.n_unknowns()
    }

    fn rhs(&self, _t: f64, w: &[f64], f: &mut [f64]) {
        let p = &self.params;
        let ih2 = 1.0 / (self.h * self.h);
        let g = &self.grid;
        for z in 0..g.nz as isize {
            for y in 0..g.ny as isize {
                for x in 0..g.nx as isize {
                    let iu = g.idx(x as usize, y as usize, z as usize, 0);
                    let iv = iu + 1;
                    let u = w[iu];
                    let v = w[iv];
                    let mut lap_u = -6.0 * u;
                    let mut lap_v = -6.0 * v;
                    for &(dx, dy, dz) in &Self::STENCIL[1..] {
                        lap_u += w[g.idx_wrap(x + dx, y + dy, z + dz, 0)];
                        lap_v += w[g.idx_wrap(x + dx, y + dy, z + dz, 1)];
                    }
                    let uvv = u * v * v;
                    f[iu] = p.d1 * lap_u * ih2 - uvv + p.gamma * (1.0 - u);
                    f[iv] = p.d2 * lap_v * ih2 + uvv - (p.gamma + p.kappa) * v;
                }
            }
        }
    }

    /// 14 stored elements per row: full 2×2 blocks at all 7 stencil points
    /// (off-center cross-component entries are explicit zeros, matching
    /// the 2D convention).
    fn rhs_jacobian(&self, _t: f64, w: &[f64]) -> Csr {
        let p = &self.params;
        let g = &self.grid;
        let n = g.n_unknowns();
        let ih2 = 1.0 / (self.h * self.h);
        let mut b = RowAssembler::with_capacity(n, n, 14 * n);
        for z in 0..g.nz as isize {
            for y in 0..g.ny as isize {
                for x in 0..g.nx as isize {
                    let iu = g.idx(x as usize, y as usize, z as usize, 0);
                    let u = w[iu];
                    let v = w[iu + 1];
                    // One pass per component: row `iu`, then row `iu + 1`.
                    for c in 0..2 {
                        let (d, reaction) = if c == 0 {
                            (p.d1, (-v * v - p.gamma, -2.0 * u * v))
                        } else {
                            (p.d2, (v * v, 2.0 * u * v - (p.gamma + p.kappa)))
                        };
                        for &(dx, dy, dz) in &Self::STENCIL {
                            let center = dx == 0 && dy == 0 && dz == 0;
                            let ju = g.idx_wrap(x + dx, y + dy, z + dz, 0);
                            let diffusion = if center { -6.0 * d * ih2 } else { d * ih2 };
                            let (to_u, to_v) = if center { reaction } else { (0.0, 0.0) };
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
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::{MatShape, Sell8};
    use sellkit_solvers::ksp::KspConfig;
    use sellkit_solvers::pc::JacobiPc;
    use sellkit_solvers::snes::NewtonConfig;
    use sellkit_solvers::ts::{ThetaConfig, ThetaStepper};

    #[test]
    fn fourteen_elements_per_row() {
        let gs = GrayScott3D::new(4, GrayScottParams::default());
        let w = gs.initial_condition(1);
        let j = gs.rhs_jacobian(0.0, &w);
        for i in 0..j.nrows() {
            assert_eq!(j.row_len(i), 14, "row {i}");
        }
        // 14 is not a multiple of 8: CSR always runs a 6-element
        // remainder loop; SELL-8 pads nothing on this uniform matrix.
        let sell = Sell8::from_csr(&j);
        assert_eq!(sell.padded_elems(), 0);
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let gs = GrayScott3D::new(3, GrayScottParams::default());
        let w = gs.initial_condition(5);
        let j = gs.rhs_jacobian(0.0, &w);
        let n = gs.dim();
        let eps = 1e-7;
        let mut f0 = vec![0.0; n];
        gs.rhs(0.0, &w, &mut f0);
        for col in [0usize, 1, n / 3, n - 1] {
            let mut wp = w.clone();
            wp[col] += eps;
            let mut fp = vec![0.0; n];
            gs.rhs(0.0, &wp, &mut fp);
            for row in 0..n {
                let fd = (fp[row] - f0[row]) / eps;
                let an = j.get(row, col).unwrap_or(0.0);
                assert!((fd - an).abs() < 1e-4 * (1.0 + an.abs()), "J[{row},{col}]");
            }
        }
    }

    #[test]
    fn steady_state_is_fixed_point() {
        let gs = GrayScott3D::new(4, GrayScottParams::default());
        let mut w = vec![0.0; gs.dim()];
        for i in (0..gs.dim()).step_by(2) {
            w[i] = 1.0;
        }
        let mut f = vec![0.0; gs.dim()];
        gs.rhs(0.0, &w, &mut f);
        assert!(f.iter().all(|v| v.abs() < 1e-14));
    }

    #[test]
    fn cn_step_runs_in_3d_with_sell() {
        let gs = GrayScott3D::new(6, GrayScottParams::default());
        let mut u = gs.initial_condition(2);
        let cfg = ThetaConfig {
            theta: 0.5,
            dt: 1.0,
            newton: NewtonConfig {
                rtol: 1e-8,
                ksp: KspConfig {
                    rtol: 1e-5,
                    ..Default::default()
                },
                ..Default::default()
            },
        };
        let mut ts = ThetaStepper::new(cfg);
        let res = ts.step::<Sell8, _, _>(&gs, &mut u, JacobiPc::from_csr);
        assert!(res.converged());
        assert!(u.iter().all(|v| v.is_finite()));
    }
}
