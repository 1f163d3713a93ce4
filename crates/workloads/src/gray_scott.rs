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

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sellkit_core::{Csr, MatShape, RowAssembler};
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
    /// `1/h²`, the diffusion stencil's scale in the Jacobian.
    ih2: f64,
}

impl GrayScott {
    /// Creates the system on an `n × n` periodic grid (dof = 2).
    pub fn new(n: usize, params: GrayScottParams) -> Self {
        let grid = Grid2D::new(n, n, 2);
        let h = params.length / n as f64;
        Self {
            grid,
            params,
            h,
            ih2: 1.0 / (h * h),
        }
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

    /// `row`'s component `c` and its 5-point stencil: the rows of component
    /// `c` at its node and at `x−1, x+1, y−1, y+1`, wrapped periodically.
    #[inline]
    pub(crate) fn stencil(&self, row: usize) -> (usize, [usize; 5]) {
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        // dof = 2: `row` is `2·(y·nx + x) + c`.
        let (c, node) = (row % 2, row / 2);
        let (x, y) = (node % nx, node / nx);
        let left = if x == 0 { nx - 1 } else { x - 1 };
        let right = if x + 1 == nx { 0 } else { x + 1 };
        let down = if y == 0 { ny - 1 } else { y - 1 };
        let up = if y + 1 == ny { 0 } else { y + 1 };
        let at = |x: usize, y: usize| 2 * (y * nx + x) + c;
        (c, [row, at(left, y), at(right, y), at(x, down), at(x, up)])
    }

    /// The rows `rows` of `f(w)`, the state read through `at(global index)`:
    /// `|g| w[g]` for [`OdeProblem::rhs`], owned values and ghosts for
    /// [`DistGrayScott::rhs_local`](crate::DistGrayScott::rhs_local).
    #[inline]
    pub(crate) fn rhs_rows(&self, at: impl Fn(usize) -> f64, rows: Range<usize>, f: &mut [f64]) {
        assert_eq!(f.len(), rows.len());
        let p = &self.params;
        for (fr, row) in f.iter_mut().zip(rows) {
            let (c, [_, left, right, down, up]) = self.stencil(row);
            let iu = row - c;
            let (u, v) = (at(iu), at(iu + 1));
            let uvv = u * v * v;
            let center = at(row);
            let sum = at(left) + at(right) + at(down) + at(up);
            let lap = (sum - 4.0 * center) / (self.h * self.h);
            *fr = if c == 0 {
                p.d1 * lap - uvv + p.gamma * (1.0 - u)
            } else {
                p.d2 * lap + uvv - (p.gamma + p.kappa) * v
            };
        }
    }

    /// Row `row` of the Jacobian at the state read through `at`: the row's
    /// component `c`, its stencil (as [`GrayScott::stencil`]), and the values
    /// of the 2×2 block row it holds at each stencil point — at the columns
    /// of that point's `u` and `v` — first for the centre, then the one every
    /// off-centre point shares.  Diffusion couples a component only to
    /// itself, and the reaction only the centre's two components.
    #[inline]
    fn jacobian_row(
        &self,
        at: impl Fn(usize) -> f64,
        row: usize,
    ) -> (usize, [usize; 5], [(f64, f64); 2]) {
        let p = &self.params;
        let ih2 = self.ih2;
        let (c, stencil) = self.stencil(row);
        let iu = row - c;
        let (u, v) = (at(iu), at(iu + 1));
        // The row's diffusion coefficient and its half of the reaction
        // block.
        let (d, reaction) = if c == 0 {
            (p.d1, (-v * v - p.gamma, -2.0 * u * v))
        } else {
            (p.d2, (v * v, 2.0 * u * v - (p.gamma + p.kappa)))
        };
        let block = |diffusion: f64, (to_u, to_v): (f64, f64)| {
            if c == 0 {
                (diffusion + to_u, to_v)
            } else {
                (to_u, diffusion + to_v)
            }
        };
        let center = block(-4.0 * d * ih2, reaction);
        let off = block(d * ih2, (0.0, 0.0));
        (c, stencil, [center, off])
    }

    /// Assembles the Jacobian rows `rows` (global columns), reading the
    /// state through `at` as [`GrayScott::rhs_rows`] does.  Each row holds
    /// the full 2×2 blocks at the 5 stencil points, as PETSc's blocked
    /// preallocation stores them: off-center blocks are diagonal (explicit
    /// zeros across components), so every row has 10 elements (§7: "the
    /// matrix consists of small 2 × 2 blocks. Each row has 10 elements").
    #[inline]
    pub(crate) fn jacobian_rows(&self, at: impl Fn(usize) -> f64, rows: Range<usize>) -> Csr {
        let n = self.grid.n_unknowns();
        assert!(rows.end <= n);
        let mut b = RowAssembler::with_capacity(rows.len(), n, 10 * rows.len());
        for row in rows {
            let (c, stencil, [center, off]) = self.jacobian_row(&at, row);
            for (k, point) in stencil.into_iter().enumerate() {
                let (to_u, to_v) = if k == 0 { center } else { off };
                let ju = point - c;
                b.push(ju, to_u);
                b.push(ju + 1, to_v);
            }
            b.end_row();
        }
        b.finish()
    }

    /// Writes the Jacobian rows `rows` (global columns) into the values of
    /// `j`, in the order of the pattern `j` stores — no assembly, no sort.
    /// Returns `false` at the first position that is not the one
    /// [`GrayScott::jacobian_rows`] would store (the values before it are
    /// already overwritten, so the caller rebuilds).
    ///
    /// Every row must hold 10 columns in five pairs `(2·m, 2·m + 1)`, each
    /// `m` a node of the row's stencil.  A `Csr` row's columns strictly
    /// increase, so five such pairs are five distinct stencil nodes: all of
    /// them, in ascending order, which is the pattern the assembler stores.
    /// On a grid of fewer than 3 nodes a side the periodic neighbours
    /// coincide, no row can pass, and the caller rebuilds.
    fn fill_jacobian_rows(
        &self,
        at: impl Fn(usize) -> f64,
        rows: Range<usize>,
        j: &mut Csr,
    ) -> bool {
        if (j.nrows(), j.ncols()) != (rows.len(), self.grid.n_unknowns()) {
            return false;
        }
        let (rowptr, colidx, vals) = j.pattern_and_values_mut();
        for (i, row) in rows.enumerate() {
            let (lo, hi) = (rowptr[i], rowptr[i + 1]);
            if hi - lo != 10 {
                return false;
            }
            let (c, stencil, [center, off]) = self.jacobian_row(&at, row);
            let [center_u, neighbours @ ..] = stencil.map(|point| point - c);
            for k in (lo..hi).step_by(2) {
                let ju = colidx[k] as usize;
                let (to_u, to_v) = if ju == center_u {
                    center
                } else if neighbours.contains(&ju) {
                    off
                } else {
                    return false;
                };
                if colidx[k + 1] as usize != ju + 1 {
                    return false;
                }
                vals[k] = to_u;
                vals[k + 1] = to_v;
            }
        }
        true
    }

    /// Makes `j` the Jacobian rows `rows` at the state read through `at`:
    /// writes the values into the pattern `j` holds when it is the
    /// Jacobian's own — every column checked, see
    /// [`GrayScott::fill_jacobian_rows`] — and rebuilds `j` otherwise, so a
    /// foreign pattern is replaced whole, never half-written.  Afterwards `j`
    /// equals [`GrayScott::jacobian_rows`] in every stored bit.
    pub(crate) fn jacobian_rows_into(
        &self,
        at: impl Fn(usize) -> f64,
        rows: Range<usize>,
        j: &mut Csr,
    ) {
        if !self.fill_jacobian_rows(&at, rows.clone(), j) {
            *j = self.jacobian_rows(at, rows);
        }
    }

    /// Assembles only the Jacobian rows in `rows` (half-open global row
    /// range), with **global** column indices — the block each MPI rank
    /// builds for [`DistMat::from_local_rows`] without ever forming the
    /// global matrix (how real PETSc applications assemble).
    ///
    /// [`DistMat::from_local_rows`]: ../../sellkit_dist/dmat/struct.DistMat.html
    pub fn rhs_jacobian_rows(&self, _t: f64, w: &[f64], rows: Range<usize>) -> Csr {
        self.jacobian_rows(|g| w[g], rows)
    }
}

impl OdeProblem for GrayScott {
    fn dim(&self) -> usize {
        self.grid.n_unknowns()
    }

    fn rhs(&self, _t: f64, w: &[f64], f: &mut [f64]) {
        self.rhs_rows(|g| w[g], 0..self.dim(), f);
    }

    fn rhs_jacobian(&self, t: f64, w: &[f64]) -> Csr {
        self.rhs_jacobian_rows(t, w, 0..self.dim())
    }

    /// Refills the pattern `j` holds when it is the Jacobian's own and
    /// rebuilds `j` otherwise (`GrayScott::jacobian_rows_into`).
    fn rhs_jacobian_into(&self, _t: f64, w: &[f64], j: &mut Csr) {
        self.jacobian_rows_into(|g| w[g], 0..self.dim(), j);
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

    fn bits(j: &Csr) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
        let vals = j.values().iter().map(|v| v.to_bits()).collect();
        (j.rowptr().to_vec(), j.colidx().to_vec(), vals)
    }

    /// A kept Jacobian refilled at another state is the Jacobian assembled
    /// there, bit for bit: grids from the smallest with distinct periodic
    /// neighbours up, states with stored zeros (`v = 0`) and without.
    #[test]
    fn refilled_jacobian_equals_the_assembled_one() {
        for n in [3, 4, 7, 16] {
            let gs = GrayScott::new(n, GrayScottParams::default());
            let mut kept = gs.rhs_jacobian(0.0, &gs.initial_condition(1));
            let states = [
                gs.initial_condition(2),
                vec![0.3; gs.dim()],
                (0..gs.dim()).map(|i| (i as f64 * 0.37).sin()).collect(),
            ];
            for w in &states {
                let (rowptr, colidx) = (kept.rowptr().as_ptr(), kept.colidx().as_ptr());
                gs.rhs_jacobian_into(0.0, w, &mut kept);
                assert_eq!(bits(&kept), bits(&gs.rhs_jacobian(0.0, w)), "grid {n}");
                assert_eq!(
                    (kept.rowptr().as_ptr(), kept.colidx().as_ptr()),
                    (rowptr, colidx),
                    "grid {n}: refilled where it was"
                );
            }
        }
    }

    /// Whatever the kept matrix is — another grid's, one whose rows hold
    /// fewer than 10 entries because periodic neighbours coincide (grid 2),
    /// or the right one with a single column moved — the call rebuilds and
    /// ends equal to the assembled Jacobian.
    #[test]
    fn a_foreign_pattern_is_rebuilt_not_refilled() {
        let gs2 = GrayScott::new(2, GrayScottParams::default());
        let w2 = gs2.initial_condition(3);
        let j2 = gs2.rhs_jacobian(0.0, &w2);
        assert!((0..j2.nrows()).all(|i| j2.row_len(i) < 10));
        let mut kept = j2.clone();
        gs2.rhs_jacobian_into(0.0, &vec![0.7; gs2.dim()], &mut kept);
        assert_eq!(
            bits(&kept),
            bits(&gs2.rhs_jacobian(0.0, &vec![0.7; gs2.dim()]))
        );

        let gs = GrayScott::new(6, GrayScottParams::default());
        let w = gs.initial_condition(4);
        let want = bits(&gs.rhs_jacobian(0.0, &w));
        let j = gs.rhs_jacobian(0.0, &gs.initial_condition(5));
        // Row 5's last column moved one to the right: same entry count,
        // columns still increasing, one position not the stencil's.
        let mut colidx = j.colidx().to_vec();
        let last = j.rowptr()[6] - 1;
        colidx[last] += 1;
        let moved = Csr::from_parts(
            j.nrows(),
            j.ncols(),
            j.rowptr().to_vec(),
            colidx,
            j.values().to_vec(),
        );
        let empty = Csr::zeros_with_pattern(0, 0, vec![0], Vec::new());
        for mut kept in [moved, empty, j2] {
            gs.rhs_jacobian_into(0.0, &w, &mut kept);
            assert_eq!(bits(&kept), want);
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
