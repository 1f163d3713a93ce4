//! A periodic reaction–diffusion ring as a nonlinear problem, serial and
//! distributed: the fixture of the root-level tests that compare the two
//! Newton paths (`#[path = "common/ring.rs"] mod ring;`).

use std::ops::Range;

use sellkit::core::{CooBuilder, Csr};
use sellkit::dist::{split_rows, DistNonlinearProblem};
use sellkit::mpisim::Comm;
use sellkit::solvers::snes::newton::NonlinearProblem;

/// Periodic reaction–diffusion ring, `Fᵢ = 2xᵢ − xᵢ₋₁ − xᵢ₊₁ + xᵢ³ − gᵢ`:
/// serial through [`NonlinearProblem`], distributed (every rank gathers the
/// whole state — a test-scale halo) through [`DistNonlinearProblem`].  `g`
/// is a rational pattern, so no bit of a solve depends on the host's libm.
pub struct Ring {
    g: Vec<f64>,
}

impl Ring {
    pub fn new(n: usize) -> Self {
        Self {
            g: (0..n).map(|i| 0.8 + ((i * 7) % 11) as f64 * 0.05).collect(),
        }
    }
    pub fn rows_of(&self, comm: &Comm) -> Range<usize> {
        let r = split_rows(self.g.len(), comm.size())[comm.rank()];
        r.start..r.end
    }
    fn residual_rows(&self, x: &[f64], rows: Range<usize>, f: &mut [f64]) {
        let n = self.g.len();
        for (li, i) in rows.enumerate() {
            let (prev, next) = (x[(i + n - 1) % n], x[(i + 1) % n]);
            f[li] = 2.0 * x[i] - prev - next + x[i] * x[i] * x[i] - self.g[i];
        }
    }
    fn jacobian_rows(&self, x: &[f64], rows: Range<usize>) -> Csr {
        let n = self.g.len();
        let mut b = CooBuilder::new(rows.len(), n);
        for (li, i) in rows.enumerate() {
            b.push(li, i, 2.0 + 3.0 * x[i] * x[i]);
            b.push(li, (i + n - 1) % n, -1.0);
            b.push(li, (i + 1) % n, -1.0);
        }
        b.to_csr()
    }
}

impl NonlinearProblem for Ring {
    fn dim(&self) -> usize {
        self.g.len()
    }
    fn residual(&self, x: &[f64], f: &mut [f64]) {
        self.residual_rows(x, 0..x.len(), f);
    }
    fn jacobian(&self, x: &[f64]) -> Csr {
        self.jacobian_rows(x, 0..x.len())
    }
}

impl DistNonlinearProblem for Ring {
    fn global_dim(&self) -> usize {
        self.g.len()
    }
    fn local_rows(&self, comm: &Comm) -> Range<usize> {
        self.rows_of(comm)
    }
    fn residual(&self, comm: &Comm, x_local: &[f64], f_local: &mut [f64]) {
        let x = comm.allgather(x_local.to_vec()).concat();
        self.residual_rows(&x, self.rows_of(comm), f_local);
    }
    fn local_jacobian(&self, comm: &Comm, x_local: &[f64]) -> Csr {
        let x = comm.allgather(x_local.to_vec()).concat();
        self.jacobian_rows(&x, self.rows_of(comm))
    }
}
