//! Distributed Gray-Scott: the multinode application path of the paper's
//! §7.3 experiments, built the way real PETSc applications are —
//!
//! * each rank owns a contiguous block of unknowns;
//! * the stencil *halo* (the handful of remote values each rank's rows
//!   touch) is exchanged through a reusable [`VecScatter`] plan;
//! * each rank assembles only its own Jacobian rows;
//! * one implicit θ-step is a distributed Newton solve whose linear
//!   systems run the overlapped parallel MatMult.

use std::ops::Range;

use sellkit_core::{Csr, FromCsr, MatShape, Operator, RowAssembler};
use sellkit_dist::nonlinear::{dist_newton, DistNonlinearProblem};
use sellkit_dist::{split_rows, VecScatter};
use sellkit_mpisim::Comm;
use sellkit_solvers::pc::Precond;
use sellkit_solvers::snes::newton::{NewtonConfig, NewtonResult};

use crate::gray_scott::{GrayScott, GrayScottParams};

/// Gray-Scott distributed over a communicator with a stencil-halo
/// exchange plan.
pub struct DistGrayScott {
    gs: GrayScott,
    rows: Range<usize>,
    /// Remote unknown indices this rank's rows read, sorted ascending.
    garray: Vec<u32>,
    halo: VecScatter,
}

impl DistGrayScott {
    /// Builds the distributed problem on an `n × n` grid.  Collective;
    /// `tag` reserves the halo scatter's message tag.
    pub fn new(comm: &Comm, n: usize, params: GrayScottParams, tag: u64) -> Self {
        let gs = GrayScott::new(n, params);
        let dim = gs.grid().n_unknowns();
        let ranges = split_rows(dim, comm.size());
        let me = ranges[comm.rank()];
        let rows = me.start..me.end;

        // Every unknown a residual/Jacobian row of ours reads:
        // both components at the row's node, plus the same component at
        // the four stencil neighbours.
        let grid = *gs.grid();
        let mut needed = std::collections::BTreeSet::new();
        for r in rows.clone() {
            let (x, y, c) = grid.coords(r);
            let (x, y) = (x as isize, y as isize);
            needed.insert(grid.idx_wrap(x, y, 0));
            needed.insert(grid.idx_wrap(x, y, 1));
            for (dx, dy) in [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)] {
                needed.insert(grid.idx_wrap(x + dx, y + dy, c));
            }
        }
        let garray: Vec<u32> = needed
            .into_iter()
            .filter(|g| !rows.contains(g))
            .map(|g| g as u32)
            .collect();
        let halo = VecScatter::build(comm, &ranges, &garray, tag);
        Self {
            gs,
            rows,
            garray,
            halo,
        }
    }

    /// The underlying sequential model.
    pub fn model(&self) -> &GrayScott {
        &self.gs
    }

    /// This rank's owned unknowns.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Number of halo (ghost) values exchanged per residual evaluation.
    pub fn halo_len(&self) -> usize {
        self.garray.len()
    }

    /// Fills the ghost buffer for the current local state.
    fn exchange(&self, comm: &Comm, w_local: &[f64]) -> Vec<f64> {
        let mut ghost = vec![0.0; self.garray.len()];
        let pending = self.halo.begin(comm, w_local, &mut ghost);
        self.halo.end(comm, pending, &mut ghost);
        ghost
    }

    /// Looks up a global unknown from the local block or the ghost buffer.
    #[inline]
    fn at(&self, g: usize, w_local: &[f64], ghost: &[f64]) -> f64 {
        if self.rows.contains(&g) {
            w_local[g - self.rows.start]
        } else {
            let k = self
                .garray
                .binary_search(&(g as u32))
                .expect("halo covers all reads");
            ghost[k]
        }
    }

    /// Evaluates the owned block of the ODE right-hand side `f(w)`.
    /// Collective (one halo exchange).
    pub fn rhs_local(&self, comm: &Comm, w_local: &[f64], f_local: &mut [f64]) {
        let ghost = self.exchange(comm, w_local);
        let grid = *self.gs.grid();
        let p = self.params();
        let h = self.gs.spacing();
        let ih2 = 1.0 / (h * h);
        for (li, r) in self.rows.clone().enumerate() {
            let (x, y, c) = grid.coords(r);
            let (x, y) = (x as isize, y as isize);
            let u = self.at(grid.idx_wrap(x, y, 0), w_local, &ghost);
            let v = self.at(grid.idx_wrap(x, y, 1), w_local, &ghost);
            let center = self.at(grid.idx_wrap(x, y, c), w_local, &ghost);
            let nbsum = self.at(grid.idx_wrap(x - 1, y, c), w_local, &ghost)
                + self.at(grid.idx_wrap(x + 1, y, c), w_local, &ghost)
                + self.at(grid.idx_wrap(x, y - 1, c), w_local, &ghost)
                + self.at(grid.idx_wrap(x, y + 1, c), w_local, &ghost);
            let lap = (nbsum - 4.0 * center) * ih2;
            f_local[li] = if c == 0 {
                p.d1 * lap - u * v * v + p.gamma * (1.0 - u)
            } else {
                p.d2 * lap + u * v * v - (p.gamma + p.kappa) * v
            };
        }
    }

    /// Assembles the owned Jacobian rows (global columns).  Collective.
    pub fn local_jacobian(&self, comm: &Comm, w_local: &[f64]) -> Csr {
        let ghost = self.exchange(comm, w_local);
        let grid = *self.gs.grid();
        let nl = self.rows.len();
        let mut b = RowAssembler::with_capacity(nl, grid.n_unknowns(), 10 * nl);
        for r in self.rows.clone() {
            let (x, y, c) = grid.coords(r);
            let (x, y) = (x as isize, y as isize);
            let u = self.at(grid.idx_wrap(x, y, 0), w_local, &ghost);
            let v = self.at(grid.idx_wrap(x, y, 1), w_local, &ghost);
            self.gs.jacobian_row(x, y, c, u, v, &mut b);
        }
        b.finish()
    }

    fn params(&self) -> &GrayScottParams {
        self.gs.params()
    }
}

impl DistGrayScott {
    /// Distributed initial condition: this rank's block of
    /// [`GrayScott::initial_condition`].
    pub fn initial_condition_local(&self, seed: u64) -> Vec<f64> {
        let full = self.gs.initial_condition(seed);
        full[self.rows.clone()].to_vec()
    }
}

/// One implicit θ-stage as a distributed nonlinear system.
struct DistThetaStage<'a> {
    problem: &'a DistGrayScott,
    /// `uₙ + Δt(1−θ)·f(uₙ)`, owned block.
    explicit: Vec<f64>,
    dt_theta: f64,
}

impl DistNonlinearProblem for DistThetaStage<'_> {
    fn global_dim(&self) -> usize {
        self.problem.gs.grid().n_unknowns()
    }
    fn local_rows(&self, _comm: &Comm) -> Range<usize> {
        self.problem.rows()
    }
    fn residual(&self, comm: &Comm, x_local: &[f64], f_local: &mut [f64]) {
        self.problem.rhs_local(comm, x_local, f_local);
        for i in 0..x_local.len() {
            f_local[i] = x_local[i] - self.explicit[i] - self.dt_theta * f_local[i];
        }
    }
    fn local_jacobian(&self, comm: &Comm, x_local: &[f64]) -> Csr {
        let jf = self.problem.local_jacobian(comm, x_local);
        // Local rows of I − Δt·θ·J_f: add 1 on the global diagonal.
        let nl = jf.nrows();
        let start = self.problem.rows().start;
        let mut b = RowAssembler::with_capacity(nl, jf.ncols(), jf.nnz() + nl);
        for li in 0..nl {
            b.push(start + li, 1.0);
            for (&c, &v) in jf.row_cols(li).iter().zip(jf.row_vals(li)) {
                b.push(c as usize, -self.dt_theta * v);
            }
            b.end_row();
        }
        b.finish()
    }
}

/// Advances one distributed θ-step in place; the linear solves run their
/// SpMVs in format `M` through the overlapped parallel MatMult.
pub fn dist_theta_step<M, Pc>(
    comm: &Comm,
    problem: &DistGrayScott,
    u_local: &mut [f64],
    t: f64,
    dt: f64,
    theta: f64,
    cfg: &NewtonConfig,
    tag_base: u64,
    pc_factory: impl Fn(&Csr) -> Pc,
) -> NewtonResult
where
    M: Operator + FromCsr,
    Pc: Precond,
{
    let _ = t; // autonomous system
    let nl = u_local.len();
    let mut explicit = u_local.to_vec();
    if theta < 1.0 {
        let mut fexp = vec![0.0; nl];
        problem.rhs_local(comm, u_local, &mut fexp);
        for i in 0..nl {
            explicit[i] += dt * (1.0 - theta) * fexp[i];
        }
    }
    let stage = DistThetaStage {
        problem,
        explicit,
        dt_theta: dt * theta,
    };
    dist_newton::<M, _, _>(comm, &stage, u_local, cfg, tag_base, pc_factory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::Sell8;
    use sellkit_mpisim::run;
    use sellkit_solvers::ksp::KspConfig;
    use sellkit_solvers::pc::JacobiPc;
    use sellkit_solvers::ts::{OdeProblem, ThetaConfig, ThetaStepper};

    #[test]
    fn distributed_rhs_matches_sequential() {
        let n = 10;
        let out = run(4, move |comm| {
            let p = DistGrayScott::new(comm, n, GrayScottParams::default(), 50);
            let w_local = p.initial_condition_local(3);
            let mut f_local = vec![0.0; w_local.len()];
            p.rhs_local(comm, &w_local, &mut f_local);
            (p.rows(), f_local)
        });
        let gs = GrayScott::new(n, GrayScottParams::default());
        let w = gs.initial_condition(3);
        let mut want = vec![0.0; gs.dim()];
        gs.rhs(0.0, &w, &mut want);
        for (rows, f) in out {
            for (li, g) in rows.enumerate() {
                assert!((f[li] - want[g]).abs() < 1e-13, "row {g}");
            }
        }
    }

    #[test]
    fn distributed_jacobian_matches_sequential() {
        let n = 8;
        let out = run(3, move |comm| {
            let p = DistGrayScott::new(comm, n, GrayScottParams::default(), 60);
            let w_local = p.initial_condition_local(7);
            (p.rows(), p.local_jacobian(comm, &w_local))
        });
        let gs = GrayScott::new(n, GrayScottParams::default());
        let w = gs.initial_condition(7);
        let full = gs.rhs_jacobian(0.0, &w);
        for (rows, j) in out {
            for (li, g) in rows.enumerate() {
                assert_eq!(j.row_cols(li), full.row_cols(g), "row {g}");
                for (k, v) in j.row_vals(li).iter().enumerate() {
                    assert!((v - full.row_vals(g)[k]).abs() < 1e-13);
                }
            }
        }
    }

    #[test]
    fn halo_is_small() {
        // A rank owning whole grid lines needs two remote lines of halo
        // (×2 components at the centers it reads... bounded well below
        // its own block size).
        let n = 16;
        let out = run(4, move |comm| {
            let p = DistGrayScott::new(comm, n, GrayScottParams::default(), 70);
            (p.rows().len(), p.halo_len())
        });
        for (own, halo) in out {
            assert!(halo < own, "halo {halo} must be smaller than owned {own}");
            assert!(halo > 0, "periodic stencil always needs remote values");
        }
    }

    #[test]
    fn distributed_cn_step_matches_sequential_cn_step() {
        let n = 8;
        // Sequential reference.
        let gs = GrayScott::new(n, GrayScottParams::default());
        let mut u_seq = gs.initial_condition(11);
        let cfg = ThetaConfig {
            theta: 0.5,
            dt: 1.0,
            newton: NewtonConfig {
                rtol: 1e-10,
                ksp: KspConfig {
                    rtol: 1e-8,
                    ..Default::default()
                },
                ..Default::default()
            },
        };
        let mut ts = ThetaStepper::new(cfg);
        let seq_res = ts.step::<Sell8, _, _>(&gs, &mut u_seq, JacobiPc::from_csr);
        assert!(seq_res.converged());

        let out = run(3, move |comm| {
            let p = DistGrayScott::new(comm, n, GrayScottParams::default(), 80);
            let mut u_local = p.initial_condition_local(11);
            let res = dist_theta_step::<Sell8, _>(
                comm,
                &p,
                &mut u_local,
                0.0,
                1.0,
                0.5,
                &NewtonConfig {
                    rtol: 1e-10,
                    ksp: KspConfig {
                        rtol: 1e-8,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                500,
                JacobiPc::from_csr,
            );
            assert!(res.converged(), "{:?}", res.reason);
            (res.iterations, comm.allgather(u_local).concat())
        });
        for (its, u) in out {
            assert_eq!(its, seq_res.iterations, "same Newton trajectory");
            for i in 0..u.len() {
                assert!(
                    (u[i] - u_seq[i]).abs() < 1e-8,
                    "dof {i}: {} vs {}",
                    u[i],
                    u_seq[i]
                );
            }
        }
    }
}
