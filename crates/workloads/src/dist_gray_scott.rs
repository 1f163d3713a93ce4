//! Distributed Gray-Scott: the multinode application path of the paper's
//! §7.3 experiments, built the way real PETSc applications are —
//!
//! * each rank owns a contiguous block of unknowns;
//! * the stencil *halo* (the handful of remote values each rank's rows
//!   touch) is exchanged through a reusable [`VecScatter`] plan;
//! * each rank evaluates and assembles only its own rows, through the
//!   serial model's own row formulas ([`GrayScott`]) reading owned values
//!   and ghosts, so its rows carry the serial bits;
//! * a rank's share is an [`OdeProblem`], stepped by the serial
//!   `ThetaStepper` on the rank's Newton level —
//!   `ThetaStepper::run_on(RankRows::<M>::new(comm), ..)` — whose linear
//!   systems run the overlapped parallel MatMult.

use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use sellkit_core::Csr;
use sellkit_dist::{split_rows, VecScatter};
use sellkit_mpisim::Comm;
use sellkit_solvers::ts::OdeProblem;

use crate::gray_scott::{GrayScott, GrayScottParams};

/// Gray-Scott distributed over a communicator with a stencil-halo
/// exchange plan: one rank's rows, as an [`OdeProblem`] whose every
/// evaluation is collective.
pub struct DistGrayScott<'c> {
    comm: &'c Comm,
    gs: GrayScott,
    rows: Range<usize>,
    /// Remote unknown indices this rank's rows read, sorted ascending.
    garray: Vec<u32>,
    halo: VecScatter,
    /// The ghost values, one per `garray` entry: allocated once and
    /// overwritten by every exchange before it is read.  Behind a mutex so
    /// that `&self` stays enough to evaluate.
    ghost: Mutex<Vec<f64>>,
}

impl<'c> DistGrayScott<'c> {
    /// Builds the distributed problem on an `n × n` grid.  Collective: the
    /// halo scatter draws its tag from [`Comm::new_tag`].
    pub fn new(comm: &'c Comm, n: usize, params: GrayScottParams) -> Self {
        let gs = GrayScott::new(n, params);
        let dim = gs.grid().n_unknowns();
        let ranges = split_rows(dim, comm.size());
        let me = ranges[comm.rank()];
        let rows = me.start..me.end;

        // Every unknown a residual/Jacobian row of ours reads: both
        // components at the row's node and the row's stencil.
        let mut needed = std::collections::BTreeSet::new();
        for r in rows.clone() {
            let (c, stencil) = gs.stencil(r);
            needed.extend([r - c, r - c + 1]);
            needed.extend(stencil);
        }
        let garray: Vec<u32> = needed
            .into_iter()
            .filter(|g| !rows.contains(g))
            .map(|g| g as u32)
            .collect();
        let halo = VecScatter::build(comm, &ranges, &garray, comm.new_tag());
        Self {
            comm,
            gs,
            rows,
            ghost: Mutex::new(vec![0.0; garray.len()]),
            garray,
            halo,
        }
    }

    /// This rank's owned unknowns.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Number of halo (ghost) values exchanged per residual evaluation.
    pub fn halo_len(&self) -> usize {
        self.garray.len()
    }

    /// Fills the ghost buffer for the current local state.  A poisoned
    /// lock only says an earlier evaluation panicked half-way; the buffer
    /// is overwritten before it is read.
    fn exchange(&self, w_local: &[f64]) -> MutexGuard<'_, Vec<f64>> {
        let mut ghost = self.ghost.lock().unwrap_or_else(PoisonError::into_inner);
        let pending = self.halo.begin(self.comm, w_local, &mut ghost);
        self.halo.end(self.comm, pending, &mut ghost);
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

    /// Distributed initial condition: this rank's block of
    /// [`GrayScott::initial_condition`].
    pub fn initial_condition_local(&self, seed: u64) -> Vec<f64> {
        let full = self.gs.initial_condition(seed);
        full[self.rows.clone()].to_vec()
    }
}

/// This rank's rows of the serial model, bit for bit: `dim` is the owned
/// row count, `u` and `f` are owned blocks, the Jacobian holds the owned
/// rows with global columns, and [`OdeProblem::first_row`] is the first
/// owned row.  Every `rhs` and Jacobian evaluation is collective: one halo
/// exchange.
impl OdeProblem for DistGrayScott<'_> {
    fn dim(&self) -> usize {
        self.rows.len()
    }

    fn rhs(&self, _t: f64, w_local: &[f64], f_local: &mut [f64]) {
        let ghost = self.exchange(w_local);
        self.gs
            .rhs_rows(|g| self.at(g, w_local, &ghost), self.rows(), f_local);
    }

    fn rhs_jacobian(&self, t: f64, w_local: &[f64]) -> Csr {
        let mut j = Csr::zeros_with_pattern(0, 0, vec![0], Vec::new());
        self.rhs_jacobian_into(t, w_local, &mut j);
        j
    }

    /// Refills the pattern `j` holds as the serial model does
    /// (`GrayScott::jacobian_rows_into`), or rebuilds it.
    fn rhs_jacobian_into(&self, _t: f64, w_local: &[f64], j: &mut Csr) {
        let ghost = self.exchange(w_local);
        self.gs
            .jacobian_rows_into(|g| self.at(g, w_local, &ghost), self.rows(), j);
    }

    fn first_row(&self) -> usize {
        self.rows.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::{FromCsr, MatShape, Operator, Sell8};
    use sellkit_dist::RankRows;
    use sellkit_mpisim::run;
    use sellkit_solvers::ksp::KspConfig;
    use sellkit_solvers::pc::JacobiPc;
    use sellkit_solvers::snes::NewtonConfig;
    use sellkit_solvers::ts::{ThetaConfig, ThetaStepper};

    #[test]
    fn distributed_rhs_matches_sequential() {
        // Bit for bit: grid 10 (h² = 1/16) would not tell `/ h²` from
        // `· (1/h²)`, grid 12 does.
        for n in [10, 12, 24] {
            let out = run(4, move |comm| {
                let p = DistGrayScott::new(comm, n, GrayScottParams::default());
                let w_local = p.initial_condition_local(3);
                let mut f_local = vec![0.0; w_local.len()];
                p.rhs(0.0, &w_local, &mut f_local);
                (p.rows(), f_local)
            });
            let gs = GrayScott::new(n, GrayScottParams::default());
            let w = gs.initial_condition(3);
            let mut want = vec![0.0; gs.dim()];
            gs.rhs(0.0, &w, &mut want);
            for (rows, f) in out {
                for (li, g) in rows.enumerate() {
                    assert_eq!(
                        f[li].to_bits(),
                        want[g].to_bits(),
                        "grid {n}, row {g}: {} vs {}",
                        f[li],
                        want[g]
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_jacobian_matches_sequential() {
        let n = 8;
        let out = run(3, move |comm| {
            let p = DistGrayScott::new(comm, n, GrayScottParams::default());
            let w_local = p.initial_condition_local(7);
            (p.rows(), p.rhs_jacobian(0.0, &w_local))
        });
        let gs = GrayScott::new(n, GrayScottParams::default());
        let w = gs.initial_condition(7);
        let full = gs.rhs_jacobian(0.0, &w);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rows, j) in out {
            for (li, g) in rows.enumerate() {
                assert_eq!(j.row_cols(li), full.row_cols(g), "row {g}");
                assert_eq!(bits(j.row_vals(li)), bits(full.row_vals(g)), "row {g}");
            }
        }
    }

    /// The pattern, column indices and value bits of `j`.
    fn bits(j: &Csr) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
        let vals = j.values().iter().map(|v| v.to_bits()).collect();
        (j.rowptr().to_vec(), j.colidx().to_vec(), vals)
    }

    /// On 1–4 ranks, a rank's Jacobian equals the serial model's rows bit
    /// for bit: built into an empty matrix, refilled in place at a new
    /// state on the matrix the first call returned, and rebuilt whole from
    /// a foreign pattern (its rows with one column moved, or, on more than
    /// one rank, the serial matrix of every row).
    #[test]
    fn rank_jacobian_refill_equals_the_serial_rows() {
        let n = 8;
        let gs = GrayScott::new(n, GrayScottParams::default());
        let states = [gs.initial_condition(7), gs.initial_condition(8)];
        for ranks in 1..=4 {
            let (gs, states) = (gs.clone(), states.clone());
            run(ranks, move |comm| {
                let p = DistGrayScott::new(comm, n, GrayScottParams::default());
                let rows = p.rows();
                let want = |w: &[f64]| bits(&gs.jacobian_rows(|g| w[g], rows.clone()));
                let local = |w: &[f64]| w[rows.clone()].to_vec();

                let mut j = Csr::zeros_with_pattern(0, 0, vec![0], Vec::new());
                p.rhs_jacobian_into(0.0, &local(&states[0]), &mut j);
                assert_eq!(bits(&j), want(&states[0]), "{ranks} ranks: built");
                let (rowptr, colidx) = (j.rowptr().as_ptr(), j.colidx().as_ptr());
                p.rhs_jacobian_into(0.0, &local(&states[1]), &mut j);
                assert_eq!(bits(&j), want(&states[1]), "{ranks} ranks: refilled");
                assert_eq!(
                    (j.rowptr().as_ptr(), j.colidx().as_ptr()),
                    (rowptr, colidx),
                    "{ranks} ranks: refilled where it was"
                );

                // The first row's last column moved one to the right: same
                // entry count, columns still increasing, one position not
                // the stencil's.
                let mut colidx = j.colidx().to_vec();
                let last = j.rowptr()[1] - 1;
                colidx[last] += 1;
                assert!((colidx[last] as usize) < j.ncols());
                let moved = Csr::from_parts(
                    j.nrows(),
                    j.ncols(),
                    j.rowptr().to_vec(),
                    colidx,
                    j.values().to_vec(),
                );
                for mut foreign in [moved, gs.rhs_jacobian(0.0, &states[1])] {
                    p.rhs_jacobian_into(0.0, &local(&states[0]), &mut foreign);
                    assert_eq!(bits(&foreign), want(&states[0]), "{ranks} ranks: rebuilt");
                }
            });
        }
    }

    #[test]
    fn halo_is_small() {
        // A rank owning whole grid lines needs two remote lines of halo
        // (×2 components at the centers it reads... bounded well below
        // its own block size).
        let n = 16;
        let out = run(4, move |comm| {
            let p = DistGrayScott::new(comm, n, GrayScottParams::default());
            (p.rows().len(), p.halo_len())
        });
        for (own, halo) in out {
            assert!(halo < own, "halo {halo} must be smaller than owned {own}");
            assert!(halo > 0, "periodic stencil always needs remote values");
        }
    }

    /// Crank-Nicolson with the tolerances of the cross-checks below.
    fn cn() -> ThetaConfig {
        ThetaConfig {
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
        }
    }

    /// One step on 3 ranks against the serial step.  Ranks 1 and 2 own
    /// rows that do not start at 0: the shift `I − Δt·θ·J` lands on their
    /// diagonals only through [`OdeProblem::first_row`].
    #[test]
    fn distributed_cn_step_matches_sequential_cn_step() {
        let n = 8;
        // Sequential reference.
        let gs = GrayScott::new(n, GrayScottParams::default());
        let mut u_seq = gs.initial_condition(11);
        let mut ts = ThetaStepper::new(cn());
        let seq_res = ts.step::<Sell8, _, _>(&gs, &mut u_seq, JacobiPc::from_csr);
        assert!(seq_res.converged());

        let out = run(3, move |comm| {
            let p = DistGrayScott::new(comm, n, GrayScottParams::default());
            assert_eq!(p.first_row(), p.rows().start);
            let mut u_local = p.initial_condition_local(11);
            let mut ts = ThetaStepper::new(cn());
            let rows = RankRows::<Sell8>::new(comm);
            ts.run_on(rows, &p, &mut u_local, 1, JacobiPc::from_csr);
            (
                ts.stats()[0].newton_iterations,
                comm.allgather(u_local).concat(),
            )
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

    /// The global state bits after `runs` runs of `per_run` steps each, on
    /// `ranks` ranks in format `M`, a fresh stepper for each run.
    fn run_bits<M: Operator + FromCsr>(ranks: usize, per_run: usize, runs: usize) -> Vec<u64> {
        let out = run(ranks, move |comm| {
            let p = DistGrayScott::new(comm, 8, GrayScottParams::default());
            let mut u = p.initial_condition_local(5);
            for _ in 0..runs {
                let mut ts = ThetaStepper::new(cn());
                ts.run_on(
                    RankRows::<M>::new(comm),
                    &p,
                    &mut u,
                    per_run,
                    JacobiPc::from_csr,
                );
            }
            comm.allgather(u).concat()
        });
        out[0].iter().map(|v| v.to_bits()).collect()
    }

    /// A rank keeps its distributed matrix, block-Jacobi and Jacobian across
    /// the steps of a run, refreshing them in place: three steps in one run
    /// end on the bits of three one-step runs, each built from nothing.
    #[test]
    fn a_run_kept_across_steps_equals_fresh_steps() {
        for ranks in 1..=3 {
            assert_eq!(
                run_bits::<Csr>(ranks, 3, 1),
                run_bits::<Csr>(ranks, 1, 3),
                "{ranks} ranks, CSR"
            );
            assert_eq!(
                run_bits::<Sell8>(ranks, 3, 1),
                run_bits::<Sell8>(ranks, 1, 3),
                "{ranks} ranks, SELL-8"
            );
        }
    }
}
