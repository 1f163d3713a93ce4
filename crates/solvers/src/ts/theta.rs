//! θ-scheme timestepping: backward Euler (θ = 1) and Crank-Nicolson
//! (θ = ½ — the scheme of the paper's Gray-Scott runs, "Crank-Nicolson
//! scheme with a fixed step size of 1", §7).
//!
//! Each implicit step solves the nonlinear system
//!
//! ```text
//! G(u) = u − uₙ − Δt·[θ·f(tₙ₊₁, u) + (1−θ)·f(tₙ, uₙ)] = 0
//! ```
//!
//! with Newton's method; the Newton Jacobian is `I − Δt·θ·J_f`, re-assembled
//! at every Newton iteration because the reaction term couples the unknowns
//! nonlinearly (§7: "the Jacobian matrix needs to be updated at each Newton
//! iteration") — into the matrix the previous iteration left, when the
//! problem can refill it ([`OdeProblem::rhs_jacobian_into`]), and shifted
//! there in place.
//!
//! One θ-step serves every caller, over whatever rows the [`OdeProblem`]
//! holds: all of them, or one rank's block ([`OdeProblem::first_row`]).
//! One rank and many differ only in the Newton [`Fine`] level the stepper
//! runs on ([`ThetaStepper::run_on`]).

use sellkit_core::{matops, Csr, ExecCtx, FromCsr, Operator as CoreOperator};

use crate::pc::Precond;
use crate::snes::newton::{
    newton_kept, Fine, LinearSolve, NewtonConfig, NewtonResult, NonlinearProblem, Suspended,
};

/// An autonomous-or-not ODE system `du/dt = f(t, u)` with Jacobian.
pub trait OdeProblem {
    /// Number of unknowns.
    fn dim(&self) -> usize;
    /// Evaluates `f(t, u)`.
    fn rhs(&self, t: f64, u: &[f64], f: &mut [f64]);
    /// Assembles `∂f/∂u (t, u)` in CSR.
    fn rhs_jacobian(&self, t: f64, u: &[f64]) -> Csr;

    /// Makes `j` the matrix [`rhs_jacobian`](Self::rhs_jacobian)`(t, u)`,
    /// bit for bit, whatever it held before.  The θ-step calls this with the
    /// matrix of its previous Newton iteration — `I − Δt·θ·J_f`, the
    /// pattern of `J_f` when that stores every diagonal — so a problem that
    /// writes its values into a pattern it recognises assembles without
    /// allocating.  The default rebuilds; an override must check the
    /// pattern it is handed and rebuild when it is not its own, so that it
    /// never writes a wrong matrix or leaves one half-written.
    fn rhs_jacobian_into(&self, t: f64, u: &[f64], j: &mut Csr) {
        *j = self.rhs_jacobian(t, u);
    }

    /// Global index of the problem's first row.  A problem that holds one
    /// rank's block of a larger system evaluates `f` and assembles `∂f/∂u`
    /// for its rows only, with global column indices; row `i`'s diagonal
    /// is then column `first_row() + i`, which is where the θ-step shifts
    /// it.  0, the default, is a problem that holds every row.
    fn first_row(&self) -> usize {
        0
    }
}

/// θ-method configuration.
#[derive(Clone, Copy, Debug)]
pub struct ThetaConfig {
    /// θ = ½ is Crank-Nicolson, θ = 1 is backward Euler.
    pub theta: f64,
    /// Fixed step size (the paper uses Δt = 1).
    pub dt: f64,
    /// Newton settings for the per-step nonlinear solve.
    pub newton: NewtonConfig,
}

impl Default for ThetaConfig {
    fn default() -> Self {
        Self {
            theta: 0.5,
            dt: 1.0,
            newton: NewtonConfig::default(),
        }
    }
}

/// Per-step solver statistics (the quantities the paper profiles).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Newton iterations in this step.
    pub newton_iterations: usize,
    /// Linear (GMRES) iterations in this step.
    pub linear_iterations: usize,
    /// Final nonlinear residual norm.
    pub fnorm: f64,
}

/// The θ-scheme integrator.
///
/// Each step is a `TSStep` span; inside it every [`OdeProblem::rhs`] call is
/// a `TSFunctionEval` and every [`OdeProblem::rhs_jacobian_into`] a
/// `TSJacobianEval` (PETSc's event names).
///
/// The stepper owns its Newton Jacobian and its preconditioner from one
/// call to the next, as a PETSc `TS` keeps its `KSP` and `PC` across
/// `TSStep`s: only its first step builds them (see
/// [`ThetaStepper::step_ctx`]).
///
/// ```
/// use sellkit_core::{CooBuilder, Csr};
/// use sellkit_solvers::pc::JacobiPc;
/// use sellkit_solvers::ts::{OdeProblem, ThetaConfig, ThetaStepper};
///
/// struct Decay;
/// impl OdeProblem for Decay {
///     fn dim(&self) -> usize { 1 }
///     fn rhs(&self, _t: f64, u: &[f64], f: &mut [f64]) { f[0] = -u[0]; }
///     fn rhs_jacobian(&self, _t: f64, _u: &[f64]) -> Csr {
///         let mut b = CooBuilder::new(1, 1);
///         b.push(0, 0, -1.0);
///         b.to_csr()
///     }
/// }
///
/// let mut u = vec![1.0];
/// let mut ts = ThetaStepper::new(ThetaConfig { theta: 0.5, dt: 0.1, ..Default::default() });
/// ts.run::<Csr, _, _>(&Decay, &mut u, 10, JacobiPc::from_csr);
/// assert!((u[0] - (-1.0f64).exp()).abs() < 1e-3); // e^{-1} after t = 1
/// ```
pub struct ThetaStepper {
    cfg: ThetaConfig,
    t: f64,
    steps_taken: usize,
    stats: Vec<StepStats>,
    /// The Jacobian and the preconditioner the last call left.
    held: Suspended,
}

/// The implicit stage of a θ-step: `G(u) = u − explicit − Δt·θ·f(tₙ₊₁,
/// u)` and `G' = I − Δt·θ·J_f`, each `f` in a `TSFunctionEval` span and
/// each `J_f` in a `TSJacobianEval`.  `G'` is written into the matrix it is
/// handed ([`NonlinearProblem::jacobian_into`]): `J_f` refilled there, then
/// shifted in place ([`matops::identity_plus_scaled_rows_in_place`]).
pub(crate) struct ThetaStage<'p, P> {
    ode: &'p P,
    /// Explicit part: `uₙ + Δt(1−θ)·f(tₙ, uₙ)`, precomputed.
    explicit: Vec<f64>,
    t_next: f64,
    dt_theta: f64,
}

impl<P: OdeProblem> NonlinearProblem for ThetaStage<'_, P> {
    fn dim(&self) -> usize {
        self.explicit.len()
    }

    fn residual(&self, u: &[f64], g: &mut [f64]) {
        {
            let _fe = sellkit_obs::span("TSFunctionEval");
            self.ode.rhs(self.t_next, u, g);
        }
        for i in 0..u.len() {
            g[i] = u[i] - self.explicit[i] - self.dt_theta * g[i];
        }
    }

    fn jacobian(&self, u: &[f64]) -> Csr {
        // Nothing to refill yet: an empty matrix, which no pattern matches.
        let mut j = Csr::zeros_with_pattern(0, 0, vec![0], Vec::new());
        self.jacobian_into(u, &mut j);
        j
    }

    fn jacobian_into(&self, u: &[f64], j: &mut Csr) {
        {
            let _je = sellkit_obs::span("TSJacobianEval");
            self.ode.rhs_jacobian_into(self.t_next, u, j);
        }
        matops::identity_plus_scaled_rows_in_place(1.0, -self.dt_theta, j, self.ode.first_row());
    }
}

/// One θ-step of `cfg.dt` from time `t` over the rows `ode` holds: the one
/// θ-step of the fixed-step and the adaptive integrators, on one rank or
/// many.  `solve(stage, u)` solves the stage from `u = uₙ` in place.
pub(crate) fn theta_step<P: OdeProblem, R>(
    cfg: &ThetaConfig,
    t: f64,
    ode: &P,
    u: &mut [f64],
    solve: impl FnOnce(&ThetaStage<'_, P>, &mut [f64]) -> R,
) -> R {
    let _ts = sellkit_obs::span("TSStep");
    let (dt, theta) = (cfg.dt, cfg.theta);
    let mut explicit = u.to_vec();
    if theta < 1.0 {
        let mut fexp = vec![0.0; u.len()];
        {
            let _fe = sellkit_obs::span("TSFunctionEval");
            ode.rhs(t, u, &mut fexp);
        }
        for (e, f) in explicit.iter_mut().zip(&fexp) {
            *e += dt * (1.0 - theta) * f;
        }
    }
    let stage = ThetaStage {
        ode,
        explicit,
        t_next: t + dt,
        dt_theta: dt * theta,
    };
    solve(&stage, u)
}

impl ThetaStepper {
    /// Creates a stepper starting at `t = 0`.
    pub fn new(cfg: ThetaConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.theta), "theta must be in [0, 1]");
        assert!(
            cfg.theta > 0.0,
            "explicit Euler (theta = 0) is not an implicit solve"
        );
        assert!(cfg.dt > 0.0);
        Self {
            cfg,
            t: 0.0,
            steps_taken: 0,
            stats: Vec::new(),
            held: Suspended::default(),
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Per-step statistics.
    pub fn stats(&self) -> &[StepStats] {
        &self.stats
    }

    /// Advances one step in place, running every linear-solve SpMV in
    /// format `M` (or in the format of the fine operator the
    /// preconditioner shares, [`Precond::operator`]).  Returns the Newton
    /// result for the step.  `pc_factory` is called when there is nothing
    /// to refresh — see [`ThetaStepper::step_ctx`].
    pub fn step<M, P, Pc>(
        &mut self,
        ode: &P,
        u: &mut [f64],
        pc_factory: impl Fn(&Csr) -> Pc,
    ) -> NewtonResult
    where
        M: CoreOperator + FromCsr,
        P: OdeProblem,
        Pc: Precond,
    {
        self.step_ctx::<M, _, _>(ode, u, &ExecCtx::serial(), pc_factory)
    }

    /// [`ThetaStepper::step`] with the Newton systems' SpMVs and
    /// preconditioner applies dispatched on `ctx`'s worker pool.
    ///
    /// What that covers: every Jacobian MatMult of GMRES, and whatever the
    /// preconditioner's [`Precond::apply_ctx`] puts on the pool —
    /// [`JacobiPc`](crate::pc::JacobiPc) its scaling,
    /// [`Multigrid`](crate::pc::Multigrid) every MatMult, restriction and
    /// prolongation of the V-cycle; a preconditioner that does not override
    /// `apply_ctx` runs on the calling thread.  Assembly, the
    /// preconditioner set-up, GMRES's Gram-Schmidt and the smoothers'
    /// element-wise loops are serial.  The iterates are bitwise those of
    /// [`ThetaStepper::step`] for any pool size.
    ///
    /// **`pc_factory` is called when there is nothing to refresh**: the
    /// first Newton iteration of the stepper's first step assembles the
    /// Jacobian and builds the preconditioner, every later one — in this
    /// step and in the steps after it — writes into what the stepper holds:
    /// the Jacobian refilled and shifted in place
    /// ([`OdeProblem::rhs_jacobian_into`]), the preconditioner's numeric
    /// set-up re-done, as long as the Jacobian keeps its pattern: in full
    /// ([`Precond::refresh`]) on each step's first Newton iteration, for the
    /// fine level alone ([`Precond::refresh_fine`]) on the later ones, so a
    /// [`Multigrid`](crate::pc::Multigrid) keeps the coarse levels of the
    /// step's first iteration through the step.  GMRES applies the
    /// preconditioner's own fine operator when it holds one
    /// ([`Precond::operator`]; a
    /// [`Multigrid<M>`](crate::pc::Multigrid)'s level 0 is the same
    /// conversion of the same matrix, so the iterates are those of a
    /// private copy); only for one that does not is the Jacobian converted
    /// to `M` as well ([`FromCsr::set_from_csr`]).
    ///
    /// **The pair lives as long as the stepper.**  Between calls the stepper
    /// keeps the Jacobian, and the preconditioner where that can be kept
    /// ([`Precond::into_kept`]: a `Multigrid` can, a preconditioner that may
    /// borrow or a wrapper that does not forward the hook cannot, and is
    /// built once per call).  A call with another `M` or `Pc` than the last
    /// one, or a Jacobian of another pattern, builds anew; the iterates do
    /// not depend on which path set the solve up (a build equals the full
    /// refresh every step starts with).  The preconditioner belongs to the
    /// stepper, so a new preconditioner configuration needs a new stepper.
    pub fn step_ctx<M, P, Pc>(
        &mut self,
        ode: &P,
        u: &mut [f64],
        ctx: &ExecCtx,
        pc_factory: impl Fn(&Csr) -> Pc,
    ) -> NewtonResult
    where
        M: CoreOperator + FromCsr,
        P: OdeProblem,
        Pc: Precond,
    {
        let mut kept = LinearSolve::resume(std::mem::take(&mut self.held), None::<M>);
        let res = self.step_kept(ode, u, ctx, &mut kept, &pc_factory);
        self.held = kept.suspend();
        res
    }

    /// [`ThetaStepper::step_ctx`] on a linear-solve context the caller has
    /// resumed and will suspend.
    fn step_kept<F, P, Pc>(
        &mut self,
        ode: &P,
        u: &mut [f64],
        ctx: &ExecCtx,
        kept: &mut LinearSolve<F, Pc>,
        pc_factory: &impl Fn(&Csr) -> Pc,
    ) -> NewtonResult
    where
        F: Fine,
        P: OdeProblem,
        Pc: Precond,
    {
        assert_eq!(u.len(), ode.dim());
        let res = theta_step(&self.cfg, self.t, ode, u, |stage, u| {
            newton_kept(stage, u, &self.cfg.newton, ctx, kept, pc_factory)
        });
        self.t += self.cfg.dt;
        self.steps_taken += 1;
        self.stats.push(StepStats {
            newton_iterations: res.iterations,
            linear_iterations: res.linear_iterations,
            fnorm: res.fnorm,
        });
        res
    }

    /// Runs `nsteps` steps; panics if any Newton solve fails to converge.
    /// One operator and one preconditioner serve the whole run — and the
    /// steps after it, as in [`ThetaStepper::step_ctx`]: `pc_factory` is
    /// called only if the stepper holds no preconditioner of type `Pc` or
    /// the Jacobian's pattern changes.  Inside the run the pair stays typed,
    /// so even a preconditioner that cannot be kept between calls is built
    /// once for the whole run.
    pub fn run<M, P, Pc>(
        &mut self,
        ode: &P,
        u: &mut [f64],
        nsteps: usize,
        pc_factory: impl Fn(&Csr) -> Pc,
    ) where
        M: CoreOperator + FromCsr,
        P: OdeProblem,
        Pc: Precond,
    {
        self.run_on(None::<M>, ode, u, nsteps, pc_factory);
    }

    /// [`ThetaStepper::run`] on the Newton fine level `fine`, as
    /// [`newton_on`](crate::snes::newton::newton_on) is
    /// [`newton`](crate::snes::newton::newton) on one: the entry a rank
    /// takes, with `sellkit-dist`'s `RankRows` over an `ode` that holds the
    /// rank's rows ([`OdeProblem::first_row`]).  `fine` and whatever it
    /// builds — on a rank, the distributed matrix and its scatter — live
    /// for the run, so the steps share one set-up as the serial ones do,
    /// and are dropped when it ends; the Jacobian, and the preconditioner
    /// if it can be kept, stay with the stepper as after
    /// [`ThetaStepper::run`].
    pub fn run_on<F, P, Pc>(
        &mut self,
        fine: F,
        ode: &P,
        u: &mut [f64],
        nsteps: usize,
        pc_factory: impl Fn(&Csr) -> Pc,
    ) where
        F: Fine,
        P: OdeProblem,
        Pc: Precond,
    {
        let serial = ExecCtx::serial();
        let mut kept = LinearSolve::resume(std::mem::take(&mut self.held), fine);
        for s in 0..nsteps {
            let res = self.step_kept(ode, u, &serial, &mut kept, &pc_factory);
            assert!(
                res.converged(),
                "Newton failed at step {s} (t = {}): {:?}, ‖F‖ = {}",
                self.t,
                res.reason,
                res.fnorm
            );
        }
        self.held = kept.suspend();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pc::JacobiPc;
    use sellkit_core::{CooBuilder, Sell8};

    /// du/dt = λu with exact solution e^{λt}.
    struct LinearDecay {
        lambda: f64,
        n: usize,
    }

    impl OdeProblem for LinearDecay {
        fn dim(&self) -> usize {
            self.n
        }
        fn rhs(&self, _t: f64, u: &[f64], f: &mut [f64]) {
            for i in 0..self.n {
                f[i] = self.lambda * u[i];
            }
        }
        fn rhs_jacobian(&self, _t: f64, _u: &[f64]) -> Csr {
            let mut b = CooBuilder::new(self.n, self.n);
            for i in 0..self.n {
                b.push(i, i, self.lambda);
            }
            b.to_csr()
        }
    }

    /// Logistic equation du/dt = u(1-u): nonlinear, Jacobian depends on u.
    struct Logistic;

    impl OdeProblem for Logistic {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, u: &[f64], f: &mut [f64]) {
            f[0] = u[0] * (1.0 - u[0]);
        }
        fn rhs_jacobian(&self, _t: f64, u: &[f64]) -> Csr {
            let mut b = CooBuilder::new(1, 1);
            b.push(0, 0, 1.0 - 2.0 * u[0]);
            b.to_csr()
        }
    }

    #[test]
    fn crank_nicolson_is_second_order() {
        // Halving dt must reduce the error ~4x.
        let ode = LinearDecay { lambda: -1.0, n: 3 };
        let t_end = 1.0;
        let exact = (-1.0f64).exp();
        let mut errs = Vec::new();
        for steps in [10usize, 20, 40] {
            let mut u = vec![1.0; 3];
            let cfg = ThetaConfig {
                theta: 0.5,
                dt: t_end / steps as f64,
                newton: NewtonConfig {
                    rtol: 1e-13,
                    ..Default::default()
                },
            };
            let mut ts = ThetaStepper::new(cfg);
            ts.run::<Csr, _, _>(&ode, &mut u, steps, JacobiPc::from_csr);
            errs.push((u[0] - exact).abs());
        }
        let rate1 = errs[0] / errs[1];
        let rate2 = errs[1] / errs[2];
        assert!(rate1 > 3.5 && rate1 < 4.5, "CN order-2: rate {rate1}");
        assert!(rate2 > 3.5 && rate2 < 4.5, "CN order-2: rate {rate2}");
    }

    #[test]
    fn backward_euler_is_first_order() {
        let ode = LinearDecay { lambda: -1.0, n: 1 };
        let exact = (-1.0f64).exp();
        let mut errs = Vec::new();
        for steps in [20usize, 40] {
            let mut u = vec![1.0];
            let cfg = ThetaConfig {
                theta: 1.0,
                dt: 1.0 / steps as f64,
                newton: NewtonConfig {
                    rtol: 1e-13,
                    ..Default::default()
                },
            };
            let mut ts = ThetaStepper::new(cfg);
            ts.run::<Csr, _, _>(&ode, &mut u, steps, JacobiPc::from_csr);
            errs.push((u[0] - exact).abs());
        }
        let rate = errs[0] / errs[1];
        assert!(rate > 1.7 && rate < 2.3, "BE order-1: rate {rate}");
    }

    #[test]
    fn nonlinear_step_converges_and_tracks_logistic() {
        let mut u = vec![0.1];
        let cfg = ThetaConfig {
            theta: 0.5,
            dt: 0.1,
            newton: NewtonConfig {
                rtol: 1e-12,
                ..Default::default()
            },
        };
        let mut ts = ThetaStepper::new(cfg);
        ts.run::<Csr, _, _>(&Logistic, &mut u, 100, JacobiPc::from_csr);
        // At t = 10 the logistic solution is ~1.
        assert!((u[0] - 1.0).abs() < 1e-3, "u = {}", u[0]);
        assert_eq!(ts.steps_taken(), 100);
        assert!((ts.time() - 10.0).abs() < 1e-12);
        assert!(ts.stats().iter().all(|s| s.newton_iterations >= 1));
    }

    #[test]
    fn sell_and_csr_trajectories_match() {
        let ode = LinearDecay {
            lambda: -0.3,
            n: 16,
        };
        let cfg = ThetaConfig {
            theta: 0.5,
            dt: 0.25,
            ..Default::default()
        };
        let mut u1 = vec![1.0; 16];
        let mut u2 = vec![1.0; 16];
        let mut t1 = ThetaStepper::new(cfg);
        let mut t2 = ThetaStepper::new(cfg);
        t1.run::<Csr, _, _>(&ode, &mut u1, 8, JacobiPc::from_csr);
        t2.run::<Sell8, _, _>(&ode, &mut u2, 8, JacobiPc::from_csr);
        for i in 0..16 {
            assert!((u1[i] - u2[i]).abs() < 1e-12, "row {i}");
        }
    }

    /// The kept preconditioner is held as a `Kept` that lists the auto
    /// traits: a stepper is as shareable between threads and across
    /// unwinding as it was before it kept one.
    #[test]
    fn steppers_keep_the_auto_traits() {
        use std::panic::{RefUnwindSafe, UnwindSafe};
        fn check<T: Send + Sync + Unpin + UnwindSafe + RefUnwindSafe>() {}
        check::<ThetaStepper>();
        check::<crate::ts::AdaptiveTheta>();
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn invalid_theta_rejected() {
        ThetaStepper::new(ThetaConfig {
            theta: 1.5,
            ..Default::default()
        });
    }
}
