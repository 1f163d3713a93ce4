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
//! iteration").

use sellkit_core::{Csr, FromCsr, Operator as CoreOperator};

use crate::pc::Precond;
use crate::snes::newton::{newton_kept, LinearSolve, NewtonConfig, NewtonResult, NonlinearProblem};

/// An autonomous-or-not ODE system `du/dt = f(t, u)` with Jacobian.
pub trait OdeProblem {
    /// Number of unknowns.
    fn dim(&self) -> usize;
    /// Evaluates `f(t, u)`.
    fn rhs(&self, t: f64, u: &[f64], f: &mut [f64]);
    /// Assembles `∂f/∂u (t, u)` in CSR.
    fn rhs_jacobian(&self, t: f64, u: &[f64]) -> Csr;
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
}

/// The per-step nonlinear system handed to Newton.
struct StageProblem<'a, P: OdeProblem> {
    ode: &'a P,
    /// Explicit part: `uₙ + Δt(1−θ)·f(tₙ, uₙ)`, precomputed.
    explicit: Vec<f64>,
    t_next: f64,
    dt_theta: f64,
}

impl<P: OdeProblem> NonlinearProblem for StageProblem<'_, P> {
    fn dim(&self) -> usize {
        self.ode.dim()
    }

    fn residual(&self, u: &[f64], g: &mut [f64]) {
        self.ode.rhs(self.t_next, u, g);
        for i in 0..u.len() {
            g[i] = u[i] - self.explicit[i] - self.dt_theta * g[i];
        }
    }

    fn jacobian(&self, u: &[f64]) -> Csr {
        // G' = I − Δt·θ·J_f.
        let jf = self.ode.rhs_jacobian(self.t_next, u);
        sellkit_core::matops::identity_plus_scaled_owned(1.0, -self.dt_theta, jf)
    }
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
    /// format `M`.  Returns the Newton result for the step.  `pc_factory`
    /// is called when there is nothing to refresh — see
    /// [`ThetaStepper::step_ctx`].
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
        self.step_ctx::<M, _, _>(ode, u, &sellkit_core::ExecCtx::serial(), pc_factory)
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
    /// step's first Newton iteration builds the operator and the
    /// preconditioner, every later one re-does only their numeric set-up
    /// ([`Precond::refresh`], [`FromCsr::set_from_csr`]) as long as the
    /// Jacobian keeps its pattern.  The pair lives as long as the call that
    /// names its types — this step here, the whole trajectory in
    /// [`ThetaStepper::run`] — so a new preconditioner configuration takes
    /// effect with the next call.
    pub fn step_ctx<M, P, Pc>(
        &mut self,
        ode: &P,
        u: &mut [f64],
        ctx: &sellkit_core::ExecCtx,
        pc_factory: impl Fn(&Csr) -> Pc,
    ) -> NewtonResult
    where
        M: CoreOperator + FromCsr,
        P: OdeProblem,
        Pc: Precond,
    {
        self.step_kept::<M, _, _>(ode, u, ctx, &mut LinearSolve::default(), &pc_factory)
    }

    /// [`ThetaStepper::step_ctx`] with the linear-solve context owned by the
    /// caller, who may hand the same one to the next step.
    pub(crate) fn step_kept<M, P, Pc>(
        &mut self,
        ode: &P,
        u: &mut [f64],
        ctx: &sellkit_core::ExecCtx,
        kept: &mut LinearSolve<M, Pc>,
        pc_factory: &impl Fn(&Csr) -> Pc,
    ) -> NewtonResult
    where
        M: CoreOperator + FromCsr,
        P: OdeProblem,
        Pc: Precond,
    {
        let _ts = sellkit_obs::span("TSStep");
        let n = ode.dim();
        assert_eq!(u.len(), n);
        let dt = self.cfg.dt;
        let theta = self.cfg.theta;

        // Explicit part, evaluated once per step.
        let mut fexp = vec![0.0; n];
        let mut explicit = u.to_vec();
        if theta < 1.0 {
            ode.rhs(self.t, u, &mut fexp);
            for i in 0..n {
                explicit[i] += dt * (1.0 - theta) * fexp[i];
            }
        }

        let stage = StageProblem {
            ode,
            explicit,
            t_next: self.t + dt,
            dt_theta: dt * theta,
        };
        let res = newton_kept::<M, _, _>(&stage, u, &self.cfg.newton, ctx, kept, pc_factory);

        self.t += dt;
        self.steps_taken += 1;
        self.stats.push(StepStats {
            newton_iterations: res.iterations,
            linear_iterations: res.linear_iterations,
            fnorm: res.fnorm,
        });
        res
    }

    /// Runs `nsteps` steps; panics if any Newton solve fails to converge.
    /// One operator and one preconditioner serve the whole run: after the
    /// first Newton iteration of the first step, `pc_factory` is called
    /// again only if the Jacobian's pattern changes.
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
        let serial = sellkit_core::ExecCtx::serial();
        let mut kept = LinearSolve::default();
        for s in 0..nsteps {
            let res = self.step_kept::<M, _, _>(ode, u, &serial, &mut kept, &pc_factory);
            assert!(
                res.converged(),
                "Newton failed at step {s} (t = {}): {:?}, ‖F‖ = {}",
                self.t,
                res.reason,
                res.fnorm
            );
        }
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

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn invalid_theta_rejected() {
        ThetaStepper::new(ThetaConfig {
            theta: 1.5,
            ..Default::default()
        });
    }
}
