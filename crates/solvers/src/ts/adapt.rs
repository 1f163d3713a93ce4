//! Adaptive step-size control for the θ-scheme (PETSc `TSAdapt`'s "basic"
//! controller), via step-doubling error estimation.
//!
//! The paper integrates with a *fixed* Δt = 1; this extension adds the
//! production-grade control loop: advance with one full step and two half
//! steps, estimate the local error from their difference (Richardson), and
//! grow/shrink Δt with a safety-factored power law.

use sellkit_core::{Csr, ExecCtx, FromCsr, Operator as CoreOperator};

use crate::pc::Precond;
use crate::snes::newton::{newton_kept, LinearSolve, NewtonConfig};
use crate::ts::theta::{theta_step_over, OdeProblem, ThetaConfig};
use crate::vecops;

/// Adaptive controller configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdaptConfig {
    /// Local-error tolerance per unit step (mixed absolute/relative).
    pub tol: f64,
    /// Smallest allowed Δt (an error below forces acceptance).
    pub dt_min: f64,
    /// Largest allowed Δt.
    pub dt_max: f64,
    /// Safety factor applied to the optimal step (PETSc uses 0.9).
    pub safety: f64,
    /// Max growth per accepted step (avoid dt oscillation).
    pub max_growth: f64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            tol: 1e-4,
            dt_min: 1e-10,
            dt_max: 10.0,
            safety: 0.9,
            max_growth: 3.0,
        }
    }
}

/// One accepted adaptive step's record.
#[derive(Clone, Copy, Debug)]
pub struct AdaptStep {
    /// Time at the *end* of the step.
    pub t: f64,
    /// Step size used.
    pub dt: f64,
    /// Estimated local error.
    pub error: f64,
    /// Rejected attempts before acceptance.
    pub rejections: usize,
}

/// Adaptive θ-scheme integrator: an attempt is one full and two half θ-steps.
pub struct AdaptiveTheta {
    theta: f64,
    newton: NewtonConfig,
    adapt: AdaptConfig,
    t: f64,
    dt: f64,
    accepted: Vec<AdaptStep>,
}

impl AdaptiveTheta {
    /// Creates the controller with initial step `dt0`.
    pub fn new(theta: f64, newton: NewtonConfig, adapt: AdaptConfig, dt0: f64) -> Self {
        assert!(dt0 > 0.0 && dt0 <= adapt.dt_max);
        Self {
            theta,
            newton,
            adapt,
            t: 0.0,
            dt: dt0,
            accepted: Vec::new(),
        }
    }

    /// Current time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Current step size.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Accepted-step history.
    pub fn history(&self) -> &[AdaptStep] {
        &self.accepted
    }

    /// Order of the underlying scheme (2 for CN, 1 otherwise).
    fn order(&self) -> f64 {
        if (self.theta - 0.5).abs() < 1e-14 {
            2.0
        } else {
            1.0
        }
    }

    /// Advances one *accepted* step (possibly after internal rejections),
    /// returning its record.  `u` is updated with the more accurate
    /// two-half-steps solution (local extrapolation is not applied,
    /// matching PETSc's default).
    pub fn step<M, P, Pc>(
        &mut self,
        ode: &P,
        u: &mut [f64],
        pc_factory: impl Fn(&Csr) -> Pc,
    ) -> AdaptStep
    where
        M: CoreOperator + FromCsr,
        P: OdeProblem,
        Pc: Precond,
    {
        self.step_kept::<M, _, _>(ode, u, &mut LinearSolve::default(), &pc_factory)
    }

    /// [`AdaptiveTheta::step`] on a linear-solve context the caller keeps.
    fn step_kept<M, P, Pc>(
        &mut self,
        ode: &P,
        u: &mut [f64],
        kept: &mut LinearSolve<M, Pc>,
        pc_factory: &impl Fn(&Csr) -> Pc,
    ) -> AdaptStep
    where
        M: CoreOperator + FromCsr,
        P: OdeProblem,
        Pc: Precond,
    {
        assert_eq!(u.len(), ode.dim());
        let p = self.order();
        let mut rejections = 0usize;
        let serial = ExecCtx::serial();
        loop {
            let dt = self.dt;
            // `u` advanced by `dt` in `pieces` steps; false if Newton failed.
            let mut advance = |u: &mut [f64], pieces: usize| {
                let cfg = ThetaConfig {
                    theta: self.theta,
                    dt: dt / pieces as f64,
                    newton: self.newton,
                };
                (0..pieces).all(|s| {
                    let t = self.t + s as f64 * cfg.dt;
                    let rhs = |t, u: &[f64], f: &mut [f64]| ode.rhs(t, u, f);
                    let jac = |t, u: &[f64]| ode.rhs_jacobian(t, u);
                    theta_step_over(&cfg, t, 0, u, rhs, jac, |stage, u| {
                        newton_kept::<M, _, _>(stage, u, &cfg.newton, &serial, kept, pc_factory)
                    })
                    .converged()
                })
            };
            let mut u_full = u.to_vec();
            let mut u_half = u.to_vec();
            let ok_full = advance(&mut u_full, 1);
            let ok_half = advance(&mut u_half, 2);
            if !(ok_full && ok_half) {
                // Nonlinear failure: halve and retry (PETSc's response).
                self.dt = (self.dt / 2.0).max(self.adapt.dt_min);
                rejections += 1;
                assert!(
                    self.dt > self.adapt.dt_min || rejections < 50,
                    "adaptive stepper cannot make progress"
                );
                continue;
            }
            // Richardson estimate: err ≈ ‖u_h − u_h/2‖ / (2^p − 1).
            let mut diff = u_full.clone();
            vecops::axpy(-1.0, &u_half, &mut diff);
            let scale = 1.0 + vecops::norm_inf(&u_half);
            let error = vecops::norm2(&diff) / ((2f64).powf(p) - 1.0) / scale;

            let accept = error <= self.adapt.tol || dt <= self.adapt.dt_min * 1.0001;
            // Optimal next step from the error power law.
            let factor = if error > 0.0 {
                self.adapt.safety * (self.adapt.tol / error).powf(1.0 / (p + 1.0))
            } else {
                self.adapt.max_growth
            };
            let next_dt = (dt * factor.clamp(0.1, self.adapt.max_growth))
                .clamp(self.adapt.dt_min, self.adapt.dt_max);

            if accept {
                u.copy_from_slice(&u_half);
                self.t += dt;
                self.dt = next_dt;
                let rec = AdaptStep {
                    t: self.t,
                    dt,
                    error,
                    rejections,
                };
                self.accepted.push(rec);
                return rec;
            }
            self.dt = next_dt;
            rejections += 1;
        }
    }

    /// Integrates until `t_end` (the final step is clipped to land on it),
    /// on one operator and one preconditioner, as `ThetaStepper::run` does.
    pub fn run_until<M, P, Pc>(
        &mut self,
        ode: &P,
        u: &mut [f64],
        t_end: f64,
        pc_factory: impl Fn(&Csr) -> Pc,
    ) where
        M: CoreOperator + FromCsr,
        P: OdeProblem,
        Pc: Precond,
    {
        let mut kept = LinearSolve::default();
        while self.t < t_end - 1e-12 {
            if self.t + self.dt > t_end {
                self.dt = t_end - self.t;
            }
            self.step_kept::<M, _, _>(ode, u, &mut kept, &pc_factory);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pc::JacobiPc;
    use sellkit_core::CooBuilder;
    use std::cell::Cell;

    /// Stiff-ish decay with a known solution.
    struct Decay {
        lambda: f64,
    }

    impl OdeProblem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, u: &[f64], f: &mut [f64]) {
            f[0] = self.lambda * u[0];
        }
        fn rhs_jacobian(&self, _t: f64, _u: &[f64]) -> Csr {
            let mut b = CooBuilder::new(1, 1);
            b.push(0, 0, self.lambda);
            b.to_csr()
        }
    }

    #[test]
    fn error_is_controlled() {
        let ode = Decay { lambda: -2.0 };
        let mut u = vec![1.0];
        let mut ts = AdaptiveTheta::new(
            0.5,
            NewtonConfig {
                rtol: 1e-12,
                ..Default::default()
            },
            AdaptConfig {
                tol: 1e-6,
                ..Default::default()
            },
            0.5,
        );
        ts.run_until::<Csr, _, _>(&ode, &mut u, 1.0, JacobiPc::from_csr);
        let exact = (-2.0f64).exp();
        assert!(
            (u[0] - exact).abs() < 1e-4,
            "controlled error: {} vs {}",
            u[0],
            exact
        );
        assert!((ts.time() - 1.0).abs() < 1e-10);
        assert!(ts
            .history()
            .iter()
            .all(|s| s.error <= 1e-6 * 1.001 || s.dt <= 1e-10));
    }

    #[test]
    fn dt_grows_when_dynamics_relax() {
        // Slow dynamics: after a few steps the controller should be taking
        // much larger steps than it started with.
        let ode = Decay { lambda: -0.01 };
        let mut u = vec![1.0];
        let mut ts = AdaptiveTheta::new(
            0.5,
            NewtonConfig {
                rtol: 1e-12,
                ..Default::default()
            },
            AdaptConfig {
                tol: 1e-5,
                dt_max: 50.0,
                ..Default::default()
            },
            0.01,
        );
        for _ in 0..8 {
            ts.step::<Csr, _, _>(&ode, &mut u, JacobiPc::from_csr);
        }
        assert!(ts.dt() > 0.1, "dt should have grown: {}", ts.dt());
    }

    #[test]
    fn tight_tolerance_takes_more_steps() {
        let count_steps = |tol: f64| {
            let ode = Decay { lambda: -3.0 };
            let mut u = vec![1.0];
            let mut ts = AdaptiveTheta::new(
                0.5,
                NewtonConfig {
                    rtol: 1e-12,
                    ..Default::default()
                },
                AdaptConfig {
                    tol,
                    ..Default::default()
                },
                0.2,
            );
            ts.run_until::<Csr, _, _>(&ode, &mut u, 2.0, JacobiPc::from_csr);
            ts.history().len()
        };
        let loose = count_steps(1e-3);
        let tight = count_steps(1e-7);
        assert!(tight > loose, "tight {tight} !> loose {loose}");
    }

    /// The identity, kept for any matrix: a preconditioner that always
    /// refreshes.
    struct Refreshing;

    impl Precond for Refreshing {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            z.copy_from_slice(r);
        }
        fn refresh(&mut self, _a: &Csr) -> bool {
            true
        }
    }

    #[test]
    fn run_until_builds_one_preconditioner() {
        let builds = Cell::new(0);
        let factory = |_: &Csr| {
            builds.set(builds.get() + 1);
            Refreshing
        };
        let mut u = vec![1.0];
        let mut ts = AdaptiveTheta::new(
            0.5,
            NewtonConfig {
                rtol: 1e-12,
                ..Default::default()
            },
            AdaptConfig {
                tol: 1e-6,
                ..Default::default()
            },
            0.5,
        );
        ts.run_until::<Csr, _, _>(&Decay { lambda: -2.0 }, &mut u, 1.0, factory);
        assert!(ts.history().len() > 1, "{:?}", ts.history());
        assert_eq!(builds.get(), 1, "one build per run_until");
        ts.step::<Csr, _, _>(&Decay { lambda: -2.0 }, &mut u, factory);
        assert_eq!(builds.get(), 2, "and one per step");
    }
}
