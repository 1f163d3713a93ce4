//! Newton's method with line search (PETSc `SNESNEWTONLS`).
//!
//! Each iteration assembles the Jacobian in CSR (the assembly format),
//! converts it to the experiment's matrix format `M` (SELL or CSR — §7:
//! "the Jacobian evaluation and its multiplication with input vectors
//! dominate the simulation"), and solves the Newton system with GMRES.

use sellkit_core::{Csr, ExecCtx, FromCsr, Operator as CoreOperator};

use crate::ksp::{gmres, KspConfig, KspResult};
use crate::operator::{CtxMatOperator, InnerProduct, SeqDot};
use crate::pc::{CtxPrecond, Precond};
use crate::vecops;

use super::line_search::LineSearch;

/// A nonlinear system `F(x) = 0` with an analytic Jacobian.
pub trait NonlinearProblem {
    /// Number of unknowns.
    fn dim(&self) -> usize;
    /// Evaluates `f = F(x)`.
    fn residual(&self, x: &[f64], f: &mut [f64]);
    /// Assembles the Jacobian `∂F/∂x` at `x` in CSR.
    fn jacobian(&self, x: &[f64]) -> Csr;
}

/// Newton configuration.
#[derive(Clone, Copy, Debug)]
pub struct NewtonConfig {
    /// Absolute tolerance on `‖F‖`.
    pub atol: f64,
    /// Relative tolerance on `‖F‖ / ‖F₀‖`.
    pub rtol: f64,
    /// Maximum Newton iterations.
    pub max_it: usize,
    /// Inner linear-solver settings.
    pub ksp: KspConfig,
    /// Globalization strategy.
    pub line_search: LineSearch,
    /// Inner-tolerance strategy: fixed `ksp.rtol`, or Eisenstat-Walker
    /// adaptive forcing (loose early, tight near the root — saves the
    /// GMRES iterations that dominate runtime, §7).
    pub forcing: Forcing,
}

/// How the inner linear tolerance is chosen each Newton iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Forcing {
    /// Use `ksp.rtol` unchanged every iteration.
    Fixed,
    /// Eisenstat-Walker choice 2: `η_k = γ·(‖F_k‖/‖F_{k−1}‖)^α`, clamped
    /// to `[eta_min, eta_max]` (PETSc `SNESKSPSetUseEW`).
    EisenstatWalker {
        /// Scaling γ (default 0.9).
        gamma: f64,
        /// Exponent α (default 2).
        alpha: f64,
        /// Lower clamp for the forcing term.
        eta_min: f64,
        /// Upper clamp for the forcing term.
        eta_max: f64,
    },
}

impl Forcing {
    /// The PETSc-like default Eisenstat-Walker parameters.
    pub fn eisenstat_walker() -> Self {
        Forcing::EisenstatWalker {
            gamma: 0.9,
            alpha: 2.0,
            eta_min: 1e-8,
            eta_max: 0.5,
        }
    }

    fn eta(&self, base: f64, fnorm: f64, fnorm_prev: Option<f64>) -> f64 {
        match *self {
            Forcing::Fixed => base,
            Forcing::EisenstatWalker {
                gamma,
                alpha,
                eta_min,
                eta_max,
            } => match fnorm_prev {
                None => eta_max, // first iteration: loose
                Some(prev) if prev > 0.0 => {
                    (gamma * (fnorm / prev).powf(alpha)).clamp(eta_min, eta_max)
                }
                Some(_) => eta_min,
            },
        }
    }
}

impl Default for NewtonConfig {
    fn default() -> Self {
        Self {
            atol: 1e-50,
            rtol: 1e-8,
            max_it: 50,
            ksp: KspConfig {
                rtol: 1e-5,
                ..Default::default()
            },
            line_search: LineSearch::Full,
            forcing: Forcing::Fixed,
        }
    }
}

/// Why Newton stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NewtonStopReason {
    /// `‖F‖ ≤ atol`.
    AbsoluteTolerance,
    /// `‖F‖ ≤ rtol · ‖F₀‖`.
    RelativeTolerance,
    /// Iteration limit reached.
    MaxIterations,
    /// Line search found no acceptable step.
    LineSearchFailed,
}

/// Outcome of a Newton solve.
#[derive(Clone, Debug)]
pub struct NewtonResult {
    /// Newton iterations performed.
    pub iterations: usize,
    /// Final `‖F‖`.
    pub fnorm: f64,
    /// Stop reason.
    pub reason: NewtonStopReason,
    /// Total linear iterations across all Newton steps.
    pub linear_iterations: usize,
    /// `‖F‖` after each Newton iteration (starting with the initial one).
    pub history: Vec<f64>,
}

impl NewtonResult {
    /// Whether the nonlinear solve converged.
    pub fn converged(&self) -> bool {
        matches!(
            self.reason,
            NewtonStopReason::AbsoluteTolerance | NewtonStopReason::RelativeTolerance
        )
    }
}

/// What a Newton loop carries from one linearisation to the next: the
/// Jacobian in the solve's format `M` and the preconditioner (PETSc's `KSP`
/// with its operators set).  Whoever owns it decides how long set-up work
/// lives — [`newton_ctx`] keeps one for a solve, the θ-stepper's `run` for
/// a whole trajectory.
pub(crate) struct LinearSolve<M, Pc> {
    op: Option<M>,
    pc: Option<Pc>,
}

impl<M, Pc> Default for LinearSolve<M, Pc> {
    fn default() -> Self {
        Self { op: None, pc: None }
    }
}

impl<M: FromCsr, Pc: Precond> LinearSolve<M, Pc> {
    /// Makes both halves serve the Jacobian `j`: the preconditioner through
    /// [`pc::set_up`](crate::pc::set_up) (`pc_factory` is consulted only
    /// when there is nothing to refresh), the operator through
    /// [`FromCsr::set_from_csr`].
    fn set_up(&mut self, j: &Csr, pc_factory: &impl Fn(&Csr) -> Pc) -> (&M, &Pc) {
        let pc = crate::pc::set_up(&mut self.pc, j, pc_factory);
        let _s = sellkit_obs::span("MatConvert");
        match &mut self.op {
            Some(op) => op.set_from_csr(j),
            None => self.op = Some(M::from_csr(j)),
        }
        (self.op.as_ref().expect("set just above"), pc)
    }
}

/// Solves `F(x) = 0` by Newton-GMRES with the Jacobian applied in format
/// `M`; `pc_factory` builds the preconditioner from the first assembled
/// Jacobian (see `newton_ctx` for when it is called again).
pub fn newton<M, Prob, Pc>(
    problem: &Prob,
    x: &mut [f64],
    cfg: &NewtonConfig,
    pc_factory: impl Fn(&Csr) -> Pc,
) -> NewtonResult
where
    M: CoreOperator + FromCsr,
    Prob: NonlinearProblem,
    Pc: Precond,
{
    newton_ctx::<M, _, _>(problem, x, cfg, &ExecCtx::serial(), pc_factory)
}

/// [`newton`] with every Jacobian application and preconditioner apply
/// dispatched on `ctx`'s worker pool.  The SpMV determinism contract
/// makes the iterates bitwise identical to the serial [`newton`] for any
/// thread count.
///
/// The operator and the preconditioner live for the whole solve.  Each
/// iteration the preconditioner is asked to [`Precond::refresh`] itself for
/// the new Jacobian and the operator to take its values
/// ([`FromCsr::set_from_csr`]); **`pc_factory` is called when there is
/// nothing to refresh** — on the first iteration, when the Jacobian's
/// pattern changed, or when the preconditioner has no value-only set-up.
/// A refreshed preconditioner equals a rebuilt one bit for bit, so the
/// iterates do not depend on which path was taken.
pub(crate) fn newton_ctx<M, Prob, Pc>(
    problem: &Prob,
    x: &mut [f64],
    cfg: &NewtonConfig,
    ctx: &ExecCtx,
    pc_factory: impl Fn(&Csr) -> Pc,
) -> NewtonResult
where
    M: CoreOperator + FromCsr,
    Prob: NonlinearProblem,
    Pc: Precond,
{
    newton_kept::<M, _, _>(
        problem,
        x,
        cfg,
        ctx,
        &mut LinearSolve::default(),
        &pc_factory,
    )
}

/// [`newton_ctx`] with the linear-solve context owned by the caller, who
/// may hand the same one to the next solve.
pub(crate) fn newton_kept<M, Prob, Pc>(
    problem: &Prob,
    x: &mut [f64],
    cfg: &NewtonConfig,
    ctx: &ExecCtx,
    kept: &mut LinearSolve<M, Pc>,
    pc_factory: &impl Fn(&Csr) -> Pc,
) -> NewtonResult
where
    M: CoreOperator + FromCsr,
    Prob: NonlinearProblem,
    Pc: Precond,
{
    assert_eq!(x.len(), problem.dim());
    newton_over(
        &SeqDot,
        x,
        cfg,
        |x, f| problem.residual(x, f),
        |x, rhs, d, ksp_cfg| {
            // Assemble in CSR, run the linear solve in format M (as the
            // paper's experiments do: SELL carries every SpMV of the Newton
            // systems).
            let (j_m, pc) = {
                let _je = sellkit_obs::span("SNESJacobianEval");
                let j_csr = {
                    let _s = sellkit_obs::span("MatAssembly");
                    problem.jacobian(x)
                };
                kept.set_up(&j_csr, pc_factory)
            };
            gmres(
                &CtxMatOperator::new(j_m, ctx),
                &CtxPrecond::new(pc, ctx),
                &SeqDot,
                rhs,
                d,
                ksp_cfg,
            )
        },
    )
}

/// Newton's method with line search over the vector space `ip` spans: the
/// one loop behind [`newton`] (a sequential space) and the distributed
/// `dist_newton` (owned blocks, norms reduced across ranks), which is why
/// the two take the same iterations on the same problem.
///
/// `residual(x, f)` evaluates `f = F(x)`.  `solve(x, rhs, d, ksp_cfg)`
/// linearises at `x` and solves `J(x)·d = rhs` from the zero guess `d`
/// holds on entry, to `ksp_cfg` — [`NewtonConfig::ksp`] with the relative
/// tolerance [`NewtonConfig::forcing`] chose for this iteration — however
/// the caller assembles, preconditions and stores `J`.  The stopping test,
/// the line search, the update of `x`, the history and the `SNESSolve` /
/// `SNESFunctionEval` spans are this function's; `x` holds the initial
/// guess on entry and the last iterate on exit.
pub fn newton_over<D: InnerProduct>(
    ip: &D,
    x: &mut [f64],
    cfg: &NewtonConfig,
    residual: impl Fn(&[f64], &mut [f64]),
    mut solve: impl FnMut(&[f64], &[f64], &mut [f64], &KspConfig) -> KspResult,
) -> NewtonResult {
    let _snes = sellkit_obs::span("SNESSolve");
    let residual = |x: &[f64], f: &mut [f64]| {
        let _fe = sellkit_obs::span("SNESFunctionEval");
        residual(x, f);
    };
    let n = x.len();
    let mut f = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut ftrial = vec![0.0; n];
    // Right-hand side and step of the Newton system.
    let mut rhs = vec![0.0; n];
    let mut d = vec![0.0; n];

    residual(x, &mut f);
    let f0 = ip.norm(&f);
    let mut fnorm = f0;
    let mut history = vec![f0];
    let mut linear_iterations = 0;

    let mut iterations = 0;
    let mut fnorm_prev: Option<f64> = None;
    let reason = loop {
        if fnorm <= cfg.atol {
            break NewtonStopReason::AbsoluteTolerance;
        }
        if fnorm <= cfg.rtol * f0 {
            break NewtonStopReason::RelativeTolerance;
        }
        if iterations == cfg.max_it {
            break NewtonStopReason::MaxIterations;
        }
        iterations += 1;

        // Solve J d = -F to the (possibly adaptive) inner tolerance.
        for (ri, &fi) in rhs.iter_mut().zip(&f) {
            *ri = -fi;
        }
        d.fill(0.0);
        let ksp_cfg = KspConfig {
            rtol: cfg.forcing.eta(cfg.ksp.rtol, fnorm, fnorm_prev),
            ..cfg.ksp
        };
        linear_iterations += solve(x, &rhs, &mut d, &ksp_cfg).iterations;
        fnorm_prev = Some(fnorm);

        // Globalize, on norms of the whole space so that every owner of a
        // block picks the same λ.
        let (lambda, new_fnorm) = cfg.line_search.search(fnorm, |lam| {
            for i in 0..n {
                trial[i] = x[i] + lam * d[i];
            }
            residual(&trial, &mut ftrial);
            ip.norm(&ftrial)
        });
        if lambda == 0.0 {
            break NewtonStopReason::LineSearchFailed;
        }
        vecops::axpy(lambda, &d, x);
        residual(x, &mut f);
        fnorm = new_fnorm;
        history.push(fnorm);
    };

    NewtonResult {
        iterations,
        fnorm,
        reason,
        linear_iterations,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pc::JacobiPc;
    use crate::snes::line_search::{LineSearch, LineSearchConfig};
    use sellkit_core::{CooBuilder, Sell8};

    /// F(x)_i = x_i² - a_i  (decoupled quadratics; root = sqrt(a_i)).
    struct Quadratics {
        a: Vec<f64>,
    }

    impl NonlinearProblem for Quadratics {
        fn dim(&self) -> usize {
            self.a.len()
        }
        fn residual(&self, x: &[f64], f: &mut [f64]) {
            for i in 0..x.len() {
                f[i] = x[i] * x[i] - self.a[i];
            }
        }
        fn jacobian(&self, x: &[f64]) -> Csr {
            let n = x.len();
            let mut b = CooBuilder::new(n, n);
            for i in 0..n {
                b.push(i, i, 2.0 * x[i]);
            }
            b.to_csr()
        }
    }

    /// 1D nonlinear reaction-diffusion: -u'' + u³ = g, Dirichlet.
    struct Bratu1d {
        n: usize,
        g: Vec<f64>,
    }

    impl NonlinearProblem for Bratu1d {
        fn dim(&self) -> usize {
            self.n
        }
        fn residual(&self, x: &[f64], f: &mut [f64]) {
            let n = self.n;
            for i in 0..n {
                let left = if i > 0 { x[i - 1] } else { 0.0 };
                let right = if i + 1 < n { x[i + 1] } else { 0.0 };
                f[i] = 2.0 * x[i] - left - right + x[i] * x[i] * x[i] - self.g[i];
            }
        }
        fn jacobian(&self, x: &[f64]) -> Csr {
            let n = self.n;
            let mut b = CooBuilder::new(n, n);
            for i in 0..n {
                b.push(i, i, 2.0 + 3.0 * x[i] * x[i]);
                if i > 0 {
                    b.push(i, i - 1, -1.0);
                }
                if i + 1 < n {
                    b.push(i, i + 1, -1.0);
                }
            }
            b.to_csr()
        }
    }

    #[test]
    fn quadratic_convergence_on_smooth_problem() {
        let p = Quadratics {
            a: vec![4.0, 9.0, 16.0],
        };
        let mut x = vec![3.0, 3.0, 3.0];
        let res = newton::<Csr, _, _>(
            &p,
            &mut x,
            &NewtonConfig {
                rtol: 1e-12,
                ..Default::default()
            },
            JacobiPc::from_csr,
        );
        assert!(res.converged());
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert!((x[1] - 3.0).abs() < 1e-8);
        assert!((x[2] - 4.0).abs() < 1e-8);
        // Quadratic convergence: ratio of successive errors shrinks fast —
        // the history should collapse in ≤ 8 iterations from O(1).
        assert!(res.iterations <= 8, "{} its", res.iterations);
    }

    #[test]
    fn sell_format_newton_matches_csr_newton() {
        let n = 40;
        let g: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.2).sin() + 1.0).collect();
        let p = Bratu1d { n, g };
        let cfg = NewtonConfig {
            rtol: 1e-10,
            ..Default::default()
        };
        let mut x1 = vec![0.5; n];
        let mut x2 = vec![0.5; n];
        let r1 = newton::<Csr, _, _>(&p, &mut x1, &cfg, JacobiPc::from_csr);
        let r2 = newton::<Sell8, _, _>(&p, &mut x2, &cfg, JacobiPc::from_csr);
        assert!(r1.converged() && r2.converged());
        assert_eq!(
            r1.iterations, r2.iterations,
            "format must not change the algorithm"
        );
        for i in 0..n {
            assert!((x1[i] - x2[i]).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn line_search_rescues_overshooting() {
        // From a far initial guess, full steps overshoot on x² - a;
        // backtracking still converges.
        let p = Quadratics { a: vec![1.0] };
        let cfg = NewtonConfig {
            rtol: 1e-10,
            max_it: 100,
            line_search: LineSearch::Backtracking(LineSearchConfig::default()),
            ..Default::default()
        };
        let mut x = vec![100.0];
        let res = newton::<Csr, _, _>(&p, &mut x, &cfg, JacobiPc::from_csr);
        assert!(res.converged());
        assert!((x[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn eisenstat_walker_saves_linear_iterations() {
        let n = 60;
        let g: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.15).cos() + 1.2).collect();
        let p = Bratu1d { n, g };
        let fixed_cfg = NewtonConfig {
            rtol: 1e-10,
            ksp: KspConfig {
                rtol: 1e-10,
                ..Default::default()
            },
            ..Default::default()
        };
        let ew_cfg = NewtonConfig {
            rtol: 1e-10,
            ksp: KspConfig {
                rtol: 1e-10,
                ..Default::default()
            },
            forcing: Forcing::eisenstat_walker(),
            ..Default::default()
        };
        let mut x1 = vec![0.5; n];
        let r_fixed = newton::<Csr, _, _>(&p, &mut x1, &fixed_cfg, JacobiPc::from_csr);
        let mut x2 = vec![0.5; n];
        let r_ew = newton::<Csr, _, _>(&p, &mut x2, &ew_cfg, JacobiPc::from_csr);
        assert!(r_fixed.converged() && r_ew.converged());
        assert!(
            r_ew.linear_iterations < r_fixed.linear_iterations,
            "EW {} !< fixed {}",
            r_ew.linear_iterations,
            r_fixed.linear_iterations
        );
        // Both converge to the same root.
        for i in 0..n {
            assert!((x1[i] - x2[i]).abs() < 1e-7, "row {i}");
        }
    }

    #[test]
    fn forcing_eta_clamps() {
        let f = Forcing::eisenstat_walker();
        assert_eq!(f.eta(1e-5, 1.0, None), 0.5, "first iteration is loose");
        let tight = f.eta(1e-5, 1e-6, Some(1.0));
        assert!(
            tight <= 1e-8 * 1.0001,
            "near convergence it clamps to eta_min: {tight}"
        );
        assert_eq!(Forcing::Fixed.eta(1e-5, 1.0, Some(2.0)), 1e-5);
    }

    #[test]
    fn already_converged_returns_zero_iterations() {
        let p = Quadratics { a: vec![4.0] };
        let mut x = vec![2.0];
        let res = newton::<Csr, _, _>(
            &p,
            &mut x,
            &NewtonConfig {
                atol: 1e-12,
                ..Default::default()
            },
            JacobiPc::from_csr,
        );
        assert_eq!(res.iterations, 0);
        assert!(res.converged());
    }
}
