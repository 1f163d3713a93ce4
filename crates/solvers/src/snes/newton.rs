//! Newton's method with line search (PETSc `SNESNEWTONLS`).
//!
//! Each iteration assembles the Jacobian in CSR (the assembly format) and
//! solves the Newton system with GMRES, every SpMV in the experiment's
//! matrix format `M` (SELL or CSR — §7: "the Jacobian evaluation and its
//! multiplication with input vectors dominate the simulation").  Set-up
//! works in place, as PETSc's does on a kept nonzero pattern: the CSR
//! Jacobian is refilled ([`NonlinearProblem::jacobian_into`]), the
//! preconditioner refreshed — in full ([`Precond::refresh`]) on a solve's
//! first iteration, its fine level alone ([`Precond::refresh_fine`]) on the
//! later ones — and GMRES runs on the preconditioner's own fine operator
//! when it has one ([`Precond::operator`], `KSPSetOperators(A, A)`) — a
//! second copy of the fine matrix in `M` is built only for a
//! preconditioner that holds none.
//! What one rank and many differ in is the [`Fine`] level; the set-up and
//! the loop are the same code.

use std::borrow::Cow;

use sellkit_core::{Csr, ExecCtx, FromCsr, Operator as CoreOperator};

use crate::ksp::{gmres, KspConfig};
use crate::operator::{CtxMatOperator, InnerProduct, Operator, SeqDot};
use crate::pc::{CtxPrecond, Kept, Precond};

use super::line_search::LineSearch;

/// A nonlinear system `F(x) = 0` with an analytic Jacobian.
pub trait NonlinearProblem {
    /// Number of unknowns.
    fn dim(&self) -> usize;
    /// Evaluates `f = F(x)`.
    fn residual(&self, x: &[f64], f: &mut [f64]);
    /// Assembles the Jacobian `∂F/∂x` at `x` in CSR.
    fn jacobian(&self, x: &[f64]) -> Csr;

    /// Makes `j` the Jacobian at `x`: afterwards `j` equals
    /// [`jacobian`](Self::jacobian)`(x)` in every stored bit, whatever it
    /// held before (PETSc's `MatAssembly` into a matrix whose nonzero
    /// pattern is known).  The default rebuilds; a problem that can write
    /// the values into the pattern `j` already holds overrides it, and
    /// rebuilds when that pattern is not its own.
    fn jacobian_into(&self, x: &[f64], j: &mut Csr) {
        *j = self.jacobian(x);
    }
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

/// The fine level of a Newton linear solve: what one rank and many differ
/// in.  Each Newton iteration assembles the Jacobian rows `j` in CSR, sets
/// the preconditioner up from [`Fine::pc_matrix`]`(j)` and runs GMRES on
/// [`Fine::operator`]`(j)` over [`Fine::space`].  `Option<M>` is the serial
/// one, the Jacobian in the solve's format `M`; `sellkit-dist`'s
/// `RankRows` is one rank's rows, under `dist_newton` and a rank's
/// [`ThetaStepper::run_on`](crate::ts::ThetaStepper::run_on).
pub trait Fine {
    /// The vector space the Newton and Krylov iterates live in.
    type Space: InnerProduct;

    /// This level's [`Fine::Space`].
    fn space(&self) -> Self::Space;

    /// The matrix the preconditioner is set up from, for the assembled
    /// Jacobian rows `j`; called before [`Fine::operator`] for the same
    /// `j`, which may use what this call prepared.
    fn pc_matrix<'j>(&mut self, j: &'j Csr) -> Cow<'j, Csr>;

    /// The operator GMRES applies for the Jacobian rows `j`, on `ctx`.
    /// `shared` is the preconditioner's own fine operator, if it has one
    /// ([`Precond::operator`]).  Whatever is converted or refreshed for it
    /// is held until the next call and runs under `MatConvert`.
    fn operator<'a>(
        &'a mut self,
        j: &Csr,
        shared: Option<&'a dyn CoreOperator>,
        ctx: &'a ExecCtx,
    ) -> impl Operator + 'a;
}

/// The serial fine level: GMRES applies the preconditioner's own fine
/// operator where it has one — Amat = Pmat, `KSPSetOperators(A, A)` — and
/// otherwise the Jacobian held in `M`, refilled by [`FromCsr::set_from_csr`]
/// (built on the first call).
impl<M: CoreOperator + FromCsr> Fine for Option<M> {
    type Space = SeqDot;

    fn space(&self) -> SeqDot {
        SeqDot
    }

    fn pc_matrix<'j>(&mut self, j: &'j Csr) -> Cow<'j, Csr> {
        Cow::Borrowed(j)
    }

    fn operator<'a>(
        &'a mut self,
        j: &Csr,
        shared: Option<&'a dyn CoreOperator>,
        ctx: &'a ExecCtx,
    ) -> impl Operator + 'a {
        let op: &dyn CoreOperator = match shared {
            Some(shared) => {
                // A copy kept for an earlier preconditioner is not needed.
                *self = None;
                shared
            }
            None => {
                let _s = sellkit_obs::span("MatConvert");
                match self {
                    Some(m) => {
                        m.set_from_csr(j);
                        m
                    }
                    None => self.insert(M::from_csr(j)),
                }
            }
        };
        CtxMatOperator::new(op, ctx)
    }
}

/// What a Newton loop carries from one linearisation to the next (PETSc's
/// `KSP` with its operators set): the Jacobian in CSR, the preconditioner,
/// and the [`Fine`] level GMRES runs on.  Whoever owns it decides how long
/// set-up work lives: [`newton_on`] keeps one for a solve; a θ-stepper keeps
/// one for a call (a step, or a whole run), and the Jacobian and the
/// preconditioner for as long as the stepper lives,
/// [suspended](LinearSolve::suspend) between the calls that name their
/// types.
pub(crate) struct LinearSolve<F, Pc> {
    jac: Option<Csr>,
    fine: F,
    pc: Option<Pc>,
}

/// A [`LinearSolve`] between two calls, its types forgotten: the CSR
/// Jacobian, and the preconditioner if it can be kept
/// ([`Precond::into_kept`]).  The fine level — the serial converted copy of
/// a preconditioner without a fine operator, a rank's distributed matrix —
/// is not kept.
#[derive(Default)]
pub(crate) struct Suspended {
    jac: Option<Csr>,
    pc: Option<Kept>,
}

impl<F, Pc: Precond> LinearSolve<F, Pc> {
    /// Takes up what [`LinearSolve::suspend`] left, on the fine level
    /// `fine`.  A preconditioner of another type is dropped
    /// ([`Precond::from_kept`]), so the first linearisation builds one; the
    /// Jacobian is refilled whatever it held.
    pub(crate) fn resume(held: Suspended, fine: F) -> Self {
        Self {
            jac: held.jac,
            fine,
            pc: held.pc.and_then(Pc::from_kept),
        }
    }

    /// Leaves the Jacobian and, if it can be kept, the preconditioner to the
    /// next [`LinearSolve::resume`]; the fine level is dropped.
    pub(crate) fn suspend(self) -> Suspended {
        Suspended {
            jac: self.jac,
            pc: self.pc.and_then(|pc| Box::new(pc).into_kept()),
        }
    }
}

/// Solves `F(x) = 0` by Newton-GMRES with the Jacobian applied in format
/// `M`.
///
/// The CSR Jacobian, the operator and the preconditioner live for the
/// whole solve.  Each iteration the Jacobian is refilled
/// ([`NonlinearProblem::jacobian_into`]) and the preconditioner asked to
/// refresh itself for it: in full ([`Precond::refresh`]) on the first
/// iteration, and for the fine level alone ([`Precond::refresh_fine`]) on
/// every later one; **`pc_factory` is called when there is nothing to
/// refresh** — on the first iteration, when the Jacobian's pattern
/// changed, or when the preconditioner has no value-only set-up.  GMRES
/// applies the preconditioner's fine operator when it shares one
/// ([`Precond::operator`]) and otherwise the Jacobian converted to `M`
/// ([`FromCsr::set_from_csr`]).  A refilled Jacobian equals a rebuilt one,
/// and a full refresh a rebuild, bit for bit.  A fine-level refresh does
/// too for every preconditioner but [`Multigrid`](crate::pc::Multigrid),
/// which keeps the coarse levels of the solve's first iteration (PETSc's
/// lagged preconditioner), so its iterates differ from those under a
/// factory that rebuilds every iteration; GMRES still solves the current
/// Jacobian, through level 0.
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
    newton_on(None::<M>, problem, x, cfg, pc_factory)
}

/// [`newton`] on the fine level `fine`, held for the whole solve: the entry
/// the distributed Newton takes, with one rank's rows.
pub fn newton_on<F, Prob, Pc>(
    fine: F,
    problem: &Prob,
    x: &mut [f64],
    cfg: &NewtonConfig,
    pc_factory: impl Fn(&Csr) -> Pc,
) -> NewtonResult
where
    F: Fine,
    Prob: NonlinearProblem,
    Pc: Precond,
{
    let mut kept = LinearSolve::resume(Suspended::default(), fine);
    newton_kept(problem, x, cfg, &ExecCtx::serial(), &mut kept, &pc_factory)
}

/// [`newton`] with every Jacobian application and preconditioner apply
/// dispatched on `ctx`'s worker pool (the SpMV determinism contract makes
/// the iterates bitwise the serial ones at any thread count), and the
/// linear-solve context owned by the caller, who may hand the same one to
/// the next solve: the one Newton set-up and loop, serial and distributed
/// (owned blocks, norms reduced across ranks), which is why the two take
/// the same iterations on the same problem.
///
/// Each iteration refills the kept CSR Jacobian
/// ([`NonlinearProblem::jacobian_into`]; built on the first call), sets the
/// preconditioner up for [`Fine::pc_matrix`] through
/// [`pc::set_up`](crate::pc::set_up) — in full on this solve's first
/// iteration, whatever an earlier solve left, and for the fine level alone
/// on every later one, so a [`Multigrid`](crate::pc::Multigrid) keeps the
/// coarse levels of the first; `pc_factory` is consulted only when there is
/// nothing to refresh — and solves `J·d = −F` by GMRES on
/// [`Fine::operator`] over [`Fine::space`], from a zero guess, to
/// [`NewtonConfig::ksp`] with the relative tolerance
/// [`NewtonConfig::forcing`] chose.  The line search then picks `λ` on
/// norms of the whole space, so that every owner of a block picks the same.
///
/// `F` runs once for the initial guess and once per line-search trial: the
/// accepted trial point becomes the iterate together with its residual, so
/// `F` is never evaluated twice at one point (`1 + iterations` evaluations
/// under [`LineSearch::Full`]).  `x` holds the initial guess on entry and
/// the last iterate on exit.
pub(crate) fn newton_kept<F, Prob, Pc>(
    problem: &Prob,
    x: &mut [f64],
    cfg: &NewtonConfig,
    ctx: &ExecCtx,
    kept: &mut LinearSolve<F, Pc>,
    pc_factory: &impl Fn(&Csr) -> Pc,
) -> NewtonResult
where
    F: Fine,
    Prob: NonlinearProblem,
    Pc: Precond,
{
    assert_eq!(x.len(), problem.dim());
    let LinearSolve { jac, fine, pc } = kept;
    let space = fine.space();
    let _snes = sellkit_obs::span("SNESSolve");
    let residual = |x: &[f64], f: &mut [f64]| {
        let _fe = sellkit_obs::span("SNESFunctionEval");
        problem.residual(x, f);
    };
    let n = x.len();
    let mut f = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut ftrial = vec![0.0; n];
    // Right-hand side and step of the Newton system.
    let mut rhs = vec![0.0; n];
    let mut d = vec![0.0; n];

    residual(x, &mut f);
    let f0 = space.norm(&f);
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

        // Assemble in CSR, run the linear solve on the fine level (as the
        // paper's experiments do: SELL carries every SpMV of the Newton
        // systems).
        let (op, pc) = {
            let _je = sellkit_obs::span("SNESJacobianEval");
            let j: &Csr = {
                let _s = sellkit_obs::span("MatAssembly");
                match jac {
                    Some(j) => {
                        problem.jacobian_into(x, j);
                        j
                    }
                    None => jac.insert(problem.jacobian(x)),
                }
            };
            // The first linearisation of a solve sets the preconditioner up
            // in full; the later ones refresh its fine level alone.
            let later = iterations > 1;
            let pc = crate::pc::set_up(pc, &fine.pc_matrix(j), later, pc_factory);
            (fine.operator(j, pc.operator(), ctx), pc)
        };
        // Solve J d = -F to the (possibly adaptive) inner tolerance.
        for (ri, &fi) in rhs.iter_mut().zip(&f) {
            *ri = -fi;
        }
        d.fill(0.0);
        let ksp_cfg = KspConfig {
            rtol: cfg.forcing.eta(cfg.ksp.rtol, fnorm, fnorm_prev),
            ..cfg.ksp
        };
        let pc = CtxPrecond::new(pc, ctx);
        linear_iterations += gmres(&op, &pc, &space, &rhs, &mut d, &ksp_cfg).iterations;
        fnorm_prev = Some(fnorm);

        let (lambda, new_fnorm) = cfg.line_search.search(fnorm, |lam| {
            for i in 0..n {
                trial[i] = x[i] + lam * d[i];
            }
            residual(&trial, &mut ftrial);
            space.norm(&ftrial)
        });
        if lambda == 0.0 {
            break NewtonStopReason::LineSearchFailed;
        }
        // Both strategies accept the last λ they tried: `trial` is
        // `x + λ·d` (the bits of `axpy`) and `ftrial` its residual.
        x.copy_from_slice(&trial);
        std::mem::swap(&mut f, &mut ftrial);
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

    /// A problem that counts its residual evaluations.
    struct Counted<P> {
        inner: P,
        residuals: std::cell::Cell<usize>,
    }

    impl<P: NonlinearProblem> NonlinearProblem for Counted<P> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn residual(&self, x: &[f64], f: &mut [f64]) {
            self.residuals.set(self.residuals.get() + 1);
            self.inner.residual(x, f);
        }
        fn jacobian(&self, x: &[f64]) -> Csr {
            self.inner.jacobian(x)
        }
    }

    /// The accepted trial point is the iterate with its residual: `F` runs
    /// once for the initial guess and once per trial, never twice at one
    /// point, and the residual the loop keeps is the one `F(x)` gives at the
    /// final `x`, bit for bit.
    #[test]
    fn residual_runs_once_per_trial_point() {
        let n = 40;
        let g: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.2).sin() + 1.0).collect();
        for line_search in [
            LineSearch::Full,
            LineSearch::Backtracking(LineSearchConfig::default()),
        ] {
            let p = Counted {
                inner: Bratu1d { n, g: g.clone() },
                residuals: std::cell::Cell::new(0),
            };
            let cfg = NewtonConfig {
                rtol: 1e-10,
                line_search,
                ..Default::default()
            };
            let mut x = vec![0.5; n];
            let res = newton::<Csr, _, _>(&p, &mut x, &cfg, JacobiPc::from_csr);
            assert!(res.converged() && res.iterations >= 2);
            // A full step is one trial per iteration; backtracking may try
            // several λ, and keeps the last one's residual just the same.
            if let LineSearch::Full = line_search {
                assert_eq!(p.residuals.get(), 1 + res.iterations);
            }
            let mut f = vec![0.0; n];
            p.inner.residual(&x, &mut f);
            assert_eq!(
                SeqDot.norm(&f).to_bits(),
                res.fnorm.to_bits(),
                "{line_search:?}"
            );
        }
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
