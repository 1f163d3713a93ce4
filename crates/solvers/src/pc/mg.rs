//! Geometric multigrid V-cycle preconditioning (PETSc `PCMG`).
//!
//! The paper's Gray-Scott runs use (§7.2):
//!
//! ```text
//! -pc_type mg  -pc_mg_levels 3  -mg_levels_pc_type jacobi  -mg_coarse_pc_type jacobi
//! ```
//!
//! i.e. a V-cycle with (weighted-)Jacobi smoothers and a Jacobi coarse
//! solve, "so that the algorithm relies heavily on matrix-vector
//! multiplications" — which is precisely why MG amplifies SpMV gains.
//!
//! Coarse operators are Galerkin products `A_{l+1} = P^T A_l P` computed by
//! our own [`super::spgemm`].  The operator on each level is stored in a
//! *generic* format `M`, so the whole hierarchy runs its SpMVs in SELL or
//! CSR — as in the paper, where every level's MatMult uses the chosen
//! matrix type.
//!
//! Set-up has PETSc's two halves.  The **symbolic** half runs once per
//! hierarchy: transposed interpolations, the patterns of both Galerkin
//! products of every level, the level operators' layouts, the workspace.
//! The **numeric** half runs once per fine matrix: product values, level
//! operator values, inverse diagonals, and the eigenvalue estimates or the
//! dense factorisation when configured.  [`Multigrid::new`] is the first
//! followed by the second; [`Precond::refresh`] is the second alone, for a
//! fine matrix with the pattern the hierarchy was built for
//! (`SAME_NONZERO_PATTERN`), and gives the hierarchy a cold build gives, bit
//! for bit.

use std::sync::{Mutex, PoisonError};

use sellkit_core::{Apply, Csr, ExecCtx, FromCsr, MatShape, Operator as CoreOperator};

use super::spgemm::Product;
use super::Precond;
use crate::operator::mult;

/// Multigrid configuration.
#[derive(Clone, Copy, Debug)]
pub struct MultigridConfig {
    /// Smoothing steps before coarse-grid correction.
    pub pre_smooth: usize,
    /// Smoothing steps after coarse-grid correction.
    pub post_smooth: usize,
    /// Jacobi damping factor (2/3 is optimal for the Laplacian).
    pub omega: f64,
    /// Smoother family.
    pub smoother: Smoother,
    /// Coarsest-level treatment.
    pub coarse: CoarseSolve,
}

/// The smoother applied on each level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Smoother {
    /// Weighted (damped) Jacobi — the paper's `-mg_levels_pc_type jacobi`.
    Jacobi,
    /// Chebyshev polynomial smoothing over `[0.1·λmax, 1.1·λmax]` of
    /// `D⁻¹A`, with λmax estimated by power iteration at setup — PETSc's
    /// default smoother (`KSPCHEBYSHEV` + Jacobi).
    Chebyshev,
}

/// How the coarsest level is solved.
#[derive(Clone, Copy, Debug)]
pub enum CoarseSolve {
    /// `iters` weighted-Jacobi iterations (the paper's
    /// `-mg_coarse_pc_type jacobi` with a Richardson wrapper).
    Jacobi(usize),
    /// Dense LU direct solve (exact coarse solve).
    Direct,
}

impl Default for MultigridConfig {
    fn default() -> Self {
        Self {
            pre_smooth: 1,
            post_smooth: 1,
            omega: 2.0 / 3.0,
            smoother: Smoother::Jacobi,
            coarse: CoarseSolve::Jacobi(8),
        }
    }
}

/// The way from a level to the next-coarser one.
struct Transfer {
    /// Prolongation from the next-coarser level up to this level.
    p: Csr,
    /// Restriction (`= Pᵀ`) from this level down.
    r: Csr,
    /// The kept product `R·A` of this level's operator.
    ra: Product,
    /// The kept product `(R·A)·P`: the next level's operator in CSR.
    rap: Product,
}

struct Level<M> {
    /// The level operator in the experiment's matrix format.
    a: M,
    inv_diag: Vec<f64>,
    /// Estimated λmax of `D⁻¹A` (for the Chebyshev smoother).
    emax: f64,
    /// `None` on the coarsest level.
    down: Option<Transfer>,
    n: usize,
}

impl<M: CoreOperator + FromCsr> Level<M> {
    /// The symbolic half of this level's set-up for the operator `a` (the
    /// interpolation's transpose, the patterns of both Galerkin products
    /// and the operator's layout), then the numeric half.
    fn new(a: &Csr, p: Option<&Csr>, cfg: &MultigridConfig) -> Self {
        let down = p.map(|p| {
            assert_eq!(
                p.nrows(),
                a.nrows(),
                "interpolation rows must match level size"
            );
            let _ptap = sellkit_obs::span("MatPtAPSymbolic");
            let r = p.transpose();
            let ra = Product::symbolic(&r, a);
            let rap = Product::symbolic(ra.matrix(), p);
            Transfer {
                p: p.clone(),
                r,
                ra,
                rap,
            }
        });
        let mut level = Level {
            a: M::from_csr(a),
            inv_diag: vec![0.0; a.nrows()],
            emax: 1.0,
            down,
            n: a.nrows(),
        };
        level.numeric(a, cfg);
        level
    }

    /// The numeric half of this level's set-up, the operator's own values
    /// apart: everything here that depends on the values of `a`, written
    /// into storage the level already owns.
    fn numeric(&mut self, a: &Csr, cfg: &MultigridConfig) {
        super::jacobi::invert_diagonal(a, &mut self.inv_diag);
        if cfg.smoother == Smoother::Chebyshev {
            self.emax = estimate_emax(a, &self.inv_diag);
        }
        if let Some(t) = &mut self.down {
            let _ptap = sellkit_obs::span("MatPtAPNumeric");
            t.ra.numeric(&t.r, a);
            t.rap.numeric(t.ra.matrix(), &t.p);
        }
    }
}

/// The operator of the level below `above` — the fine matrix itself when
/// there is none above.
fn operator_below<'a, M>(above: &'a [Level<M>], fine: &'a Csr) -> &'a Csr {
    above.last().map_or(fine, |level| {
        let down = level
            .down
            .as_ref()
            .expect("only the last level has no way down");
        down.rap.matrix()
    })
}

/// Power iteration estimate of the largest eigenvalue of `D⁻¹A` (a few
/// iterations suffice for smoother bounds, as in PETSc's
/// `KSPChebyshevEstEigSet`).
fn estimate_emax(a: &Csr, inv_diag: &[f64]) -> f64 {
    use sellkit_core::Operator as _;
    let n = a.nrows();
    if n == 0 {
        return 1.0;
    }
    // Deterministic pseudo-random start vector (avoids exact eigenvector
    // orthogonality traps of a constant start).
    let mut v: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761 % 97) as f64) / 97.0 + 0.01)
        .collect();
    let mut av = vec![0.0; n];
    let mut lambda = 1.0;
    for _ in 0..12 {
        let norm = crate::vecops::norm2(&v);
        if norm == 0.0 {
            return 1.0;
        }
        crate::vecops::scale(1.0 / norm, &mut v);
        a.apply(
            &ExecCtx::serial(),
            (&v).into(),
            (&mut av).into(),
            Apply::Set,
        );
        for i in 0..n {
            av[i] *= inv_diag[i];
        }
        lambda = crate::vecops::dot(&v, &av).abs().max(1e-12);
        std::mem::swap(&mut v, &mut av);
    }
    lambda
}

/// The scratch vectors one level of the V-cycle works in.  Allocated once
/// by [`Multigrid::new`] and overwritten before they are read in every
/// apply, so nothing carries over from one apply to the next.
struct Scratch {
    /// The level's only full-length temporary: `A·x` inside a smoothing
    /// step, and `A·x` turned in place into the residual `b − A·x`.
    t: Vec<f64>,
    /// The Chebyshev direction vector (empty under the Jacobi smoother).
    d: Vec<f64>,
    /// The restricted residual — the next level's right-hand side (empty
    /// on the coarsest level).
    res_c: Vec<f64>,
    /// The coarse-grid correction — the next level's iterate (empty on the
    /// coarsest level).
    e_c: Vec<f64>,
}

/// A V-cycle multigrid preconditioner with Galerkin coarse operators.
///
/// The cycle starts from a zero guess on every level, and it carries that
/// as a fact instead of as a zero-filled vector: the first smoothing step
/// from `x = 0` needs no MatMult (`A·0` is `+0.0` in every row and
/// `b − 0.0` is `b`), so it is `x = 0.0 + ω·D⁻¹·b` — the same bits as the
/// step that multiplies by the zeros, one MatMult per level cheaper.  With
/// the paper's options (one pre- and one post-smoothing step, three
/// levels, eight coarse Jacobi iterations) an apply is 11 MatMults.
///
/// All temporaries live in a per-level workspace behind a mutex, so a warm
/// [`Precond::apply`] allocates nothing and `&self` stays enough to apply;
/// concurrent applies of one hierarchy take turns.  The workspace is pure
/// scratch: a panic inside an apply leaves it poisoned but harmless, and
/// the next apply takes it over.
pub struct Multigrid<M> {
    levels: Vec<Level<M>>,
    cfg: MultigridConfig,
    coarse_lu: Option<DenseLu>,
    /// One [`Scratch`] per level, finest first.
    work: Mutex<Vec<Scratch>>,
    /// `rowptr` and `colidx` of the fine matrix the hierarchy was built
    /// for: what [`Precond::refresh`] compares a new one against.
    fine_pattern: (Vec<usize>, Vec<u32>),
}

impl<M: CoreOperator + FromCsr> Multigrid<M> {
    /// Builds the hierarchy.
    ///
    /// `interps[l]` prolongates level `l+1` (coarser) to level `l`; the
    /// number of levels is `interps.len() + 1`.  Coarse operators are
    /// `Pᵀ A P`.
    pub fn new(fine: &Csr, interps: &[Csr], cfg: MultigridConfig) -> Self {
        assert_eq!(
            fine.nrows(),
            fine.ncols(),
            "multigrid needs square operators"
        );
        let mut levels: Vec<Level<M>> = Vec::with_capacity(interps.len() + 1);
        // Every interpolation leads down from a level; the last level has
        // none.
        for p in interps.iter().map(Some).chain([None]) {
            let level = Level::new(operator_below(&levels, fine), p, &cfg);
            levels.push(level);
        }
        let needs_d = cfg.smoother == Smoother::Chebyshev;
        let work = (0..levels.len())
            .map(|l| {
                let n = levels[l].n;
                let nc = levels.get(l + 1).map_or(0, |next| next.n);
                Scratch {
                    t: vec![0.0; n],
                    d: vec![0.0; if needs_d { n } else { 0 }],
                    res_c: vec![0.0; nc],
                    e_c: vec![0.0; nc],
                }
            })
            .collect();
        let mut mg = Self {
            levels,
            cfg,
            coarse_lu: None,
            work: Mutex::new(work),
            fine_pattern: (fine.rowptr().to_vec(), fine.colidx().to_vec()),
        };
        mg.factor_coarsest(fine);
        mg
    }

    /// The numeric set-up of [`CoarseSolve::Direct`]: the dense LU of the
    /// coarsest operator as it stands.
    fn factor_coarsest(&mut self, fine: &Csr) {
        if let CoarseSolve::Direct = self.cfg.coarse {
            let above = &self.levels[..self.levels.len() - 1];
            self.coarse_lu = Some(DenseLu::factor(operator_below(above, fine)));
        }
    }

    /// The operator of level `l` (0 is the finest) as the cycle applies it.
    pub fn level_operator(&self, l: usize) -> &M {
        &self.levels[l].a
    }

    /// `1/aᵢᵢ` of level `l`'s operator, the smoothers' diagonal scaling.
    pub fn level_inv_diag(&self, l: usize) -> &[f64] {
        &self.levels[l].inv_diag
    }

    /// Number of levels (paper default: 3 single-node, 6 multinode).
    pub fn nlevels(&self) -> usize {
        self.levels.len()
    }

    /// Unknowns on each level, finest first.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.n).collect()
    }

    /// `steps` smoothing steps on level `l`.  With `zero_guess` the
    /// iterate is to be read as zero whatever `x` holds, and `x` is
    /// overwritten; either way `x` holds the real iterate on return.
    fn smooth(
        &self,
        ctx: &ExecCtx,
        l: usize,
        w: &mut Scratch,
        b: &[f64],
        x: &mut [f64],
        steps: usize,
        zero_guess: bool,
    ) {
        if steps == 0 {
            // No step writes `x`, so the zero has to be stored after all.
            if zero_guess {
                x.fill(0.0);
            }
            return;
        }
        let _sm = sellkit_obs::span("MGSmooth");
        match self.cfg.smoother {
            Smoother::Jacobi => self.smooth_jacobi(ctx, l, w, b, x, steps, zero_guess),
            Smoother::Chebyshev => self.smooth_chebyshev(ctx, l, w, b, x, steps, zero_guess),
        }
    }

    /// `steps ≥ 1` weighted-Jacobi steps `x += ω D⁻¹ (b − A x)`.
    fn smooth_jacobi(
        &self,
        ctx: &ExecCtx,
        l: usize,
        w: &mut Scratch,
        b: &[f64],
        x: &mut [f64],
        mut steps: usize,
        zero_guess: bool,
    ) {
        let lev = &self.levels[l];
        let omega = self.cfg.omega;
        if zero_guess {
            // From x = 0 the residual is `b` itself.  The `0.0 +` is the
            // `x +=` of the general step: it turns a −0.0 product into the
            // +0.0 that adding to a stored zero gives.
            for i in 0..lev.n {
                x[i] = 0.0 + omega * lev.inv_diag[i] * b[i];
            }
            steps -= 1;
        }
        for _ in 0..steps {
            mult("MatMult", &lev.a, ctx, x, &mut w.t, Apply::Set);
            for i in 0..lev.n {
                x[i] += omega * lev.inv_diag[i] * (b[i] - w.t[i]);
            }
        }
    }

    /// `steps ≥ 1` applications of a degree-2 Chebyshev smoother (each
    /// "step" runs the three-term recurrence twice) over `[0.1, 1.1]·λmax`
    /// of `D⁻¹A`, PETSc's standard smoothing window.
    fn smooth_chebyshev(
        &self,
        ctx: &ExecCtx,
        l: usize,
        w: &mut Scratch,
        b: &[f64],
        x: &mut [f64],
        steps: usize,
        zero_guess: bool,
    ) {
        let lev = &self.levels[l];
        let (emin, emax) = (0.1 * lev.emax, 1.1 * lev.emax);
        let theta = 0.5 * (emax + emin);
        let delta = 0.5 * (emax - emin);
        let sigma1 = theta / delta;
        let n = lev.n;
        let (r, d) = (&mut w.t, &mut w.d);
        let mut rho = 1.0 / sigma1;
        for it in 0..2 * steps {
            if it == 0 && zero_guess {
                // From x = 0 the preconditioned residual is D⁻¹ b and the
                // first direction is the whole iterate (`0.0 +` as in the
                // Jacobi step).
                for i in 0..n {
                    d[i] = lev.inv_diag[i] * b[i] / theta;
                    x[i] = 0.0 + d[i];
                }
                continue;
            }
            mult("MatMult", &lev.a, ctx, x, r, Apply::Set);
            for i in 0..n {
                r[i] = lev.inv_diag[i] * (b[i] - r[i]); // preconditioned residual
            }
            if it == 0 {
                for i in 0..n {
                    d[i] = r[i] / theta;
                }
            } else {
                let rho_new = 1.0 / (2.0 * sigma1 - rho);
                let c1 = rho_new * rho;
                let c2 = 2.0 * rho_new / delta;
                for i in 0..n {
                    d[i] = c1 * d[i] + c2 * r[i];
                }
                rho = rho_new;
            }
            for i in 0..n {
                x[i] += d[i];
            }
        }
    }

    /// One V-cycle on level `l` for `A x = b`; `work[0]` is this level's
    /// scratch and the rest belongs to the coarser levels.  `zero_guess` as
    /// in [`Multigrid::smooth`].
    fn vcycle(
        &self,
        ctx: &ExecCtx,
        l: usize,
        work: &mut [Scratch],
        b: &[f64],
        x: &mut [f64],
        zero_guess: bool,
    ) {
        let lev = &self.levels[l];
        let (w, coarser) = work
            .split_first_mut()
            .expect("one scratch set per level, built with the hierarchy");
        let Some(Transfer {
            r: r_op, p: p_op, ..
        }) = &lev.down
        else {
            match self.cfg.coarse {
                CoarseSolve::Jacobi(iters) => self.smooth(ctx, l, w, b, x, iters, zero_guess),
                // The triangular solves overwrite `x` before reading it.
                CoarseSolve::Direct => self
                    .coarse_lu
                    .as_ref()
                    .expect("factored at setup")
                    .solve(b, x),
            }
            return;
        };
        self.smooth(ctx, l, w, b, x, self.cfg.pre_smooth, zero_guess);

        // Residual, formed where `A·x` landed, and its restriction.
        mult("MatMult", &lev.a, ctx, x, &mut w.t, Apply::Set);
        for i in 0..lev.n {
            w.t[i] = b[i] - w.t[i];
        }
        mult("MatRestrict", r_op, ctx, &w.t, &mut w.res_c, Apply::Set);

        // Coarse-grid correction, always from a zero guess.
        self.vcycle(ctx, l + 1, coarser, &w.res_c, &mut w.e_c, true);
        // x += P·e_c: the CSR kernel sums a row from zero and then adds it
        // to `x[i]`, as `e_f = P·e_c; x += e_f` did through a temporary.
        mult("MatInterpolate", p_op, ctx, &w.e_c, x, Apply::Add);

        self.smooth(ctx, l, w, b, x, self.cfg.post_smooth, false);
    }
}

impl<M: CoreOperator + FromCsr> Precond for Multigrid<M> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_ctx(&ExecCtx::serial(), r, z);
    }

    /// Every MatMult, restriction and prolongation of the cycle runs on
    /// `ctx`'s pool (the element-wise loops between them stay on the
    /// caller); bitwise identical to [`Precond::apply`] for any pool size.
    fn apply_ctx(&self, ctx: &ExecCtx, r: &[f64], z: &mut [f64]) {
        let _pc = sellkit_obs::span("PCApply");
        // A poisoned lock only says an earlier apply panicked half-way;
        // the vectors behind it are overwritten before they are read.
        let mut work = self.work.lock().unwrap_or_else(PoisonError::into_inner);
        self.vcycle(ctx, 0, &mut work, r, z, true);
    }

    /// The numeric half of [`Multigrid::new`] for a fine matrix that stores
    /// exactly the positions the hierarchy was built for (`rowptr` and
    /// `colidx` are compared, not hashed); any other matrix is refused
    /// before anything is written.  Interpolations, patterns, layouts and
    /// the workspace stay; with the Jacobi smoother and
    /// a Jacobi coarse solve nothing is allocated.
    fn refresh(&mut self, a: &Csr) -> bool {
        let n = self.levels[0].n;
        let (rowptr, colidx) = &self.fine_pattern;
        if (a.nrows(), a.ncols()) != (n, n) || a.rowptr() != rowptr || a.colidx() != colidx {
            return false;
        }
        for l in 0..self.levels.len() {
            let (above, rest) = self.levels.split_at_mut(l);
            let a_l = operator_below(above, a);
            rest[0].a.set_from_csr(a_l);
            rest[0].numeric(a_l, &self.cfg);
        }
        self.factor_coarsest(a);
        true
    }
}

/// Minimal dense LU with partial pivoting for the exact coarse solve.
struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl DenseLu {
    fn factor(a: &Csr) -> Self {
        let n = a.nrows();
        assert!(
            n <= 4096,
            "coarse level too large for a dense direct solve ({n})"
        );
        let mut lu = a.to_dense();
        let mut piv: Vec<usize> = (0..n).collect();
        for col in 0..n {
            let mut p = col;
            for r in col + 1..n {
                if lu[r * n + col].abs() > lu[p * n + col].abs() {
                    p = r;
                }
            }
            assert!(lu[p * n + col].abs() > 1e-300, "singular coarse operator");
            if p != col {
                piv.swap(p, col);
                for j in 0..n {
                    lu.swap(col * n + j, p * n + j);
                }
            }
            let d = lu[col * n + col];
            for r in col + 1..n {
                let f = lu[r * n + col] / d;
                lu[r * n + col] = f;
                for j in col + 1..n {
                    lu[r * n + j] -= f * lu[col * n + j];
                }
            }
        }
        Self { n, lu, piv }
    }

    fn solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        // Apply row permutation, then L then U.
        for i in 0..n {
            x[i] = b[self.piv[i]];
        }
        for i in 0..n {
            for j in 0..i {
                x[i] -= self.lu[i * n + j] * x[j];
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                x[i] -= self.lu[i * n + j] * x[j];
            }
            x[i] /= self.lu[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;
    use sellkit_core::{CooBuilder, Sell8};

    /// 1D Laplacian, Dirichlet.
    fn laplace1d(n: usize) -> Csr {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        b.to_csr()
    }

    /// Linear interpolation from n/2 coarse points to n fine points
    /// (standard 1D full-weighting pair), n even.
    fn interp1d(n_fine: usize) -> Csr {
        let n_coarse = n_fine / 2;
        let mut b = CooBuilder::new(n_fine, n_coarse);
        for c in 0..n_coarse {
            let f = 2 * c + 1; // coarse point sits at odd fine index
            b.push(f, c, 1.0);
            if f >= 1 {
                b.push(f - 1, c, 0.5);
            }
            if f + 1 < n_fine {
                b.push(f + 1, c, 0.5);
            }
        }
        b.to_csr()
    }

    fn residual_norm(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        a.apply(&ExecCtx::serial(), (x).into(), (&mut ax).into(), Apply::Set);
        for i in 0..b.len() {
            ax[i] -= b[i];
        }
        vecops::norm2(&ax)
    }

    /// The workspace sits behind a `Mutex`, not a `RefCell`: the hierarchy
    /// is as shareable between threads and across unwinding as before.
    #[test]
    fn workspace_keeps_the_auto_traits() {
        use std::panic::{RefUnwindSafe, UnwindSafe};
        fn check<T: Send + Sync + Unpin + UnwindSafe + RefUnwindSafe>() {}
        check::<Multigrid<Csr>>();
        check::<Multigrid<Sell8>>();
    }

    #[test]
    fn hierarchy_shapes() {
        let n = 64;
        let a = laplace1d(n);
        let p1 = interp1d(n);
        let p2 = interp1d(n / 2);
        let mg: Multigrid<Csr> = Multigrid::new(&a, &[p1, p2], MultigridConfig::default());
        assert_eq!(mg.nlevels(), 3);
        assert_eq!(mg.level_sizes(), vec![64, 32, 16]);
    }

    #[test]
    fn vcycle_reduces_error_fast() {
        let n = 128;
        let a = laplace1d(n);
        let interps = vec![interp1d(n), interp1d(n / 2)];
        let mg: Multigrid<Csr> = Multigrid::new(
            &a,
            &interps,
            MultigridConfig {
                coarse: CoarseSolve::Direct,
                ..Default::default()
            },
        );
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.1).sin()).collect();
        let mut x = vec![0.0; n];
        let r0 = residual_norm(&a, &x, &b);
        // Richardson iteration preconditioned by one V-cycle.
        for _ in 0..8 {
            let mut r = vec![0.0; n];
            let mut ax = vec![0.0; n];
            a.apply(
                &ExecCtx::serial(),
                (&x).into(),
                (&mut ax).into(),
                Apply::Set,
            );
            for i in 0..n {
                r[i] = b[i] - ax[i];
            }
            let mut z = vec![0.0; n];
            mg.apply(&r, &mut z);
            vecops::axpy(1.0, &z, &mut x);
        }
        let r8 = residual_norm(&a, &x, &b);
        assert!(
            r8 < r0 * 1e-6,
            "8 V-cycles must reduce the residual by ≥1e6: {r0} -> {r8}"
        );
    }

    #[test]
    fn sell_hierarchy_matches_csr_hierarchy() {
        let n = 64;
        let a = laplace1d(n);
        let interps = vec![interp1d(n)];
        let cfg = MultigridConfig::default();
        let mg_csr: Multigrid<Csr> = Multigrid::new(&a, &interps, cfg);
        let mg_sell: Multigrid<Sell8> = Multigrid::new(&a, &interps, cfg);
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        mg_csr.apply(&r, &mut z1);
        mg_sell.apply(&r, &mut z2);
        for i in 0..n {
            assert!(
                (z1[i] - z2[i]).abs() < 1e-12,
                "row {i}: formats must agree bitwise-ish"
            );
        }
    }

    #[test]
    fn galerkin_coarse_operator_is_symmetric_for_symmetric_fine() {
        let n = 32;
        let a = laplace1d(n);
        let p = interp1d(n);
        let r = p.transpose();
        let ac = super::super::spgemm::rap(&r, &a, &p);
        let d = ac.to_dense();
        let nc = n / 2;
        for i in 0..nc {
            for j in 0..nc {
                assert!((d[i * nc + j] - d[j * nc + i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn chebyshev_smoother_converges_like_jacobi_or_better() {
        let n = 128;
        let a = laplace1d(n);
        let interps = vec![interp1d(n), interp1d(n / 2)];
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let run = |smoother: Smoother| {
            let mg: Multigrid<Csr> = Multigrid::new(
                &a,
                &interps,
                MultigridConfig {
                    smoother,
                    coarse: CoarseSolve::Direct,
                    ..Default::default()
                },
            );
            let mut x = vec![0.0; n];
            for _ in 0..6 {
                let mut ax = vec![0.0; n];
                a.apply(
                    &ExecCtx::serial(),
                    (&x).into(),
                    (&mut ax).into(),
                    Apply::Set,
                );
                let r: Vec<f64> = (0..n).map(|i| b[i] - ax[i]).collect();
                let mut z = vec![0.0; n];
                mg.apply(&r, &mut z);
                vecops::axpy(1.0, &z, &mut x);
            }
            residual_norm(&a, &x, &b)
        };
        let jac = run(Smoother::Jacobi);
        let cheb = run(Smoother::Chebyshev);
        assert!(cheb.is_finite() && jac.is_finite());
        let r0 = vecops::norm2(&b);
        assert!(
            cheb < 1e-4 * r0,
            "Chebyshev MG must reduce the residual ≥1e4×: {cheb} vs {r0}"
        );
        assert!(cheb <= jac * 10.0, "cheb {cheb} vs jac {jac}");
    }

    #[test]
    fn emax_estimate_is_sane_for_laplacian() {
        // D⁻¹A for the 1D Laplacian has spectrum in (0, 2).
        let a = laplace1d(64);
        let emax = estimate_emax(&a, crate::pc::JacobiPc::from_csr(&a).inv_diag());
        assert!((1.5..=2.1).contains(&emax), "emax = {emax}");
    }

    #[test]
    fn dense_lu_solves() {
        let a = laplace1d(10);
        let lu = DenseLu::factor(&a);
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut x = vec![0.0; 10];
        lu.solve(&b, &mut x);
        assert!(residual_norm(&a, &x, &b) < 1e-10);
    }
}
