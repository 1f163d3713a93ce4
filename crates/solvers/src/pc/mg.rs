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

use sellkit_core::{Apply, Csr, ExecCtx, FromCsr, MatShape, Operator as CoreOperator};

use super::spgemm::rap;
use super::Precond;
use crate::vecops;

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

/// One MatMult with §6 traffic attribution when logging is enabled; the
/// disabled path costs one relaxed atomic load.
fn mult<M: CoreOperator>(a: &M, x: &[f64], y: &mut [f64]) {
    if sellkit_obs::enabled() {
        let t = a.spmv_traffic();
        let _mm = sellkit_obs::span_traffic("MatMult", t.flops as f64, t.bytes as f64);
        a.apply(&ExecCtx::serial(), (x).into(), (y).into(), Apply::Set);
    } else {
        a.apply(&ExecCtx::serial(), (x).into(), (y).into(), Apply::Set);
    }
}

struct Level<M> {
    /// The level operator in the experiment's matrix format.
    a: M,
    inv_diag: Vec<f64>,
    /// Estimated λmax of `D⁻¹A` (for the Chebyshev smoother).
    emax: f64,
    /// Prolongation from the next-coarser level up to this level.
    /// `None` on the coarsest level.
    p: Option<Csr>,
    /// Restriction (`= Pᵀ`) from this level down.  `None` on coarsest.
    r: Option<Csr>,
    n: usize,
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

/// A V-cycle multigrid preconditioner with Galerkin coarse operators.
pub struct Multigrid<M> {
    levels: Vec<Level<M>>,
    cfg: MultigridConfig,
    coarse_lu: Option<DenseLu>,
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
        let needs_emax = cfg.smoother == Smoother::Chebyshev;
        // The finest operator is the caller's; coarser ones are owned here.
        let mut coarse: Option<Csr> = None;
        for p in interps {
            let a_l = coarse.as_ref().unwrap_or(fine);
            assert_eq!(
                p.nrows(),
                a_l.nrows(),
                "interpolation rows must match level size"
            );
            let r = p.transpose();
            let a_next = {
                let _ptap = sellkit_obs::span("MatPtAP");
                rap(&r, a_l, p)
            };
            levels.push(Self::level(a_l, needs_emax, Some((p.clone(), r))));
            coarse = Some(a_next);
        }
        let a_l = coarse.as_ref().unwrap_or(fine);
        let coarse_lu = match cfg.coarse {
            CoarseSolve::Direct => Some(DenseLu::factor(a_l)),
            CoarseSolve::Jacobi(_) => None,
        };
        levels.push(Self::level(a_l, needs_emax, None));
        Self {
            levels,
            cfg,
            coarse_lu,
        }
    }

    /// One level around `a`, with its prolongation and restriction unless
    /// it is the coarsest.
    fn level(a: &Csr, needs_emax: bool, transfer: Option<(Csr, Csr)>) -> Level<M> {
        let inv_diag = inv_diag(a);
        let emax = if needs_emax {
            estimate_emax(a, &inv_diag)
        } else {
            1.0
        };
        let (p, r) = transfer.unzip();
        Level {
            a: M::from_csr(a),
            inv_diag,
            emax,
            p,
            r,
            n: a.nrows(),
        }
    }

    /// Number of levels (paper default: 3 single-node, 6 multinode).
    pub fn nlevels(&self) -> usize {
        self.levels.len()
    }

    /// Unknowns on each level, finest first.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.n).collect()
    }

    fn smooth(&self, l: usize, b: &[f64], x: &mut [f64], steps: usize) {
        match self.cfg.smoother {
            Smoother::Jacobi => self.smooth_jacobi(l, b, x, steps),
            Smoother::Chebyshev => self.smooth_chebyshev(l, b, x, steps),
        }
    }

    fn smooth_jacobi(&self, l: usize, b: &[f64], x: &mut [f64], steps: usize) {
        let _sm = sellkit_obs::span("MGSmooth");
        let lev = &self.levels[l];
        let mut r = vec![0.0; lev.n];
        for _ in 0..steps {
            // r = b - A x;  x += ω D⁻¹ r
            mult(&lev.a, x, &mut r);
            for i in 0..lev.n {
                x[i] += self.cfg.omega * lev.inv_diag[i] * (b[i] - r[i]);
            }
        }
    }

    /// `steps` applications of a degree-2 Chebyshev smoother (each "step"
    /// runs the three-term recurrence twice) over `[0.1, 1.1]·λmax` of
    /// `D⁻¹A`, PETSc's standard smoothing window.
    fn smooth_chebyshev(&self, l: usize, b: &[f64], x: &mut [f64], steps: usize) {
        let _sm = sellkit_obs::span("MGSmooth");
        let lev = &self.levels[l];
        let (emin, emax) = (0.1 * lev.emax, 1.1 * lev.emax);
        let theta = 0.5 * (emax + emin);
        let delta = 0.5 * (emax - emin);
        let sigma1 = theta / delta;
        let n = lev.n;
        let mut r = vec![0.0; n];
        let mut d = vec![0.0; n];
        let mut rho = 1.0 / sigma1;
        let degree = 2 * steps;
        for it in 0..degree {
            mult(&lev.a, x, &mut r);
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

    fn vcycle(&self, l: usize, b: &[f64], x: &mut [f64]) {
        let lev = &self.levels[l];
        if l + 1 == self.levels.len() {
            match self.cfg.coarse {
                CoarseSolve::Jacobi(iters) => self.smooth(l, b, x, iters),
                CoarseSolve::Direct => self
                    .coarse_lu
                    .as_ref()
                    .expect("factored at setup")
                    .solve(b, x),
            }
            return;
        }
        self.smooth(l, b, x, self.cfg.pre_smooth);

        // Residual restriction.
        let mut ax = vec![0.0; lev.n];
        mult(&lev.a, x, &mut ax);
        let mut res = vec![0.0; lev.n];
        for i in 0..lev.n {
            res[i] = b[i] - ax[i];
        }
        let r_op = lev.r.as_ref().expect("non-coarsest level has restriction");
        let nc = self.levels[l + 1].n;
        let mut res_c = vec![0.0; nc];
        r_op.apply(
            &ExecCtx::serial(),
            (&res).into(),
            (&mut res_c).into(),
            Apply::Set,
        );

        // Coarse-grid correction.
        let mut e_c = vec![0.0; nc];
        self.vcycle(l + 1, &res_c, &mut e_c);

        let p_op = lev.p.as_ref().expect("non-coarsest level has prolongation");
        let mut e_f = vec![0.0; lev.n];
        p_op.apply(
            &ExecCtx::serial(),
            (&e_c).into(),
            (&mut e_f).into(),
            Apply::Set,
        );
        vecops::axpy(1.0, &e_f, x);

        self.smooth(l, b, x, self.cfg.post_smooth);
    }
}

impl<M: CoreOperator + FromCsr> Precond for Multigrid<M> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let _pc = sellkit_obs::span("PCApply");
        z.fill(0.0);
        self.vcycle(0, r, z);
    }
}

fn inv_diag(a: &Csr) -> Vec<f64> {
    (0..a.nrows())
        .map(|i| match a.get(i, i) {
            Some(d) if d != 0.0 => 1.0 / d,
            _ => 1.0,
        })
        .collect()
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
        let inv_d = inv_diag(&a);
        let emax = estimate_emax(&a, &inv_d);
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
