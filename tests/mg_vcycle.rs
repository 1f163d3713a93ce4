//! `pc::mg::Multigrid` against the V-cycle it replaced.
//!
//! The apply path carries "the iterate is zero" as a fact, skips the
//! MatMult on it, forms the residual in place and works in vectors the
//! hierarchy owns.  None of that may move a bit:
//!
//! * every cell of {matrix} × {format} × {smoother} × {coarse solve} ×
//!   {pre, post smoothing steps} × {levels} equals the reference V-cycle
//!   written out below the way the apply path read before — `z` zero-filled,
//!   fresh vectors everywhere, a MatMult in every smoothing step — on
//!   right-hand sides holding `0.0`, `−0.0` and denormals;
//! * the output depends neither on what `z` held on entry nor on earlier
//!   applies;
//! * the premise of the skipped MatMult, `A·0 = +0.0` in every row, holds
//!   in both formats whatever the signs of the entries;
//! * `apply_ctx` and a GMRES solve through it are bitwise independent of
//!   the pool size.

mod common;

use sellkit::core::{
    matops, Apply, Csr, ExecCtx, FromCsr, MatShape, Operator as CoreOperator, Sell8,
};
use sellkit::grid::{interpolation_chain, laplacian_5pt};
use sellkit::solvers::ksp::{gmres, KspConfig};
use sellkit::solvers::operator::{CtxMatOperator, SeqDot};
use sellkit::solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig, Smoother};
use sellkit::solvers::pc::spgemm::rap;
use sellkit::solvers::pc::{CtxPrecond, Precond};
use sellkit::solvers::ts::OdeProblem;
use sellkit::solvers::vecops;
use sellkit::workloads::{GrayScott, GrayScottParams};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn mult<M: CoreOperator>(a: &M, x: &[f64], y: &mut [f64]) {
    a.apply(&ExecCtx::serial(), x.into(), y.into(), Apply::Set);
}

// ---- The reference: the parent commit's hierarchy and V-cycle.

struct RefLevel<M> {
    a: M,
    inv_diag: Vec<f64>,
    emax: f64,
    /// Prolongation from and restriction to the next-coarser level.
    transfer: Option<(Csr, Csr)>,
    n: usize,
}

struct Reference<M> {
    levels: Vec<RefLevel<M>>,
    /// The exact coarse solve.  The dense LU is private to `pc::mg` and no
    /// part of what this file pins; a one-level hierarchy with
    /// `CoarseSolve::Direct` is exactly one solve with it.
    direct: Multigrid<Csr>,
}

fn ref_inv_diag(a: &Csr) -> Vec<f64> {
    (0..a.nrows())
        .map(|i| match a.get(i, i) {
            Some(d) if d != 0.0 => 1.0 / d,
            _ => 1.0,
        })
        .collect()
}

fn ref_emax(a: &Csr, inv_diag: &[f64]) -> f64 {
    let n = a.nrows();
    let mut v: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761 % 97) as f64) / 97.0 + 0.01)
        .collect();
    let mut av = vec![0.0; n];
    let mut lambda = 1.0;
    for _ in 0..12 {
        let norm = vecops::norm2(&v);
        if norm == 0.0 {
            return 1.0;
        }
        vecops::scale(1.0 / norm, &mut v);
        mult(a, &v, &mut av);
        for i in 0..n {
            av[i] *= inv_diag[i];
        }
        lambda = vecops::dot(&v, &av).abs().max(1e-12);
        std::mem::swap(&mut v, &mut av);
    }
    lambda
}

impl<M: CoreOperator + FromCsr> Reference<M> {
    fn new(fine: &Csr, interps: &[Csr]) -> Self {
        let level = |a: &Csr, transfer| {
            let inv_diag = ref_inv_diag(a);
            RefLevel {
                a: M::from_csr(a),
                emax: ref_emax(a, &inv_diag),
                inv_diag,
                transfer,
                n: a.nrows(),
            }
        };
        let mut levels = Vec::new();
        let mut a_l = fine.clone();
        for p in interps {
            let r = p.transpose();
            let a_next = rap(&r, &a_l, p);
            levels.push(level(&a_l, Some((p.clone(), r))));
            a_l = a_next;
        }
        levels.push(level(&a_l, None));
        let direct = MultigridConfig {
            coarse: CoarseSolve::Direct,
            ..Default::default()
        };
        Reference {
            levels,
            direct: Multigrid::new(&a_l, &[], direct),
        }
    }

    fn smooth(&self, cfg: &MultigridConfig, l: usize, b: &[f64], x: &mut [f64], steps: usize) {
        let lev = &self.levels[l];
        let n = lev.n;
        let mut r = vec![0.0; n];
        match cfg.smoother {
            Smoother::Jacobi => {
                for _ in 0..steps {
                    mult(&lev.a, x, &mut r);
                    for i in 0..n {
                        x[i] += cfg.omega * lev.inv_diag[i] * (b[i] - r[i]);
                    }
                }
            }
            Smoother::Chebyshev => {
                let (emin, emax) = (0.1 * lev.emax, 1.1 * lev.emax);
                let theta = 0.5 * (emax + emin);
                let delta = 0.5 * (emax - emin);
                let sigma1 = theta / delta;
                let mut d = vec![0.0; n];
                let mut rho = 1.0 / sigma1;
                for it in 0..2 * steps {
                    mult(&lev.a, x, &mut r);
                    for i in 0..n {
                        r[i] = lev.inv_diag[i] * (b[i] - r[i]);
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
        }
    }

    fn vcycle(&self, cfg: &MultigridConfig, l: usize, b: &[f64], x: &mut [f64]) {
        let lev = &self.levels[l];
        let Some((p_op, r_op)) = &lev.transfer else {
            match cfg.coarse {
                CoarseSolve::Jacobi(iters) => self.smooth(cfg, l, b, x, iters),
                CoarseSolve::Direct => self.direct.apply(b, x),
            }
            return;
        };
        self.smooth(cfg, l, b, x, cfg.pre_smooth);

        let mut ax = vec![0.0; lev.n];
        mult(&lev.a, x, &mut ax);
        let mut res = vec![0.0; lev.n];
        for i in 0..lev.n {
            res[i] = b[i] - ax[i];
        }
        let nc = self.levels[l + 1].n;
        let mut res_c = vec![0.0; nc];
        mult(r_op, &res, &mut res_c);

        let mut e_c = vec![0.0; nc];
        self.vcycle(cfg, l + 1, &res_c, &mut e_c);

        let mut e_f = vec![0.0; lev.n];
        mult(p_op, &e_c, &mut e_f);
        vecops::axpy(1.0, &e_f, x);

        self.smooth(cfg, l, b, x, cfg.post_smooth);
    }

    fn apply(&self, cfg: &MultigridConfig, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        self.vcycle(cfg, 0, r, &mut z);
        z
    }
}

// ---- Fixtures.

/// The first Newton matrix `I − 0.5·J` of the Gray-Scott solve.
fn gray_scott_newton(grid: usize) -> (Csr, Vec<Csr>) {
    let gs = GrayScott::new(grid, GrayScottParams::default());
    let j = gs.rhs_jacobian(0.0, &gs.initial_condition(42));
    (
        matops::identity_plus_scaled(1.0, -0.5, &j),
        interpolation_chain(gs.grid(), 3),
    )
}

fn fixtures() -> Vec<(&'static str, Csr, Vec<Csr>)> {
    let (lap1, lap1_interps) = common::laplace_1d_hierarchy(64);
    let grid = sellkit::grid::Grid2D::new(16, 16, 1);
    let (newton, newton_interps) = gray_scott_newton(16);
    vec![
        ("laplace_1d", lap1, lap1_interps),
        (
            "laplacian_5pt",
            laplacian_5pt(&grid, &[1.0], 1.0),
            interpolation_chain(&grid, 3),
        ),
        ("gray_scott_newton", newton, newton_interps),
    ]
}

/// Right-hand sides made of the values the rewrite could mishandle: both
/// zeros, denormals of both signs, ordinary numbers.
fn rhs(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| match (i + salt) % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => 5e-324,
            3 => -2.5e-310,
            _ => ((i * 7 + salt) as f64 * 0.37).sin(),
        })
        .collect()
}

/// Nothing but signed zeros: every product of the first smoothing step is
/// a zero whose sign has to come out as the parent's.
fn zeros_rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
        .collect()
}

/// Smoother × coarse solve × pre- and post-smoothing steps in {0, 1, 2}.  A
/// one-level hierarchy is its coarse solve alone and never reads the two
/// step counts, so there they stay at 1 instead of repeating one
/// computation nine times.
fn configs(levels: usize) -> Vec<MultigridConfig> {
    let steps = if levels == 1 { 1..2 } else { 0..3 };
    let mut out = Vec::new();
    for smoother in [Smoother::Jacobi, Smoother::Chebyshev] {
        for coarse in [CoarseSolve::Jacobi(8), CoarseSolve::Direct] {
            for pre_smooth in steps.clone() {
                for post_smooth in steps.clone() {
                    out.push(MultigridConfig {
                        pre_smooth,
                        post_smooth,
                        smoother,
                        coarse,
                        ..Default::default()
                    });
                }
            }
        }
    }
    out
}

/// Every configuration on one (matrix, format, levels): three applies of one
/// hierarchy, `r₁`, `r₂`, `r₁`, each into a NaN-filled `z`.  All three must
/// equal the reference, so the third equals the first and nothing of `z` or
/// of an earlier apply leaks through the workspace.
fn check_cells<M: CoreOperator + FromCsr>(what: &str, a: &Csr, interps: &[Csr]) -> usize {
    let n = a.nrows();
    let reference = Reference::<M>::new(a, interps);
    let rs = [rhs(n, 0), zeros_rhs(n), rhs(n, 0)];
    let mut cells = 0;
    for cfg in configs(interps.len() + 1) {
        let mg = Multigrid::<M>::new(a, interps, cfg);
        for (k, r) in rs.iter().enumerate() {
            let mut z = vec![f64::NAN; n];
            mg.apply(r, &mut z);
            let want = reference.apply(&cfg, r);
            assert!(want.iter().all(|v| v.is_finite()), "{what} {cfg:?}");
            assert_eq!(bits(&z), bits(&want), "{what} apply {k} {cfg:?}");
        }
        cells += 1;
    }
    cells
}

#[test]
fn apply_equals_the_parents_vcycle_bit_for_bit() {
    let mut cells = 0;
    for (name, a, interps) in fixtures() {
        for levels in 1..=3 {
            let interps = &interps[..levels - 1];
            cells += check_cells::<Csr>(&format!("{name} csr L{levels}"), &a, interps);
            cells += check_cells::<Sell8>(&format!("{name} sell8 L{levels}"), &a, interps);
        }
    }
    assert_eq!(cells, 3 * 2 * 2 * 2 * (1 + 9 + 9));
}

/// What lets the first smoothing step drop its MatMult: a product with the
/// zero vector is `+0.0` in every row — also where every entry of the row
/// is negative, so that every partial product is `−0.0`.
#[test]
fn a_times_zero_is_positive_zero_in_every_row() {
    for (name, a, _) in fixtures() {
        let mut negated = a.clone();
        for v in negated.values_mut() {
            *v = -v.abs();
        }
        for (sign, m) in [("", &a), ("negated ", &negated)] {
            let zeros = vec![0.0; m.ncols()];
            let mut y = vec![f64::NAN; m.nrows()];
            mult(m, &zeros, &mut y);
            assert!(bits(&y).iter().all(|&b| b == 0), "{sign}{name} csr");
            y.fill(f64::NAN);
            mult(&Sell8::from_csr(m), &zeros, &mut y);
            assert!(bits(&y).iter().all(|&b| b == 0), "{sign}{name} sell8");
        }
    }
}

fn pool_independent<M: CoreOperator + FromCsr>(a: &Csr, interps: &[Csr]) {
    let n = a.nrows();
    let m = M::from_csr(a);
    let mg = Multigrid::<M>::new(a, interps, MultigridConfig::default());
    let b = rhs(n, 3);
    let ksp = KspConfig {
        rtol: 1e-10,
        ..Default::default()
    };

    let mut z_serial = vec![f64::NAN; n];
    mg.apply(&b, &mut z_serial);
    let mut x_serial = vec![0.0; n];
    let serial = ExecCtx::serial();
    let res_serial = gmres(
        &CtxMatOperator::new(&m, &serial),
        &mg,
        &SeqDot,
        &b,
        &mut x_serial,
        &ksp,
    );
    assert!(res_serial.converged());

    for threads in [1, 2, 3] {
        let ctx = ExecCtx::new(threads);
        let mut z = vec![f64::NAN; n];
        mg.apply_ctx(&ctx, &b, &mut z);
        assert_eq!(bits(&z), bits(&z_serial), "V-cycle at {threads} threads");

        let mut x = vec![0.0; n];
        let res = gmres(
            &CtxMatOperator::new(&m, &ctx),
            &CtxPrecond::new(&mg, &ctx),
            &SeqDot,
            &b,
            &mut x,
            &ksp,
        );
        assert_eq!(res.iterations, res_serial.iterations, "{threads} threads");
        assert_eq!(bits(&res.history), bits(&res_serial.history));
        assert_eq!(bits(&x), bits(&x_serial), "GMRES+MG at {threads} threads");
    }
}

#[test]
fn vcycle_and_gmres_are_bitwise_independent_of_the_pool_size() {
    let (a, interps) = gray_scott_newton(32);
    pool_independent::<Csr>(&a, &interps);
    pool_independent::<Sell8>(&a, &interps);
}
