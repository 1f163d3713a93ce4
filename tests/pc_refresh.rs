//! `PCSetUp`, not `PCCreate`: the numeric half of set-up, run alone on kept
//! patterns, gives what a cold build gives — bit for bit.
//!
//! * a kept [`Product`] refilled by `numeric` equals a from-scratch product
//!   (pattern and value bits) on every fuzz family, with stored zeros in
//!   either operand and a zero set that changes between two refills;
//! * `Multigrid::refresh(a₂)` after `new(a₁)` equals `Multigrid::new(a₂)` on
//!   every level (operator, inverse diagonal) and in three applies, for
//!   every cell of {format} × {smoother} × {coarse solve} × {levels};
//! * a fine matrix with another pattern is refused and nothing is touched;
//! * the θ-stepper calls the factory when there is nothing to refresh, and
//!   the trajectory does not depend on which path set the hierarchy up.

use std::cell::Cell;
use std::collections::BTreeMap;

use sellkit::core::{matops, Csr, ExecCtx, FromCsr, MatShape, Operator as CoreOperator, Sell8};
use sellkit::grid::interpolation_chain;
use sellkit::solvers::ksp::KspConfig;
use sellkit::solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig, Smoother};
use sellkit::solvers::pc::spgemm::{spgemm, Product};
use sellkit::solvers::pc::Precond;
use sellkit::solvers::snes::NewtonConfig;
use sellkit::solvers::ts::{OdeProblem, ThetaConfig, ThetaStepper};
use sellkit::workloads::{GrayScott, GrayScottParams};
use sellkit_fuzz::gen::{build, FAMILIES};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Pattern and value bits.
fn assert_same(got: &Csr, want: &Csr, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}"
    );
    assert_eq!(got.rowptr(), want.rowptr(), "{what}: rowptr");
    assert_eq!(got.colidx(), want.colidx(), "{what}: colidx");
    assert_eq!(bits(got.values()), bits(want.values()), "{what}: values");
}

// ---- (a) The kept product.

/// `A·B` written out: a position is stored when the patterns reach it, a
/// stored zero of `A` adds nothing to it, everything else accumulates from
/// `+0.0` in the order of the rows.
fn product_oracle(a: &Csr, b: &Csr) -> Csr {
    let mut rowptr = vec![0];
    let (mut colidx, mut vals) = (Vec::new(), Vec::new());
    for i in 0..a.nrows() {
        let mut row: BTreeMap<u32, f64> = BTreeMap::new();
        for (&k, &aik) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let k = k as usize;
            for (&c, &bkc) in b.row_cols(k).iter().zip(b.row_vals(k)) {
                let entry = row.entry(c).or_insert(0.0);
                if aik != 0.0 {
                    *entry += aik * bkc;
                }
            }
        }
        colidx.extend(row.keys());
        vals.extend(row.values());
        rowptr.push(colidx.len());
    }
    Csr::from_parts(a.nrows(), b.ncols(), rowptr, colidx, vals)
}

/// `m` with every stored value whose position `k` has `keep(k)` false set
/// to zero: the pattern stays, the zero set is the caller's.
fn with_zeros(m: &Csr, keep: impl Fn(usize) -> bool) -> Csr {
    let mut out = m.clone();
    for (k, v) in out.values_mut().iter_mut().enumerate() {
        if !keep(k) {
            *v = 0.0;
        }
    }
    out
}

#[test]
fn numeric_refill_equals_a_fresh_product_on_every_fuzz_family() {
    for family in FAMILIES {
        for seed in 0..6u64 {
            let a = build(family, seed).to_csr();
            let at = a.transpose();
            // `A·Aᵀ` and `Aᵀ·A`: conformable whatever the family's shape.
            for (a, b, side) in [(&a, &at, "A·Aᵀ"), (&at, &a, "Aᵀ·A")] {
                let what = |step: &str| format!("{family}:{seed} {side}, {step}");
                let mut kept = Product::symbolic(a, b);
                assert!(
                    kept.matrix().values().iter().all(|v| v.to_bits() == 0),
                    "{}",
                    what("symbolic leaves +0.0")
                );
                // Zero sets that differ from one refill to the next, in the
                // first operand, in the second, in both, in neither.
                let thirds = |r: usize| move |k: usize| k % 3 != r;
                let operands = [
                    (with_zeros(a, thirds(0)), b.clone()),
                    (with_zeros(a, thirds(1)), b.clone()),
                    (a.clone(), with_zeros(b, thirds(2))),
                    (with_zeros(a, thirds(2)), with_zeros(b, thirds(0))),
                    (with_zeros(a, |_| false), b.clone()),
                    (a.clone(), b.clone()),
                ];
                for (step, (az, bz)) in operands.iter().enumerate() {
                    kept.numeric(az, bz);
                    let what = what(&format!("refill {step}"));
                    assert_same(kept.matrix(), &spgemm(az, bz), &what);
                    assert_same(kept.matrix(), &product_oracle(az, bz), &what);
                }
            }
        }
    }
}

// ---- (b), (c) The hierarchy.

/// The level operator back in CSR, whatever format the hierarchy runs in.
trait LevelCsr {
    fn level_csr(&self) -> Csr;
}
impl LevelCsr for Csr {
    fn level_csr(&self) -> Csr {
        self.clone()
    }
}
impl LevelCsr for Sell8 {
    fn level_csr(&self) -> Csr {
        self.to_csr()
    }
}

const GRID: usize = 16;

/// Gray-Scott at `GRID`, its interpolation chain, `I − 0.5·J` at the initial
/// condition (`v = 0` on most nodes: stored zeros) and at the state one
/// Crank-Nicolson step later.
fn two_newton_matrices() -> (Vec<Csr>, Csr, Csr) {
    let gs = GrayScott::new(GRID, GrayScottParams::default());
    let interps = interpolation_chain(gs.grid(), 3);
    let u0 = gs.initial_condition(42);
    let newton = |u: &[f64]| matops::identity_plus_scaled(1.0, -0.5, &gs.rhs_jacobian(0.0, u));
    let a1 = newton(&u0);
    assert!(
        a1.values().iter().filter(|v| **v == 0.0).count() > a1.nnz() / 4,
        "the initial condition is the case with stored zeros"
    );
    let mut u1 = u0;
    let res = ThetaStepper::new(ThetaConfig::default()).step::<Csr, _, _>(&gs, &mut u1, |j| {
        Multigrid::<Csr>::new(j, &interps, MultigridConfig::default())
    });
    assert!(res.converged());
    let a2 = newton(&u1);
    assert_eq!(a1.colidx(), a2.colidx(), "one pattern, two states");
    (interps, a1, a2)
}

fn rhs(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7 + salt * 13) % 29) as f64 / 29.0 - 0.4)
        .collect()
}

/// Three applies into NaN-filled outputs.
fn applies<M: CoreOperator + FromCsr>(mg: &Multigrid<M>, n: usize) -> Vec<Vec<u64>> {
    (0..3)
        .map(|salt| {
            let mut z = vec![f64::NAN; n];
            mg.apply(&rhs(n, salt), &mut z);
            assert!(z.iter().all(|v| v.is_finite()));
            bits(&z)
        })
        .collect()
}

fn refresh_equals_cold_build<M: CoreOperator + FromCsr + LevelCsr>(format: &str) {
    let (interps, a1, a2) = two_newton_matrices();
    let n = a1.nrows();
    for smoother in [Smoother::Jacobi, Smoother::Chebyshev] {
        for coarse in [CoarseSolve::Jacobi(8), CoarseSolve::Direct] {
            for levels in 1..=3usize {
                let what = format!("{format}, {smoother:?}, {coarse:?}, {levels} levels");
                let cfg = MultigridConfig {
                    smoother,
                    coarse,
                    ..Default::default()
                };
                let interps = &interps[..levels - 1];
                let mut warm = Multigrid::<M>::new(&a1, interps, cfg);
                // An apply in between: the workspace is no part of set-up.
                applies(&warm, n);
                assert!(warm.refresh(&a2), "{what}: same pattern");
                let cold = Multigrid::<M>::new(&a2, interps, cfg);
                assert_eq!(warm.nlevels(), levels, "{what}");
                for l in 0..levels {
                    assert_same(
                        &warm.level_operator(l).level_csr(),
                        &cold.level_operator(l).level_csr(),
                        &format!("{what}: level {l}"),
                    );
                    assert_eq!(
                        bits(warm.level_inv_diag(l)),
                        bits(cold.level_inv_diag(l)),
                        "{what}: inverse diagonal of level {l}"
                    );
                }
                assert_eq!(applies(&warm, n), applies(&cold, n), "{what}: applies");
                // And back: a refresh is not a one-way street.
                assert!(warm.refresh(&a1), "{what}");
                let first = Multigrid::<M>::new(&a1, interps, cfg);
                assert_eq!(applies(&warm, n), applies(&first, n), "{what}: back");
            }
        }
    }
}

#[test]
fn refresh_equals_cold_build_csr() {
    refresh_equals_cold_build::<Csr>("Csr");
}

#[test]
fn refresh_equals_cold_build_sell8() {
    refresh_equals_cold_build::<Sell8>("Sell8");
}

/// `a` with one off-diagonal entry of row 0 moved to a column the row does
/// not store: same shape, same row lengths, another pattern.
fn one_column_moved(a: &Csr) -> Csr {
    let mut colidx = a.colidx().to_vec();
    let row = a.row_cols(0);
    let last = *row.last().unwrap();
    assert!((last as usize) < a.ncols() - 1 && last != 0, "room to move");
    colidx[row.len() - 1] = last + 1;
    Csr::from_parts(
        a.nrows(),
        a.ncols(),
        a.rowptr().to_vec(),
        colidx,
        a.values().to_vec(),
    )
}

#[test]
fn another_pattern_is_refused_and_nothing_is_touched() {
    let (interps, a1, _) = two_newton_matrices();
    let n = a1.nrows();
    let moved = one_column_moved(&a1);
    assert_eq!(moved.rowptr(), a1.rowptr());
    let smaller = Csr::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
    for cfg in [
        MultigridConfig::default(),
        MultigridConfig {
            smoother: Smoother::Chebyshev,
            coarse: CoarseSolve::Direct,
            ..Default::default()
        },
    ] {
        let mut mg = Multigrid::<Sell8>::new(&a1, &interps, cfg);
        let before = applies(&mg, n);
        assert!(!mg.refresh(&moved), "one column moved");
        assert!(!mg.refresh(&smaller), "another shape");
        assert_eq!(applies(&mg, n), before, "the hierarchy still serves a₁");
        assert!(mg.refresh(&a1), "and still refreshes for its own pattern");
        assert_eq!(applies(&mg, n), before);
    }
}

// ---- (d) The stepper.

/// A preconditioner that hides its value-only set-up: every Newton
/// iteration under it is a rebuild — the path a wrapper that does not
/// forward `refresh` takes.
struct AlwaysRebuilt<P>(P);

impl<P: Precond> Precond for AlwaysRebuilt<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.0.apply(r, z);
    }
    fn apply_ctx(&self, ctx: &ExecCtx, r: &[f64], z: &mut [f64]) {
        self.0.apply_ctx(ctx, r, z);
    }
}

#[test]
fn the_factory_is_called_when_there_is_nothing_to_refresh() {
    const STEPS: usize = 3;
    let gs = GrayScott::new(32, GrayScottParams::default());
    let interps = interpolation_chain(gs.grid(), 3);
    let u0 = gs.initial_condition(42);
    let cfg = ThetaConfig {
        theta: 0.5,
        dt: 1.0,
        newton: NewtonConfig {
            rtol: 1e-8,
            ksp: KspConfig {
                rtol: 1e-5,
                restart: 30,
                ..Default::default()
            },
            ..Default::default()
        },
    };
    let built = Cell::new(0usize);
    let factory = |j: &Csr| {
        built.set(built.get() + 1);
        Multigrid::<Sell8>::new(j, &interps, MultigridConfig::default())
    };
    let iterations = |ts: &ThetaStepper| -> Vec<(usize, usize)> {
        ts.stats()
            .iter()
            .map(|s| (s.newton_iterations, s.linear_iterations))
            .collect()
    };

    // One run: one hierarchy for the whole trajectory.
    let mut u_run = u0.clone();
    let mut ts = ThetaStepper::new(cfg);
    ts.run::<Sell8, _, _>(&gs, &mut u_run, STEPS, factory);
    assert_eq!(built.get(), 1, "a run builds once");
    let work = iterations(&ts);
    let newton_iterations: usize = work.iter().map(|it| it.0).sum();
    assert!(newton_iterations >= 2 * STEPS, "something to refresh");

    // A second stepper has nothing to refresh.
    let mut u_again = u0.clone();
    ThetaStepper::new(cfg).run::<Sell8, _, _>(&gs, &mut u_again, STEPS, factory);
    assert_eq!(built.get(), 2, "a second stepper builds again");
    assert_eq!(bits(&u_again), bits(&u_run));

    // Step by step the pair lives for one step: one build each.
    built.set(0);
    let mut u_steps = u0.clone();
    let mut ts_steps = ThetaStepper::new(cfg);
    for _ in 0..STEPS {
        assert!(ts_steps
            .step::<Sell8, _, _>(&gs, &mut u_steps, factory)
            .converged());
    }
    assert_eq!(built.get(), STEPS, "a step builds once");
    assert_eq!(iterations(&ts_steps), work);
    assert_eq!(bits(&u_steps), bits(&u_run));

    // The always-rebuild path: a build per Newton iteration, the same
    // trajectory to the bit.
    built.set(0);
    let mut u_rebuilt = u0.clone();
    let mut ts_rebuilt = ThetaStepper::new(cfg);
    ts_rebuilt.run::<Sell8, _, _>(&gs, &mut u_rebuilt, STEPS, |j| AlwaysRebuilt(factory(j)));
    assert_eq!(built.get(), newton_iterations, "a build per iteration");
    assert_eq!(iterations(&ts_rebuilt), work);
    assert_eq!(bits(&u_rebuilt), bits(&u_run));
}
