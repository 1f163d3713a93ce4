//! `PCSetUp`, not `PCCreate`: the numeric half of set-up, run alone on kept
//! patterns, gives what a cold build gives — bit for bit.
//!
//! * a kept [`Product`] refilled by `numeric` equals a from-scratch product
//!   (pattern and value bits) on every fuzz family, with stored zeros in
//!   either operand and a zero set that changes between two refills;
//! * `Multigrid::refresh(a₂)` after `new(a₁)` equals `Multigrid::new(a₂)` on
//!   every level (operator, inverse diagonal) and in three applies, for
//!   every cell of {format} × {smoother} × {coarse solve} × {levels};
//! * `Multigrid::refresh_fine(a₂)` after `new(a₁)` equals `new(a₂)` on level
//!   0 and leaves every coarser level (operator, inverse diagonal, coarse
//!   LU) as it was, on the same grid of cells;
//! * a fine matrix with another pattern is refused by either refresh and
//!   nothing is touched;
//! * the θ-stepper calls the factory when there is nothing to refresh — its
//!   hierarchy lives as long as the stepper, across `run` and `step` calls,
//!   unless the call names another format or the preconditioner cannot be
//!   kept — and the trajectory does not depend on which path set the
//!   hierarchy up, nor on whether GMRES applies the hierarchy's own fine
//!   operator (`Precond::operator`) or a copy the solve converted itself,
//!   nor on whether the hierarchy is boxed.  A Newton solve's later
//!   iterations keep the coarse levels of its first: a preconditioner that
//!   is rebuilt every iteration takes another trajectory, of the same
//!   Newton counts.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

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

/// Every level's operator in CSR and inverse diagonal bits.
fn levels_of<M: CoreOperator + FromCsr + LevelCsr>(mg: &Multigrid<M>) -> Vec<(Csr, Vec<u64>)> {
    (0..mg.nlevels())
        .map(|l| (mg.level_operator(l).level_csr(), bits(mg.level_inv_diag(l))))
        .collect()
}

fn refresh_fine_refreshes_level_zero_alone<M: CoreOperator + FromCsr + LevelCsr>(format: &str) {
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
                let before = applies(&warm, n);
                let kept = levels_of(&warm);
                assert!(warm.refresh_fine(&a2), "{what}: same pattern");
                let cold = levels_of(&Multigrid::<M>::new(&a2, interps, cfg));
                let now = levels_of(&warm);
                assert_same(&now[0].0, &cold[0].0, &format!("{what}: level 0"));
                assert_eq!(now[0].1, cold[0].1, "{what}: level 0 inverse diagonal");
                for l in 1..levels {
                    let at = format!("{what}: level {l}");
                    assert_same(&now[l].0, &kept[l].0, &at);
                    assert_eq!(now[l].1, kept[l].1, "{at}: inverse diagonal");
                    assert_ne!(
                        bits(now[l].0.values()),
                        bits(cold[l].0.values()),
                        "{at}: a₂'s coarse operator differs, so keeping a₁'s shows"
                    );
                }
                if levels == 1 {
                    // Level 0 is the coarsest: its LU is refactored too.
                    let cold = Multigrid::<M>::new(&a2, interps, cfg);
                    assert_eq!(applies(&warm, n), applies(&cold, n), "{what}");
                } else {
                    // Back on a₁'s level 0 the cycle is the one before the
                    // call: no coarse operator, diagonal or LU was touched.
                    assert!(warm.refresh_fine(&a1), "{what}");
                    assert_eq!(applies(&warm, n), before, "{what}: back");
                }
            }
        }
    }
}

#[test]
fn refresh_fine_refreshes_level_zero_alone_csr() {
    refresh_fine_refreshes_level_zero_alone::<Csr>("Csr");
}

#[test]
fn refresh_fine_refreshes_level_zero_alone_sell8() {
    refresh_fine_refreshes_level_zero_alone::<Sell8>("Sell8");
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
        assert!(!mg.refresh_fine(&moved), "one column moved, fine level");
        assert!(!mg.refresh_fine(&smaller), "another shape, fine level");
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

/// A preconditioner that forwards everything but its fine operator: the
/// solve converts a copy of the Jacobian of its own, as it does for one that
/// holds none.
struct OwnOperator<P>(P);

impl<P: Precond> Precond for OwnOperator<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.0.apply(r, z);
    }
    fn apply_ctx(&self, ctx: &ExecCtx, r: &[f64], z: &mut [f64]) {
        self.0.apply_ctx(ctx, r, z);
    }
    fn refresh(&mut self, a: &Csr) -> bool {
        self.0.refresh(a)
    }
    fn refresh_fine(&mut self, a: &Csr) -> bool {
        self.0.refresh_fine(a)
    }
}

/// Calls of each set-up path, shared with whoever made the preconditioner.
#[derive(Default)]
struct SetUps {
    refresh: Cell<usize>,
    refresh_fine: Cell<usize>,
}

/// A preconditioner that counts its full and its fine-level refreshes and
/// forwards everything.
struct Counted<P>(P, Rc<SetUps>);

impl<P: Precond> Precond for Counted<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.0.apply(r, z);
    }
    fn apply_ctx(&self, ctx: &ExecCtx, r: &[f64], z: &mut [f64]) {
        self.0.apply_ctx(ctx, r, z);
    }
    fn refresh(&mut self, a: &Csr) -> bool {
        self.1.refresh.set(self.1.refresh.get() + 1);
        self.0.refresh(a)
    }
    fn refresh_fine(&mut self, a: &Csr) -> bool {
        self.1.refresh_fine.set(self.1.refresh_fine.get() + 1);
        self.0.refresh_fine(a)
    }
    fn operator(&self) -> Option<&dyn CoreOperator> {
        self.0.operator()
    }
}

/// `Box<dyn Precond>` forwards `refresh_fine`: a boxed hierarchy is set up
/// as the unboxed one is — in full on each step's first Newton iteration,
/// at its fine level on every other — and lands on the same bits.
#[test]
fn a_boxed_multigrid_lags_as_the_unboxed_one_does() {
    const STEPS: usize = 3;
    let gs = GrayScott::new(32, GrayScottParams::default());
    let interps = interpolation_chain(gs.grid(), 3);
    let u0 = gs.initial_condition(42);
    let run = |boxed: bool| {
        let counts = Rc::new(SetUps::default());
        let builds = Cell::new(0usize);
        let factory = |j: &Csr| {
            builds.set(builds.get() + 1);
            let mg = Multigrid::<Sell8>::new(j, &interps, MultigridConfig::default());
            Counted(mg, Rc::clone(&counts))
        };
        let mut u = u0.clone();
        let mut ts = ThetaStepper::new(ThetaConfig::default());
        if boxed {
            ts.run::<Sell8, _, _>(&gs, &mut u, STEPS, |j| {
                Box::new(factory(j)) as Box<dyn Precond>
            });
        } else {
            ts.run::<Sell8, _, _>(&gs, &mut u, STEPS, factory);
        }
        let newton_iterations: usize = ts.stats().iter().map(|s| s.newton_iterations).sum();
        let set_ups = (
            builds.get(),
            counts.refresh.get(),
            counts.refresh_fine.get(),
        );
        (bits(&u), newton_iterations, set_ups)
    };
    let (u, newton_iterations, set_ups) = run(false);
    assert_eq!(
        set_ups,
        (1, STEPS - 1, newton_iterations - STEPS),
        "one build, a full refresh per later step, the rest at the fine level"
    );
    assert_eq!(run(true), (u, newton_iterations, set_ups), "boxed");
}

/// The operator a hierarchy shares is its level 0, not a copy.
#[test]
fn multigrid_shares_its_level_zero() {
    let (interps, a1, _) = two_newton_matrices();
    let mg = Multigrid::<Sell8>::new(&a1, &interps, MultigridConfig::default());
    let shared = mg.operator().expect("multigrid holds its fine operator");
    assert!(std::ptr::addr_eq(shared, mg.level_operator(0)));
    assert_eq!((shared.nrows(), shared.nnz()), (a1.nrows(), a1.nnz()));
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

    // Step by step the pair lives as long as the stepper: one build.
    built.set(0);
    let mut u_steps = u0.clone();
    let mut ts_steps = ThetaStepper::new(cfg);
    for _ in 0..STEPS {
        assert!(ts_steps
            .step::<Sell8, _, _>(&gs, &mut u_steps, factory)
            .converged());
    }
    assert_eq!(built.get(), 1, "a stepper builds once");
    assert_eq!(iterations(&ts_steps), work);
    assert_eq!(bits(&u_steps), bits(&u_run));

    // A step after a run refreshes the run's hierarchy and builds nothing,
    // on the trajectory of one longer run.
    built.set(0);
    let mut u_after = u_run.clone();
    assert!(ts
        .step::<Sell8, _, _>(&gs, &mut u_after, factory)
        .converged());
    assert_eq!(built.get(), 0, "a step after a run builds nothing");
    let mut u_longer = u0.clone();
    ThetaStepper::new(cfg).run::<Sell8, _, _>(&gs, &mut u_longer, STEPS + 1, factory);
    assert_eq!(bits(&u_after), bits(&u_longer));

    // A call that names another format finds no hierarchy of its type and
    // builds one; the trajectory is that of a fresh stepper per step.
    let built_csr = Cell::new(0usize);
    let factory_csr = |j: &Csr| {
        built_csr.set(built_csr.get() + 1);
        Multigrid::<Csr>::new(j, &interps, MultigridConfig::default())
    };
    built.set(0);
    let formats = ["csr", "sell", "sell", "csr"];
    let mut u_mixed = u0.clone();
    let mut u_fresh = u0.clone();
    let mut ts_mixed = ThetaStepper::new(cfg);
    let mut rebuilds = Vec::new();
    for format in formats {
        let mut ts_fresh = ThetaStepper::new(cfg);
        let (mixed, fresh) = if format == "csr" {
            (
                ts_mixed.step::<Csr, _, _>(&gs, &mut u_mixed, factory_csr),
                ts_fresh.step::<Csr, _, _>(&gs, &mut u_fresh, factory_csr),
            )
        } else {
            (
                ts_mixed.step::<Sell8, _, _>(&gs, &mut u_mixed, factory),
                ts_fresh.step::<Sell8, _, _>(&gs, &mut u_fresh, factory),
            )
        };
        assert!(mixed.converged());
        assert_eq!(
            (mixed.iterations, mixed.linear_iterations),
            (fresh.iterations, fresh.linear_iterations)
        );
        assert_eq!(bits(&u_mixed), bits(&u_fresh), "after a {format} step");
        rebuilds.push(built.get() + built_csr.get());
    }
    // The fresh steppers build once a step: 1, 2, 3, 4.  The kept one
    // builds at each change of format only, so it adds 1, 1, 0, 1.
    assert_eq!(rebuilds, [2, 4, 5, 7], "a build at each change of format");

    // The always-rebuild path: a build per Newton iteration.  Its later
    // iterations see fresh coarse levels where the kept hierarchy keeps
    // those of the solve's first, so it is another trajectory: the same
    // Newton counts, a state within 1e-8.
    built.set(0);
    let mut u_rebuilt = u0.clone();
    let mut ts_rebuilt = ThetaStepper::new(cfg);
    ts_rebuilt.run::<Sell8, _, _>(&gs, &mut u_rebuilt, STEPS, |j| AlwaysRebuilt(factory(j)));
    assert_eq!(built.get(), newton_iterations, "a build per iteration");
    let newton_counts = |work: &[(usize, usize)]| work.iter().map(|it| it.0).collect::<Vec<_>>();
    let rebuilt_work = iterations(&ts_rebuilt);
    assert_eq!(newton_counts(&rebuilt_work), newton_counts(&work));
    let apart = u_rebuilt
        .iter()
        .zip(&u_run)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(apart < 1e-8, "unlagged and lagged end {apart:e} apart");

    // GMRES on a converted copy of the Jacobian instead of the hierarchy's
    // level 0 (Amat = Pmat): the same trajectory to the bit, the same
    // single build.
    built.set(0);
    let mut u_own = u0.clone();
    let mut ts_own = ThetaStepper::new(cfg);
    ts_own.run::<Sell8, _, _>(&gs, &mut u_own, STEPS, |j| OwnOperator(factory(j)));
    assert_eq!(built.get(), 1, "the refresh path is forwarded");
    assert_eq!(iterations(&ts_own), work);
    assert_eq!(bits(&u_own), bits(&u_run));

    // A wrapper that does not forward `into_kept` is not kept between
    // calls: step by step it builds once a step (`OwnOperator`), on the
    // trajectory of the run, or once a Newton iteration if it hides
    // `refresh` too (`AlwaysRebuilt`), on that of the always-rebuilt run.
    for (hides_refresh, expected) in [(false, STEPS), (true, newton_iterations)] {
        built.set(0);
        let mut u_wrapped = u0.clone();
        let mut ts_wrapped = ThetaStepper::new(cfg);
        for _ in 0..STEPS {
            let res = if hides_refresh {
                ts_wrapped.step::<Sell8, _, _>(&gs, &mut u_wrapped, |j| AlwaysRebuilt(factory(j)))
            } else {
                ts_wrapped.step::<Sell8, _, _>(&gs, &mut u_wrapped, |j| OwnOperator(factory(j)))
            };
            assert!(res.converged());
        }
        assert_eq!(built.get(), expected, "hides refresh: {hides_refresh}");
        let (want_work, want_u) = if hides_refresh {
            (&rebuilt_work, &u_rebuilt)
        } else {
            (&work, &u_run)
        };
        assert_eq!(&iterations(&ts_wrapped), want_work);
        assert_eq!(bits(&u_wrapped), bits(want_u));
    }

    // The hierarchy belongs to the stepper: a step with a new factory
    // refreshes the one the stepper holds, so the new configuration is not
    // seen; a new stepper builds from the new factory.
    let built_new = Cell::new(0usize);
    let factory_new = |j: &Csr| {
        built_new.set(built_new.get() + 1);
        let more_smoothing = MultigridConfig {
            pre_smooth: 2,
            ..MultigridConfig::default()
        };
        Multigrid::<Sell8>::new(j, &interps, more_smoothing)
    };
    assert!(ts_steps
        .step::<Sell8, _, _>(&gs, &mut u_steps, factory_new)
        .converged());
    assert_eq!(built_new.get(), 0, "the stepper's hierarchy is refreshed");
    assert_eq!(bits(&u_steps), bits(&u_longer));
    let mut u_new = u_run.clone();
    assert!(ThetaStepper::new(cfg)
        .step::<Sell8, _, _>(&gs, &mut u_new, factory_new)
        .converged());
    assert_eq!(
        built_new.get(),
        1,
        "a new stepper builds from the new factory"
    );
    assert_ne!(
        bits(&u_new),
        bits(&u_longer),
        "the new configuration is seen"
    );
}
