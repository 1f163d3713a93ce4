//! Integration of the beyond-the-paper extensions: flexible GMRES over a
//! multigrid with an iterative coarse solve, Eisenstat-Walker Newton on
//! Gray-Scott, the adaptive timestepper, ASM preconditioning, TFQMR and the
//! profiler — all driving the same SELL kernels as the headline
//! experiments.

use sellkit::core::{Apply, Csr, ExecCtx, MatShape, Sell8};
use sellkit::grid::{interpolation_chain, laplacian_5pt, Grid2D};
use sellkit::obs::Registry;
use sellkit::solvers::ksp::{fgmres, gmres, tfqmr, KspConfig};
use sellkit::solvers::operator::{Counting, MatOperator, SeqDot};
use sellkit::solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig, Smoother};
use sellkit::solvers::pc::{AsmPc, JacobiPc, SubSolve};
use sellkit::solvers::snes::{Forcing, NewtonConfig};
use sellkit::solvers::ts::{AdaptConfig, AdaptiveTheta, ThetaConfig, ThetaStepper};
use sellkit::workloads::{GrayScott, GrayScottParams};
use sellkit_solvers::ts::OdeProblem;

fn shifted_laplacian(n: usize) -> Csr {
    let g = Grid2D::new(n, n, 1);
    let lap = laplacian_5pt(&g, &[1.0], 1.0);
    sellkit::core::matops::shift(&lap, 0.5)
}

#[test]
fn fgmres_with_chebyshev_multigrid() {
    let n = 32;
    let a = shifted_laplacian(n);
    let g = Grid2D::new(n, n, 1);
    let interps = interpolation_chain(&g, 3);
    let mg: Multigrid<Sell8> = Multigrid::new(
        &a,
        &interps,
        MultigridConfig {
            smoother: Smoother::Chebyshev,
            coarse: CoarseSolve::Jacobi(6),
            ..Default::default()
        },
    );
    let sell = Sell8::from_csr(&a);
    let rhs: Vec<f64> = (0..a.nrows())
        .map(|i| ((i * 3 % 11) as f64) - 5.0)
        .collect();
    let mut x = vec![0.0; a.nrows()];
    let res = fgmres(
        &MatOperator(&sell),
        &mg,
        &SeqDot,
        &rhs,
        &mut x,
        &KspConfig {
            rtol: 1e-9,
            ..Default::default()
        },
    );
    assert!(res.converged(), "{:?}", res.reason);
    assert!(
        res.iterations < 25,
        "MG-preconditioned: {} its",
        res.iterations
    );
}

#[test]
fn eisenstat_walker_newton_on_gray_scott() {
    let gs = GrayScott::new(24, GrayScottParams::default());
    let mut u_fixed = gs.initial_condition(3);
    let mut u_ew = u_fixed.clone();

    let run = |u: &mut [f64], forcing: Forcing| {
        let cfg = ThetaConfig {
            theta: 0.5,
            dt: 1.0,
            newton: NewtonConfig {
                rtol: 1e-8,
                ksp: KspConfig {
                    rtol: 1e-8,
                    ..Default::default()
                },
                forcing,
                ..Default::default()
            },
        };
        let mut ts = ThetaStepper::new(cfg);
        let res = ts.step::<Sell8, _, _>(&gs, u, JacobiPc::from_csr);
        assert!(res.converged());
        res.linear_iterations
    };
    let fixed = run(&mut u_fixed, Forcing::Fixed);
    let ew = run(&mut u_ew, Forcing::eisenstat_walker());
    assert!(
        ew <= fixed,
        "EW {ew} must not need more GMRES iterations than fixed {fixed}"
    );
    // Both land on (essentially) the same state.
    for i in 0..u_fixed.len() {
        assert!((u_fixed[i] - u_ew[i]).abs() < 1e-6, "dof {i}");
    }
}

#[test]
fn adaptive_cn_on_gray_scott_reaches_target_time() {
    let gs = GrayScott::new(16, GrayScottParams::default());
    let mut u = gs.initial_condition(9);
    let mut ts = AdaptiveTheta::new(
        0.5,
        NewtonConfig {
            rtol: 1e-8,
            ..Default::default()
        },
        AdaptConfig {
            tol: 1e-3,
            dt_max: 4.0,
            ..Default::default()
        },
        0.5,
    );
    ts.run_until::<Sell8, _, _>(&gs, &mut u, 5.0, JacobiPc::from_csr);
    assert!((ts.time() - 5.0).abs() < 1e-9);
    assert!(!ts.history().is_empty());
    assert!(u.iter().all(|v| v.is_finite()));
}

#[test]
fn tfqmr_with_asm_on_gray_scott_newton_system() {
    let gs = GrayScott::new(16, GrayScottParams::default());
    let w = gs.initial_condition(7);
    let j = gs.rhs_jacobian(0.0, &w);
    let a = sellkit::core::matops::identity_plus_scaled(1.0, -0.5, &j);
    let n = a.nrows();
    let rhs: Vec<f64> = (0..n).map(|i| ((i % 19) as f64) * 0.1 - 0.9).collect();
    let pc = AsmPc::new(&a, 4, SubSolve::Ilu0);
    let sell = Sell8::from_csr(&a);
    let mut x = vec![0.0; n];
    let res = tfqmr(
        &MatOperator(&sell),
        &pc,
        &SeqDot,
        &rhs,
        &mut x,
        &KspConfig {
            rtol: 1e-9,
            max_it: 500,
            ..Default::default()
        },
    );
    assert!(res.converged(), "{:?}", res.reason);
    // True residual check through CSR.
    use sellkit::core::Operator;
    let mut ax = vec![0.0; n];
    a.apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut ax).into(),
        Apply::Set,
    );
    let rnorm: f64 = ax
        .iter()
        .zip(&rhs)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt();
    assert!(rnorm < 1e-6, "residual {rnorm}");
}

#[test]
fn profiler_attributes_the_solve_phases() {
    let gs = GrayScott::new(24, GrayScottParams::default());
    let w = gs.initial_condition(1);
    let prof = Registry::new();
    use sellkit::core::Operator;
    let j = {
        let _span = prof.span("MatAssembly");
        gs.rhs_jacobian(0.0, &w)
    };
    let sell = {
        let _span = prof.span("MatConvert");
        Sell8::from_csr(&j)
    };
    let op = Counting::new(MatOperator(&sell));
    let rhs = vec![1.0; j.nrows()];
    let mut x = vec![0.0; j.nrows()];
    let a_shift = sellkit::core::matops::shift(&j.clone(), 2.0);
    let pc = JacobiPc::from_csr(&a_shift);
    {
        let _span = prof.span("KSPSolve");
        let _ = gmres(
            &op,
            &pc,
            &SeqDot,
            &rhs,
            &mut x,
            &KspConfig {
                rtol: 1e-4,
                max_it: 60,
                ..Default::default()
            },
        );
    }
    prof.add_flops("KSPSolve", (2 * j.nnz() * op.applies()) as f64);
    // True-residual MatMult with its flops attributed atomically — the
    // span_traffic pattern every explicit MatMult call site uses, so the
    // event can never report time with zero flops.
    let mut ax = vec![0.0; j.nrows()];
    {
        let _span = prof.span_traffic("MatMult", 2.0 * j.nnz() as f64, 0.0);
        sell.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut ax).into(),
            Apply::Set,
        );
    }
    prof.stop();
    assert!(prof.elapsed() > 0.0);
    let rep = prof.report();
    let ksp = rep.event("KSPSolve").expect("recorded");
    assert!(ksp.flops > 0.0 && ksp.count == 1);
    let mm = rep.event("MatMult").expect("recorded");
    assert_eq!(mm.count, 1);
    assert_eq!(mm.flops, 2.0 * j.nnz() as f64, "flops attributed with time");
    let report = rep.log_view();
    for name in ["MatAssembly", "MatConvert", "KSPSolve", "MatMult"] {
        assert!(report.contains(name), "{name} in report:\n{report}");
    }
}
