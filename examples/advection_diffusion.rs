//! Advection-diffusion transport integrated implicitly — the second PDE
//! workload (the PETSc tutorial family the paper's test problem lives in),
//! with a `-log_view`-style breakdown (a private `sellkit::obs::Registry`)
//! showing where the solve time goes.
//!
//! ```sh
//! cargo run --release -p sellkit --example advection_diffusion -- [grid] [steps]
//! ```

use sellkit::core::{matops, Apply, Csr, ExecCtx, MatShape, Operator, Sell8};
use sellkit::obs::Registry;
use sellkit::solvers::ksp::{gmres, KspConfig};
use sellkit::solvers::operator::{Counting, CtxMatOperator, SeqDot};
use sellkit::solvers::pc::Ilu0;
use sellkit::workloads::{AdvectionDiffusion, AdvectionDiffusionParams};
use sellkit_solvers::ts::OdeProblem;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let grid: usize = args.get(1).map_or(96, |s| s.parse().expect("grid"));
    let steps: usize = args.get(2).map_or(20, |s| s.parse().expect("steps"));

    let prob = AdvectionDiffusion::new(grid, AdvectionDiffusionParams::default());
    let n = prob.dim();
    println!(
        "advection-diffusion on {grid}x{grid} periodic grid ({n} unknowns), {steps} BE steps\n"
    );

    let profiler = Registry::new();

    // Linear problem: the backward-Euler matrix (I − Δt·J) is constant, so
    // assemble and factor once — unlike Gray-Scott, where §7's per-Newton
    // re-assembly dominates.
    let dt = 0.01;
    let a: Csr = {
        let _span = profiler.span("MatAssembly");
        let j = prob.rhs_jacobian(0.0, &prob.gaussian_initial());
        matops::identity_plus_scaled(1.0, -dt, &j)
    };
    let ilu = {
        let _span = profiler.span("PCSetUp(ILU0)");
        Ilu0::factor(&a)
    };
    let sell = {
        let _span = profiler.span("MatConvert(SELL)");
        Sell8::from_csr(&a)
    };

    // SELLKIT_THREADS picks the worker-pool width (1 = serial); every
    // MatMult the solver issues runs on the pool.
    let ctx = ExecCtx::from_env();
    println!("execution context: {} thread(s)", ctx.threads());
    let op = Counting::new(CtxMatOperator::new(&sell, &ctx));
    let mut u = prob.gaussian_initial();
    let mass0: f64 = u.iter().sum();

    let cfg = KspConfig {
        rtol: 1e-10,
        ..Default::default()
    };
    let mut total_iters = 0usize;
    for _ in 0..steps {
        let b = u.clone();
        let res = {
            let _span = profiler.span("KSPSolve");
            gmres(&op, &ilu, &SeqDot, &b, &mut u, &cfg)
        };
        assert!(res.converged());
        total_iters += res.iterations;
    }
    profiler.add_flops("KSPSolve", (op.applies() * 2 * a.nnz()) as f64);
    // Final true-residual MatMult: span_traffic attributes the flops with
    // the timing atomically, so the event's Gflop/s can't read 0 flops.
    let mut au = vec![0.0; n];
    {
        let _span = profiler.span_traffic("MatMult", 2.0 * a.nnz() as f64, 0.0);
        sell.apply(&ctx, (&u).into(), (&mut au).into(), Apply::Set);
    }
    profiler.stop();
    let report = profiler.report();

    let mass1: f64 = u.iter().sum();
    println!("{}", report.log_view());
    println!(
        "GMRES iterations total: {total_iters} ({} MatMults)",
        op.applies()
    );
    println!(
        "mass conservation: {mass0:.6} -> {mass1:.6} (drift {:.2e})",
        (mass1 - mass0).abs() / mass0
    );
    println!(
        "KSPSolve share of runtime: {:.0}%",
        report.event("KSPSolve").map_or(0.0, |e| e.seconds) / report.total_s * 100.0
    );
    assert!(
        (mass1 - mass0).abs() / mass0 < 1e-8,
        "implicit upwind scheme conserves mass"
    );
    assert!(u.iter().all(|v| v.is_finite() && *v > -1e-9));
}
