//! The §7 experiment end-to-end: Gray-Scott reaction-diffusion integrated
//! with Crank-Nicolson; each implicit step solved by Newton; each Newton
//! system by GMRES preconditioned with a 3-level multigrid V-cycle using
//! Jacobi smoothers — with every SpMV of the linear solve running in the
//! matrix format you choose.
//!
//! ```sh
//! cargo run --release --example gray_scott -- [grid] [steps] [csr|sell]
//! ```
//!
//! With `SELLKIT_LOG=1` it also prints the `-log_view` table and checks the
//! set-up policy: one full set-up of the hierarchy per step, on the step's
//! first Newton iteration, and a refresh of its fine level alone on every
//! later one.

use std::cell::Cell;
use std::time::Instant;

use sellkit::core::{Csr, FromCsr, Operator, Sell8};
use sellkit::grid::interpolation_chain;
use sellkit::machine::{stream_probe, StreamKernel};
use sellkit::solvers::ksp::KspConfig;
use sellkit::solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig};
use sellkit::solvers::snes::NewtonConfig;
use sellkit::solvers::ts::{ThetaConfig, ThetaStepper};
use sellkit::workloads::{GrayScott, GrayScottParams};

fn run_simulation<M: Operator + FromCsr>(grid: usize, steps: usize) -> (Vec<f64>, f64) {
    let gs = GrayScott::new(grid, GrayScottParams::default());
    let interps = interpolation_chain(gs.grid(), 3);
    // The paper's solver options (§7.2): 3-level V-cycle, Jacobi
    // smoothers, Jacobi coarse solve, GMRES, CN with dt = 1.
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
    let mg_cfg = MultigridConfig {
        coarse: CoarseSolve::Jacobi(8),
        ..Default::default()
    };

    let mut u = gs.initial_condition(42);
    let mut ts = ThetaStepper::new(cfg);
    // The stepper keeps its hierarchy from step to step and refreshes it:
    // the factory runs once for the whole simulation.
    let builds = Cell::new(0usize);
    let factory = |j: &Csr| {
        builds.set(builds.get() + 1);
        Multigrid::<M>::new(j, &interps, mg_cfg)
    };
    // (full set-ups, fine-level refreshes) so far in the process.
    let set_ups = || {
        let rep = sellkit::obs::snapshot();
        let counter = |name| rep.counters.get(name).copied().unwrap_or(0.0);
        (
            counter("pc.rebuild") + counter("pc.refresh"),
            counter("pc.refresh_fine"),
        )
    };
    let before = set_ups();
    let t0 = Instant::now();
    for s in 0..steps {
        let res = ts.step::<M, _, _>(&gs, &mut u, factory);
        println!(
            "  step {:>2}: newton {} its, gmres {} its, |F| = {:.3e}",
            s + 1,
            res.iterations,
            res.linear_iterations,
            res.fnorm
        );
        assert!(res.converged());
    }
    let secs = t0.elapsed().as_secs_f64();
    println!("  multigrid hierarchies built: {}", builds.get());
    assert_eq!(builds.get(), 1, "one hierarchy per simulation");
    // A Newton solve sets every level up on its first iteration and keeps
    // the coarse ones on the later iterations.  The counters are on only
    // with logging.
    if sellkit::obs::enabled() {
        let after = set_ups();
        let (full, fine) = (after.0 - before.0, after.1 - before.1);
        println!("  multigrid set-ups: {full} full, {fine} of the fine level alone");
        assert_eq!(full, steps as f64, "one full set-up per step");
    }
    (u, secs)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let grid: usize = args.get(1).map_or(64, |s| s.parse().expect("grid size"));
    let steps: usize = args.get(2).map_or(5, |s| s.parse().expect("step count"));
    let format = args.get(3).map_or("both", String::as_str);

    println!(
        "Gray-Scott on a {grid}x{grid} periodic grid ({} unknowns), {steps} CN steps\n",
        2 * grid * grid
    );

    let mut results: Vec<(&str, Vec<f64>, f64)> = Vec::new();
    if format == "csr" || format == "both" {
        println!("matrix format: CSR (AIJ)");
        let (u, secs) = run_simulation::<Csr>(grid, steps);
        println!("  total: {secs:.3} s\n");
        results.push(("CSR", u, secs));
    }
    if format == "sell" || format == "both" {
        println!("matrix format: SELL (sliced ELLPACK, C = 8)");
        let (u, secs) = run_simulation::<Sell8>(grid, steps);
        println!("  total: {secs:.3} s\n");
        results.push(("SELL", u, secs));
    }

    if results.len() == 2 {
        let max_diff = results[0]
            .1
            .iter()
            .zip(&results[1].1)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!("trajectory agreement CSR vs SELL: max |Δu| = {max_diff:.3e}");
        println!(
            "wall time: CSR {:.3} s vs SELL {:.3} s",
            results[0].2, results[1].2
        );
        assert!(max_diff < 1e-8, "formats must compute the same simulation");
    }

    // SELLKIT_LOG=1 turns on the staged -log_view engine: print the stage
    // table and leave machine-readable exports next to it.
    if sellkit::obs::enabled() {
        let rep = sellkit::obs::report();
        println!("\n{}", rep.log_view());
        let threads = std::env::var("SELLKIT_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1usize);
        // This host's measured copy roof; a debug build has none to report.
        let bw =
            (!cfg!(debug_assertions)).then(|| stream_probe(StreamKernel::Copy, threads, None).gbs);
        for (path, text) in [
            ("gray_scott_report.json", rep.to_json(bw)),
            ("gray_scott_trace.json", rep.chrome_trace()),
        ] {
            match std::fs::write(path, format!("{text}\n")) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    }
}
