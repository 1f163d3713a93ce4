//! The paper's multinode experiment in miniature (§7.3 / Figure 10):
//! Gray-Scott integrated with Crank-Nicolson across simulated MPI ranks —
//! halo exchange, rank-local Jacobian assembly, distributed Newton, and
//! the overlapped parallel MatMult in CSR or SELL.
//!
//! ```sh
//! cargo run --release -p sellkit --example parallel_gray_scott -- [ranks] [grid] [steps]
//! ```

use std::time::Instant;

use sellkit::core::{Csr, FromCsr, Operator, Sell8};
use sellkit::mpisim;
use sellkit::solvers::ksp::KspConfig;
use sellkit::solvers::pc::JacobiPc;
use sellkit::solvers::snes::NewtonConfig;
use sellkit::workloads::dist_gray_scott::{dist_theta_step, DistGrayScott};
use sellkit::workloads::GrayScottParams;

fn run_parallel<M: Operator + FromCsr>(ranks: usize, grid: usize, steps: usize) -> (f64, Vec<f64>) {
    let out = mpisim::run(ranks, move |comm| {
        let p = DistGrayScott::new(comm, grid, GrayScottParams::default());
        let mut u = p.initial_condition_local(42);
        let cfg = NewtonConfig {
            rtol: 1e-8,
            ksp: KspConfig {
                rtol: 1e-5,
                restart: 30,
                ..Default::default()
            },
            ..Default::default()
        };
        comm.barrier();
        let t0 = Instant::now();
        for s in 0..steps {
            let res = dist_theta_step::<M, _>(
                comm,
                &p,
                &mut u,
                s as f64,
                1.0,
                0.5,
                &cfg,
                JacobiPc::from_csr,
            );
            assert!(res.converged(), "step {s}: {:?}", res.reason);
            if comm.rank() == 0 {
                println!(
                    "  step {:>2}: newton {} its, gmres {} its, |F| = {:.2e}  (halo {} values)",
                    s + 1,
                    res.iterations,
                    res.linear_iterations,
                    res.fnorm,
                    p.halo_len()
                );
            }
        }
        comm.barrier();
        let dt = t0.elapsed().as_secs_f64();
        (dt, comm.allgather(u).concat())
    });
    let (secs, u) = out.into_iter().next().expect("rank 0 result");
    (secs, u)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ranks: usize = args.get(1).map_or(4, |s| s.parse().expect("ranks"));
    let grid: usize = args.get(2).map_or(48, |s| s.parse().expect("grid"));
    let steps: usize = args.get(3).map_or(5, |s| s.parse().expect("steps"));
    println!(
        "parallel Gray-Scott: {ranks} ranks, {grid}x{grid} grid ({} unknowns), {steps} CN steps",
        2 * grid * grid
    );

    println!("\nformat: CSR");
    let (t_csr, u_csr) = run_parallel::<Csr>(ranks, grid, steps);
    println!("  wall time {t_csr:.3} s");

    println!("\nformat: SELL (C = 8)");
    let (t_sell, u_sell) = run_parallel::<Sell8>(ranks, grid, steps);
    println!("  wall time {t_sell:.3} s");

    let max_diff = u_csr
        .iter()
        .zip(&u_sell)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\ntrajectory agreement: max |Δu| = {max_diff:.2e}");
    assert!(max_diff < 1e-8, "formats must agree");
    println!(
        "CSR {t_csr:.3} s vs SELL {t_sell:.3} s ({:.2}x)",
        t_csr / t_sell
    );

    // SELLKIT_LOG=1 turns on the staged -log_view engine: print the stage
    // table, its times summed over the rank threads.
    if sellkit::obs::enabled() {
        let rep = sellkit::obs::report();
        println!("\n{}", rep.log_view());
        // Each Newton solve builds one distributed matrix and one
        // block-Jacobi preconditioner per rank, from one split of the rows,
        // and refreshes both in the later iterations.
        let counter = |name| rep.counters.get(name).copied().unwrap_or(0.0);
        assert_eq!(
            counter("dmat.rebuild"),
            (2 * ranks * steps) as f64,
            "one build per Newton solve, rank and format"
        );
        assert_eq!(counter("pc.rebuild"), counter("dmat.rebuild"));
        assert_eq!(counter("pc.refresh"), counter("dmat.refresh"));
    }
}
