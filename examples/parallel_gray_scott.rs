//! The paper's multinode experiment in miniature (§7.3 / Figure 10):
//! Gray-Scott integrated with Crank-Nicolson across simulated MPI ranks —
//! halo exchange, rank-local Jacobian assembly, the serial θ-stepper on
//! each rank's rows, and the overlapped parallel MatMult in CSR or SELL.
//!
//! The formats run in the order CSR, SELL-8, SELL-8, CSR, so that neither
//! always runs on a cold process; each run is a fresh stepper over fresh
//! ranks, and the repeats of one format must end on the same bits.
//!
//! ```sh
//! cargo run --release -p sellkit --example parallel_gray_scott -- [ranks] [grid] [steps]
//! ```

use std::time::Instant;

use sellkit::core::{Csr, FromCsr, Operator, Sell8};
use sellkit::dist::RankRows;
use sellkit::mpisim;
use sellkit::solvers::ksp::KspConfig;
use sellkit::solvers::pc::JacobiPc;
use sellkit::solvers::snes::NewtonConfig;
use sellkit::solvers::ts::{ThetaConfig, ThetaStepper};
use sellkit::workloads::dist_gray_scott::DistGrayScott;
use sellkit::workloads::GrayScottParams;

/// One run: `steps` Crank-Nicolson steps of Δt = 1 on `ranks` ranks, every
/// SpMV of the linear solves in format `M`.  Returns the wall time of the
/// steps and the global final state.
fn run_parallel<M: Operator + FromCsr>(ranks: usize, grid: usize, steps: usize) -> (f64, Vec<f64>) {
    let out = mpisim::run(ranks, move |comm| {
        let p = DistGrayScott::new(comm, grid, GrayScottParams::default());
        let mut u = p.initial_condition_local(42);
        let mut ts = ThetaStepper::new(ThetaConfig {
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
        });
        comm.barrier();
        let t0 = Instant::now();
        // One distributed matrix, scatter and block-Jacobi per rank for the
        // whole run, refreshed in every later Newton iteration.
        let rows = RankRows::<M>::new(comm);
        ts.run_on(rows, &p, &mut u, steps, JacobiPc::from_csr);
        comm.barrier();
        let dt = t0.elapsed().as_secs_f64();
        if comm.rank() == 0 {
            for (s, st) in ts.stats().iter().enumerate() {
                println!(
                    "  step {:>2}: newton {} its, gmres {} its, |F| = {:.2e}  (halo {} values)",
                    s + 1,
                    st.newton_iterations,
                    st.linear_iterations,
                    st.fnorm,
                    p.halo_len()
                );
            }
        }
        (dt, comm.allgather(u).concat())
    });
    out.into_iter().next().expect("rank 0 result")
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

    let mut csr = Vec::new();
    let mut sell = Vec::new();
    for (k, use_sell) in [false, true, true, false].into_iter().enumerate() {
        let (name, (secs, u)) = if use_sell {
            println!("\nrun {}: SELL (C = 8)", k + 1);
            ("SELL-8", run_parallel::<Sell8>(ranks, grid, steps))
        } else {
            println!("\nrun {}: CSR", k + 1);
            ("CSR", run_parallel::<Csr>(ranks, grid, steps))
        };
        println!("  {name} wall time {secs:.3} s");
        if use_sell { &mut sell } else { &mut csr }.push((secs, u));
    }

    let bits = |u: &[f64]| u.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&csr[0].1), bits(&csr[1].1), "CSR repeats differ");
    assert_eq!(bits(&sell[0].1), bits(&sell[1].1), "SELL-8 repeats differ");
    let max_diff = csr[0]
        .1
        .iter()
        .zip(&sell[0].1)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\ntrajectory agreement: max |Δu| = {max_diff:.2e}");
    assert!(max_diff < 1e-8, "formats must agree");
    let mean = |runs: &[(f64, Vec<f64>)]| runs.iter().map(|r| r.0).sum::<f64>() / runs.len() as f64;
    let (t_csr, t_sell) = (mean(&csr), mean(&sell));
    println!(
        "mean of 2 runs: CSR {t_csr:.3} s vs SELL {t_sell:.3} s ({:.2}x)",
        t_csr / t_sell
    );

    // SELLKIT_LOG=1 turns on the staged -log_view engine: print the stage
    // table, its times summed over the rank threads.
    if sellkit::obs::enabled() {
        let rep = sellkit::obs::report();
        println!("\n{}", rep.log_view());
        // Each run builds one distributed matrix and one block-Jacobi
        // preconditioner per rank, from one split of the rows, and
        // refreshes both in every later Newton iteration of every step:
        // the preconditioner in full (`pc.refresh`) on each later step's
        // first iteration, through `refresh_fine` (the same refresh for
        // Jacobi) on every other.
        let counter = |name| rep.counters.get(name).copied().unwrap_or(0.0);
        assert_eq!(
            counter("dmat.rebuild"),
            (4 * ranks) as f64,
            "one build per run and rank"
        );
        assert_eq!(counter("pc.rebuild"), counter("dmat.rebuild"));
        assert_eq!(
            counter("pc.refresh"),
            (4 * ranks * (steps - 1)) as f64,
            "one full refresh per later step, run and rank"
        );
        assert_eq!(
            counter("pc.refresh") + counter("pc.refresh_fine"),
            counter("dmat.refresh")
        );
    }
}
