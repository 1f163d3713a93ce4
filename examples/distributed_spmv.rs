//! Distributed SpMV and a distributed GMRES solve on simulated MPI ranks —
//! the §2.2 four-step overlapped MatMult in action.
//!
//! ```sh
//! cargo run --release --example distributed_spmv -- [ranks] [grid]
//! ```

use sellkit::core::Sell8;
use sellkit::dist::{DistDot, DistMat, DistOp, DistVec};
use sellkit::mpisim;
use sellkit::solvers::ksp::{gmres, KspConfig};
use sellkit::solvers::pc::JacobiPc;
use sellkit::workloads::{GrayScott, GrayScottParams};
use sellkit_solvers::ts::OdeProblem;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ranks: usize = args.get(1).map_or(4, |s| s.parse().expect("rank count"));
    let grid: usize = args.get(2).map_or(64, |s| s.parse().expect("grid size"));

    println!("{ranks} simulated MPI ranks, {grid}x{grid} Gray-Scott Jacobian\n");

    let gs = GrayScott::new(grid, GrayScottParams::default());
    let w = gs.initial_condition(7);
    let a = gs.rhs_jacobian(0.0, &w);
    let n = gs.dim();

    let out = mpisim::run(ranks, move |comm| {
        // Every rank extracts its row block; the off-diagonal block is
        // compressed and a scatter plan is negotiated collectively.
        let dm = DistMat::<Sell8>::from_global_csr(comm, &a, comm.new_tag());
        if comm.rank() == 0 {
            println!(
                "rank 0: {} local rows, {} ghost columns, sends {} values per MatMult",
                dm.row_range().len(),
                dm.garray().len(),
                dm.comm_volume()
            );
        }

        // One overlapped MatMult.
        let x = DistVec::from_fn(comm, n, |g| (g as f64 * 0.001).sin());
        let mut y = DistVec::zeros(comm, n);
        dm.mult(comm, x.local(), y.local_mut());
        let ynorm = y.norm2(comm);

        // A shifted system (I + 0.5·J is nonsingular here) solved with
        // distributed GMRES + local Jacobi.
        let shifted = {
            use sellkit::core::CooBuilder;
            let mut b = CooBuilder::new(n, n);
            for i in 0..n {
                b.push(i, i, 1.0);
            }
            let gsl = GrayScott::new(grid, GrayScottParams::default());
            let w = gsl.initial_condition(7);
            let j = gsl.rhs_jacobian(0.0, &w);
            for i in 0..n {
                for (k, &c) in j.row_cols(i).iter().enumerate() {
                    b.push(i, c as usize, -0.5 * j.row_vals(i)[k]);
                }
            }
            b.to_csr()
        };
        let dm2 = DistMat::<Sell8>::from_global_csr(comm, &shifted, comm.new_tag());
        let me = dm2.row_range();
        let rhs = vec![1.0; me.len()];
        let mut sol = vec![0.0; me.len()];
        let pc = JacobiPc::from_csr(&dm2.diag().to_csr());
        let res = gmres(
            &DistOp { comm, mat: &dm2 },
            &pc,
            &DistDot { comm },
            &rhs,
            &mut sol,
            &KspConfig {
                rtol: 1e-8,
                ..Default::default()
            },
        );
        (ynorm, res.iterations, res.converged())
    });

    let (ynorm, iters, ok) = out[0];
    println!("\n|J x|        = {ynorm:.6e}   (identical on every rank)");
    println!("GMRES        = {iters} iterations, converged = {ok}");
    for (r, (yn, it, c)) in out.iter().enumerate() {
        assert_eq!(yn.to_bits(), ynorm.to_bits(), "rank {r} norm differs");
        assert_eq!(*it, iters);
        assert!(c);
    }
    println!("all ranks agree bitwise — deterministic reductions.");
}
