//! Distributed-memory integration: the §2.2 overlapped MatMult and
//! distributed Krylov solves across rank counts, formats, and partitions.

#[path = "common/ring.rs"]
mod ring;

use ring::Ring;
use sellkit::core::{Apply, Csr, ExecCtx, MatShape, Operator, Sell8, SellSigma8};
use sellkit::dist::{dist_newton, split_rows, DistDot, DistMat, DistOp, DistVec};
use sellkit::mpisim::run;
use sellkit::solvers::ksp::{gmres, KspConfig};
use sellkit::solvers::operator::{MatOperator, SeqDot};
use sellkit::solvers::pc::{IdentityPc, JacobiPc};
use sellkit::solvers::snes::newton::{newton, Forcing, NewtonConfig};
use sellkit::workloads::generators;
use sellkit::workloads::{GrayScott, GrayScottParams};
use sellkit_solvers::ts::OdeProblem;

fn gray_scott_jacobian(grid: usize) -> Csr {
    let gs = GrayScott::new(grid, GrayScottParams::default());
    let w = gs.initial_condition(9);
    gs.rhs_jacobian(0.0, &w)
}

#[test]
fn matmult_equals_sequential_for_many_rank_counts() {
    let a = gray_scott_jacobian(16); // 512 unknowns
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|g| ((g % 17) as f64) * 0.1).collect();
    let mut want = vec![0.0; n];
    a.apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut want).into(),
        Apply::Set,
    );

    for ranks in [1usize, 2, 3, 5, 8] {
        let a2 = a.clone();
        let x2 = x.clone();
        let out = run(ranks, move |comm| {
            let dm = DistMat::<Sell8>::from_global_csr(comm, &a2, 1);
            let me = dm.row_range();
            let mut y = vec![0.0; me.len()];
            dm.mult(comm, &x2[me.start..me.end], &mut y);
            let mut yv = DistVec::zeros(comm, a2.nrows());
            yv.local_mut().copy_from_slice(&y);
            yv.gather_all(comm)
        });
        for y in out {
            for i in 0..n {
                assert!((y[i] - want[i]).abs() < 1e-11, "{ranks} ranks, row {i}");
            }
        }
    }
}

#[test]
fn sell_sigma_blocks_work_distributed_too() {
    // The DistMat is generic over any FromCsr+Operator local format,
    // here one that is neither CSR nor SELL.
    let a = generators::banded(60, 2, 3);
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|g| g as f64).collect();
    let mut want = vec![0.0; n];
    a.apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut want).into(),
        Apply::Set,
    );
    let out = run(3, move |comm| {
        let dm = DistMat::<SellSigma8>::from_global_csr(comm, &a, 1);
        let me = dm.row_range();
        let mut y = vec![0.0; me.len()];
        dm.mult(comm, &x[me.start..me.end], &mut y);
        (me, y)
    });
    for (me, y) in out {
        for (li, g) in (me.start..me.end).enumerate() {
            assert!((y[li] - want[g]).abs() < 1e-11);
        }
    }
}

#[test]
fn uneven_partitions_are_handled() {
    // 2·17² = 578 unknowns over 7 ranks: 578 = 7·82 + 4 → uneven split.
    let a = gray_scott_jacobian(17);
    let n = a.nrows();
    let ranges = split_rows(n, 7);
    assert!(
        ranges.iter().any(|r| r.len() != ranges[0].len()),
        "split must be uneven"
    );
    let x: Vec<f64> = (0..n).map(|g| (g as f64 * 0.01).cos()).collect();
    let mut want = vec![0.0; n];
    a.apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut want).into(),
        Apply::Set,
    );
    let out = run(7, move |comm| {
        let dm = DistMat::<Sell8>::from_global_csr(comm, &a, 1);
        let me = dm.row_range();
        let mut y = vec![0.0; me.len()];
        dm.mult(comm, &x[me.start..me.end], &mut y);
        let mut yv = DistVec::zeros(comm, n);
        yv.local_mut().copy_from_slice(&y);
        yv.gather_all(comm)
    });
    for y in out {
        for i in 0..n {
            assert!((y[i] - want[i]).abs() < 1e-11, "row {i}");
        }
    }
}

#[test]
fn distributed_solve_matches_sequential_on_gray_scott_system() {
    // Solve (I - 0.5 J) x = b — the actual CN Newton system shape.
    let grid = 12;
    let j = gray_scott_jacobian(grid);
    let n = j.nrows();
    let mut b = sellkit::core::CooBuilder::new(n, n);
    for i in 0..n {
        b.push(i, i, 1.0);
        for (k, &c) in j.row_cols(i).iter().enumerate() {
            b.push(i, c as usize, -0.5 * j.row_vals(i)[k]);
        }
    }
    let a = b.to_csr();
    let rhs: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) * 0.1 - 1.0).collect();
    let cfg = KspConfig {
        rtol: 1e-10,
        ..Default::default()
    };

    let mut x_seq = vec![0.0; n];
    let r = gmres(
        &MatOperator(&a),
        &JacobiPc::from_csr(&a),
        &SeqDot,
        &rhs,
        &mut x_seq,
        &cfg,
    );
    assert!(r.converged());

    let a2 = a.clone();
    let rhs2 = rhs.clone();
    let out = run(4, move |comm| {
        let dm = DistMat::<Sell8>::from_global_csr(comm, &a2, 5);
        let me = dm.row_range();
        let mut x = vec![0.0; me.len()];
        let pc = JacobiPc::from_csr(&dm.diag().to_csr());
        let res = gmres(
            &DistOp { comm, mat: &dm },
            &pc,
            &DistDot { comm },
            &rhs2[me.start..me.end],
            &mut x,
            &KspConfig {
                rtol: 1e-10,
                ..Default::default()
            },
        );
        assert!(res.converged());
        let mut xv = DistVec::zeros(comm, n);
        xv.local_mut().copy_from_slice(&x);
        xv.gather_all(comm)
    });
    for x in out {
        for i in 0..n {
            assert!(
                (x[i] - x_seq[i]).abs() < 1e-6,
                "row {i}: {} vs {}",
                x[i],
                x_seq[i]
            );
        }
    }
}

#[test]
fn local_row_assembly_builds_the_same_distributed_matrix() {
    // The realistic path: each rank assembles only its own Jacobian rows
    // (no global matrix anywhere) and the resulting DistMat multiplies
    // identically to the global-extraction construction.
    let grid = 12;
    let gs = GrayScott::new(grid, GrayScottParams::default());
    let w = gs.initial_condition(4);
    let full = gs.rhs_jacobian(0.0, &w);
    let n = gs.dim();
    let x: Vec<f64> = (0..n).map(|g| (g as f64 * 0.07).sin()).collect();
    let mut want = vec![0.0; n];
    full.apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut want).into(),
        Apply::Set,
    );

    let out = run(4, move |comm| {
        let ranges = split_rows(n, comm.size());
        let me = ranges[comm.rank()];
        let local = gs.rhs_jacobian_rows(0.0, &w, me.start..me.end);
        let dm = DistMat::<Sell8>::from_local_rows(comm, n, n, &local, 11);
        let mut y = vec![0.0; me.len()];
        dm.mult(comm, &x[me.start..me.end], &mut y);
        let mut yv = DistVec::zeros(comm, n);
        yv.local_mut().copy_from_slice(&y);
        yv.gather_all(comm)
    });
    for y in out {
        for i in 0..n {
            assert!((y[i] - want[i]).abs() < 1e-11, "row {i}");
        }
    }
}

#[test]
fn comm_volume_matches_stencil_boundary() {
    // For a periodic 5-point stencil partitioned by rows, each rank
    // exchanges one grid line (×dof) with each neighbour.
    let grid = 16;
    let a = gray_scott_jacobian(grid);
    let out = run(4, move |comm| {
        let dm = DistMat::<Csr>::from_global_csr(comm, &a, 1);
        (dm.garray().len(), dm.comm_volume())
    });
    for (ghosts, volume) in out {
        // Each rank owns 4 grid lines; needs top and bottom neighbour
        // lines: 2 lines × 16 points × 2 dof = 64 ghosts.
        assert_eq!(ghosts, 64, "ghost count");
        assert_eq!(volume, 64, "send volume symmetric");
    }
}

#[test]
fn identity_pc_distributed_matches_identity_sequential_iterations() {
    let a = generators::stencil5(12); // Dirichlet → nonsingular
    let n = a.nrows();
    let rhs = vec![1.0; n];
    let cfg = KspConfig {
        rtol: 1e-8,
        ..Default::default()
    };
    let mut x = vec![0.0; n];
    let seq = gmres(&MatOperator(&a), &IdentityPc, &SeqDot, &rhs, &mut x, &cfg);

    let out = run(2, move |comm| {
        let dm = DistMat::<Csr>::from_global_csr(comm, &a, 1);
        let me = dm.row_range();
        let mut x = vec![0.0; me.len()];
        gmres(
            &DistOp { comm, mat: &dm },
            &IdentityPc,
            &DistDot { comm },
            &vec![1.0; me.len()],
            &mut x,
            &KspConfig {
                rtol: 1e-8,
                ..Default::default()
            },
        )
        .iterations
    });
    assert_eq!(out[0], seq.iterations, "same math, same iterations");
}

/// `NewtonConfig::forcing` reaches the distributed linear solves: with
/// Eisenstat–Walker forcing every rank count takes the serial solve's
/// Newton steps and its (far fewer) GMRES iterations, not the fixed-
/// tolerance run's.
#[test]
fn eisenstat_walker_forcing_reaches_the_distributed_linear_solves() {
    let n = 48;
    let cfg = |forcing| NewtonConfig {
        rtol: 1e-10,
        ksp: KspConfig {
            rtol: 1e-8,
            ..Default::default()
        },
        forcing,
        ..Default::default()
    };
    let serial = |forcing| {
        let mut x = vec![0.4; n];
        let res = newton::<Csr, _, _>(&Ring::new(n), &mut x, &cfg(forcing), JacobiPc::from_csr);
        assert!(res.converged(), "{:?}", res.reason);
        (res.iterations, res.linear_iterations)
    };
    let ew = serial(Forcing::eisenstat_walker());
    let fixed = serial(Forcing::Fixed);
    assert_ne!(ew.1, fixed.1, "the two forcings must be told apart");

    for ranks in [1usize, 3, 4] {
        let out = run(ranks, move |comm| {
            let p = Ring::new(n);
            let mut x = vec![0.4; p.rows_of(comm).len()];
            let res = dist_newton::<Sell8, _, _>(
                comm,
                &p,
                &mut x,
                &cfg(Forcing::eisenstat_walker()),
                100,
                JacobiPc::from_csr,
            );
            assert!(res.converged(), "{:?}", res.reason);
            (res.iterations, res.linear_iterations)
        });
        for (rank, got) in out.into_iter().enumerate() {
            assert_eq!(
                got, ew,
                "{ranks} ranks, rank {rank}: (Newton, GMRES) counts"
            );
        }
    }
}
