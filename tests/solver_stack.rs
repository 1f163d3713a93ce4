//! Integration of the full solver hierarchy (Figure 1) over the grid and
//! format crates: KSP × PC × format combinations on PDE operators.

use sellkit::core::{Apply, Csr, ExecCtx, MatShape, Operator, Sell8};
use sellkit::grid::{bilinear_interpolation, interpolation_chain, laplacian_5pt, Grid2D};
use sellkit::solvers::ksp::{bicgstab, cg, fgmres, gmres, tfqmr, KspConfig};
use sellkit::solvers::operator::{MatOperator, SeqDot};
use sellkit::solvers::pc::asm::{AsmPc, SubSolve};
use sellkit::solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig};
use sellkit::solvers::pc::{IdentityPc, Ilu0, JacobiPc};
use sellkit::solvers::Precond;

/// Periodic Laplacian + mass shift to make it definite.
fn shifted_laplacian(n: usize) -> Csr {
    let g = Grid2D::new(n, n, 1);
    let lap = laplacian_5pt(&g, &[1.0], 1.0);
    // A = L + 0.5 I (periodic L is singular; the shift fixes that).
    let mut b = sellkit::core::CooBuilder::new(lap.nrows(), lap.ncols());
    for i in 0..lap.nrows() {
        b.push(i, i, 0.5);
        for (k, &c) in lap.row_cols(i).iter().enumerate() {
            b.push(i, c as usize, lap.row_vals(i)[k]);
        }
    }
    b.to_csr()
}

fn true_res(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    a.apply(&ExecCtx::serial(), (x).into(), (&mut ax).into(), Apply::Set);
    ax.iter()
        .zip(b)
        .map(|(v, w)| (v - w) * (v - w))
        .sum::<f64>()
        .sqrt()
}

#[test]
fn every_ksp_solves_the_shifted_laplacian() {
    let a = shifted_laplacian(12);
    let n = a.nrows();
    let rhs: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
    let cfg = KspConfig {
        rtol: 1e-9,
        ..Default::default()
    };
    let pc = JacobiPc::from_csr(&a);

    let mut x = vec![0.0; n];
    assert!(gmres(&MatOperator(&a), &pc, &SeqDot, &rhs, &mut x, &cfg).converged());
    assert!(true_res(&a, &x, &rhs) < 1e-5);

    let mut x = vec![0.0; n];
    assert!(cg(&MatOperator(&a), &pc, &SeqDot, &rhs, &mut x, &cfg).converged());
    assert!(true_res(&a, &x, &rhs) < 1e-5);

    let mut x = vec![0.0; n];
    assert!(bicgstab(&MatOperator(&a), &pc, &SeqDot, &rhs, &mut x, &cfg).converged());
    assert!(true_res(&a, &x, &rhs) < 1e-4);

    let mut x = vec![0.0; n];
    assert!(fgmres(&MatOperator(&a), &pc, &SeqDot, &rhs, &mut x, &cfg).converged());
    assert!(true_res(&a, &x, &rhs) < 1e-5);

    let mut x = vec![0.0; n];
    let t = tfqmr(
        &MatOperator(&a),
        &pc,
        &SeqDot,
        &rhs,
        &mut x,
        &KspConfig {
            rtol: 1e-9,
            max_it: 2000,
            ..Default::default()
        },
    );
    assert!(t.converged(), "tfqmr: {:?}", t.reason);
    assert!(true_res(&a, &x, &rhs) < 1e-4);
}

#[test]
fn every_pc_accelerates_gmres() {
    let a = shifted_laplacian(16);
    let n = a.nrows();
    // Non-trivial right-hand side (an all-ones rhs is an eigenvector of
    // the shifted periodic Laplacian and converges in one iteration).
    let rhs: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let cfg = KspConfig {
        rtol: 1e-8,
        ..Default::default()
    };

    let iters = |pc: &dyn Precond| {
        let mut x = vec![0.0; n];
        let r = gmres(&MatOperator(&a), &pc, &SeqDot, &rhs, &mut x, &cfg);
        assert!(r.converged(), "pc failed");
        r.iterations
    };

    let none = iters(&IdentityPc);
    let jac = iters(&JacobiPc::from_csr(&a));
    let ilu = iters(&Ilu0::factor(&a));
    let asm = iters(&AsmPc::new(&a, 4, SubSolve::Ilu0));

    assert!(jac <= none, "Jacobi {jac} vs none {none}");
    assert!(ilu < jac, "ILU(0) {ilu} must beat Jacobi {jac}");
    assert!(asm < jac, "ASM/ILU {asm} must beat Jacobi {jac}");
    assert!(
        asm >= ilu,
        "4-block ASM cannot beat global ILU: {asm} vs {ilu}"
    );
}

#[test]
fn multigrid_gmres_iteration_count_is_grid_independent() {
    // The multigrid promise: iterations stay ~constant as the grid refines
    // (§7: "avoid the typical increase in the number of iterations as the
    // grid is refined").
    let mut counts = Vec::new();
    for n in [16usize, 32, 64] {
        let a = shifted_laplacian(n);
        let g = Grid2D::new(n, n, 1);
        let interps = interpolation_chain(&g, 3);
        let mg: Multigrid<Csr> = Multigrid::new(
            &a,
            &interps,
            MultigridConfig {
                coarse: CoarseSolve::Jacobi(8),
                ..Default::default()
            },
        );
        let rhs = vec![1.0; a.nrows()];
        let mut x = vec![0.0; a.nrows()];
        let r = gmres(
            &MatOperator(&a),
            &mg,
            &SeqDot,
            &rhs,
            &mut x,
            &KspConfig {
                rtol: 1e-8,
                ..Default::default()
            },
        );
        assert!(r.converged());
        counts.push(r.iterations);
    }
    let max = *counts.iter().max().expect("nonempty");
    let min = *counts.iter().min().expect("nonempty");
    assert!(max <= min + 3, "iterations should barely grow: {counts:?}");
}

#[test]
fn sell_multigrid_identical_to_csr_multigrid() {
    let n = 32;
    let a = shifted_laplacian(n);
    let g = Grid2D::new(n, n, 1);
    let interps = vec![bilinear_interpolation(&g)];
    let cfg = MultigridConfig::default();
    let rhs: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.01).sin()).collect();
    let kcfg = KspConfig {
        rtol: 1e-9,
        ..Default::default()
    };

    let mg1: Multigrid<Csr> = Multigrid::new(&a, &interps, cfg);
    let mut x1 = vec![0.0; a.nrows()];
    let r1 = gmres(&MatOperator(&a), &mg1, &SeqDot, &rhs, &mut x1, &kcfg);

    let sell = Sell8::from_csr(&a);
    let mg2: Multigrid<Sell8> = Multigrid::new(&a, &interps, cfg);
    let mut x2 = vec![0.0; a.nrows()];
    let r2 = gmres(&MatOperator(&sell), &mg2, &SeqDot, &rhs, &mut x2, &kcfg);

    assert_eq!(
        r1.iterations, r2.iterations,
        "same algorithm, same iteration count"
    );
    for i in 0..a.nrows() {
        assert!((x1[i] - x2[i]).abs() < 1e-9, "row {i}");
    }
}

#[test]
fn mg_hierarchy_sizes_shrink_geometrically() {
    let n = 64;
    let a = shifted_laplacian(n);
    let g = Grid2D::new(n, n, 1);
    let interps = interpolation_chain(&g, 4);
    let mg: Multigrid<Csr> = Multigrid::new(&a, &interps, MultigridConfig::default());
    assert_eq!(mg.level_sizes(), vec![4096, 1024, 256, 64]);
}
