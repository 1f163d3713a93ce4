//! End-to-end §7 experiment: Crank-Nicolson Gray-Scott through the full
//! PETSc-style stack, verifying the paper's correctness-relevant claims:
//! the format never changes the simulation, only its speed.

use sellkit::core::{Apply, Csr, ExecCtx, FromCsr, MatShape, Operator, Sell8};
use sellkit::grid::interpolation_chain;
use sellkit::machine::{stream_probe, StreamKernel};
use sellkit::solvers::ksp::KspConfig;
use sellkit::solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig};
use sellkit::solvers::pc::JacobiPc;
use sellkit::solvers::snes::NewtonConfig;
use sellkit::solvers::ts::{OdeProblem, ThetaConfig, ThetaStepper};
use sellkit::workloads::{GrayScott, GrayScottParams};

fn simulate<M: Operator + FromCsr>(grid: usize, steps: usize) -> (Vec<f64>, Vec<usize>) {
    let gs = GrayScott::new(grid, GrayScottParams::default());
    let interps = interpolation_chain(gs.grid(), 3);
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
    let mut gmres_its = Vec::new();
    // Honors SELLKIT_THREADS (CI runs this suite at 1 and 4 threads); the
    // engine's bitwise-determinism contract means the trajectory — and
    // every iteration count below — is identical at any width.
    let ctx = sellkit::core::ExecCtx::from_env();
    for _ in 0..steps {
        let res = ts.step_ctx::<M, _, _>(&gs, &mut u, &ctx, |j| {
            Multigrid::<M>::new(j, &interps, mg_cfg)
        });
        assert!(res.converged(), "{:?}", res.reason);
        gmres_its.push(res.linear_iterations);
    }
    (u, gmres_its)
}

/// The paper's single-node experiment takes 20 steps; 3 steps exercise the
/// same code path per format here.
#[test]
fn csr_and_sell_trajectories_match() {
    let (u_csr, its_csr) = simulate::<Csr>(32, 3);
    let (u_sell, its_sell) = simulate::<Sell8>(32, 3);
    assert_eq!(
        its_csr, its_sell,
        "identical algorithm ⇒ identical iteration counts"
    );
    for i in 0..u_csr.len() {
        assert!((u_csr[i] - u_sell[i]).abs() < 1e-10, "dof {i}");
    }
}

#[test]
fn solution_stays_physical() {
    // Concentrations remain in sensible ranges over the integration.
    let (u, _) = simulate::<Sell8>(32, 5);
    for (k, &v) in u.iter().enumerate() {
        assert!(v.is_finite(), "dof {k} not finite");
        assert!(
            (-0.2..=1.5).contains(&v),
            "dof {k} out of physical range: {v}"
        );
    }
}

#[test]
fn pattern_evolves_from_perturbation() {
    // The Gray-Scott dynamics must actually do something: v spreads from
    // the seeded square.
    let gs = GrayScott::new(32, GrayScottParams::default());
    let u0 = gs.initial_condition(42);
    let (u5, _) = simulate::<Sell8>(32, 5);
    let diff: f64 = u0.iter().zip(&u5).map(|(a, b)| (a - b).abs()).sum();
    assert!(diff > 1e-3, "state must evolve, total change = {diff}");
}

#[test]
fn jacobian_refresh_path_matches_rebuild() {
    // §7: "the Jacobian matrix needs to be updated at each Newton
    // iteration".  The in-place SELL value refresh must be equivalent to a
    // full rebuild.
    let gs = GrayScott::new(16, GrayScottParams::default());
    let w0 = gs.initial_condition(1);
    let j0 = gs.rhs_jacobian(0.0, &w0);
    let mut sell = Sell8::from_csr(&j0);

    let mut w1 = w0.clone();
    for v in &mut w1 {
        *v *= 0.9;
    }
    let j1 = gs.rhs_jacobian(0.0, &w1);
    sell.set_values_from_csr(&j1);

    let rebuilt = Sell8::from_csr(&j1);
    let x: Vec<f64> = (0..j1.ncols()).map(|i| (i as f64 * 0.05).sin()).collect();
    let mut y1 = vec![0.0; j1.nrows()];
    let mut y2 = vec![0.0; j1.nrows()];
    sell.apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut y1).into(),
        Apply::Set,
    );
    rebuilt.apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut y2).into(),
        Apply::Set,
    );
    assert_eq!(y1, y2);
}

#[test]
fn multigrid_levels_match_paper_hierarchy() {
    // §7.2 uses 3 levels single-node, §7.3 uses 6 levels at 16384².  Check
    // both hierarchies build on appropriately sized grids.
    let gs = GrayScott::new(64, GrayScottParams::default());
    let interps3 = interpolation_chain(gs.grid(), 3);
    let w = gs.initial_condition(1);
    let j = gs.rhs_jacobian(0.0, &w);
    let mg3: Multigrid<Csr> = Multigrid::new(&j, &interps3, MultigridConfig::default());
    assert_eq!(mg3.nlevels(), 3);
    assert_eq!(mg3.level_sizes(), vec![8192, 2048, 512]);

    let interps6 = interpolation_chain(gs.grid(), 6);
    let mg6: Multigrid<Csr> = Multigrid::new(&j, &interps6, MultigridConfig::default());
    assert_eq!(mg6.nlevels(), 6);
    assert_eq!(mg6.level_sizes().last(), Some(&8usize)); // 2·(64/32)²
}

#[test]
fn backward_euler_also_integrates_gray_scott() {
    let gs = GrayScott::new(16, GrayScottParams::default());
    let mut u = gs.initial_condition(3);
    let cfg = ThetaConfig {
        theta: 1.0,
        dt: 1.0,
        newton: NewtonConfig {
            rtol: 1e-8,
            ..Default::default()
        },
    };
    let mut ts = ThetaStepper::new(cfg);
    ts.run::<Sell8, _, _>(&gs, &mut u, 3, JacobiPc::from_csr);
    assert!(u.iter().all(|v| v.is_finite()));
    assert_eq!(ts.steps_taken(), 3);
}

/// The observability acceptance path: run the §7 stack with logging on,
/// check the staged attribution (MatMult with nonzero modeled bytes under
/// the solver stages), validate the JSON export against the schema, and
/// leave the report under `target/tmp/` for CI to upload.
#[test]
fn obs_report_attributes_the_solve_and_exports_json() {
    sellkit::obs::set_enabled(true);
    let (_, its) = simulate::<Sell8>(32, 2);
    sellkit::obs::set_enabled(false);
    assert!(!its.is_empty());

    let rep = sellkit::obs::report();

    // Roofline attribution: MatMult carries §6 modeled traffic.
    let mm = rep.event("MatMult").expect("MatMult recorded");
    assert!(mm.count > 0, "MatMult count {}", mm.count);
    assert!(mm.bytes > 0.0, "MatMult must carry modeled bytes");
    assert!(mm.flops > 0.0, "MatMult must carry flops");
    assert!(mm.seconds > 0.0);
    assert!(mm.achieved_gbs() > 0.0);

    // Stage nesting: the full PETSc-style path shows up.
    assert!(
        rep.events
            .iter()
            .any(|e| e.path.contains("TSStep") && e.path.contains("SNESSolve")),
        "TSStep>SNESSolve staging missing"
    );
    assert!(
        rep.events
            .iter()
            .any(|e| e.path.contains("KSPSolve") && e.name == "MatMult"),
        "MatMult must appear nested under KSPSolve"
    );

    // JSON export validates against the schema.  The roof is this host's
    // measured copy bandwidth; an unoptimised kernel has no roof to be a
    // fraction of, so a debug build reports none.
    let threads = std::env::var("SELLKIT_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1usize);
    let bw = (!cfg!(debug_assertions)).then(|| stream_probe(StreamKernel::Copy, threads, None).gbs);
    let text = rep.to_json(bw);
    sellkit::obs::validate_report_json(&text).expect("schema-valid report");
    let parsed = sellkit::obs::parse_json(&text).expect("well-formed JSON");

    // Percent-of-roofline is there exactly when a roof was measured, and
    // is consistent with it.
    let events = parsed.get("events").and_then(|e| e.as_arr()).unwrap();
    let jmm = events
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("MatMult"))
        .expect("MatMult in JSON");
    let gbs = jmm.get("gbs").and_then(|v| v.as_f64()).unwrap();
    let roof = jmm.get("roof_pct").and_then(|v| v.as_f64());
    assert!(gbs > 0.0);
    assert_eq!(roof.is_some(), bw.is_some());
    if let (Some(roof), Some(bw)) = (roof, bw) {
        assert!(
            (roof - 100.0 * gbs / bw).abs() < 1e-6,
            "roof_pct {roof} inconsistent with gbs {gbs} at bw {bw}"
        );
    }

    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/obs_gray_scott.json");
    std::fs::write(path, format!("{text}\n")).expect("write bench report");
}

/// The PackSELL acceptance leg: on the Crank-Nicolson system matrix
/// `A = I − dt·θ·J` of the §7 Gray-Scott stack, iterative refinement
/// with a reduced-precision packed inner operator (f32 and even bf16,
/// with its 8-bit significand) must converge to the **same residual
/// tolerance** as a pure-f64 GMRES solve — the low-precision SpMV only
/// drives the correction equation, while the f64 outer loop restores
/// full accuracy.
#[test]
fn refinement_reaches_f64_residual_on_gray_scott_jacobian() {
    use sellkit::core::{Codec, CooBuilder};
    use sellkit::solvers::{
        gmres, refine, IdentityPc, InnerProduct, MatOperator, Operator as SolverOperator,
        RefineConfig, SeqDot,
    };

    let gs = GrayScott::new(32, GrayScottParams::default());
    let w = gs.initial_condition(42);
    let j = gs.rhs_jacobian(0.0, &w);

    // The CN step's Newton system matrix: A = I − dt·θ·J (dt = 1, θ = ½).
    let mut b = CooBuilder::new(j.nrows(), j.ncols());
    for i in 0..j.nrows() {
        b.push(i, i, 1.0);
        for (e, &c) in j.row_cols(i).iter().enumerate() {
            b.push(i, c as usize, -0.5 * j.row_vals(i)[e]);
        }
    }
    let a = b.to_csr();

    let rhs = w; // a physically plausible right-hand side
    let bnorm = SeqDot.norm(&rhs);
    let rtol = 1e-10;
    let target = rtol * bnorm;
    let residual = |x: &[f64]| {
        let mut y = vec![0.0; a.nrows()];
        MatOperator(&a).apply(x, &mut y);
        let r: f64 = rhs.iter().zip(&y).map(|(bi, yi)| (bi - yi).powi(2)).sum();
        r.sqrt()
    };

    // Pure-f64 reference solve.
    let mut x_ref = vec![0.0; a.nrows()];
    let res = gmres(
        &MatOperator(&a),
        &IdentityPc,
        &SeqDot,
        &rhs,
        &mut x_ref,
        &KspConfig {
            rtol,
            restart: 30,
            max_it: 500,
            ..Default::default()
        },
    );
    assert!(res.converged(), "f64 GMRES baseline: {:?}", res.reason);
    assert!(residual(&x_ref) <= target, "f64 baseline residual");

    for codec in [Codec::F32, Codec::Bf16] {
        let lo = Sell8::from_csr_codec(&a, codec);
        let mut x = vec![0.0; a.nrows()];
        let res = refine(
            &MatOperator(&a),
            &MatOperator(&lo),
            &IdentityPc,
            &SeqDot,
            &rhs,
            &mut x,
            &RefineConfig {
                rtol,
                ..Default::default()
            },
        );
        assert!(
            res.converged,
            "{codec:?} refinement stalled at {:e} after {} sweeps (history {:?})",
            res.residual, res.outer_iterations, res.history
        );
        let true_res = residual(&x);
        assert!(
            true_res <= target,
            "{codec:?} refinement true residual {true_res:e} > f64 target {target:e}"
        );
    }
}

#[test]
fn sell_padding_negligible_on_gray_scott_jacobian() {
    // §7: "When represented in the sliced ELLPACK format, there are very
    // few padded zeros" — every row has exactly 10 nonzeros, so padding is
    // zero except (possibly) the last slice.
    let gs = GrayScott::new(32, GrayScottParams::default());
    let w = gs.initial_condition(1);
    let j = gs.rhs_jacobian(0.0, &w);
    let sell = Sell8::from_csr(&j);
    assert_eq!(
        sell.padded_elems(),
        0,
        "uniform 10/row divides into slices exactly"
    );
    assert_eq!(j.max_row_len(), 10);
}
