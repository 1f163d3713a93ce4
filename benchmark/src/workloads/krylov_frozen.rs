//! `krylov_frozen`: the Krylov-iteration rung with no assembly in it.  The
//! first Newton matrix of the Gray-Scott solve, `I - 0.5·J` at grid 512, is
//! frozen and solved over and over by GMRES(30) to `rtol 1e-10`: with the
//! 3-level multigrid preconditioner the time is MatMult and smoother; with
//! Jacobi it is mostly the Gram-Schmidt vector work of `solvers::vecops`.

use std::cell::RefCell;
use std::time::Instant;

use sellkit_core::{matops, Csr, ExecCtx, MatShape, Sell8};
use sellkit_dist::{DistMat, DistVec};
use sellkit_grid::interpolation_chain;
use sellkit_solvers::ksp::{gmres, KspConfig, KspResult};
use sellkit_solvers::operator::CtxMatOperator;
use sellkit_solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig};
use sellkit_solvers::pc::{CtxPrecond, JacobiPc, Precond};
use sellkit_solvers::{vecops, Counting, MatOperator, Operator, SeqDot};

use crate::harness::{
    gray_scott, gs_jacobian, obs_seconds, oracle, timed, timed_setup, tracing, Cx, Ledger, Outcome,
    Slot,
};
use crate::spans;
use crate::stats::{sample, sample_interleaved, Summary};
use crate::wrap::Spanned;

const KSP: KspConfig = KspConfig {
    rtol: 1e-10,
    atol: 1e-50,
    max_it: 10_000,
    restart: 30,
};

/// The paper's preconditioner options (§7.2).
pub const MG: MultigridConfig = MultigridConfig {
    pre_smooth: 1,
    post_smooth: 1,
    omega: 2.0 / 3.0,
    smoother: sellkit_solvers::pc::Smoother::Jacobi,
    coarse: CoarseSolve::Jacobi(8),
};

struct Setup {
    /// The Jacobian itself, which the distributed layer measures.
    j: Csr,
    a: Csr,
    sell: Sell8,
    mg: Multigrid<Sell8>,
    jacobi: JacobiPc,
    b: Vec<f64>,
    pool: ExecCtx,
    mg_setup_s: f64,
}

/// One solve from a zero guess; keeps the solution and every result.
struct Solver<'a> {
    b: &'a [f64],
    x: Vec<f64>,
    results: Vec<KspResult>,
}

impl<'a> Solver<'a> {
    fn new(b: &'a [f64]) -> RefCell<Self> {
        RefCell::new(Solver {
            b,
            x: vec![0.0; b.len()],
            results: Vec::new(),
        })
    }

    fn solve(&mut self, op: &impl Operator, pc: &impl Precond) {
        self.x.fill(0.0);
        let res = gmres(op, pc, &SeqDot, self.b, &mut self.x, &KSP);
        self.results.push(res);
    }

    fn iterations(&self) -> usize {
        self.results[0].iterations
    }

    /// Every solve converged in the same number of iterations, and the
    /// last solution leaves a true residual of at most `1e-8·‖b‖` (the
    /// stopping test is on the preconditioned residual, hence the margin).
    fn verify(&self, what: &str, a: &Csr, led: &mut Ledger) {
        let its = self.iterations();
        let steady = self
            .results
            .iter()
            .all(|r| r.converged() && r.iterations == its);
        let ax = oracle(a, &self.x);
        let r: Vec<f64> = self.b.iter().zip(&ax).map(|(b, ax)| b - ax).collect();
        let rel = vecops::norm2(&r) / vecops::norm2(self.b);
        led.count(self.results.len() as u64, steady && rel <= 1e-8, || {
            let its: Vec<usize> = self.results.iter().map(|r| r.iterations).collect();
            format!("{what}: iterations {its:?}, relative residual {rel:.3e}")
        });
    }
}

pub fn run(cx: &Cx) -> Outcome {
    let mut led = Ledger::default();
    let serial = ExecCtx::serial();

    let (s, setup_s) = timed_setup(|| {
        let gs = gray_scott(cx.sizes().krylov_grid);
        let j = gs_jacobian(&gs, &gs.initial_condition(cx.seed), cx.pool);
        let a = matops::identity_plus_scaled(1.0, -0.5, &j);
        let sell = Sell8::from_csr(&a);
        let interps = interpolation_chain(gs.grid(), 3);
        let (mg, mg_setup_s) = timed(|| Multigrid::<Sell8>::new(&a, &interps, MG));
        let jacobi = JacobiPc::from_csr(&a);
        let b = oracle(&a, &cx.vector(1, a.ncols()));
        let pool = ExecCtx::new(cx.pool);
        let mut z = vec![0.0; b.len()];
        for ctx in [&serial, &pool] {
            CtxMatOperator::new(&sell, ctx).apply(&b, &mut z);
            mg.apply_ctx(ctx, &b, &mut z);
        }
        jacobi.apply(&b, &mut z);
        Setup {
            j,
            a,
            sell,
            mg,
            jacobi,
            b,
            pool,
            mg_setup_s,
        }
    });

    let (mg, jacobi) = (Solver::new(&s.b), Solver::new(&s.b));
    let op = MatOperator(&s.sell);
    let t = sample_interleaved(
        cx.e2e_budget(),
        3,
        &mut [&mut || mg.borrow_mut().solve(&op, &s.mg), &mut || {
            jacobi.borrow_mut().solve(&op, &s.jacobi)
        }],
    );
    let slots = vec![
        Slot::of("ksp_mg_solve_s", "s", &t[0], |s| s),
        Slot::of("ksp_jacobi_solve_s", "s", &t[1], |s| s),
    ];

    let (mg, jacobi) = (mg.into_inner(), jacobi.into_inner());
    mg.verify("GMRES+MG", &s.a, &mut led);
    jacobi.verify("GMRES+Jacobi", &s.a, &mut led);
    // The bitwise-determinism contract: the pool changes no iterate.  One
    // solve shows it; two threads on a shared two-core host give no timing
    // that repeats.
    let mut mg_pool = Solver::new(&s.b).into_inner();
    mg_pool.solve(
        &CtxMatOperator::new(&s.sell, &s.pool),
        &CtxPrecond::new(&s.mg, &s.pool),
    );
    mg_pool.verify("GMRES+MG on the pool", &s.a, &mut led);
    led.count(
        1,
        mg.iterations() == mg_pool.iterations() && mg.x == mg_pool.x,
        || "GMRES+MG differs between the serial and the pool context".into(),
    );

    let mut recs = Vec::new();
    if cx.trace {
        let its = [mg.iterations(), jacobi.iterations()];
        layers(cx, &s, its, [&t[0], &t[1]], &mut led);
        recs = spans::take();
    }
    led.finish(setup_s, slots, recs)
}

/// MatMults the program's registry has counted.
fn obs_matmults() -> u64 {
    sellkit_obs::snapshot()
        .event("MatMult")
        .map_or(0, |e| e.count)
}

const LAYER_PARTS: usize = 10;

fn layers(cx: &Cx, s: &Setup, its: [usize; 2], solves: [&[f64]; 2], led: &mut Ledger) {
    let slice = cx.layer_budget(LAYER_PARTS);
    let n = s.b.len();
    let gb = |bytes_per_elem: usize, t: &[f64]| {
        (bytes_per_elem * n) as f64 / Summary::of(t).median / 1e9
    };

    // solvers.vecops at the Krylov vector length (cache-resident here, as
    // it is inside the solve).
    let (u, mut v) = (cx.vector(2, n), cx.vector(3, n));
    let t = sample(slice, 10, || {
        std::hint::black_box(vecops::dot(&u, &v));
    });
    led.put("solvers.vecops.dot_gbs", gb(16, &t));
    let t = sample(slice, 10, || vecops::axpy(1e-9, &u, &mut v));
    led.put("solvers.vecops.axpy_gbs", gb(24, &t));
    let t = sample(slice, 10, || {
        std::hint::black_box(vecops::dot_ctx(&s.pool, &u, &v));
    });
    led.put("solvers.vecops.dot_ctx_pool_gbs", gb(16, &t));

    // solvers.ksp: counts are exact, times come from the untraced solves.
    for (name, its, t) in [("mg", its[0], solves[0]), ("jacobi", its[1], solves[1])] {
        led.put(format!("solvers.ksp.{name}_iters"), its as f64);
        led.put(
            format!("solvers.ksp.{name}_iter_ms"),
            Summary::of(t).median * 1e3 / its as f64,
        );
    }
    let counting = Counting::new(MatOperator(&s.sell));
    let mut x = vec![0.0; n];
    let res = gmres(&counting, &s.mg, &SeqDot, &s.b, &mut x, &KSP);
    led.put(
        "solvers.ksp.applies_per_iter",
        counting.applies() as f64 / res.iterations as f64,
    );

    // solvers.pc: one V-cycle, and how many MatMults the program's
    // registry counts inside it.
    let mut z = vec![0.0; n];
    let t = sample(slice, 10, || s.mg.apply(&s.b, &mut z));
    led.put("solvers.pc.mg_apply_ms", Summary::of(&t).median * 1e3);
    led.put("solvers.pc.mg_setup_ms_g512", s.mg_setup_s * 1e3);
    let before = obs_matmults();
    tracing(true);
    s.mg.apply(&s.b, &mut z);
    tracing(false);
    led.put(
        "solvers.pc.mg_matmults_per_apply",
        (obs_matmults() - before) as f64,
    );

    // Traced solves next to untraced ones: the overhead of tracing, and
    // from the registry the share of each solve spent in MatMult (on every
    // multigrid level, not only the fine matrix).
    let op = MatOperator(&s.sell);
    let traced_op = Spanned(MatOperator(&s.sell), "core.apply");
    let (mut x_off, mut x_on) = (vec![0.0; n], vec![0.0; n]);
    let mut share = |name: &str, pc_off: &dyn Fn(&mut [f64]), pc_on: &dyn Fn(&mut [f64])| {
        let [mm0, ksp0] = obs_seconds(["MatMult", "KSPSolve"]);
        let t = sample_interleaved(
            slice,
            3,
            &mut [
                &mut || {
                    x_off.fill(0.0);
                    pc_off(&mut x_off);
                },
                &mut || {
                    x_on.fill(0.0);
                    tracing(true);
                    {
                        let _s = spans::span("solvers.ksp.solve");
                        pc_on(&mut x_on);
                    }
                    tracing(false);
                },
            ],
        );
        let [mm, ksp] = obs_seconds(["MatMult", "KSPSolve"]);
        led.put(
            format!("solvers.ksp.matmult_share_{name}"),
            (mm - mm0) / (ksp - ksp0),
        );
        t
    };
    let t = share(
        "mg",
        &|x| {
            gmres(&op, &s.mg, &SeqDot, &s.b, x, &KSP);
        },
        &|x| {
            let pc = Spanned(&s.mg, "solvers.pc.apply");
            gmres(&traced_op, &pc, &SeqDot, &s.b, x, &KSP);
        },
    );
    share(
        "jacobi",
        &|x| {
            gmres(&op, &s.jacobi, &SeqDot, &s.b, x, &KSP);
        },
        &|x| {
            let pc = Spanned(&s.jacobi, "solvers.pc.apply");
            gmres(&traced_op, &pc, &SeqDot, &s.b, x, &KSP);
        },
    );
    led.put_overhead(&t[0], &t[1]);
    led.put_plan_counters();

    dist(cx, &s.j, led);
}

/// `dist` and `mpisim`: the Jacobian split over two simulated ranks.
/// Counts are exact; the times gate nothing yet and are the baseline for a
/// later distributed workload.
fn dist(cx: &Cx, j: &Csr, led: &mut Ledger) {
    let n = j.nrows();
    let slice = cx.layer_budget(LAYER_PARTS);
    let out = sellkit_mpisim::run(2, |comm| {
        let t = Instant::now();
        let dm = DistMat::<Sell8>::from_global_csr(comm, j, 1);
        let build_s = t.elapsed().as_secs_f64();
        let x = DistVec::from_fn(comm, n, |g| (g as f64 * 1e-3).sin());
        let mut y = DistVec::zeros(comm, n);
        dm.mult(comm, x.local(), y.local_mut());
        // Both ranks must make the same number of calls, so rank 0's
        // clock decides for both.
        let mut mults = Vec::new();
        let started = Instant::now();
        loop {
            let t = Instant::now();
            dm.mult(comm, x.local(), y.local_mut());
            mults.push(t.elapsed().as_secs_f64());
            let go_on = mults.len() < 10 || started.elapsed() < slice;
            if comm.broadcast(0, (comm.rank() == 0).then_some(go_on)) {
                continue;
            }
            break;
        }
        let rounds = 1000;
        let t = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(comm.allreduce_sum(1.0));
        }
        let allreduce_s = t.elapsed().as_secs_f64() / rounds as f64;
        let ynorm = y.norm2(comm);
        (
            build_s,
            Summary::of(&mults).median,
            (dm.scatter().send_volume() * 8) as f64,
            dm.scatter().nmsgs() as f64,
            allreduce_s,
            ynorm,
        )
    });
    let x: Vec<f64> = (0..n).map(|g| (g as f64 * 1e-3).sin()).collect();
    let want = vecops::norm2(&oracle(j, &x));
    let ynorm = out[0].5;
    led.count(
        1,
        (ynorm - want).abs() <= 1e-10 * want && out[1].5 == ynorm,
        || format!("distributed |J·x| = {ynorm:e}, oracle {want:e}"),
    );
    led.put("dist.build_s", out[0].0);
    led.put("dist.mult_ms_r2", out[0].1 * 1e3);
    led.put("dist.halo_bytes_per_mult", out[0].2 + out[1].2);
    led.put("dist.halo_msgs_per_mult", out[0].3 + out[1].3);
    led.put("mpisim.allreduce_us_r2", out[0].4 * 1e6);
}
