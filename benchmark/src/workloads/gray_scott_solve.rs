//! `gray_scott_solve`: the paper's §7 experiment, the time a user waits.
//! Gray-Scott at grid 256 advanced by Crank-Nicolson steps; each step is a
//! Newton solve (`rtol 1e-8`), each Newton system a GMRES(30) solve
//! (`rtol 1e-5`) under the 3-level multigrid of §7.2.  Assembly and
//! preconditioner set-up per Newton iteration dominate; MatMult is a small
//! share, so a kernel change should leave this workload where it is.

use std::cell::RefCell;
use std::time::Instant;

use sellkit_core::{Csr, ExecCtx, FromCsr, Operator, Sell8};
use sellkit_grid::interpolation_chain;
use sellkit_solvers::ksp::KspConfig;
use sellkit_solvers::pc::mg::Multigrid;
use sellkit_solvers::snes::NewtonConfig;
use sellkit_solvers::ts::{OdeProblem, ThetaConfig, ThetaStepper};
use sellkit_workloads::GrayScott;

use super::krylov_frozen::MG;
use crate::harness::{
    gray_scott, obs_seconds, timed, timed_setup, tracing, Cx, Ledger, Outcome, Slot,
};
use crate::spans;
use crate::stats::{sample_interleaved, Summary};
use crate::wrap::{Spanned, TracedOde, TracedOp};

/// Steps of one trajectory; after the last the state returns to the
/// initial condition, so every trajectory repeats the same work.
const STEPS: usize = 3;

fn theta() -> ThetaConfig {
    ThetaConfig {
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
    }
}

/// A trajectory that is stepped one Crank-Nicolson step at a time.
struct Trajectory<'a> {
    u0: &'a [f64],
    u: Vec<f64>,
    ts: ThetaStepper,
    /// (Newton iterations, GMRES iterations) of every step taken.
    iters: Vec<(usize, usize)>,
    converged: bool,
    /// State after the last complete trajectory.
    last: Vec<f64>,
}

impl<'a> Trajectory<'a> {
    fn new(u0: &'a [f64]) -> RefCell<Self> {
        RefCell::new(Trajectory {
            u0,
            u: u0.to_vec(),
            ts: ThetaStepper::new(theta()),
            iters: Vec::new(),
            converged: true,
            last: Vec::new(),
        })
    }

    fn step<M, P, Pc>(&mut self, ode: &P, ctx: &ExecCtx, pc: impl Fn(&Csr) -> Pc)
    where
        M: Operator + FromCsr,
        P: OdeProblem,
        Pc: sellkit_solvers::Precond,
    {
        let res = self.ts.step_ctx::<M, _, _>(ode, &mut self.u, ctx, pc);
        self.converged &= res.converged();
        self.iters.push((res.iterations, res.linear_iterations));
        if self.ts.steps_taken() == STEPS {
            self.last.clone_from(&self.u);
            self.u.copy_from_slice(self.u0);
            self.ts = ThetaStepper::new(theta());
        }
    }

    /// Every step converged, and step `k` of every trajectory took the
    /// iterations step `k` of `reference` took.
    fn same_work_as(&self, reference: &[(usize, usize)]) -> bool {
        self.converged
            && self
                .iters
                .iter()
                .enumerate()
                .all(|(k, it)| *it == reference[k % STEPS])
    }
}

pub fn run(cx: &Cx) -> Outcome {
    let mut led = Ledger::default();
    let serial = ExecCtx::serial();

    let ((gs, interps, u0, u1, pool, interp_s), setup_s) = timed_setup(|| {
        let gs = gray_scott(cx.sizes().solve_grid);
        let (interps, interp_s) = timed(|| interpolation_chain(gs.grid(), 3));
        let u0 = gs.initial_condition(cx.seed);
        let pool = ExecCtx::new(cx.pool);
        // One step builds the plans; its result is kept for the pool check.
        let mut warm = Trajectory::new(&u0).into_inner();
        warm.step::<Sell8, _, _>(&gs, &serial, |j| Multigrid::<Sell8>::new(j, &interps, MG));
        let u1 = warm.u;
        (gs, interps, u0, u1, pool, interp_s)
    });

    let (sell, csr) = (Trajectory::new(&u0), Trajectory::new(&u0));
    let t = sample_interleaved(
        cx.e2e_budget(),
        STEPS,
        &mut [
            &mut || {
                sell.borrow_mut()
                    .step::<Sell8, _, _>(&gs, &serial, |j| Multigrid::<Sell8>::new(j, &interps, MG))
            },
            &mut || {
                csr.borrow_mut()
                    .step::<Csr, _, _>(&gs, &serial, |j| Multigrid::<Csr>::new(j, &interps, MG))
            },
        ],
    );
    // One sample is one step (the three of a trajectory cost the same to
    // within the host's noise); the issue's names are for the STEPS-step solve.
    let solve = |step_s: f64| step_s * STEPS as f64;
    let slots = vec![
        Slot::of("solve_s", "s", &t[0], solve),
        Slot::of("solve_csr_s", "s", &t[1], solve),
    ];

    let (sell, csr) = (sell.into_inner(), csr.into_inner());
    // One step on the pool for the determinism contract; two threads on a
    // shared two-core host give no timing that repeats.
    let mut on_pool = Trajectory::new(&u0).into_inner();
    on_pool.step::<Sell8, _, _>(&gs, &pool, |j| Multigrid::<Sell8>::new(j, &interps, MG));
    let reference = sell.iters[..STEPS].to_vec();
    for (what, tr) in [
        ("Sell8", &sell),
        ("Csr", &csr),
        ("Sell8 on the pool", &on_pool),
    ] {
        led.count(tr.iters.len() as u64, tr.same_work_as(&reference), || {
            format!(
                "{what}: converged {}, (Newton, GMRES) iterations per step {:?}, expected {reference:?}",
                tr.converged, tr.iters
            )
        });
    }
    // The format changes the speed of the simulation, never its result;
    // the pool changes not even a bit.
    let apart = sell
        .last
        .iter()
        .zip(&csr.last)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    led.count(1, apart < 1e-8, || {
        format!("Sell8 and Csr trajectories end {apart:e} apart")
    });
    led.count(1, on_pool.u == u1, || {
        "the pool context changed the first step".into()
    });

    let mut recs = Vec::new();
    if cx.trace {
        recs = layers(cx, &gs, &interps, &u0, &reference, &t[0], &mut led);
        led.put("grid.interp_chain_ms", interp_s * 1e3);
    }
    led.finish(setup_s, slots, recs)
}

/// Whole trajectories with a span at every layer boundary and the
/// program's registry on; returns the spans.
fn layers(
    cx: &Cx,
    gs: &GrayScott,
    interps: &[Csr],
    u0: &[f64],
    reference: &[(usize, usize)],
    untraced_steps: &[f64],
    led: &mut Ledger,
) -> Vec<spans::Rec> {
    let serial = ExecCtx::serial();
    let ode = TracedOde(gs);
    let mut traj = Trajectory::new(u0).into_inner();
    let mut plain = Trajectory::new(u0).into_inner();
    let [ksp_before] = obs_seconds(["KSPSolve"]);
    let deadline = Instant::now() + cx.layer_budget(1);
    // A traced step after each untraced one, so that both see the same
    // state of the host.
    let (mut step_s, mut plain_s) = (Vec::new(), Vec::new());
    while step_s.len() < STEPS || Instant::now() < deadline {
        let t = Instant::now();
        plain.step::<Sell8, _, _>(gs, &serial, |j| Multigrid::<Sell8>::new(j, interps, MG));
        plain_s.push(t.elapsed().as_secs_f64());

        tracing(true);
        spans::set_op(step_s.len() as u64 + 1);
        let t = Instant::now();
        {
            let _s = spans::span("solvers.ts.step");
            traj.step::<TracedOp<Sell8>, _, _>(&ode, &serial, |j| {
                let _s = spans::span("solvers.pc.setup");
                let mg = Multigrid::<TracedOp<Sell8>>::new(j, interps, MG);
                Spanned(Box::new(mg), "solvers.pc.apply")
            });
        }
        step_s.push(t.elapsed().as_secs_f64());
        tracing(false);
    }
    let ksp_s = obs_seconds(["KSPSolve"])[0] - ksp_before;
    led.count(step_s.len() as u64, traj.same_work_as(reference), || {
        format!("traced steps took {:?} iterations", traj.iters)
    });

    let recs = spans::take();
    let agg = spans::aggregate(&recs);
    let under_step = spans::children_of(&recs, "solvers.ts.step");
    let total = |name: &str| agg.get(name).map_or(0.0, |a| a.total_s);
    let per_call_ms = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| a.total_s / a.count as f64 * 1e3)
    };
    let step_total = total("solvers.ts.step");
    let direct = |name: &str| under_step.get(name).copied().unwrap_or(0.0);
    // Between the Jacobian and the preconditioner built from it the stepper
    // forms `I - dt*theta*J` (`matops::identity_plus_scaled`), a call no
    // wrapper can reach; the gap between the two spans is its time.
    let (shifts, shift_s) = spans::gap_between(&recs, "workloads.rhs_jacobian", "solvers.pc.setup");
    // A step is assembly, that shift, right-hand sides, preconditioner
    // set-up, format conversion and the Krylov solves; what is left has no
    // span.
    let attributed = direct("workloads.rhs_jacobian")
        + shift_s
        + direct("workloads.rhs")
        + direct("solvers.pc.setup")
        + direct("core.convert")
        + ksp_s;
    // Every row of the Jacobian stores its ten stencil entries.
    let nnz = 10.0 * gs.dim() as f64;
    // Iterations of one whole trajectory (the last may be cut short).
    let iters = |pick: fn(&(usize, usize)) -> usize| {
        traj.iters[..STEPS].iter().map(pick).sum::<usize>() as f64
    };

    led.put("solvers.snes.newton_iters", iters(|it| it.0));
    led.put("solvers.snes.linear_iters", iters(|it| it.1));
    led.put(
        "solvers.ts.step_ms",
        Summary::of(untraced_steps).median * 1e3,
    );
    led.put(
        "solvers.ts.unattributed_frac",
        (step_total - attributed) / step_total,
    );
    led.put("solvers.ts.ksp_share", ksp_s / step_total);
    led.put("core.matops.shift_ms", shift_s / shifts as f64 * 1e3);
    led.put("core.matops.shift_share", shift_s / step_total);
    led.put(
        "solvers.ts.pc_setup_share",
        direct("solvers.pc.setup") / step_total,
    );
    led.put(
        "workloads.jacobian_share",
        direct("workloads.rhs_jacobian") / step_total,
    );
    led.put(
        "workloads.jacobian_ms",
        per_call_ms("workloads.rhs_jacobian"),
    );
    led.put(
        "workloads.jacobian_ns_per_nnz",
        per_call_ms("workloads.rhs_jacobian") * 1e6 / nnz,
    );
    led.put("workloads.rhs_ms", per_call_ms("workloads.rhs"));
    led.put(
        "solvers.pc.mg_setup_ms_g256",
        per_call_ms("solvers.pc.setup"),
    );
    led.put_overhead(&plain_s, &step_s);
    led.put_plan_counters();
    recs
}
