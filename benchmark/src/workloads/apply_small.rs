//! `apply_small`: `Operator::apply` on matrices so small that the kernel is
//! the least of it.  Gray-Scott Jacobians at grids 64, 32 and 16 (82 k,
//! 20 k and 5 k nonzeros, all cache-resident: this is the labelled in-cache
//! point) are applied in V-cycle order 64-32-16-16-32-64, as a multigrid
//! preconditioner does.  Plan lookup and pool dispatch set the time.

use std::time::Instant;

use sellkit_core::{Csr, ExecCtx, Isa, Operator, Sell8};
use sellkit_solvers::ts::OdeProblem;

use crate::harness::{
    apply, gray_scott, oracle, timed_setup, tracing, Cx, Ledger, Outcome, Slot, SMALL_GRIDS,
};
use crate::spans;
use crate::stats::{sample, sample_interleaved, Summary};

/// Level visited by each of the six applies of one sweep.
const SWEEP: [usize; 6] = [0, 1, 2, 2, 1, 0];

struct Level {
    csr: Csr,
    sell: Sell8,
    x: Vec<f64>,
}

fn outputs(levels: &[Level]) -> Vec<Vec<f64>> {
    levels.iter().map(|l| vec![0.0; l.x.len()]).collect()
}

pub fn run(cx: &Cx) -> Outcome {
    let mut led = Ledger::default();
    let serial = ExecCtx::serial();
    let batch = cx.sizes().small_batch;

    let ((levels, pool), setup_s) = timed_setup(|| {
        let levels: Vec<Level> = SMALL_GRIDS
            .iter()
            .zip(1..)
            .map(|(&g, stream)| {
                let gs = gray_scott(g);
                let csr = gs.rhs_jacobian(0.0, &gs.initial_condition(cx.seed));
                let sell = Sell8::from_csr(&csr);
                let x = cx.vector(stream, gs.dim());
                Level { csr, sell, x }
            })
            .collect();
        let pool = ExecCtx::new(cx.pool);
        let mut ys = outputs(&levels);
        for ctx in [&serial, &pool] {
            for (l, y) in levels.iter().zip(&mut ys) {
                apply(&l.sell, ctx, &l.x, y);
                apply(&l.csr, ctx, &l.x, y);
            }
        }
        (levels, pool)
    });

    let sweeps = |sell: bool, ctx: &ExecCtx, ys: &mut [Vec<f64>]| {
        for _ in 0..batch {
            for l in SWEEP {
                let lv = &levels[l];
                let m: &dyn Operator = if sell { &lv.sell } else { &lv.csr };
                apply(m, ctx, &lv.x, &mut ys[l]);
            }
        }
    };
    let (mut y_serial, mut y_csr, mut y_pool) =
        (outputs(&levels), outputs(&levels), outputs(&levels));
    let t = sample_interleaved(
        cx.e2e_budget(),
        10,
        &mut [
            &mut || sweeps(true, &serial, &mut y_serial),
            &mut || sweeps(false, &serial, &mut y_csr),
            &mut || sweeps(true, &pool, &mut y_pool),
        ],
    );
    // One sample is `batch` sweeps; the slots are per sweep, and under
    // the issue's names per apply.
    let per_sweep = |s: &[f64]| -> Vec<f64> { s.iter().map(|v| v / batch as f64).collect() };
    let us_per_apply = |sweep_s: f64| sweep_s * 1e6 / SWEEP.len() as f64;
    let slots = vec![
        Slot::of("apply_us_serial", "us", &per_sweep(&t[0]), us_per_apply),
        Slot::of("apply_us_serial_csr", "us", &per_sweep(&t[1]), us_per_apply),
        Slot::of("apply_us_pool", "us", &per_sweep(&t[2]), us_per_apply),
    ];

    let want: Vec<Vec<f64>> = levels.iter().map(|l| oracle(&l.csr, &l.x)).collect();
    for (what, ys, samples) in [
        ("Sell8 serial", &y_serial, &t[0]),
        ("Csr serial", &y_csr, &t[1]),
        ("Sell8 pool", &y_pool, &t[2]),
    ] {
        let ops = (samples.len() * batch * 2) as u64;
        for (g, (y, w)) in SMALL_GRIDS.iter().zip(ys.iter().zip(&want)) {
            led.check(&format!("{what}, grid {g}"), ops, y, w);
        }
    }

    let mut recs = Vec::new();
    if cx.trace {
        layers(cx, &levels, &pool, &mut led);
        recs = spans::take();
    }
    led.finish(setup_s, slots, recs)
}

const LAYER_PARTS: usize = 14;

fn layers(cx: &Cx, levels: &[Level], pool: &ExecCtx, led: &mut Ledger) {
    let serial = ExecCtx::serial();
    let slice = cx.layer_budget(LAYER_PARTS);
    let batch = cx.sizes().small_batch;
    let mut ys = outputs(levels);
    // Median seconds per call of `f`, timed `batch` calls at a time.
    let per_call = |f: &mut dyn FnMut()| {
        let t = sample(slice, 10, || (0..batch).for_each(|_| f()));
        Summary::of(&t).median / batch as f64
    };

    // core.exec: the same apply per level on each context, and the bare
    // round trip of a dispatch that does nothing.
    let mut warm_pool_g64 = 0.0;
    for ((l, y), g) in levels.iter().zip(&mut ys).zip(SMALL_GRIDS) {
        let s = per_call(&mut || apply(&l.sell, &serial, &l.x, y));
        let p = per_call(&mut || apply(&l.sell, pool, &l.x, y));
        led.put(format!("core.exec.apply_us_serial_g{g}"), s * 1e6);
        led.put(format!("core.exec.apply_us_pool_g{g}"), p * 1e6);
        if g == SMALL_GRIDS[0] {
            warm_pool_g64 = p;
        }
    }
    let noop = |_: usize| {};
    for (name, ctx) in [("serial", &serial), ("pool", pool)] {
        let s = per_call(&mut || ctx.dispatch(ctx.threads(), &noop));
        led.put(format!("core.exec.dispatch_ns_{name}"), s * 1e9);
    }

    // core.plan: what `apply` costs over the bare kernel on the smallest
    // matrix, and what the first apply of a new matrix costs over a warm one.
    let small = levels.last().unwrap();
    let best = Isa::detect();
    let (mut y_apply, mut y_raw) = (vec![0.0; small.x.len()], vec![0.0; small.x.len()]);
    let t = sample_interleaved(
        slice * 2,
        10,
        &mut [
            &mut || (0..batch).for_each(|_| apply(&small.sell, &serial, &small.x, &mut y_apply)),
            &mut || (0..batch).for_each(|_| small.sell.spmv_isa(best, &small.x, &mut y_raw)),
        ],
    );
    let over = Summary::of(&t[0]).median - Summary::of(&t[1]).median;
    led.put("core.plan.apply_overhead_ns", over / batch as f64 * 1e9);
    let (big, y) = (&levels[0], &mut ys[0]);
    let cold: Vec<f64> = (0..10)
        .map(|_| {
            let fresh = Sell8::from_csr(&big.csr);
            let t = Instant::now();
            apply(&fresh, pool, &big.x, y);
            t.elapsed().as_secs_f64()
        })
        .collect();
    led.put(
        "core.plan.first_apply_us",
        (Summary::of(&cold).median - warm_pool_g64) * 1e6,
    );

    // The sweep on the pool with every apply inside a span and the
    // program's registry on, next to the same sweep with both off.
    let sweep = |traced: bool, ys: &mut [Vec<f64>]| {
        tracing(traced);
        for _ in 0..batch {
            for l in SWEEP {
                let _s = spans::span("core.apply");
                apply(&levels[l].sell, pool, &levels[l].x, &mut ys[l]);
            }
        }
        tracing(false);
    };
    let mut ys_on = outputs(levels);
    let t = sample_interleaved(
        slice * 2,
        10,
        &mut [&mut || sweep(false, &mut ys), &mut || {
            sweep(true, &mut ys_on)
        }],
    );
    led.put_overhead(&t[0], &t[1]);
    led.put_plan_counters();
}
