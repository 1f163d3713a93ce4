//! `serve_open`: the top rung, one request through the batching server.
//! One `Server` (`max_batch 8`, `max_wait 2 ms`, one worker thread) holds
//! one `Sell8` tenant at grid 64.  An open loop sends Poisson arrivals and
//! times each request from when it was due, at 2000 req/s, where about four
//! requests share a batch.  A closed loop with 16 requests outstanding
//! finds the throughput.  The traced run adds 500 req/s, where a request
//! mostly waits out the 2 ms window alone, and 8000 req/s, where batches
//! close because they are full and latency is queueing; that rate is too
//! near what a shared host sustains for its latency to gate anything.

use std::time::Duration;

use rand::Rng;
use sellkit_core::Sell8;
use sellkit_serve::{ServeConfig, Server, Ticket};
use sellkit_solvers::ts::OdeProblem;

use crate::harness::{
    gray_scott, oracle, timed_setup, tracing, Cx, Ledger, Outcome, Slot, SMALL_GRIDS,
};
use crate::openloop::{closed_loop, open_loop, poisson_schedule, window_rates, Phase, Service};
use crate::spans;
use crate::stats::{highest_percentile, percentile, quantile, Summary};

/// The queue holds two seconds of arrivals at 2000 req/s, so that a stall
/// of the host (100 ms and more are seen on shared machines) delays
/// requests instead of refusing them: the workload must not fail for a
/// reason outside the program.
const CONFIG: ServeConfig = ServeConfig {
    max_batch: 8,
    max_wait: Duration::from_millis(2),
    queue_cap: 4096,
    threads: 1,
};
const TENANT: u64 = 1;
/// Distinct right-hand sides the generator cycles through.
const INPUTS: usize = 16;
/// The rates the end-to-end latencies are taken at, and the one the traced
/// run adds above them.
const RATE: f64 = 2000.0;
const RATE_LOW: f64 = 500.0;
const RATE_HIGH: f64 = 8000.0;
const OUTSTANDING: usize = 16;
/// Windows the closed loop's replies are counted in.
const CLOSED_WINDOWS: usize = 40;
/// The latency limit of `serve.max_rate_ok`, on the 99th percentile.
const LIMIT_MS: f64 = 5.0;

struct Tenant {
    server: Server,
    xs: Vec<Vec<f64>>,
    want: Vec<Vec<f64>>,
    /// The comparison policy, built once: replies are checked between sends.
    policy: sellkit_fuzz::Config,
}

impl Service for Tenant {
    type Pending = Ticket;
    fn submit(&self, input: usize) -> Option<Ticket> {
        self.server.submit(TENANT, &self.xs[input]).ok()
    }
    fn poll(&self, ticket: &Ticket) -> Option<Option<Vec<f64>>> {
        ticket.try_take().map(Result::ok)
    }
    fn correct(&self, input: usize, reply: &[f64]) -> bool {
        sellkit_fuzz::diff::compare(reply, &self.want[input], &self.policy).is_none()
    }
}

impl Tenant {
    fn open(&self, cx: &Cx, stream: u64, rate: f64, duration: Duration) -> Phase {
        let mut rng = cx.rng(stream);
        let schedule = poisson_schedule(rate, duration, || rng.gen_range(0.0..1.0));
        open_loop(self, &schedule, INPUTS)
    }
}

/// The percentile the sample supports, no higher than the 99th.
fn tail(sorted_ms: &[f64]) -> f64 {
    let p = highest_percentile(sorted_ms.len()).map_or(50.0, |p| p.min(99.0));
    percentile(sorted_ms, p)
}

pub fn run(cx: &Cx) -> Outcome {
    let mut led = Ledger::default();

    let (tenant, setup_s) = timed_setup(|| {
        let gs = gray_scott(SMALL_GRIDS[0]);
        let csr = gs.rhs_jacobian(0.0, &gs.initial_condition(cx.seed));
        let xs: Vec<Vec<f64>> = (0..INPUTS)
            .map(|i| cx.vector(i as u64 + 1, gs.dim()))
            .collect();
        let want = xs.iter().map(|x| oracle(&csr, x)).collect();
        let server = Server::start(CONFIG);
        server
            .register(TENANT, Sell8::from_csr(&csr))
            .expect("the Gray-Scott Jacobian is a valid matrix");
        let tenant = Tenant {
            server,
            xs,
            want,
            policy: sellkit_fuzz::Config::default(),
        };
        // A full batch end to end, so that no timed request is the first.
        closed_loop(&tenant, CONFIG.max_batch, Duration::from_millis(20), INPUTS);
        tenant
    });

    let half = cx.e2e_budget() / 2;
    let open = tenant.open(cx, 100, RATE, half);
    let closed = closed_loop(&tenant, OUTSTANDING, half, INPUTS);
    for (what, phase) in [("open loop at 2000 req/s", &open), ("closed loop", &closed)] {
        led.tally(phase.sent, phase.failed(), || {
            format!(
                "{what}: {} of {} refused, {} failed or wrong",
                phase.rejected, phase.sent, phase.wrong
            )
        });
    }

    // Seconds per reply in each of the closed loop's windows.
    let per_reply: Vec<f64> = window_rates(&closed.done_at_s, half, CLOSED_WINDOWS)
        .iter()
        .map(|r| 1.0 / r.max(1.0))
        .collect();
    // A latency is what a user waits, queueing and the host's stalls
    // included: its median is the metric, not the low end of it.
    let ms = open.latencies_ms();
    let slots = vec![
        Slot {
            name: "serve_p50_ms",
            unit: "ms",
            value: quantile(&ms, 0.5),
            ms: quantile(&ms, 0.5),
            samples: Summary::of(&ms),
        },
        Slot::of("serve_rps", "req/s", &per_reply, |s| 1.0 / s),
    ];

    let mut recs = Vec::new();
    if cx.trace {
        recs = layers(cx, &tenant, &open, &mut led);
    }
    led.finish(setup_s, slots, recs)
}

fn layers(cx: &Cx, tenant: &Tenant, untraced: &Phase, led: &mut Ledger) -> Vec<spans::Rec> {
    let each = cx.layer_budget(3);

    // The same server where a request mostly waits out the window alone,
    // and at a rate where batches fill before the window closes.  The
    // misses of the second gate nothing and are left out of the failure
    // count: 8000 req/s may be more than the host lets the server take.
    let low = tenant.open(cx, 101, RATE_LOW, each);
    led.tally(low.sent, low.failed(), || {
        format!(
            "open loop at 500 req/s: {} of {} missed",
            low.failed(),
            low.sent
        )
    });
    let high = tenant.open(cx, 102, RATE_HIGH, each);
    let rates = [(RATE_LOW, &low), (RATE, untraced), (RATE_HIGH, &high)];
    // The highest rate that met the limit with no miss and a backlog that
    // had stopped growing by the middle of the phase.
    let mut max_ok = 0.0;
    for (rate, phase) in rates {
        let ms = phase.latencies_ms();
        let p99 = tail(&ms);
        led.put(format!("serve.p50_ms_r{rate}"), quantile(&ms, 0.5));
        led.put(format!("serve.p99_ms_r{rate}"), p99);
        let settled = phase.backlog.1 <= 2 * phase.backlog.0 + CONFIG.max_batch;
        if phase.failed() == 0 && p99 <= LIMIT_MS && settled {
            max_ok = rate.max(max_ok);
        }
    }
    led.put("serve.max_rate_ok", max_ok);

    // 2000 req/s again with a span per request and the server's own
    // histograms on: where a request's latency goes.
    tracing(true);
    let traced = tenant.open(cx, 103, RATE, each);
    tracing(false);
    led.tally(traced.sent, traced.failed(), || {
        format!(
            "traced open loop: {} of {} missed",
            traced.failed(),
            traced.sent
        )
    });
    let hists = sellkit_obs::snapshot().hists;
    let hist =
        |name: &str, f: &dyn Fn(&sellkit_obs::HistSnapshot) -> f64| hists.get(name).map_or(0.0, f);
    let p50 = quantile(&traced.latencies_ms(), 0.5);
    let p50_untraced = quantile(&untraced.latencies_ms(), 0.5);
    let submit_ms = Summary::of(&traced.submit_s).median * 1e3;
    // A request's latency is its `submit`, then the server's own span
    // from enqueue to reply (queue wait, then the batch's compute), then
    // whatever it takes the generator to see the reply.
    let server_ms = hist("serve.latency_ms", &|h| h.percentile(0.5));
    led.put("serve.submit_us", submit_ms * 1e3);
    led.put("serve.server_ms_p50", server_ms);
    led.put(
        "serve.queue_wait_ms_p50",
        hist("serve.queue_wait_ms", &|h| h.percentile(0.5)),
    );
    led.put(
        "serve.compute_ms_p50",
        hist("serve.compute_ms", &|h| h.percentile(0.5)),
    );
    led.put("serve.unattributed_ms", p50 - submit_ms - server_ms);
    led.put("serve.batch_k_mean", hist("serve.batch_k", &|h| h.mean()));
    let mut lag_ms: Vec<f64> = traced.lag_s.iter().map(|s| s * 1e3).collect();
    lag_ms.sort_by(f64::total_cmp);
    led.put("serve.gen_lag_ms_p99", tail(&lag_ms));
    led.put("obs.overhead_frac", (p50 - p50_untraced) / p50_untraced);
    led.put_plan_counters();
    spans::take()
}
