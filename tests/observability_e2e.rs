//! End-to-end exercise of the request-level tracing stack (DESIGN.md §16):
//! concurrent clients against one [`Server`] with tracing on, then
//! assertions over the merged report, the Chrome trace, and the flight
//! recorder:
//!
//! * every submitted request's trace id lands in **exactly one**
//!   `SpMMBatch` fan-in set (no request is double-served or dropped);
//! * the `serve.latency_ms` histogram is consistent with the latencies
//!   the clients themselves observed per request;
//! * the Chrome trace carries one flow-start per request, flow-ends on
//!   the batch spans, and per-track monotone slice timestamps;
//! * a poisoned batch dumps the flight ring, naming the offending ids;
//! * a Newton step's `SNESJacobianEval` time is accounted for by its
//!   `MatAssembly`, `PCSetUp` and `MatConvert` children, and its
//!   preconditioner is built once, refreshed in full on each later step's
//!   first Newton iteration and on its fine level alone on every other
//!   (`MatPtAPSymbolic` / `MatPtAPNumeric`, `pc.rebuild` / `pc.refresh` /
//!   `pc.refresh_fine`), in the step and in the next step of the same
//!   stepper;
//! * a multigrid apply is 11 `MatMult`s with the paper's options, and its
//!   `PCApply` time is accounted for by `MGSmooth`, `MatMult`,
//!   `MatRestrict` and `MatInterpolate`.
//!
//! Everything shares **one** `#[test]` (the obs registry and flight ring
//! are process-global); trace-id uniqueness at volume has its own test
//! below because it never touches the registry.

#[path = "common/gate.rs"]
mod gate;

use std::time::Instant;

use sellkit::core::{Apply, CooBuilder, Csr, ExecCtx, MatShape, Operator, VecView, VecViewMut};
use sellkit::grid::interpolation_chain;
use sellkit::obs::{flight, TraceId};
use sellkit::serve::{ServeConfig, Server};
use sellkit::solvers::pc::mg::{Multigrid, MultigridConfig};
use sellkit::solvers::ts::{ThetaConfig, ThetaStepper};
use sellkit::workloads::{GrayScott, GrayScottParams};

/// 5-point Laplacian on an `n × n` periodic grid.
fn laplacian_2d(n: usize) -> Csr {
    let idx = |i: usize, j: usize| i * n + j;
    let mut coo = CooBuilder::new(n * n, n * n);
    for i in 0..n {
        for j in 0..n {
            let r = idx(i, j);
            coo.push(r, r, 4.0);
            coo.push(r, idx((i + n - 1) % n, j), -1.0);
            coo.push(r, idx((i + 1) % n, j), -1.0);
            coo.push(r, idx(i, (j + n - 1) % n), -1.0);
            coo.push(r, idx(i, (j + 1) % n), -1.0);
        }
    }
    coo.to_csr()
}

/// A structurally valid operator whose kernel always panics — the poison
/// injector for the flight-recorder path.
struct PanickingOp(Csr);
impl MatShape for PanickingOp {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn nnz(&self) -> usize {
        self.0.nnz()
    }
}
impl Operator for PanickingOp {
    fn apply(&self, _: &ExecCtx, _: VecView<'_>, _: VecViewMut<'_>, _: Apply) {
        panic!("injected kernel failure");
    }
}
impl sellkit_check::Validate for PanickingOp {
    fn validate(&self) -> Result<(), Vec<sellkit_check::Violation>> {
        sellkit_check::Validate::validate(&self.0)
    }
}

#[test]
fn tracing_flows_histograms_and_flight_dump() {
    let grid = 16;
    let a = laplacian_2d(grid);
    let ncols = a.ncols();

    sellkit::obs::set_enabled(true);
    flight::set_enabled(true);
    flight::clear();

    // ---- One Crank-Nicolson step: nothing of a Jacobian evaluation is
    // left without a name.
    {
        let gs = GrayScott::new(64, GrayScottParams::default());
        let interps = interpolation_chain(gs.grid(), 3);
        let mut u = gs.initial_condition(42);
        let mut ts = ThetaStepper::new(ThetaConfig::default());
        let factory =
            |j: &Csr| Multigrid::<sellkit::Sell8>::new(j, &interps, MultigridConfig::default());
        let res = ts.step::<sellkit::Sell8, _, _>(&gs, &mut u, factory);
        assert!(res.converged());
        let rep = sellkit::obs::report();
        let seconds = |suffix: &str| {
            rep.events
                .iter()
                .filter(|e| e.path.ends_with(suffix))
                .map(|e| e.seconds)
                .sum::<f64>()
        };
        let parent = seconds("SNESSolve>SNESJacobianEval");
        let children: f64 = ["MatAssembly", "PCSetUp", "MatConvert"]
            .iter()
            .map(|c| seconds(&format!("SNESSolve>SNESJacobianEval>{c}")))
            .sum();
        assert!(parent > 0.0, "no SNESJacobianEval span recorded");
        assert!(
            children >= 0.98 * parent && children <= parent,
            "children cover {children} s of the {parent} s SNESJacobianEval span"
        );
        // The Galerkin products are named inside the set-up, by half: the
        // patterns are found once per coarse level, the values once per
        // coarse level and Newton solve — the first iteration builds the
        // hierarchy, every later one refreshes its level 0 alone and keeps
        // the coarse operators.
        assert!(res.iterations >= 2, "one iteration would refresh nothing");
        let count = |name: &str| rep.event(name).map_or(0, |e| e.count);
        let counter = |name: &str| rep.counters.get(name).copied().unwrap_or(0.0);
        assert_eq!(count("MatPtAPSymbolic"), 2, "once per coarse level");
        assert_eq!(
            count("MatPtAPNumeric"),
            2,
            "two coarse operators per Newton solve"
        );
        assert!(seconds("PCSetUp>MatPtAPSymbolic") > 0.0);
        assert!(seconds("PCSetUp>MatPtAPNumeric") > 0.0);
        assert_eq!(counter("pc.rebuild"), 1.0);
        assert_eq!(counter("pc.refresh"), 0.0);
        assert_eq!(counter("pc.refresh_fine"), (res.iterations - 1) as f64);

        // The next step of the same stepper refreshes the hierarchy the
        // first one built, in full on its first iteration: no pattern is
        // found again, nothing is rebuilt.
        let next = ts.step::<sellkit::Sell8, _, _>(&gs, &mut u, factory);
        assert!(next.converged());
        let rep = sellkit::obs::report();
        let count = |name: &str| rep.event(name).map_or(0, |e| e.count);
        let counter = |name: &str| rep.counters.get(name).copied().unwrap_or(0.0);
        let newton_iterations = res.iterations + next.iterations;
        assert_eq!(
            count("MatPtAPSymbolic"),
            2,
            "once per coarse level and stepper"
        );
        assert_eq!(count("MatPtAPNumeric"), 2 * 2, "two Newton solves");
        assert_eq!(counter("pc.rebuild"), 1.0);
        assert_eq!(counter("pc.refresh"), 1.0);
        assert_eq!(counter("pc.refresh_fine"), (newton_iterations - 2) as f64);

        // ---- One V-cycle with the paper's options (1 pre, 1 post, 3
        // levels, 8 coarse Jacobi iterations) is 11 MatMults: the first
        // smoothing step on each level starts from zero and multiplies
        // nothing.
        let a = sellkit::core::matops::identity_plus_scaled(
            1.0,
            -0.5,
            &sellkit::solvers::ts::OdeProblem::rhs_jacobian(&gs, 0.0, &u),
        );
        let mg = Multigrid::<sellkit::Sell8>::new(&a, &interps, MultigridConfig::default());
        let count = |name: &str| sellkit::obs::report().event(name).map_or(0, |e| e.count);
        let mut z = vec![0.0; u.len()];
        let before = ["MatMult", "MatRestrict", "MatInterpolate"].map(count);
        sellkit::solvers::pc::Precond::apply(&mg, &u, &mut z);
        let after = ["MatMult", "MatRestrict", "MatInterpolate"].map(count);
        assert_eq!(after[0] - before[0], 11, "MatMults in one V-cycle");
        assert_eq!(after[1] - before[1], 2, "one restriction per level pair");
        assert_eq!(after[2] - before[2], 2, "one prolongation per level pair");

        // ---- Nothing much of a preconditioner apply is left without a
        // name either: smoothing, the residual MatMult and the two grid
        // transfers (over the step's applies and the one above).
        let rep = sellkit::obs::report();
        let seconds = |suffix: &str| {
            rep.events
                .iter()
                .filter(|e| e.path.ends_with(suffix))
                .map(|e| e.seconds)
                .sum::<f64>()
        };
        let parent = seconds("PCApply");
        let children: f64 = ["MGSmooth", "MatMult", "MatRestrict", "MatInterpolate"]
            .iter()
            .map(|c| seconds(&format!("PCApply>{c}")))
            .sum();
        assert!(parent > 0.0, "no PCApply span recorded");
        assert!(
            children >= 0.90 * parent && children <= parent,
            "children cover {children} s of the {parent} s PCApply spans"
        );
    }

    // ---- Concurrent load: 8 clients × 5 requests with coalescing on.  The
    // first product is held until every other client has queued behind
    // it, so at least one span fans in a whole batch.
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 5;
    let mut submitted: Vec<u64> = Vec::new();
    let mut client_latency_ms: Vec<f64> = Vec::new();
    {
        let server = Server::start(ServeConfig::default());
        let gate = gate::Gate::shut();
        server.register(1, gate.hold(laplacian_2d(grid))).unwrap();
        let results: Vec<Vec<(u64, f64)>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let server = &server;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for r in 0..PER_CLIENT {
                            let x: Vec<f64> =
                                (0..ncols).map(|i| ((i + c * 31 + r) % 17) as f64).collect();
                            let t0 = Instant::now();
                            let ticket = server.submit(1, &x).unwrap();
                            let trace = ticket.trace_id().0;
                            let y = ticket.wait().unwrap();
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            assert_eq!(y.len(), ncols);
                            out.push((trace, ms));
                        }
                        out
                    })
                })
                .collect();
            let held = gate.entered(1)[0];
            while server.queue_depth() < CLIENTS - held {
                std::thread::yield_now();
            }
            gate.open();
            clients.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for per_client in results {
            for (trace, ms) in per_client {
                submitted.push(trace);
                client_latency_ms.push(ms);
            }
        }
    }
    let total = CLIENTS * PER_CLIENT;
    assert_eq!(submitted.len(), total);

    let rep = sellkit::obs::report();

    // ---- Fan-in uniqueness: each submitted id in exactly one batch.
    let batch_spans: Vec<_> = rep.trace.iter().filter(|s| s.name == "SpMMBatch").collect();
    assert!(!batch_spans.is_empty(), "no SpMMBatch spans in the trace");
    assert!(
        batch_spans.iter().all(|s| !s.flow_in.is_empty()),
        "every SpMMBatch span must carry at least one fan-in link"
    );
    assert!(
        batch_spans.iter().any(|s| s.flow_in.len() > 1),
        "the requests queued behind the held product share a span"
    );
    for &id in &submitted {
        let n = batch_spans
            .iter()
            .map(|s| s.flow_in.iter().filter(|&&f| f == id).count())
            .sum::<usize>();
        assert_eq!(n, 1, "trace id {id} appears in {n} fan-in sets, want 1");
    }
    // Batches also annotate their composition size.
    assert!(batch_spans.iter().all(|s| {
        s.args
            .iter()
            .any(|(k, v)| *k == "k" && v.parse::<usize>().is_ok_and(|k| k >= 1))
    }));
    // ...and every submission span originated exactly one flow.
    let flow_outs: Vec<u64> = rep
        .trace
        .iter()
        .filter(|s| s.name == "Submit")
        .flat_map(|s| s.flow_out.iter().copied())
        .collect();
    assert_eq!(flow_outs.len(), total, "one flow origin per submission");

    // ---- Histogram vs client-observed per-request timestamps.  The
    // server-side latency (submit → batch complete) is bounded by what
    // each client saw wall-clock around submit+wait; the histogram's max
    // is exact and its percentiles are bucket midpoints (±~3 %).
    let latency = rep
        .hists
        .get("serve.latency_ms")
        .expect("serve.latency_ms histogram");
    assert_eq!(latency.count, total as u64);
    let client_max = client_latency_ms.iter().copied().fold(0.0, f64::max);
    assert!(
        latency.max <= client_max * 1.05 + 0.1,
        "server-side max latency {} exceeds client-observed max {}",
        latency.max,
        client_max
    );
    let p99 = latency.percentile(0.99);
    let p50 = latency.percentile(0.50);
    assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
    assert!(
        p99 <= client_max * 1.05 + 0.1,
        "hist p99 {p99} inconsistent with client max {client_max}"
    );
    // Queue wait + compute decompose the latency: both recorded.
    assert_eq!(
        rep.hists["serve.queue_wait_ms"].count, total as u64,
        "one queue-wait sample per request"
    );
    assert!(rep.hists["serve.compute_ms"].count >= 1);

    // ---- Chrome trace: flow events bound to slices, monotone tracks.
    let trace_json = rep.chrome_trace();
    let doc = sellkit::obs::parse_json(&trace_json).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let mut starts = Vec::new(); // (id) of ph:"s"
    let mut ends = Vec::new(); // (id) of ph:"f"
    let mut last_ts_per_tid: std::collections::BTreeMap<i64, f64> = Default::default();
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        match ph {
            "s" | "f" => {
                let id = e.get("id").and_then(|v| v.as_f64()).expect("flow id") as u64;
                assert_eq!(
                    e.get("name").and_then(|n| n.as_str()),
                    Some("request"),
                    "flow events are the request lane"
                );
                if ph == "s" {
                    starts.push(id);
                } else {
                    ends.push(id);
                }
            }
            "X" => {
                let tid = e.get("tid").and_then(|v| v.as_f64()).expect("tid") as i64;
                let ts = e.get("ts").and_then(|v| v.as_f64()).expect("ts");
                let dur = e.get("dur").and_then(|v| v.as_f64()).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                // Slices are emitted per track in start order (nested
                // spans close out of order globally, but each track's
                // sequence never goes backwards in start time).
                let last = last_ts_per_tid.entry(tid).or_insert(f64::NEG_INFINITY);
                assert!(
                    ts >= *last,
                    "track {tid}: slice at ts {ts} after one at {last}"
                );
                *last = ts;
            }
            _ => {}
        }
    }
    let mut sorted_starts = starts.clone();
    sorted_starts.sort_unstable();
    sorted_starts.dedup();
    assert_eq!(
        sorted_starts.len(),
        starts.len(),
        "duplicate flow-start ids"
    );
    let mut want = submitted.clone();
    want.sort_unstable();
    assert_eq!(sorted_starts, want, "one flow start per submitted request");
    let mut sorted_ends = ends;
    sorted_ends.sort_unstable();
    assert_eq!(sorted_ends, want, "one flow end per submitted request");

    // ---- Poisoned batch → flight dump naming the offending ids.
    let dump_path = flight::dump_path();
    let _ = std::fs::remove_file(&dump_path);
    let poisoned_trace;
    {
        let server = Server::start(ServeConfig::default());
        server.register(7, PanickingOp(laplacian_2d(grid))).unwrap();
        let x = vec![1.0; ncols];
        let ticket = server.submit(7, &x).unwrap();
        poisoned_trace = ticket.trace_id().0;
        assert_eq!(
            ticket.wait().unwrap_err(),
            sellkit::serve::ServeError::Poisoned
        );
    }
    let dump = std::fs::read_to_string(&dump_path)
        .unwrap_or_else(|e| panic!("flight dump missing at {}: {e}", dump_path.display()));
    let doc = sellkit::obs::parse_json(&dump).expect("flight dump parses");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("sellkit-flight")
    );
    let events = doc.get("events").and_then(|e| e.as_arr()).expect("events");
    let poisoned: Vec<_> = events
        .iter()
        .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("batch.poisoned"))
        .collect();
    assert_eq!(poisoned.len(), 1, "exactly one poisoned batch recorded");
    let ids = poisoned[0].get("ids").and_then(|i| i.as_arr()).unwrap();
    assert!(
        ids.iter()
            .any(|i| i.as_f64() == Some(poisoned_trace as f64)),
        "dump names the poisoned request id {poisoned_trace}: {ids:?}"
    );
    // The worker-pool panic path also left a breadcrumb chain: the
    // submission and batch lifecycle events surround the poison.
    for kind in ["req.submit", "batch.begin"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("kind").and_then(|k| k.as_str()) == Some(kind)),
            "{kind} missing from flight dump"
        );
    }

    sellkit::obs::set_enabled(false);
    let _ = std::fs::remove_file(&dump_path);
}

/// Trace ids are process-unique at volume: 10 000 submissions across
/// threads never collide.  [`TraceId::fresh`] is one relaxed `fetch_add`,
/// so this also pins the allocator's lock-freedom under contention.
#[test]
fn trace_ids_unique_across_10k_submissions() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 1250;
    let ids: Vec<u64> = std::thread::scope(|scope| {
        (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    (0..PER_THREAD)
                        .map(|_| TraceId::fresh().0)
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(ids.len(), THREADS * PER_THREAD);
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "trace ids collided");
    assert!(sorted.iter().all(|&id| id > 0), "ids start at 1");
}
