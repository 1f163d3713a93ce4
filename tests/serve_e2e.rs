//! End-to-end exercise of the batched solve service: a queue built behind
//! a busy worker on one [`Server`], proving the coalescing policy actually
//! amortizes matrix traffic (the `12·nnz/k` argument of DESIGN.md §15),
//! checking the distributed (sharded) tenant path against the local one,
//! and leaving the obs report under `target/tmp/` for CI to upload.
//!
//! Everything lives in **one** `#[test]`: the obs registry is process
//! global, and the traffic assertions diff counter snapshots — a second
//! test submitting requests concurrently would pollute the deltas.

#[path = "common/gate.rs"]
mod gate;

use sellkit::core::{Apply, CooBuilder, Csr, ExecCtx, MatShape, Operator, VecView, VecViewMut};
use sellkit::machine::{stream_probe, StreamKernel};
use sellkit::serve::{ServeConfig, ServeError, Server, ShardedOp};

/// 5-point Laplacian on an `n × n` periodic grid — the Gray-Scott-shaped
/// workload the service exists for (every row 5 nonzeros).
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

fn rhs(ncols: usize, salt: usize) -> Vec<f64> {
    (0..ncols)
        .map(|i| ((i * 13 + salt * 7) % 29) as f64 * 0.125 - 1.5)
        .collect()
}

fn counter_of(rep: &sellkit::obs::Report, name: &str) -> f64 {
    rep.counters.get(name).copied().unwrap_or(0.0)
}

/// Sum of the `k >= 2` buckets of the batch-size histogram.
fn coalesced_batches(rep: &sellkit::obs::Report) -> f64 {
    rep.counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve.batch.") && *name != "serve.batch.k1")
        .map(|(_, v)| v)
        .sum()
}

/// What the named counter gained between two reports.
fn gained(before: &sellkit::obs::Report, after: &sellkit::obs::Report, name: &str) -> f64 {
    counter_of(after, name) - counter_of(before, name)
}

#[test]
fn serve_coalesces_amortizes_traffic_and_exports_json() {
    let grid = 24; // 576 rows, 2880 nonzeros
    let a = laplacian_2d(grid);
    let nrows = a.nrows();
    let ncols = a.ncols();
    let threads = std::env::var("SELLKIT_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1usize);

    sellkit::obs::set_enabled(true);
    let rep0 = sellkit::obs::report();

    // ---- Phase A: batching disabled (max_batch = 1). Every request
    // streams the full matrix: the per-RHS baseline.
    const PHASE_A_REQS: usize = 16;
    {
        let server = Server::start(ServeConfig {
            max_batch: 1,
            threads,
            ..ServeConfig::default()
        });
        server.register(1, laplacian_2d(grid)).unwrap();
        for r in 0..PHASE_A_REQS {
            let y = server.submit(1, &rhs(ncols, r)).unwrap().wait().unwrap();
            assert_eq!(y.len(), nrows);
            assert!(y.iter().all(|v| v.is_finite()));
        }
    }
    let rep_a = sellkit::obs::report();
    let bytes_a = gained(&rep0, &rep_a, "serve.matrix_bytes");
    let reqs_a = gained(&rep0, &rep_a, "serve.requests");
    assert_eq!(reqs_a as usize, PHASE_A_REQS);
    assert!(
        coalesced_batches(&rep_a) - coalesced_batches(&rep0) == 0.0,
        "max_batch=1 must never coalesce"
    );

    // ---- Phase B: coalescing on.  Batches form while the worker is busy,
    // so the queue is built behind a gate: one request held inside its
    // product, 32 behind it, then max_batch at a time.
    const PHASE_B_REQS: usize = 33;
    {
        let server = Server::start(ServeConfig {
            threads,
            ..ServeConfig::default()
        });
        let gate = gate::Gate::shut();
        server.register(1, gate.hold(laplacian_2d(grid))).unwrap();
        let mut tickets = vec![server.submit(1, &rhs(ncols, 0)).unwrap()];
        gate.entered(1);
        tickets.extend((1..PHASE_B_REQS).map(|r| server.submit(1, &rhs(ncols, r)).unwrap()));
        gate.open();
        for t in tickets {
            assert_eq!(t.wait().unwrap().len(), nrows);
        }
        assert_eq!(gate.entered(5), [1, 8, 8, 8, 8]);
    }
    let rep_b = sellkit::obs::report();
    let bytes_b = gained(&rep_a, &rep_b, "serve.matrix_bytes");
    assert_eq!(
        gained(&rep_a, &rep_b, "serve.requests") as usize,
        PHASE_B_REQS
    );

    // The histogram shows the four coalesced batches and the lone one...
    assert_eq!(gained(&rep_a, &rep_b, "serve.batch.k8"), 4.0);
    assert_eq!(gained(&rep_a, &rep_b, "serve.batch.k1"), 1.0);
    // ...and the matrix was streamed five times for the 33 right-hand
    // sides, where phase A streamed it once for each: 6.6x fewer matrix
    // bytes per RHS (a `Gated<Csr>` models the traffic its `Csr` does).
    let per_stream = bytes_a / reqs_a;
    assert_eq!(bytes_b, 5.0 * per_stream, "one matrix stream per batch");

    // ---- Sharded tenant: same answers through the distributed path.
    {
        let server = Server::start(ServeConfig::default());
        server.register(1, laplacian_2d(grid)).unwrap();
        server
            .register(2, ShardedOp::new(laplacian_2d(grid), 3))
            .unwrap();
        let x = rhs(ncols, 41);
        let y_local = server.submit(1, &x).unwrap().wait().unwrap();
        let y_dist = server.submit(2, &x).unwrap().wait().unwrap();
        // Each was a batch of one, applied in place: the reply is the
        // operator's own single-vector product, bit for bit.
        assert_eq!(
            gained(&rep_b, &sellkit::obs::report(), "serve.batch.k1"),
            2.0
        );
        let mut want = vec![0.0; nrows];
        let (xv, yv) = (VecView::single(&x), VecViewMut::single(&mut want));
        a.apply(&ExecCtx::serial(), xv, yv, Apply::Set);
        assert_eq!(y_local, want);
        for (i, (l, d)) in y_local.iter().zip(&y_dist).enumerate() {
            assert!(
                (l - d).abs() <= 1e-10 * (1.0 + l.abs()),
                "row {i}: local {l} vs sharded {d}"
            );
        }

        // Typed error paths through the public API.
        assert_eq!(
            server.submit(99, &x).unwrap_err(),
            ServeError::UnknownMatrix(99)
        );
        assert_eq!(
            server.submit(1, &x[..5]).unwrap_err(),
            ServeError::ShapeMismatch {
                expected: ncols,
                got: 5
            }
        );
    }
    sellkit::obs::set_enabled(false);

    // ---- Export: schema-valid JSON with the serve metrics present.
    let rep = sellkit::obs::report();
    let batch = rep.event("SpMMBatch").expect("SpMMBatch recorded");
    assert!(batch.count > 0);
    assert!(batch.bytes > 0.0, "SpMMBatch must carry modeled traffic");
    assert!(batch.flops > 0.0);
    assert!(
        rep.series.contains_key("serve.latency_ms"),
        "per-request latency series missing"
    );
    assert!(
        rep.gauges.contains_key("serve.queue_depth"),
        "queue depth gauge missing"
    );
    let latency = rep
        .hists
        .get("serve.latency_ms")
        .expect("per-request latency histogram missing");
    assert_eq!(
        latency.count,
        (PHASE_A_REQS + PHASE_B_REQS + 2) as u64,
        "every successful request lands one latency sample"
    );
    assert!(latency.percentile(0.99) >= latency.percentile(0.50));
    assert!(
        rep.hists.contains_key("serve.queue_wait_ms"),
        "queue-wait histogram missing"
    );

    // The serve worker and any mpisim ranks appear under their own names;
    // idle counter-only threads are pruned from the thread table.
    assert!(
        rep.threads.iter().any(|t| t.label == "sellkit-serve"),
        "serve worker thread not named: {:?}",
        rep.threads.iter().map(|t| &t.label).collect::<Vec<_>>()
    );

    // This host's measured copy roof; a debug build has none to report.
    let bw = (!cfg!(debug_assertions)).then(|| stream_probe(StreamKernel::Copy, threads, None).gbs);
    let text = rep.to_json(bw);
    sellkit::obs::validate_report_json(&text).expect("schema-valid report");
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/obs_serve.json");
    std::fs::write(path, format!("{text}\n")).expect("write bench report");
}
