//! End-to-end exercise of the batched solve service: concurrent clients
//! against one [`Server`], proving the coalescing policy actually
//! amortizes matrix traffic (the `12·nnz/k` argument of DESIGN.md §15),
//! checking the distributed (sharded) tenant path against the local one,
//! and leaving the obs report under `target/tmp/` for CI to upload.
//!
//! Everything lives in **one** `#[test]`: the obs registry is process
//! global, and the traffic assertions diff counter snapshots — a second
//! test submitting requests concurrently would pollute the deltas.

use std::sync::Barrier;
use std::time::Duration;

use sellkit::core::{CooBuilder, Csr, MatShape};
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
            max_wait: Duration::from_millis(1),
            queue_cap: 64,
            threads,
        });
        server.register(1, laplacian_2d(grid)).unwrap();
        for r in 0..PHASE_A_REQS {
            let y = server.submit(1, &rhs(ncols, r)).unwrap().wait().unwrap();
            assert_eq!(y.len(), nrows);
            assert!(y.iter().all(|v| v.is_finite()));
        }
    }
    let rep_a = sellkit::obs::report();
    let bytes_a =
        counter_of(&rep_a, "serve.matrix_bytes") - counter_of(&rep0, "serve.matrix_bytes");
    let reqs_a = counter_of(&rep_a, "serve.requests") - counter_of(&rep0, "serve.requests");
    assert_eq!(reqs_a as usize, PHASE_A_REQS);
    assert!(
        coalesced_batches(&rep_a) - coalesced_batches(&rep0) == 0.0,
        "max_batch=1 must never coalesce"
    );

    // ---- Phase B: coalescing on, concurrent clients. A barrier lines the
    // clients up so their submissions land inside one batch window.
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 4;
    {
        let server = Server::start(ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(200),
            queue_cap: 64,
            threads,
        });
        server.register(1, laplacian_2d(grid)).unwrap();
        let gate = Barrier::new(CLIENTS);
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let (server, gate) = (&server, &gate);
                scope.spawn(move || {
                    gate.wait();
                    let tickets: Vec<_> = (0..PER_CLIENT)
                        .map(|r| server.submit(1, &rhs(ncols, c * 100 + r)).unwrap())
                        .collect();
                    for t in tickets {
                        let y = t.wait().unwrap();
                        assert_eq!(y.len(), nrows);
                    }
                });
            }
        });
    }
    let rep_b = sellkit::obs::report();
    let bytes_b =
        counter_of(&rep_b, "serve.matrix_bytes") - counter_of(&rep_a, "serve.matrix_bytes");
    let reqs_b = counter_of(&rep_b, "serve.requests") - counter_of(&rep_a, "serve.requests");
    assert_eq!(reqs_b as usize, CLIENTS * PER_CLIENT);

    // The histogram must show real coalescing...
    let coalesced = coalesced_batches(&rep_b) - coalesced_batches(&rep_a);
    assert!(
        coalesced >= 1.0,
        "concurrent clients must produce at least one k>=2 batch"
    );
    // ...and the ISSUE acceptance bar: >= 3x fewer matrix bytes per RHS
    // than the unbatched baseline (equal matrices, so the ratio is just
    // requests per matrix-stream).
    let per_rhs_a = bytes_a / reqs_a;
    let per_rhs_b = bytes_b / reqs_b;
    assert!(
        per_rhs_a >= 3.0 * per_rhs_b,
        "amortization too weak: {per_rhs_a:.0} vs {per_rhs_b:.0} bytes/RHS"
    );

    // ---- Sharded tenant: same answers through the distributed path.
    {
        let server = Server::start(ServeConfig::default());
        server.register(1, laplacian_2d(grid)).unwrap();
        server
            .register(2, ShardedOp::new(laplacian_2d(grid), 3, 0x7a9))
            .unwrap();
        let x = rhs(ncols, 41);
        let y_local = server.submit(1, &x).unwrap().wait().unwrap();
        let y_dist = server.submit(2, &x).unwrap().wait().unwrap();
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
        (PHASE_A_REQS + CLIENTS * PER_CLIENT + 2) as u64,
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

    let bw = sellkit::machine::host_stream_bw_gbs(threads);
    let text = rep.to_json(Some(bw));
    sellkit::obs::validate_report_json(&text).expect("schema-valid report");
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/obs_serve.json");
    std::fs::write(path, format!("{text}\n")).expect("write bench report");
}
