//! # sellkit-serve — async batched SpMM solve service
//!
//! The SpMM engine in `sellkit-core` amortizes matrix traffic (`12·nnz`
//! bytes per product) across `k` right-hand sides — but only if someone
//! *collects* `k` right-hand sides.  In a solve service the right-hand
//! sides arrive one at a time from independent clients, so this crate
//! supplies the missing piece: a [`Server`] that queues incoming
//! `(matrix_id, x)` requests and coalesces same-matrix requests into one
//! blocked [`Operator::apply`](sellkit_core::Operator::apply) per batch.
//!
//! * **Batching policy** — work-conserving: a free worker takes the
//!   oldest queued request and up to [`ServeConfig::max_batch`] requests
//!   for the same matrix, whatever is queued *now*, and parks only on an
//!   empty queue.  A request is never held to wait for company, so a lone
//!   request on an idle service costs a wake-up and its own product
//!   (applied in place, no staging), and batches form exactly when they
//!   are free — while the worker is inside the previous product — at a
//!   size that follows the load.
//! * **What the numbers mean** — `serve.queue_wait_ms` is enqueue → taken:
//!   the worker's wake-up or the batch ahead, never a deliberate hold.
//!   `serve.batch_k` follows load: for the in-cache Gray-Scott tenant of
//!   the `serve_open` benchmark it is ≈ 1.1 at 2000 req/s (5.0 under the
//!   2 ms window this policy replaced) and 8 in the closed loop.  That is
//!   the intent: such a product takes 0.040 ms alone and ≈ 0.02 ms a
//!   reply at `k ≈ 5`, so the window bought 0.02 ms for 1.2 ms waited.  An
//!   out-of-cache tenant gets its amortisation the same way, from the
//!   queue that builds while a 35 ms product runs.
//! * **Backpressure** — [`Server::submit`] fails fast with
//!   [`ServeError::QueueFull`] once [`ServeConfig::queue_cap`] requests
//!   are pending, instead of buffering unboundedly.
//! * **Validation at the edge** — [`Server::register`] runs
//!   `sellkit-check`'s [`Validate`](sellkit_check::Validate) **once** per
//!   matrix; the hot path never re-checks invariants.
//! * **Tenant sharding** — a [`ShardedOp`] tenant runs its products
//!   through [`DistMat`](sellkit_dist::dmat::DistMat) across simulated
//!   MPI ranks, so large tenants get the §2.2 distributed MatMult while
//!   small ones stay on the local path.
//! * **Observability** — queue depth, a batch-size histogram
//!   (`serve.batch.k*` counters), per-request latency
//!   (`serve.latency_ms`), and per-batch traffic attribution flow
//!   through `sellkit-obs` into the report `tests/serve_e2e.rs` writes
//!   under `target/tmp/`.
//!
//! ```
//! use sellkit_core::CooBuilder;
//! use sellkit_serve::{ServeConfig, Server};
//!
//! let mut coo = CooBuilder::new(2, 2);
//! coo.push(0, 0, 2.0);
//! coo.push(1, 1, 3.0);
//! let server = Server::start(ServeConfig::default());
//! server.register(7, coo.to_csr()).unwrap();
//! let ticket = server.submit(7, &[1.0, 1.0]).unwrap();
//! assert_eq!(ticket.wait().unwrap(), vec![2.0, 3.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod server;
pub mod shard;

/// The gate operator the unit tests here share with the root-level e2e
/// tests: a product held in flight until the test lets it go.
#[cfg(test)]
#[path = "../../../tests/common/gate.rs"]
mod gate;

pub use server::{ServeConfig, ServeError, Server, Ticket};
pub use shard::ShardedOp;
