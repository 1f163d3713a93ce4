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
//! * **Batching policy** — the oldest queued request opens a *batch
//!   window*: the worker waits up to [`ServeConfig::max_wait`] for more
//!   requests against the same matrix, then runs one SpMM over however
//!   many arrived (capped at [`ServeConfig::max_batch`]).  A full window
//!   dispatches immediately; an idle service adds at most `max_wait` of
//!   latency to a lone request.
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

pub use server::{ServeConfig, ServeError, Server, Ticket};
pub use shard::ShardedOp;
