//! The batching solve server: request queue, coalescing worker, tickets.
//!
//! One background worker owns an [`ExecCtx`] and drains a shared queue of
//! `(matrix_id, x)` requests, and it is *work-conserving*: whenever it is
//! free and the queue is not empty it takes the oldest request and up to
//! [`ServeConfig::max_batch`] requests for the same matrix — whatever is
//! queued **now** — and never holds a request back to wait for company.
//! Batches therefore form exactly when they cost nothing, while the worker
//! is inside the previous product, and their size follows the load.  A
//! batch of `k > 1` is staged into a row-interleaved [`MultiVec`] and runs
//! as **one** blocked [`Operator::apply`] — the matrix is streamed from
//! memory once for the whole batch instead of once per request (`12·nnz/k`
//! bytes per right-hand side, §6 model); a batch of one is applied in
//! place, from the request's own vector into the reply's.
//!
//! Requests against *different* matrices never share a batch: a batch is
//! one matrix by construction, and requests for other matrices keep their
//! place in the queue, so the next batch is the oldest of them.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sellkit_check::Validate;
use sellkit_core::{Apply, ExecCtx, MultiVec, Operator, VecView, VecViewMut};
use sellkit_obs::{flight, TraceId};

/// Everything that can go wrong between `submit` and `wait`.
///
/// The service never panics across the API boundary: worker-side panics
/// are caught and surfaced as [`ServeError::Poisoned`] on the affected
/// tickets, and every precondition failure is a typed variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The pending queue already holds [`ServeConfig::queue_cap`]
    /// requests; the caller should back off and retry.
    QueueFull,
    /// No matrix is registered under the given id.
    UnknownMatrix(u64),
    /// The right-hand side length does not match the matrix column count.
    ShapeMismatch {
        /// Column count of the registered matrix.
        expected: usize,
        /// Length of the submitted right-hand side.
        got: usize,
    },
    /// The worker panicked while computing this batch (or a lock was
    /// poisoned); the request cannot be fulfilled.
    Poisoned,
    /// [`Server::register`] rejected the matrix: `sellkit-check` found
    /// structural invariant violations.
    InvalidMatrix(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue is at capacity"),
            ServeError::UnknownMatrix(id) => write!(f, "no matrix registered under id {id}"),
            ServeError::ShapeMismatch { expected, got } => {
                write!(f, "rhs length {got} does not match matrix ncols {expected}")
            }
            ServeError::Poisoned => write!(f, "worker panicked while serving this request"),
            ServeError::InvalidMatrix(why) => write!(f, "matrix failed validation: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Batching and capacity policy for a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Largest SpMM block width one batch may reach (the `k` cap).
    pub max_batch: usize,
    /// Unused: the worker never holds a queued request, so there is no
    /// wait to bound.  Still declared only because the frozen
    /// `benchmark/src/workloads/serve_open.rs` names it in a struct
    /// literal; its removal rides on the benchmark PR of ROADMAP item 1.
    pub max_wait: Duration,
    /// Pending-request cap; [`Server::submit`] returns
    /// [`ServeError::QueueFull`] beyond it.
    pub queue_cap: usize,
    /// Threads in the worker's [`ExecCtx`] (1 = serial).
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_cap: 64,
            threads: 1,
        }
    }
}

/// A registered matrix: the operator plus its cached shape (so `submit`
/// can shape-check without touching the operator).
struct Tenant {
    op: Box<dyn Operator + Send + Sync>,
    nrows: usize,
    ncols: usize,
}

/// One pending request.
struct Request {
    matrix: u64,
    x: Vec<f64>,
    ticket: Arc<TicketShared>,
    enqueued: Instant,
    seq: u64,
    /// Process-unique id following this request through queue → batch →
    /// kernel; fans into the `SpMMBatch` span as a Chrome-trace flow link.
    trace: TraceId,
}

/// Completion slot a [`Ticket`] blocks on.
struct TicketShared {
    slot: Mutex<Option<Result<Vec<f64>, ServeError>>>,
    ready: Condvar,
}

impl TicketShared {
    fn fulfill(&self, result: Result<Vec<f64>, ServeError>) {
        if let Ok(mut slot) = self.slot.lock() {
            *slot = Some(result);
            self.ready.notify_all();
        }
    }
}

/// Handle to one submitted request; redeem it with [`Ticket::wait`].
pub struct Ticket {
    shared: Arc<TicketShared>,
    trace: TraceId,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready = self.shared.slot.lock().is_ok_and(|s| s.is_some());
        f.debug_struct("Ticket")
            .field("trace", &self.trace)
            .field("ready", &ready)
            .finish()
    }
}

impl Ticket {
    /// The request's trace id: find it in the exported Chrome trace (flow
    /// arrows into its batch) and in flight-recorder dumps.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Blocks until the worker fulfills the request and returns `y = A·x`
    /// for the submitted right-hand side.
    pub fn wait(self) -> Result<Vec<f64>, ServeError> {
        let mut slot = self.shared.slot.lock().map_err(|_| ServeError::Poisoned)?;
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .shared
                .ready
                .wait(slot)
                .map_err(|_| ServeError::Poisoned)?;
        }
    }

    /// Non-blocking probe: `Some` once the result is in, consuming it.
    pub fn try_take(&self) -> Option<Result<Vec<f64>, ServeError>> {
        self.shared.slot.lock().ok()?.take()
    }
}

/// Queue state guarded by one mutex; the worker and submitters
/// rendezvous on [`Shared::arrived`].
struct State {
    queue: VecDeque<Request>,
    shutdown: bool,
    seq: u64,
}

struct Shared {
    cfg: ServeConfig,
    state: Mutex<State>,
    arrived: Condvar,
    tenants: Mutex<HashMap<u64, Arc<Tenant>>>,
}

/// The batching solve service.  See the crate docs for the policy; see
/// [`ServeError`] for the failure contract.
///
/// Dropping the server drains the queue: pending requests are still
/// served (batched as usual) before the worker exits.
pub struct Server {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the background worker with the given policy.
    pub fn start(cfg: ServeConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.queue_cap >= 1, "queue_cap must be at least 1");
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
                seq: 0,
            }),
            arrived: Condvar::new(),
            tenants: Mutex::new(HashMap::new()),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("sellkit-serve".into())
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawn serve worker");
        Server {
            shared,
            worker: Some(worker),
        }
    }

    /// Registers `matrix` under `id`, running `sellkit-check`'s full
    /// structural validation **once** — the per-request hot path trusts
    /// the invariants from here on.  Re-registering an id replaces the
    /// tenant (in-flight requests finish against the old operator).
    pub fn register<M>(&self, id: u64, matrix: M) -> Result<(), ServeError>
    where
        M: Operator + Validate + Send + Sync + 'static,
    {
        if let Err(violations) = matrix.validate() {
            let mut why = format!("{} violation(s)", violations.len());
            if let Some(first) = violations.first() {
                why.push_str(&format!(", first: {first}"));
            }
            return Err(ServeError::InvalidMatrix(why));
        }
        let tenant = Arc::new(Tenant {
            nrows: matrix.nrows(),
            ncols: matrix.ncols(),
            op: Box::new(matrix),
        });
        let mut tenants = self
            .shared
            .tenants
            .lock()
            .map_err(|_| ServeError::Poisoned)?;
        tenants.insert(id, tenant);
        Ok(())
    }

    /// Queues `y = A·x` against the matrix registered under `id` and
    /// returns a [`Ticket`] for the result.  Fails fast on an unknown
    /// id, a wrong-length `x`, or a saturated queue (backpressure).
    pub fn submit(&self, id: u64, x: &[f64]) -> Result<Ticket, ServeError> {
        let expected = {
            let tenants = self
                .shared
                .tenants
                .lock()
                .map_err(|_| ServeError::Poisoned)?;
            let tenant = tenants.get(&id).ok_or(ServeError::UnknownMatrix(id))?;
            tenant.ncols
        };
        if x.len() != expected {
            return Err(ServeError::ShapeMismatch {
                expected,
                got: x.len(),
            });
        }
        let ticket_shared = Arc::new(TicketShared {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        let trace = TraceId::fresh();
        let depth = {
            // The Submit span originates this request's flow: the batch
            // that eventually serves it terminates the arrow.
            let mut span = sellkit_obs::span("Submit");
            span.flow_out(trace);
            let mut state = self.shared.state.lock().map_err(|_| ServeError::Poisoned)?;
            if state.queue.len() >= self.shared.cfg.queue_cap {
                return Err(ServeError::QueueFull);
            }
            let seq = state.seq;
            state.seq += 1;
            state.queue.push_back(Request {
                matrix: id,
                x: x.to_vec(),
                ticket: Arc::clone(&ticket_shared),
                enqueued: Instant::now(),
                seq,
                trace,
            });
            state.queue.len()
        };
        sellkit_obs::gauge("serve.queue_depth", depth as f64);
        flight::record("req.submit", &[trace.0], id as f64, depth as f64);
        // There is one worker to wake.
        self.shared.arrived.notify_one();
        Ok(Ticket {
            shared: ticket_shared,
            trace,
        })
    }

    /// Number of requests currently queued (diagnostic; racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().map_or(0, |s| s.queue.len())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.arrived.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        // CI artifact hook: with SELLKIT_FLIGHT_DUMP set, every server
        // leaves its recent-event trail behind on shutdown, crash or not.
        if std::env::var_os("SELLKIT_FLIGHT_DUMP").is_some() {
            let _ = flight::dump();
        }
    }
}

/// Removes the oldest request and, in arrival order, up to `max - 1` more
/// for the same matrix; everything else keeps its place.  The front run —
/// all there is with one tenant — comes off the head at no cost to the
/// rest; only a same-matrix request queued behind a foreign one shifts
/// the deque.
fn take_batch(queue: &mut VecDeque<Request>, max: usize) -> Vec<Request> {
    let Some(matrix) = queue.front().map(|req| req.matrix) else {
        return Vec::new();
    };
    let mut batch = Vec::with_capacity(max.min(queue.len()));
    let mut i = 0;
    while batch.len() < max && i < queue.len() {
        if queue[i].matrix == matrix {
            batch.extend(queue.remove(i));
        } else {
            i += 1;
        }
    }
    batch
}

/// Static counter names for the batch-size histogram (`sellkit-obs`
/// counters take `&'static str`).
fn batch_bucket(k: usize) -> &'static str {
    match k {
        1 => "serve.batch.k1",
        2 => "serve.batch.k2",
        3 => "serve.batch.k3",
        4 => "serve.batch.k4",
        5 => "serve.batch.k5",
        6 => "serve.batch.k6",
        7 => "serve.batch.k7",
        8 => "serve.batch.k8",
        _ => "serve.batch.k_other",
    }
}

fn worker_loop(shared: &Shared) {
    let ctx = ExecCtx::new(shared.cfg.threads);
    loop {
        // Phase 1: take what is queued now; park only on an empty queue.
        // Shutdown drains through the same loop.
        let batch = {
            let Ok(mut state) = shared.state.lock() else {
                return;
            };
            while state.queue.is_empty() {
                if state.shutdown {
                    return;
                }
                let Ok(guard) = shared.arrived.wait(state) else {
                    return;
                };
                state = guard;
            }
            take_batch(&mut state.queue, shared.cfg.max_batch)
        };
        // Phase 2: run the batch with no lock held.
        execute_batch(shared, &ctx, batch);
    }
}

/// Runs one product for the batch and fulfills every ticket: a batch of
/// one in place, a wider one staged into an interleaved block.  A panic
/// inside the operator poisons only the tickets of this batch, never the
/// worker.
fn execute_batch(shared: &Shared, ctx: &ExecCtx, batch: Vec<Request>) {
    let k = batch.len();
    if k == 0 {
        return;
    }
    let tenant = shared
        .tenants
        .lock()
        .ok()
        .and_then(|t| t.get(&batch[0].matrix).cloned());
    let Some(tenant) = tenant else {
        // submit() checks registration, but a lock poisoned in between
        // still needs every ticket answered.
        for req in &batch {
            req.ticket
                .fulfill(Err(ServeError::UnknownMatrix(req.matrix)));
        }
        return;
    };

    sellkit_obs::counter(batch_bucket(k), 1.0);
    sellkit_obs::counter("serve.requests", k as f64);
    sellkit_obs::counter("serve.matrix_bytes", tenant.op.matrix_bytes() as f64);

    // Queue-wait vs compute split: a request waits from enqueue until the
    // worker takes it (here) — for the worker to wake or for the batch
    // ahead, never a deliberate hold; compute is the apply below.
    let ids: Vec<u64> = batch.iter().map(|r| r.trace.0).collect();
    let dispatched = Instant::now();
    for req in &batch {
        let wait_ms = dispatched.duration_since(req.enqueued).as_secs_f64() * 1e3;
        sellkit_obs::hist("serve.queue_wait_ms", wait_ms);
    }
    sellkit_obs::hist("serve.batch_k", k as f64);
    flight::record("batch.begin", &ids, k as f64, batch[0].matrix as f64);

    // The traced product, one body for both arms below: how long it
    // took, as `Err` if the operator panicked.
    let traffic = tenant.op.spmm_traffic(k);
    let product = |x: VecView<'_>, y: VecViewMut<'_>| {
        let t_apply = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut span =
                sellkit_obs::span_traffic("SpMMBatch", traffic.flops as f64, traffic.bytes as f64);
            // Fan-in: every coalesced request's flow terminates at this
            // batch span in the exported trace.
            for req in &batch {
                span.flow_in(req.trace);
            }
            span.arg("k", k.to_string());
            tenant.op.apply(ctx, x, y, Apply::Set);
        }));
        let compute_ms = t_apply.elapsed().as_secs_f64() * 1e3;
        if outcome.is_err() {
            return Err(compute_ms);
        }
        sellkit_obs::hist("serve.compute_ms", compute_ms);
        Ok(compute_ms)
    };
    let reply = |req: &Request, out: Vec<f64>| {
        let latency_ms = req.enqueued.elapsed().as_secs_f64() * 1e3;
        sellkit_obs::series_point("serve.latency_ms", req.seq as f64, latency_ms);
        sellkit_obs::hist("serve.latency_ms", latency_ms);
        req.ticket.fulfill(Ok(out));
    };

    let done = if let [req] = &batch[..] {
        // What an idle worker takes: nothing to interleave, so the product
        // reads the request's own vector and writes the reply's.
        let mut out = vec![0.0; tenant.nrows];
        product(VecView::single(&req.x), VecViewMut::single(&mut out)).inspect(|_| reply(req, out))
    } else {
        let mut x = MultiVec::zeros(tenant.ncols, k);
        for (v, req) in batch.iter().enumerate() {
            x.set_column(v, &req.x);
        }
        let mut y = MultiVec::zeros(tenant.nrows, k);
        product(x.view(), y.view_mut()).inspect(|_| {
            for (v, req) in batch.iter().enumerate() {
                let mut out = vec![0.0; tenant.nrows];
                y.copy_column_into(v, &mut out);
                reply(req, out);
            }
        })
    };

    match done {
        Ok(compute_ms) => flight::record("batch.done", &ids, k as f64, compute_ms),
        Err(compute_ms) => {
            // The postmortem path the flight recorder exists for: name
            // the poisoned requests and dump the ring before answering
            // the tickets, so the artifact exists even if a waiter
            // aborts the process on the error.
            flight::record("batch.poisoned", &ids, k as f64, compute_ms);
            let _ = flight::dump();
            for req in &batch {
                req.ticket.fulfill(Err(ServeError::Poisoned));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use sellkit_core::CooBuilder;

    fn diag(n: usize, scale: f64) -> sellkit_core::Csr {
        let mut coo = CooBuilder::new(n, n);
        for i in 0..n {
            coo.push(i, i, scale * (i + 1) as f64);
        }
        coo.to_csr()
    }

    #[test]
    fn single_request_round_trip() {
        let server = Server::start(ServeConfig::default());
        server.register(1, diag(4, 2.0)).unwrap();
        let y = server
            .submit(1, &[1.0, 1.0, 1.0, 1.0])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(y, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn unknown_matrix_is_typed() {
        let server = Server::start(ServeConfig::default());
        assert_eq!(
            server.submit(9, &[1.0]).unwrap_err(),
            ServeError::UnknownMatrix(9)
        );
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let server = Server::start(ServeConfig::default());
        server.register(1, diag(4, 1.0)).unwrap();
        assert_eq!(
            server.submit(1, &[1.0, 2.0]).unwrap_err(),
            ServeError::ShapeMismatch {
                expected: 4,
                got: 2
            }
        );
    }

    /// A server whose tenant `1` is `diag(n, 1.0)` behind a shut gate,
    /// with one request (`x = 0`) already held inside the product: what
    /// is submitted next queues behind a busy worker.
    fn busy_server(cfg: ServeConfig, n: usize) -> (Server, Gate, Ticket) {
        let server = Server::start(cfg);
        let gate = Gate::shut();
        server.register(1, gate.hold(diag(n, 1.0))).unwrap();
        let held = server.submit(1, &vec![0.0; n]).unwrap();
        gate.entered(1);
        (server, gate, held)
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let cfg = ServeConfig {
            queue_cap: 3,
            ..ServeConfig::default()
        };
        let (server, gate, held) = busy_server(cfg, 2);
        let queued: Vec<Ticket> = (0..3)
            .map(|_| server.submit(1, &[1.0, 1.0]).unwrap())
            .collect();
        assert_eq!(server.queue_depth(), 3);
        assert_eq!(
            server.submit(1, &[1.0, 1.0]).unwrap_err(),
            ServeError::QueueFull,
            "the request past queue_cap is refused, not buffered"
        );
        gate.open();
        assert_eq!(held.wait().unwrap(), vec![0.0, 0.0]);
        for t in queued {
            assert_eq!(t.wait().unwrap(), vec![1.0, 2.0]);
        }
    }

    #[test]
    fn lone_request_on_an_idle_server_does_not_wait() {
        // `max_wait` is ignored: an idle worker takes a request at once.
        let server = Server::start(ServeConfig {
            max_wait: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        server.register(1, diag(4, 2.0)).unwrap();
        let sent = Instant::now();
        let y = server.submit(1, &[1.0; 4]).unwrap().wait().unwrap();
        assert_eq!(y, vec![2.0, 4.0, 6.0, 8.0]);
        assert!(
            sent.elapsed() < Duration::from_secs(1),
            "a lone request waited {:?} on an idle server",
            sent.elapsed()
        );
    }

    #[test]
    fn batches_form_behind_a_busy_worker() {
        let (server, gate, held) = busy_server(ServeConfig::default(), 3);
        let queued: Vec<Ticket> = (1..=19)
            .map(|r| server.submit(1, &[r as f64; 3]).unwrap())
            .collect();
        gate.open();
        held.wait().unwrap();
        for (t, r) in queued.into_iter().zip(1..) {
            let r = r as f64;
            assert_eq!(t.wait().unwrap(), vec![r, 2.0 * r, 3.0 * r]);
        }
        // The held request alone, then the 19 in arrival order, max_batch
        // at a time.
        assert_eq!(gate.entered(4), vec![1, 8, 8, 3]);
    }

    #[test]
    fn another_tenants_request_is_not_held_behind_the_front_run() {
        // Tenant 1 is busy; behind it queue 2 1 1 2.  The next batch is
        // the oldest request's tenant — both of 2's — then both of 1's.
        let (server, gate_a, held) = busy_server(ServeConfig::default(), 2);
        let gate_b = Gate::shut();
        server.register(2, gate_b.hold(diag(2, 10.0))).unwrap();
        let queued: Vec<Ticket> = [(2, 1.0), (1, 2.0), (1, 3.0), (2, 4.0)]
            .iter()
            .map(|&(id, v)| server.submit(id, &[v, v]).unwrap())
            .collect();
        gate_a.open();
        held.wait().unwrap();
        assert_eq!(gate_b.entered(1), vec![2], "2's requests share a batch");
        assert_eq!(gate_a.entered(1), vec![1], "1's batch has not run yet");
        assert_eq!(server.queue_depth(), 2);
        gate_b.open();
        let replies: Vec<Vec<f64>> = queued.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(
            replies,
            [[10.0, 20.0], [2.0, 4.0], [3.0, 6.0], [40.0, 80.0]],
            "each reply is its own request's"
        );
        assert_eq!(gate_a.entered(2), vec![1, 2]);
        assert_eq!(gate_b.entered(1), vec![2]);
    }

    #[test]
    fn take_batch_keeps_arrival_order() {
        let request = |(seq, matrix): (usize, u64)| Request {
            matrix,
            x: Vec::new(),
            ticket: Arc::new(TicketShared {
                slot: Mutex::new(None),
                ready: Condvar::new(),
            }),
            enqueued: Instant::now(),
            seq: seq as u64,
            trace: TraceId::fresh(),
        };
        fn seqs<'a>(reqs: impl IntoIterator<Item = &'a Request>) -> Vec<u64> {
            reqs.into_iter().map(|r| r.seq).collect()
        }
        // Tenant 7's front run is interrupted by 8 and is longer than max.
        let mut queue: VecDeque<Request> = [7, 7, 8, 7, 8, 7, 9]
            .into_iter()
            .enumerate()
            .map(request)
            .collect();
        let batch = take_batch(&mut queue, 3);
        assert_eq!(seqs(&batch), [0, 1, 3]);
        assert_eq!(seqs(&queue), [2, 4, 5, 6]);
        let batch = take_batch(&mut queue, 3);
        assert_eq!(seqs(&batch), [2, 4]);
        assert_eq!(seqs(&queue), [5, 6]);
        let batch = take_batch(&mut queue, 3);
        assert_eq!(seqs(&batch), [5]);
        assert_eq!(take_batch(&mut queue, 3).len(), 1);
        assert!(take_batch(&mut queue, 3).is_empty() && queue.is_empty());
    }

    #[test]
    fn invalid_matrix_rejected_at_registration() {
        // The core constructors validate eagerly, so an invalid matrix
        // can only reach `register` through a custom Operator whose
        // Validate impl reports violations — which is exactly the
        // contract this test pins: register surfaces them as a typed
        // error and never inserts the tenant.
        struct AlwaysInvalid(sellkit_core::Csr);
        impl sellkit_core::MatShape for AlwaysInvalid {
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
        impl Operator for AlwaysInvalid {
            fn apply(
                &self,
                ctx: &ExecCtx,
                x: sellkit_core::VecView<'_>,
                y: sellkit_core::VecViewMut<'_>,
                mode: Apply,
            ) {
                self.0.apply(ctx, x, y, mode);
            }
        }
        impl Validate for AlwaysInvalid {
            fn validate(&self) -> Result<(), Vec<sellkit_check::Violation>> {
                Err(vec![sellkit_check::Violation::ArrLen {
                    array: "colidx",
                    expected: 4,
                    found: 3,
                }])
            }
        }
        let server = Server::start(ServeConfig::default());
        match server.register(1, AlwaysInvalid(diag(2, 1.0))) {
            Err(ServeError::InvalidMatrix(why)) => {
                assert!(why.contains("1 violation(s)"), "got {why:?}")
            }
            other => panic!("expected InvalidMatrix, got {other:?}"),
        }
        assert_eq!(
            server.submit(1, &[1.0, 1.0]).unwrap_err(),
            ServeError::UnknownMatrix(1)
        );
    }

    #[test]
    fn drop_drains_pending_requests() {
        let (server, gate, held) = busy_server(ServeConfig::default(), 3);
        let t1 = server.submit(1, &[1.0, 1.0, 1.0]).unwrap();
        let t2 = server.submit(1, &[2.0, 2.0, 2.0]).unwrap();
        // The drop is under way — shutdown set, the worker not yet joined
        // — while both requests are still queued behind the held product.
        let shared = Arc::clone(&server.shared);
        let pending = std::thread::scope(|scope| {
            scope.spawn(move || drop(server));
            while !shared.state.lock().unwrap().shutdown {
                std::thread::yield_now();
            }
            let pending = shared.state.lock().unwrap().queue.len();
            gate.open();
            pending
        });
        assert_eq!(pending, 2);
        held.wait().unwrap();
        assert_eq!(t1.wait().unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(t2.wait().unwrap(), vec![2.0, 4.0, 6.0]);
    }
}
