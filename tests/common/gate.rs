//! An operator the test holds shut: the fixture of every serve test that
//! needs requests to queue behind a busy worker (`#[path = ".../gate.rs"]
//! mod gate;` from `crates/serve` and from the root-level e2e tests).
//!
//! The server's worker takes whatever is queued the moment it is free, so
//! a test cannot build a queue by submitting quickly.  It registers a
//! tenant behind a [`Gate`] instead: the first product enters the gate and
//! blocks, the test queues what it likes behind it, then opens the gate —
//! no sleep and no race with the worker's wake-up.  The gate is also a
//! fault-injection hook: a product held in flight for as long as a test
//! wants.

use std::sync::{Arc, Condvar, Mutex};

use sellkit_check::{Validate, Violation};
use sellkit_core::{Apply, ExecCtx, MatShape, Operator, VecView, VecViewMut};

/// The test's end of the gate: shut until [`Gate::open`] (or until it is
/// dropped, so a failed assertion unwinds past a `Server` instead of
/// hanging in its join).
pub struct Gate(Arc<Latch>);

/// Whether the gate is open, and the width `k` of every product that has
/// reached it, in order.
struct Latch {
    state: Mutex<(bool, Vec<usize>)>,
    changed: Condvar,
}

/// `inner` behind a [`Gate`]: same shape, validity and product.
pub struct Gated<M> {
    inner: M,
    latch: Arc<Latch>,
}

impl Gate {
    pub fn shut() -> Gate {
        Gate(Arc::new(Latch {
            state: Mutex::new((false, Vec::new())),
            changed: Condvar::new(),
        }))
    }

    /// The tenant to register: every product of `inner` stops here first.
    pub fn hold<M>(&self, inner: M) -> Gated<M> {
        Gated {
            inner,
            latch: Arc::clone(&self.0),
        }
    }

    /// Blocks until `n` products have reached the gate (held there or
    /// passed through) and returns the widths of all that have.
    pub fn entered(&self, n: usize) -> Vec<usize> {
        let mut state = self.0.state.lock().unwrap();
        while state.1.len() < n {
            state = self.0.changed.wait(state).unwrap();
        }
        state.1.clone()
    }

    /// Lets the held product and every later one through.
    pub fn open(&self) {
        self.0.state.lock().unwrap().0 = true;
        self.0.changed.notify_all();
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        // Not `open`: a drop during a panic must not panic on a poisoned lock.
        if let Ok(mut state) = self.0.state.lock() {
            state.0 = true;
        }
        self.0.changed.notify_all();
    }
}

impl Latch {
    fn pass(&self, k: usize) {
        let mut state = self.state.lock().unwrap();
        state.1.push(k);
        self.changed.notify_all();
        while !state.0 {
            state = self.changed.wait(state).unwrap();
        }
    }
}

impl<M: MatShape> MatShape for Gated<M> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
}

impl<M: Operator> Operator for Gated<M> {
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        self.latch.pass(x.k());
        self.inner.apply(ctx, x, y, mode);
    }
}

impl<M: Validate> Validate for Gated<M> {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        self.inner.validate()
    }
}
