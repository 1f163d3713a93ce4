//! Warm hot paths perform **zero heap allocations**:
//!
//! * a matrix product at any thread count, from the first one on: each
//!   lane computes its own window, so there is nothing to build first;
//! * a multigrid V-cycle, serial and on a pool, once the hierarchy exists;
//! * the numeric set-up of that hierarchy for a new fine matrix
//!   (`Precond::refresh`) with the paper's options;
//! * a restarted GMRES solve allocates no vector after its first restart
//!   cycle;
//! * an assembled matrix is not copied on its way into a `Csr`.
//!
//! A counting global allocator tallies every `alloc`/`realloc` **per
//! thread**; a measurement sums the tallies of the threads that take part
//! in it — the calling thread and the workers of its [`ExecCtx`] — so the
//! libtest thread and the other tests of this file, which allocate whenever
//! they like, are not in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without destructors: reading them inside the
    // allocator neither allocates nor meets torn-down thread-local storage.
    /// `alloc` and `realloc` calls made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those calls asked for.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    ALLOCS.set(ALLOCS.get() + 1);
    BYTES.set(BYTES.get() + bytes);
}

// SAFETY: delegates every operation to the `System` allocator unchanged;
// the counters are a side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, to which this forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: forwarding the caller's contract directly to `System`.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: same contract as `System::dealloc`, to which this forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarding the caller's contract directly to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: same contract as `System::realloc`, to which this forwards.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: forwarding the caller's contract directly to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use sellkit::core::{
    matops, Apply, Baij, CooBuilder, Csr, ExecCtx, MatShape, Operator, RowAssembler, Sell8,
    SellEsb, SellSigma8,
};
use sellkit::grid::{interpolation_chain, laplacian_5pt, Grid2D};
use sellkit::solvers::ksp::{gmres, KspConfig};
use sellkit::solvers::operator::{MatOperator, SeqDot};
use sellkit::solvers::pc::mg::{Multigrid, MultigridConfig};
use sellkit::solvers::pc::{JacobiPc, Precond};
use sellkit::solvers::ts::OdeProblem;
use sellkit::workloads::{GrayScott, GrayScottParams};

/// Allocations made so far by the threads of `ctx`.  Part `p` of a dispatch
/// always runs on lane `p`, the caller being lane 0, so `threads()` parts
/// visit every thread once.
fn allocs_on(ctx: &ExecCtx) -> usize {
    let total = AtomicUsize::new(0);
    ctx.dispatch(ctx.threads(), &|_| {
        total.fetch_add(ALLOCS.get(), Ordering::Relaxed);
    });
    total.into_inner()
}

fn irregular(n: usize) -> Csr {
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        for j in 0..(i % 7 + 1) {
            b.push(i, (i + j * 11) % n, (i * 3 + j) as f64 * 0.01 - 0.5);
        }
    }
    b.to_csr()
}

/// Runs `reps` warm products and returns how many allocations they made.
fn allocs_during<M: Operator>(
    m: &M,
    ctx: &ExecCtx,
    x: &[f64],
    y: &mut [f64],
    reps: usize,
) -> usize {
    // Warmup: faults in pool state.
    m.apply(ctx, (x).into(), (y).into(), Apply::Set);
    m.apply(ctx, (x).into(), (y).into(), Apply::Add);
    let before = allocs_on(ctx);
    for _ in 0..reps {
        m.apply(ctx, (x).into(), (y).into(), Apply::Set);
        m.apply(ctx, (x).into(), (y).into(), Apply::Add);
    }
    allocs_on(ctx) - before
}

#[test]
fn warm_spmv_ctx_is_allocation_free() {
    let n = 512;
    let a = irregular(n);
    let sell = Sell8::from_csr(&a);
    let sigma = SellSigma8::from_csr_sigma(&a, 32);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
    let mut y = vec![0.0; n];

    for threads in [1usize, 4] {
        let ctx = ExecCtx::new(threads);
        assert_eq!(
            allocs_during(&a, &ctx, &x, &mut y, 50),
            0,
            "csr allocated at {threads} threads"
        );
        assert_eq!(
            allocs_during(&sell, &ctx, &x, &mut y, 50),
            0,
            "sell8 allocated at {threads} threads"
        );
        assert_eq!(
            allocs_during(&sigma, &ctx, &x, &mut y, 50),
            0,
            "sell-c-sigma allocated at {threads} threads"
        );
    }
}

/// The first pooled product of a freshly built matrix allocates nothing:
/// no partition is built or cached, each lane binary-searches its own
/// window of the pointer prefix.
#[test]
fn first_pooled_apply_is_allocation_free() {
    let n = 512;
    let a = irregular(n);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
    let mut y = vec![0.0; n];
    let ctx = ExecCtx::new(4);
    ctx.dispatch(ctx.threads(), &|_| {});
    let fresh: [(&str, Box<dyn Operator>); 5] = [
        ("csr", Box::new(a.clone())),
        ("sell8", Box::new(Sell8::from_csr(&a))),
        ("sell-c-sigma", Box::new(SellSigma8::from_csr_sigma(&a, 32))),
        ("baij", Box::new(Baij::from_csr(&a, 2))),
        ("sell-esb", Box::new(SellEsb::from_csr(&a))),
    ];
    for (name, m) in &fresh {
        let before = allocs_on(&ctx);
        m.apply(&ctx, (&x).into(), (&mut y).into(), Apply::Set);
        m.apply(&ctx, (&x).into(), (&mut y).into(), Apply::Add);
        assert_eq!(allocs_on(&ctx) - before, 0, "first {name} apply allocated");
    }
}

/// The paper's preconditioner on a Gray-Scott Newton matrix: after one
/// apply on a pool every further one works in the hierarchy's own vectors.
#[test]
fn warm_multigrid_apply_is_allocation_free() {
    let gs = GrayScott::new(32, GrayScottParams::default());
    let j = gs.rhs_jacobian(0.0, &gs.initial_condition(42));
    let a = matops::identity_plus_scaled(1.0, -0.5, &j);
    let interps = interpolation_chain(gs.grid(), 3);
    let mg = Multigrid::<Sell8>::new(&a, &interps, MultigridConfig::default());
    let n = a.nrows();
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
    let mut z = vec![0.0; n];

    for threads in [1usize, 3] {
        let ctx = ExecCtx::new(threads);
        mg.apply_ctx(&ctx, &r, &mut z);
        let before = allocs_on(&ctx);
        for _ in 0..10 {
            mg.apply_ctx(&ctx, &r, &mut z);
        }
        assert_eq!(
            allocs_on(&ctx) - before,
            0,
            "V-cycle allocated at {threads} threads"
        );
    }
    mg.apply(&r, &mut z);
    let before = ALLOCS.get();
    mg.apply(&r, &mut z);
    assert_eq!(ALLOCS.get() - before, 0, "Precond::apply allocated");
}

/// `PCSetUp` on kept patterns: with the paper's options (Jacobi smoother,
/// `Jacobi(8)` coarse solve) the Galerkin values, the level operators'
/// values and the inverse diagonals are written into storage the hierarchy
/// already owns.
#[test]
fn warm_multigrid_refresh_is_allocation_free() {
    let gs = GrayScott::new(32, GrayScottParams::default());
    let newton = |w: &[f64]| matops::identity_plus_scaled(1.0, -0.5, &gs.rhs_jacobian(0.0, w));
    let a1 = newton(&gs.initial_condition(42));
    let a2 = newton(&vec![0.4; gs.dim()]);
    let interps = interpolation_chain(gs.grid(), 3);
    let mut mg = Multigrid::<Sell8>::new(&a1, &interps, MultigridConfig::default());
    assert!(mg.refresh(&a2));
    let before = ALLOCS.get();
    for a in [&a1, &a2, &a1] {
        assert!(mg.refresh(a));
    }
    assert_eq!(ALLOCS.get() - before, 0, "Precond::refresh allocated");
}

/// An operator that remembers how many bytes this thread had asked for on
/// entry to its `at`-th application (counting from 1).
struct BytesAt<'a> {
    op: MatOperator<'a, Csr>,
    at: usize,
    applies: Cell<usize>,
    bytes: Cell<Option<usize>>,
}

impl sellkit::solvers::Operator for BytesAt<'_> {
    fn dim(&self) -> usize {
        self.op.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.applies.set(self.applies.get() + 1);
        if self.applies.get() == self.at {
            self.bytes.set(Some(BYTES.get()));
        }
        self.op.apply(x, y);
    }
}

/// GMRES(5) over forty restart cycles: the basis and every work vector are
/// allocated during the first cycle and recycled by the later ones, which
/// only ever grow the residual history — all of them together ask for less
/// memory than one vector takes.
#[test]
fn restarted_gmres_allocates_no_vector_after_its_first_cycle() {
    // Periodic 5-point Laplacian plus a small shift: regular, and far too
    // ill-conditioned for GMRES(5) with Jacobi to finish in forty cycles.
    let grid = Grid2D::new(64, 64, 1);
    let a = matops::shift(&laplacian_5pt(&grid, &[1.0], 1.0), 1e-3);
    let n = a.nrows();
    let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
    let mut x = vec![0.0; n];
    let restart = 5;
    // One application for the initial residual, one per Arnoldi step, then
    // the check that closes the first cycle (`operator.rs` pins this count).
    let first_cycle = BytesAt {
        op: MatOperator(&a),
        at: restart + 2,
        applies: Cell::new(0),
        bytes: Cell::new(None),
    };
    let res = gmres(
        &first_cycle,
        &JacobiPc::from_csr(&a),
        &SeqDot,
        &rhs,
        &mut x,
        &KspConfig {
            rtol: 1e-12,
            max_it: 40 * restart,
            restart,
            ..Default::default()
        },
    );
    let after_solve = BYTES.get();
    assert_eq!(res.iterations, 40 * restart, "forty restart cycles");
    let after_first_cycle = first_cycle.bytes.get().expect("the first cycle was closed");
    assert!(
        after_solve - after_first_cycle < n * std::mem::size_of::<f64>(),
        "{} bytes allocated after the first restart cycle; a vector is {}",
        after_solve - after_first_cycle,
        n * std::mem::size_of::<f64>()
    );
}

/// A `Csr` keeps the `Vec`s it is handed: closing a preallocated assembly
/// and the in-place Newton shift allocate nothing at all, and a symbolic
/// phase's `zeros_with_pattern` only the zeroed value array it returns.
#[test]
fn an_assembled_matrix_is_not_copied_on_its_way_in() {
    let n = 1000;
    let mut b = RowAssembler::with_capacity(n, n, 3 * n);
    for i in 0..n {
        b.push(i, 2.0);
        b.push((i + 1) % n, -1.0);
        b.push((i + n - 1) % n, -1.0);
        b.end_row();
    }
    let before = ALLOCS.get();
    let a = b.finish();
    assert_eq!(ALLOCS.get() - before, 0, "RowAssembler::finish allocated");

    let before = ALLOCS.get();
    let a = matops::identity_plus_scaled_owned(1.0, -0.5, a);
    assert_eq!(ALLOCS.get() - before, 0, "the owned shift allocated");

    let (rowptr, colidx) = (a.rowptr().to_vec(), a.colidx().to_vec());
    let (allocs, bytes) = (ALLOCS.get(), BYTES.get());
    let z = Csr::zeros_with_pattern(n, n, rowptr, colidx);
    assert_eq!(ALLOCS.get() - allocs, 1, "one array: the zeroed values");
    assert_eq!(BYTES.get() - bytes, z.nnz() * std::mem::size_of::<f64>());
    assert!(z.same_pattern(&a));
}
