//! Shared-memory execution contexts for SpMV and vector kernels.
//!
//! The paper runs MatMult hybrid MPI×threads; this module supplies the
//! "×threads" axis.  An [`ExecCtx`] owns a persistent [`WorkerPool`]
//! (or none, for serial execution), and it is the one place that hands
//! the parts of a parallel region disjoint `&mut` windows of an output
//! slice: [`ExecCtx::dispatch_even`] splits by element count, and the
//! formats' products split a **slice-aligned row partition balanced by
//! nonzeros** that each lane computes for itself from the format's
//! pointer prefix — nothing is planned ahead or cached:
//!
//! * SELL formats partition at slice boundaries — a slice is the natural
//!   unit of multi-threaded SELL SpMV (Kreutzer et al.): every thread
//!   runs the identical SIMD kernel over whole slices, writing a disjoint
//!   `C`-aligned window of `y`;
//! * CSR partitions at row boundaries, BAIJ at block-row
//!   boundaries — again whole rows per thread, disjoint `y` windows.
//!
//! Balancing by nnz (binary search over the format's prefix-sum array)
//! rather than by rows keeps threads busy on matrices with skewed row
//! lengths — thread placement/chunking dominates many-core SpMV (Chen et
//! al.).
//!
//! **Determinism**: a thread computes each of its rows with the same
//! kernel, same operand order, as the serial path would; partitioning
//! never splits a row or slice.  Parallel output is therefore *bitwise
//! identical* to serial output, for any thread count (verified for all
//! formats by `tests/parallel.rs`).

use crate::pool::WorkerPool;

/// Environment variable read by [`ExecCtx::from_env`].
pub const THREADS_ENV: &str = "SELLKIT_THREADS";

/// An execution context: serial, or a handle to a pool of N execution
/// lanes (the calling thread plus N−1 persistent workers).
///
/// `ExecCtx::serial()` is free to construct and makes
/// [`Operator::apply`](crate::Operator::apply) behave exactly like the
/// classic serial `spmv`.  `ExecCtx::new(n)` spins up a persistent pool;
/// build it once per solve (or process) and thread it through the solver
/// stack — constructing one per product would re-pay thread spawn costs.
///
/// ```
/// use sellkit_core::{Apply, Csr, ExecCtx, Operator};
///
/// let a = Csr::from_dense(2, 2, &[2.0, 0.0, 0.0, 3.0]);
/// let ctx = ExecCtx::new(2);
/// let mut y = vec![0.0; 2];
/// a.apply(&ctx, (&[1.0, 1.0]).into(), (&mut y).into(), Apply::Set);
/// assert_eq!(y, vec![2.0, 3.0]);
/// ```
pub struct ExecCtx {
    pool: Option<WorkerPool>,
    nthreads: usize,
}

impl ExecCtx {
    /// The serial context: no pool, no threads, classic behavior.
    pub const fn serial() -> Self {
        Self {
            pool: None,
            nthreads: 1,
        }
    }

    /// A context with `nthreads` execution lanes; `nthreads <= 1` yields
    /// the serial context (no pool is spawned).
    pub fn new(nthreads: usize) -> Self {
        if nthreads <= 1 {
            Self::serial()
        } else {
            Self {
                pool: Some(WorkerPool::new(nthreads)),
                nthreads,
            }
        }
    }

    /// Reads the thread count from `SELLKIT_THREADS` (unset, empty, `0`,
    /// or `1` → serial).
    pub fn from_env() -> Self {
        let n = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(1);
        Self::new(n)
    }

    /// Number of threads this context executes with (1 for serial).
    pub fn threads(&self) -> usize {
        self.nthreads
    }

    /// Whether this context runs serially (no worker pool).
    pub fn is_serial(&self) -> bool {
        self.pool.is_none()
    }

    /// Runs parts `0..nparts` of `f` — on the pool when parallel (caller
    /// included as lane 0, blocking until all parts complete), in order
    /// on the calling thread when serial.  Allocation-free in both cases.
    pub fn dispatch(&self, nparts: usize, f: &(dyn Fn(usize) + Sync)) {
        match &self.pool {
            Some(pool) => pool.run(nparts, f),
            None => {
                for p in 0..nparts {
                    f(p);
                }
            }
        }
    }

    /// Partitions `data` into one contiguous near-equal window per lane
    /// and runs `f(offset, window)` for each non-empty window, where
    /// `offset` is the window's start index in `data`.  Serial contexts
    /// get a single `f(0, data)` call.  Allocation-free.
    pub fn dispatch_even<T: Send>(&self, data: &mut [T], f: &(dyn Fn(usize, &mut [T]) + Sync)) {
        let n = data.len();
        let parts = self.threads();
        if n == 0 {
            return;
        }
        let Some(pool) = &self.pool else {
            f(0, data);
            return;
        };
        let windows = DisjointParts::new(data);
        let body = |p: usize| {
            let (i0, i1) = (n * p / parts, n * (p + 1) / parts);
            if i0 < i1 {
                // SAFETY: the windows `[n·p/parts, n·(p+1)/parts)` are
                // disjoint and in-bounds for distinct `p` by construction
                // (the bounds are a monotone function of `p`), and each
                // part index is executed exactly once per dispatch.
                let win = unsafe { windows.slice(i0, i1) };
                f(i0, win);
            }
        };
        pool.run(parts, &body);
    }

    /// Runs `f(i0, i1, window)` over a split of the `prefix.len() - 1`
    /// items (rows, slices, block rows) of a pointer prefix — CSR
    /// `rowptr`, SELL `sliceptr`, BAIJ `browptr` — balanced by the
    /// weights it encodes.  Lane `p` computes its own item window
    /// `[split_point(p), split_point(p + 1))`; item `i` starts output row
    /// `i · rows_per_item` (clamped to `nrows = y.len() / k`), and the
    /// lane gets `y`'s rows of its items, `k` interleaved values a row.
    /// Empty windows are skipped; a serial context makes the one call
    /// `f(0, items, y)`.  Allocation-free.
    pub(crate) fn dispatch_weighted(
        &self,
        prefix: &[usize],
        rows_per_item: usize,
        y: &mut [f64],
        k: usize,
        f: &(dyn Fn(usize, usize, &mut [f64]) + Sync),
    ) {
        let items = prefix.len().saturating_sub(1);
        let Some(pool) = &self.pool else {
            return f(0, items, y);
        };
        assert!(
            k >= 1 && y.len().is_multiple_of(k),
            "y must hold k interleaved vectors"
        );
        let (parts, nrows) = (self.nthreads, y.len() / k);
        let bound = |p: usize| split_point(prefix, parts, p);
        let start = |i: usize| i.saturating_mul(rows_per_item).min(nrows) * k;
        let windows = DisjointParts::new(y);
        let body = |p: usize| {
            let (i0, i1) = (bound(p), bound(p + 1));
            if i0 < i1 {
                // SAFETY: `split_point` is monotone in `p` and runs from 0
                // to `items`, and `start` is monotone and bounded by
                // `y.len()`, so the windows of distinct `p` are disjoint
                // and in-bounds; each part index runs exactly once per
                // dispatch.
                let win = unsafe { windows.slice(start(i0), start(i1)) };
                f(i0, i1, win);
            }
        };
        pool.run(parts, &body);
    }
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("threads", &self.nthreads)
            .finish()
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::serial()
    }
}

/// A shared handle to one `&mut [T]` that hands out **disjoint** windows
/// to the parts of a parallel region, so that a single borrowed
/// `Fn(usize)` serves every lane without boxing per-part closures.
///
/// Handing out a window is `unsafe`: the caller must guarantee that
/// concurrent parts touch disjoint index sets.  The two safe wrappers,
/// [`ExecCtx::dispatch_even`] and [`ExecCtx::dispatch_weighted`], derive
/// that guarantee from window bounds that are monotone in the part index.
struct DisjointParts<'a, T> {
    ptr: *mut T,
    len: usize,
    _life: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: a `DisjointParts` is only a window factory; the unsafe method's
// contract (disjoint index sets per concurrent caller) makes cross-thread
// use race-free, and `T: Send` lets the windows themselves cross threads.
unsafe impl<T: Send> Sync for DisjointParts<'_, T> {}
// SAFETY: same argument; the handle carries no thread-local state.
unsafe impl<T: Send> Send for DisjointParts<'_, T> {}

impl<'a, T> DisjointParts<'a, T> {
    fn new(data: &'a mut [T]) -> Self {
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _life: std::marker::PhantomData,
        }
    }

    /// The window `[r0, r1)` of the underlying slice.
    ///
    /// # Safety
    /// No other concurrently live window may overlap `[r0, r1)`.  Bounds
    /// are asserted.
    unsafe fn slice(&self, r0: usize, r1: usize) -> &'a mut [T] {
        assert!(r0 <= r1 && r1 <= self.len, "window out of bounds");
        // SAFETY: in-bounds by the assert; exclusivity is the caller's
        // contract above.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r0), r1 - r0) }
    }
}

/// The item at which part `p` of `parts` starts when the
/// `prefix.len() - 1` items (rows, slices, block rows …) are split into
/// contiguous ranges balanced by the prefix-sum weights
/// (`prefix[i+1] - prefix[i]` is item `i`'s weight — its nnz).  Part `p`
/// owns `[split_point(p), split_point(p + 1))`.
///
/// Boundary `p` is the first item whose cumulative weight reaches the
/// `p`-th equal share of the total (a binary search), clamped between
/// boundary `p - 1` and `items` — so the boundaries are monotone in `p`
/// for any prefix, start at 0 and end at `items` (`p >= parts`).  Ranges
/// **may be empty** (more parts than items, or one heavy item absorbing
/// several targets); callers skip them.  When the total weight is zero
/// (all-empty rows) the split falls back to even item counts, so the work
/// of writing `y = 0` is still distributed.
///
/// Handled edge cases: an empty or trivial prefix (`[]`/`[b]` → all-empty
/// ranges), a prefix window that does not start at zero (weights are
/// taken relative to `prefix[0]`), weight totals near `usize::MAX`
/// (targets are computed in `u128`), and `parts > items`.
fn split_point(prefix: &[usize], parts: usize, p: usize) -> usize {
    let items = prefix.len().saturating_sub(1);
    if p >= parts {
        return items;
    }
    let base = prefix.first().copied().unwrap_or(0);
    let total = if items == 0 { 0 } else { prefix[items] - base };
    (1..=p).fold(0, |prev, q| {
        let at = if total == 0 {
            // Unweighted fallback: even item split.
            items * q / parts
        } else {
            // u128 keeps `total · q` exact for any realizable nnz count.
            let target = base as u128 + (total as u128 * q as u128).div_ceil(parts as u128);
            prefix.partition_point(|&v| (v as u128) < target)
        };
        at.clamp(prev, items)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every part's `[split_point(p), split_point(p + 1))`.
    fn split(prefix: &[usize], parts: usize) -> Vec<(usize, usize)> {
        let bound = |p: usize| split_point(prefix, parts, p);
        (0..parts).map(|p| (bound(p), bound(p + 1))).collect()
    }

    fn check_cover(ranges: &[(usize, usize)], items: usize) {
        assert_eq!(ranges.first().expect("nonempty").0, 0);
        assert_eq!(ranges.last().expect("nonempty").1, items);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must tile contiguously");
        }
        for &(a, b) in ranges {
            assert!(a <= b);
        }
    }

    #[test]
    fn serial_ctx_has_no_pool() {
        let ctx = ExecCtx::serial();
        assert!(ctx.is_serial());
        assert_eq!(ctx.threads(), 1);
        assert!(ctx.pool.is_none());
        assert!(ExecCtx::new(1).is_serial());
        assert!(ExecCtx::new(0).is_serial());
    }

    #[test]
    fn parallel_ctx_spawns_pool() {
        let ctx = ExecCtx::new(3);
        assert!(!ctx.is_serial());
        assert_eq!(ctx.threads(), 3);
        // Caller-helps pool: 3 lanes = the caller + 2 spawned workers.
        let pool = ctx.pool.as_ref().expect("pool");
        assert_eq!(pool.lanes(), 3);
        assert_eq!(pool.nworkers(), 2);
    }

    #[test]
    fn dispatch_executes_serially_in_order_without_pool() {
        let ctx = ExecCtx::serial();
        let order = std::sync::Mutex::new(Vec::new());
        ctx.dispatch(4, &|p| order.lock().unwrap().push(p));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dispatch_even_covers_serial_and_parallel() {
        for threads in [1usize, 3] {
            let ctx = ExecCtx::new(threads);
            let mut data = vec![0usize; 17];
            ctx.dispatch_even(&mut data, &|i0, win| {
                for (i, v) in win.iter_mut().enumerate() {
                    *v = i0 + i;
                }
            });
            let want: Vec<usize> = (0..17).collect();
            assert_eq!(data, want, "threads={threads}");
        }
    }

    #[test]
    fn dispatch_weighted_tiles_ragged_rows() {
        // 4 slices of 8 rows, last slice ragged (nrows = 29), at k = 1 and 2.
        let sliceptr = vec![0usize, 64, 80, 96, 128];
        let ctx = ExecCtx::new(3);
        for k in [1usize, 2] {
            let mut y = vec![-1.0f64; 29 * k];
            ctx.dispatch_weighted(&sliceptr, 8, &mut y, k, &|i0, i1, win| {
                let rows = (i1 * 8).min(29) - i0 * 8;
                assert_eq!(win.len(), rows * k, "ragged last slice clamps to nrows");
                for (j, v) in win.iter_mut().enumerate() {
                    *v = (i0 * 8 * k + j) as f64;
                }
            });
            let want: Vec<f64> = (0..29 * k).map(|i| i as f64).collect();
            assert_eq!(y, want, "k={k}");
        }
    }

    #[test]
    fn dispatch_weighted_serial_and_parallel_agree() {
        let sliceptr: Vec<usize> = (0..=10).map(|i| i * 7).collect();
        for threads in [1usize, 4] {
            let ctx = ExecCtx::new(threads);
            let mut y = vec![0.0f64; 40];
            ctx.dispatch_weighted(&sliceptr, 4, &mut y, 1, &|i0, _, win| {
                for (i, v) in win.iter_mut().enumerate() {
                    *v = (i0 * 4 + i) as f64;
                }
            });
            let want: Vec<f64> = (0..40).map(|i| i as f64).collect();
            assert_eq!(y, want, "threads={threads}");
        }
    }

    /// A pooled product keeps nothing that could outlive `with_isa`: after
    /// warm applies on a context, each tier's pooled product on that same
    /// context equals the tier's whole-matrix kernel bit for bit.
    #[test]
    fn with_isa_after_a_pooled_apply_runs_the_new_tier() {
        use crate::{Apply, CooBuilder, Isa, Operator, Sell8, SellEsb};
        let n = 203;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            for j in 0..i % 9 + 1 {
                b.push(i, (i + j * 13) % n, ((i * 7 + j) as f64).sin());
            }
        }
        let (csr, x) = (
            b.to_csr(),
            (0..n).map(|i| (i as f64 * 0.29).cos()).collect::<Vec<_>>(),
        );
        let (sell, esb) = (Sell8::from_csr(&csr), SellEsb::from_csr(&csr));
        let ctx = ExecCtx::new(4);
        let pooled = |m: &dyn Operator| {
            let mut y = vec![0.0; n];
            m.apply(&ctx, (&x).into(), (&mut y).into(), Apply::Set);
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let serial = |spmv: &dyn Fn(&[f64], &mut [f64])| {
            let mut y = vec![0.0; n];
            spmv(&x, &mut y);
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        for m in [&csr as &dyn Operator, &sell, &esb] {
            pooled(m);
        }
        for t in Isa::available_tiers() {
            let want = serial(&|x, y| csr.spmv_isa(t, x, y));
            assert_eq!(pooled(&csr.clone().with_isa(t)), want, "csr {t}");
            let want = serial(&|x, y| sell.spmv_isa(t, x, y));
            assert_eq!(pooled(&sell.clone().with_isa(t)), want, "sell8 {t}");
            let want = serial(&|x, y| esb.spmv_isa(t, x, y));
            assert_eq!(pooled(&esb.clone().with_isa(t)), want, "esb {t}");
        }
    }

    #[test]
    fn dispatch_even_empty_and_tiny_inputs() {
        let ctx = ExecCtx::new(4);
        let mut empty: Vec<usize> = Vec::new();
        ctx.dispatch_even(&mut empty, &|_, _| panic!("no windows on empty input"));
        // Fewer elements than lanes: every element still written once.
        let mut tiny = vec![0usize; 2];
        ctx.dispatch_even(&mut tiny, &|i0, win| {
            for (i, v) in win.iter_mut().enumerate() {
                *v = i0 + i + 1;
            }
        });
        assert_eq!(tiny, vec![1, 2]);
    }

    #[test]
    fn split_point_balances_skewed_rows() {
        // 8 items, item 0 carries almost all weight.
        let prefix = vec![0usize, 100, 101, 102, 103, 104, 105, 106, 107];
        let parts = split(&prefix, 4);
        check_cover(&parts, 8);
        // The heavy first item must sit alone (or nearly) in part 0.
        assert!(parts[0].1 <= 2, "heavy row hogs a part: {parts:?}");
    }

    #[test]
    fn split_point_uniform_is_even() {
        let prefix: Vec<usize> = (0..=16).map(|i| i * 5).collect();
        let parts = split(&prefix, 4);
        check_cover(&parts, 16);
        for &(a, b) in &parts {
            assert_eq!(b - a, 4, "uniform weights split evenly: {parts:?}");
        }
    }

    #[test]
    fn split_point_more_parts_than_items() {
        let prefix = vec![0usize, 3, 7];
        let parts = split(&prefix, 7);
        check_cover(&parts, 2);
        let nonempty = parts.iter().filter(|(a, b)| a < b).count();
        assert!(nonempty <= 2);
    }

    #[test]
    fn split_point_zero_total_splits_evenly() {
        let prefix = vec![0usize; 9]; // 8 empty rows
        let parts = split(&prefix, 4);
        check_cover(&parts, 8);
        for &(a, b) in &parts {
            assert_eq!(b - a, 2, "zero weight falls back to even: {parts:?}");
        }
    }

    #[test]
    fn split_point_empty_matrix() {
        let parts = split(&[0usize], 4);
        check_cover(&parts, 0);
        let parts = split(&[], 4);
        assert!(parts.iter().all(|&(a, b)| a == 0 && b == 0));
    }

    #[test]
    fn split_point_windowed_prefix_not_zero_based() {
        // A window of a larger prefix array: weights 5,5,5,5 starting at
        // cumulative 1000.  Absolute targets must be offset by the base
        // or everything lands in part 0.
        let prefix = vec![1000usize, 1005, 1010, 1015, 1020];
        let parts = split(&prefix, 2);
        check_cover(&parts, 4);
        assert_eq!(parts, vec![(0, 2), (2, 4)], "windowed prefix: {parts:?}");
    }

    #[test]
    fn split_point_huge_weights_do_not_overflow() {
        // total · parts would overflow usize if computed naively.
        let w = usize::MAX / 4;
        let prefix = vec![0usize, w, 2 * w, 3 * w];
        let parts = split(&prefix, 3);
        check_cover(&parts, 3);
        for &(a, b) in &parts {
            assert_eq!(b - a, 1, "uniform huge weights: {parts:?}");
        }
    }

    #[test]
    fn split_point_single_item_many_parts() {
        // One item absorbing every target: part 0 takes it, the rest are
        // empty trailing ranges.
        let parts = split(&[0usize, 42], 5);
        check_cover(&parts, 1);
        assert_eq!(parts[0], (0, 1));
        assert!(parts[1..].iter().all(|&(a, b)| a == b));
    }

    #[test]
    fn split_point_is_monotone_for_any_prefix() {
        // Not a prefix sum: the clamp still yields disjoint, covering ranges.
        let prefix = vec![0usize, 50, 3, 90, 10, 5];
        for parts in 1..8 {
            check_cover(&split(&prefix, parts), 5);
        }
    }

    #[test]
    fn from_env_parses() {
        // Can't mutate the environment safely in a threaded test binary;
        // just exercise the unset path (serial default).
        if std::env::var(THREADS_ENV).is_err() {
            assert!(ExecCtx::from_env().threads() >= 1);
        }
    }
}
