//! Shared-memory execution contexts for SpMV and vector kernels.
//!
//! The paper runs MatMult hybrid MPI×threads; this module supplies the
//! "×threads" axis.  An [`ExecCtx`] owns a persistent [`WorkerPool`]
//! (or none, for serial execution).  Formats execute against a cached
//! [`crate::plan::SpmvPlan`] holding a **slice-aligned row partition
//! balanced by nonzeros**:
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

    /// The worker pool, if parallel.  Format implementations match on this
    /// to pick the serial or partitioned path.
    pub fn pool(&self) -> Option<&WorkerPool> {
        self.pool.as_ref()
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
/// to the parts of a parallel region, replacing the `split_at_mut` chains
/// that the boxed-closure dispatcher used.  Windowing through a shared
/// handle is what lets a single borrowed `Fn(usize)` serve every lane
/// without boxing per-part closures.
///
/// All methods handing out aliases are `unsafe`: the caller must
/// guarantee that concurrent parts touch disjoint index sets.  The safe
/// wrappers ([`ExecCtx::dispatch_even`], [`crate::plan::SpmvPlan::run_on`]
/// and [`crate::plan::Permutation::scatter_ctx`]) derive that guarantee
/// from construction-checked invariants.
pub(crate) struct DisjointParts<'a, T> {
    ptr: *mut T,
    len: usize,
    _life: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: a `DisjointParts` is only a window factory; the unsafe methods'
// contracts (disjoint index sets per concurrent caller) make cross-thread
// use race-free, and `T: Send` lets the windows themselves cross threads.
unsafe impl<T: Send> Sync for DisjointParts<'_, T> {}
// SAFETY: same argument; the handle carries no thread-local state.
unsafe impl<T: Send> Send for DisjointParts<'_, T> {}

impl<'a, T> DisjointParts<'a, T> {
    pub(crate) fn new(data: &'a mut [T]) -> Self {
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _life: std::marker::PhantomData,
        }
    }

    /// The window `[r0, r1)` of the underlying slice.
    ///
    /// # Safety
    /// No other concurrently live window or element reference may overlap
    /// `[r0, r1)`.  Bounds are asserted.
    pub(crate) unsafe fn slice(&self, r0: usize, r1: usize) -> &'a mut [T] {
        assert!(r0 <= r1 && r1 <= self.len, "window out of bounds");
        // SAFETY: in-bounds by the assert; exclusivity is the caller's
        // contract above.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r0), r1 - r0) }
    }

    /// A mutable reference to element `i`.
    ///
    /// # Safety
    /// No other concurrently live window or element reference may include
    /// index `i`.  Bounds are asserted.
    pub(crate) unsafe fn at(&self, i: usize) -> &'a mut T {
        assert!(i < self.len, "index out of bounds");
        // SAFETY: in-bounds by the assert; exclusivity is the caller's
        // contract above.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Splits `prefix.len() - 1` items (rows, slices, block rows …) into at
/// most `parts` contiguous ranges balanced by the prefix-sum weights
/// (`prefix[i+1] - prefix[i]` is item `i`'s weight — its nnz).
///
/// Boundaries are found by binary search for each target weight, so the
/// cost is `O(parts · log items)` per plan build — and plans are cached,
/// so this is off the product hot path entirely.  Ranges are contiguous,
/// ascending, cover all items, and **may be empty** (more threads than
/// items, or one huge item absorbing several targets); callers skip empty
/// ranges.  When the total weight is zero (all-empty rows) the split
/// falls back to even item counts so the work of writing `y = 0` is still
/// distributed.
///
/// Handled edge cases: an empty or trivial prefix (`[]`/`[b]` → all-empty
/// ranges), a prefix window that does not start at zero (weights are
/// taken relative to `prefix[0]`), weight totals near `usize::MAX`
/// (targets are computed in `u128`), and `parts > items`.
pub fn split_by_weight(prefix: &[usize], parts: usize) -> Vec<(usize, usize)> {
    let items = prefix.len().saturating_sub(1);
    assert!(parts >= 1, "need at least one part");
    let base = prefix.first().copied().unwrap_or(0);
    let total = if items == 0 { 0 } else { prefix[items] - base };
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0usize);
    for p in 1..parts {
        let at = if total == 0 {
            // Unweighted fallback: even item split.
            items * p / parts
        } else {
            // First boundary whose cumulative weight reaches the p-th
            // equal share of the total.  u128 keeps `total · p` exact for
            // any realizable nnz count.
            let target = base as u128 + (total as u128 * p as u128).div_ceil(parts as u128);
            prefix.partition_point(|&v| (v as u128) < target)
        };
        let prev = *bounds.last().expect("nonempty");
        bounds.push(at.clamp(prev, items));
    }
    bounds.push(items);
    // Partition-quality telemetry: max part weight over the ideal equal
    // share (1.0 = perfectly balanced).  Only computed while logging is on.
    if parts > 1 && total > 0 && sellkit_obs::enabled() {
        let max_w = bounds
            .windows(2)
            .map(|w| prefix[w[1]] - prefix[w[0]])
            .max()
            .unwrap_or(0);
        let ideal = total as f64 / parts as f64;
        sellkit_obs::gauge("partition.imbalance", max_w as f64 / ideal);
    }
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(ctx.pool().is_none());
        assert!(ExecCtx::new(1).is_serial());
        assert!(ExecCtx::new(0).is_serial());
    }

    #[test]
    fn parallel_ctx_spawns_pool() {
        let ctx = ExecCtx::new(3);
        assert!(!ctx.is_serial());
        assert_eq!(ctx.threads(), 3);
        // Caller-helps pool: 3 lanes = the caller + 2 spawned workers.
        let pool = ctx.pool().expect("pool");
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
    fn split_by_weight_balances_skewed_rows() {
        // 8 items, item 0 carries almost all weight.
        let prefix = vec![0usize, 100, 101, 102, 103, 104, 105, 106, 107];
        let parts = split_by_weight(&prefix, 4);
        check_cover(&parts, 8);
        // The heavy first item must sit alone (or nearly) in part 0.
        assert!(parts[0].1 <= 2, "heavy row hogs a part: {parts:?}");
    }

    #[test]
    fn split_by_weight_uniform_is_even() {
        let prefix: Vec<usize> = (0..=16).map(|i| i * 5).collect();
        let parts = split_by_weight(&prefix, 4);
        check_cover(&parts, 16);
        for &(a, b) in &parts {
            assert_eq!(b - a, 4, "uniform weights split evenly: {parts:?}");
        }
    }

    #[test]
    fn split_by_weight_more_parts_than_items() {
        let prefix = vec![0usize, 3, 7];
        let parts = split_by_weight(&prefix, 7);
        check_cover(&parts, 2);
        let nonempty = parts.iter().filter(|(a, b)| a < b).count();
        assert!(nonempty <= 2);
    }

    #[test]
    fn split_by_weight_zero_total_splits_evenly() {
        let prefix = vec![0usize; 9]; // 8 empty rows
        let parts = split_by_weight(&prefix, 4);
        check_cover(&parts, 8);
        for &(a, b) in &parts {
            assert_eq!(b - a, 2, "zero weight falls back to even: {parts:?}");
        }
    }

    #[test]
    fn split_by_weight_empty_matrix() {
        let parts = split_by_weight(&[0usize], 4);
        check_cover(&parts, 0);
        let parts = split_by_weight(&[], 4);
        assert!(parts.iter().all(|&(a, b)| a == 0 && b == 0));
    }

    #[test]
    fn split_by_weight_windowed_prefix_not_zero_based() {
        // A window of a larger prefix array: weights 5,5,5,5 starting at
        // cumulative 1000.  Absolute targets must be offset by the base
        // or everything lands in part 0.
        let prefix = vec![1000usize, 1005, 1010, 1015, 1020];
        let parts = split_by_weight(&prefix, 2);
        check_cover(&parts, 4);
        assert_eq!(parts, vec![(0, 2), (2, 4)], "windowed prefix: {parts:?}");
    }

    #[test]
    fn split_by_weight_huge_weights_do_not_overflow() {
        // total · parts would overflow usize if computed naively.
        let w = usize::MAX / 4;
        let prefix = vec![0usize, w, 2 * w, 3 * w];
        let parts = split_by_weight(&prefix, 3);
        check_cover(&parts, 3);
        for &(a, b) in &parts {
            assert_eq!(b - a, 1, "uniform huge weights: {parts:?}");
        }
    }

    #[test]
    fn split_by_weight_single_item_many_parts() {
        // One item absorbing every target: part 0 takes it, the rest are
        // empty trailing ranges.
        let parts = split_by_weight(&[0usize, 42], 5);
        check_cover(&parts, 1);
        assert_eq!(parts[0], (0, 1));
        assert!(parts[1..].iter().all(|&(a, b)| a == b));
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
