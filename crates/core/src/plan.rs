//! Cached per-matrix execution plans (SPC5-style amortized planning).
//!
//! Partitioning a matrix for threaded SpMV — binary-searching the prefix
//! array for nnz-balanced boundaries, allocating the range vector,
//! resolving the ISA kernel — costs more than the 256²-scale product
//! itself when repaid on every call.  A [`SpmvPlan`] computes that once
//! per `(matrix, thread count)` and a [`PlanCache`] embedded in each
//! format caches it, so a solver loop's millionth MatMult pays exactly
//! what its first one did after warmup: an `Arc` clone and an epoch
//! check.
//!
//! **Lifecycle** — built lazily on first threaded product, cached keyed
//! by thread count, **invalidated by assembly**: any operation that can
//! change the sparsity pattern bumps the cache epoch
//! ([`PlanCache::invalidate`]) and the next product rebuilds.  Value-only
//! updates (`set_values_from_csr`) keep the plan — the partition depends
//! only on the pattern.  Cache traffic is observable through the
//! `plan.cache.hit` / `plan.cache.miss` counters when `sellkit-obs`
//! logging is enabled.
//!
//! [`SpmvPlan::run_on`] is the safe bridge to the zero-allocation pool
//! dispatch: plan construction *verifies* that the per-part row ranges
//! tile `0..nrows` contiguously, and that invariant (plus the pool's
//! each-part-exactly-once contract) is what makes handing each part a
//! `&mut` window of `y` sound without per-part boxed closures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::exec::{split_by_weight, DisjointParts, ExecCtx};
use crate::isa::Isa;

/// One lane's share of a planned product: items (slices, rows, block
/// rows) `[item0, item1)` producing output rows `[row0, row1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanPart {
    /// First item (slice/row/block row) of this part.
    pub item0: usize,
    /// One past the last item.
    pub item1: usize,
    /// First output row.
    pub row0: usize,
    /// One past the last output row (clamped to the matrix height).
    pub row1: usize,
}

impl PlanPart {
    /// Whether this part carries no items (more lanes than items).
    pub fn is_empty(&self) -> bool {
        self.item0 == self.item1
    }
}

/// An immutable, shareable execution plan: the nnz-balanced partition and
/// resolved ISA for one `(matrix pattern, thread count)` pair.
#[derive(Debug)]
pub struct SpmvPlan {
    threads: usize,
    epoch: u64,
    isa: Isa,
    nrows: usize,
    parts: Vec<PlanPart>,
}

impl SpmvPlan {
    /// Plans over a prefix-sum weight array (CSR `rowptr`, SELL
    /// `sliceptr`, BAIJ `browptr`): `parts` nnz-balanced item ranges,
    /// each item covering `rows_per_item` output rows (the last item may
    /// be clamped to `nrows`).
    pub fn from_prefix(
        prefix: &[usize],
        rows_per_item: usize,
        nrows: usize,
        threads: usize,
        isa: Isa,
        epoch: u64,
    ) -> Self {
        let parts = split_by_weight(prefix, threads.max(1))
            .into_iter()
            .map(|(a, b)| PlanPart {
                item0: a,
                item1: b,
                row0: (a * rows_per_item).min(nrows),
                row1: (b * rows_per_item).min(nrows),
            })
            .collect();
        let plan = Self {
            threads,
            epoch,
            isa,
            nrows,
            parts,
        };
        plan.assert_tiling();
        plan
    }

    /// Verifies the soundness invariant behind [`Self::run_on`]: part row
    /// ranges are ascending, contiguous, and tile exactly `0..nrows`.
    fn assert_tiling(&self) {
        let mut prev = 0usize;
        for part in &self.parts {
            assert!(part.item0 <= part.item1, "descending item range");
            assert_eq!(part.row0, prev, "row ranges must tile contiguously");
            assert!(part.row0 <= part.row1, "descending row range");
            prev = part.row1;
        }
        assert_eq!(prev, self.nrows, "row ranges must cover the matrix");
    }

    /// Thread count this plan was built for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cache epoch this plan was built under (for invalidation tests).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The ISA the kernels were resolved for at plan time.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Output rows covered by the plan.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of parts (= lanes the plan was built for).
    pub fn nparts(&self) -> usize {
        self.parts.len()
    }

    /// The partition itself.
    pub fn parts(&self) -> &[PlanPart] {
        &self.parts
    }

    /// Executes `f(lane, part, y_window)` for every non-empty part across
    /// `ctx` — pooled lanes when parallel, in order inline when serial —
    /// with `y_window = &mut y[part.row0..part.row1]`.  Allocation-free.
    ///
    /// Soundness: construction verified (`assert_tiling`) that part row
    /// ranges tile `0..nrows` disjointly, and the pool runs each part
    /// index exactly once per region, so the windows handed out never
    /// alias.
    pub fn run_on(
        &self,
        ctx: &ExecCtx,
        y: &mut [f64],
        f: &(dyn Fn(usize, PlanPart, &mut [f64]) + Sync),
    ) {
        self.run_on_blocked(ctx, y, 1, f);
    }

    /// Blocked variant of [`Self::run_on`] for SpMM: `y` holds `k`
    /// interleaved vectors (`self.nrows() * k` long) and each part gets
    /// the window `&mut y[part.row0*k..part.row1*k]` — row partitions are
    /// shared between SpMV and SpMM, so one cached plan serves both.
    ///
    /// Soundness: scaling the verified disjoint row tiling `[row0, row1)`
    /// by a constant `k` preserves disjointness and coverage of
    /// `0..nrows*k`.
    pub fn run_on_blocked(
        &self,
        ctx: &ExecCtx,
        y: &mut [f64],
        k: usize,
        f: &(dyn Fn(usize, PlanPart, &mut [f64]) + Sync),
    ) {
        assert!(k >= 1, "at least one vector per block");
        assert_eq!(y.len(), self.nrows * k, "output length != planned rows * k");
        match ctx.pool() {
            None => {
                for (p, part) in self.parts.iter().enumerate() {
                    if !part.is_empty() {
                        f(p, *part, &mut y[part.row0 * k..part.row1 * k]);
                    }
                }
            }
            Some(pool) => {
                let windows = DisjointParts::new(y);
                let body = |p: usize| {
                    let part = self.parts[p];
                    if part.is_empty() {
                        return;
                    }
                    // SAFETY: `assert_tiling` proved the row ranges of
                    // distinct parts disjoint (so their k-scaled images
                    // are too), and the pool dispatches each part index
                    // exactly once per region.
                    let win = unsafe { windows.slice(part.row0 * k, part.row1 * k) };
                    f(p, part, win);
                };
                pool.run(self.parts.len(), &body);
            }
        }
    }
}

/// Per-matrix plan cache: an epoch counter (bumped on assembly) plus a
/// small set of `Arc`-shared plans keyed by thread count, so alternating
/// thread counts (e.g. a serial residual check inside a threaded solve)
/// don't thrash.
///
/// `Clone` intentionally produces an *empty* cache: plans are derived
/// data, and a cloned matrix re-derives them lazily.
pub struct PlanCache {
    epoch: AtomicU64,
    plans: Mutex<Vec<Arc<SpmvPlan>>>,
}

impl PlanCache {
    /// An empty cache at epoch 0.
    pub const fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            plans: Mutex::new(Vec::new()),
        }
    }

    /// Current pattern epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Marks every cached plan stale; called by any operation that may
    /// change the sparsity pattern (assembly, structural edits).  Cheap:
    /// one atomic increment, no locking — stale plans are evicted lazily
    /// by the next [`Self::get_or_build`].
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Returns the cached plan for `threads` at the current epoch, or
    /// builds one via `build(epoch)` and caches it.  The hit path
    /// performs no heap allocation (one uncontended mutex, a linear scan
    /// of a handful of entries, an `Arc` clone).
    pub fn get_or_build(
        &self,
        threads: usize,
        build: impl FnOnce(u64) -> SpmvPlan,
    ) -> Arc<SpmvPlan> {
        let epoch = self.epoch.load(Ordering::Acquire);
        let mut plans = self
            .plans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(plan) = plans
            .iter()
            .find(|p| p.threads() == threads && p.epoch() == epoch)
        {
            sellkit_obs::counter("plan.cache.hit", 1.0);
            return Arc::clone(plan);
        }
        sellkit_obs::counter("plan.cache.miss", 1.0);
        let plan = Arc::new(build(epoch));
        debug_assert_eq!(plan.threads(), threads, "plan built for wrong thread count");
        debug_assert_eq!(plan.epoch(), epoch, "plan built for wrong epoch");
        plans.retain(|p| p.epoch() == epoch);
        plans.push(Arc::clone(&plan));
        plan
    }
}

impl Clone for PlanCache {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached = self.plans.lock().map_or(0, |p| p.len());
        f.debug_struct("PlanCache")
            .field("epoch", &self.epoch())
            .field("cached", &cached)
            .finish()
    }
}

/// A **verified** permutation of `0..n`: storage position `k` maps to
/// logical position `fwd[k]`.  Bijectivity is checked once at
/// construction, which is the invariant that makes the parallel
/// [`Self::scatter_ctx`] sound (every output element is written by
/// exactly one input index) — SELL-C-σ's unsort step rides on this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    fwd: Vec<u32>,
}

impl Permutation {
    /// Wraps `fwd`, verifying it is a bijection of `0..fwd.len()`.
    ///
    /// # Panics
    /// If any entry is out of range or duplicated.
    pub fn new(fwd: Vec<u32>) -> Self {
        let n = fwd.len();
        let mut seen = vec![false; n];
        for &v in &fwd {
            let v = v as usize;
            assert!(v < n, "permutation entry {v} out of range 0..{n}");
            assert!(!seen[v], "duplicate permutation entry {v}");
            seen[v] = true;
        }
        Self { fwd }
    }

    /// The identity permutation of `0..n`.
    pub fn identity(n: usize) -> Self {
        Self {
            fwd: (0..n as u32).collect(),
        }
    }

    /// Number of permuted positions.
    pub fn len(&self) -> usize {
        self.fwd.len()
    }

    /// Whether the permutation is over the empty set.
    pub fn is_empty(&self) -> bool {
        self.fwd.is_empty()
    }

    /// The forward map: storage `k` → logical `self.as_slice()[k]`.
    pub fn as_slice(&self) -> &[u32] {
        &self.fwd
    }

    /// The inverse map (logical → storage).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.fwd.len()];
        for (k, &v) in self.fwd.iter().enumerate() {
            inv[v as usize] = k as u32;
        }
        // Inverse of a verified bijection is a bijection; skip re-checking.
        Permutation { fwd: inv }
    }

    /// Permuted scatter `y[fwd[k]] = src[k]` (or `+=` with `ADD`),
    /// parallelized over even `k`-windows.  Bitwise-deterministic for any
    /// lane count: each element is assigned exactly once, independent of
    /// the partition.  Allocation-free.
    pub fn scatter_ctx<const ADD: bool>(&self, ctx: &ExecCtx, src: &[f64], y: &mut [f64]) {
        self.scatter_blocks_ctx::<ADD>(ctx, src, y, 1);
    }

    /// Blocked permuted scatter for SpMM: storage row `k` of `src` (a
    /// contiguous `width`-wide block) lands on logical row `fwd[k]` of
    /// `y`.  Same determinism argument as [`Self::scatter_ctx`] — each
    /// output element is assigned exactly once, whatever the lane count.
    pub fn scatter_blocks_ctx<const ADD: bool>(
        &self,
        ctx: &ExecCtx,
        src: &[f64],
        y: &mut [f64],
        width: usize,
    ) {
        let n = self.fwd.len();
        assert!(width >= 1, "at least one vector per block");
        assert!(src.len() >= n * width, "source shorter than permutation");
        assert_eq!(y.len(), n * width, "output length != permutation length");
        match ctx.pool() {
            None => {
                for (k, &row) in self.fwd.iter().enumerate() {
                    let (sb, yb) = (k * width, row as usize * width);
                    for t in 0..width {
                        if ADD {
                            y[yb + t] += src[sb + t];
                        } else {
                            y[yb + t] = src[sb + t];
                        }
                    }
                }
            }
            Some(pool) => {
                let parts = ctx.threads();
                let out = DisjointParts::new(y);
                let body = |p: usize| {
                    let (k0, k1) = (n * p / parts, n * (p + 1) / parts);
                    for k in k0..k1 {
                        let row = self.fwd[k] as usize;
                        for t in 0..width {
                            // SAFETY: `fwd` is a verified bijection, so
                            // distinct `k` touch distinct disjoint row
                            // blocks; the even k-windows are disjoint
                            // across parts and each part runs exactly
                            // once per region.
                            let slot = unsafe { out.at(row * width + t) };
                            if ADD {
                                *slot += src[k * width + t];
                            } else {
                                *slot = src[k * width + t];
                            }
                        }
                    }
                };
                pool.run(parts, &body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan over ten one-entry rows, for the cache tests (which never
    /// run it).
    fn plan(threads: usize, epoch: u64) -> SpmvPlan {
        let rowptr: Vec<usize> = (0..=10).collect();
        SpmvPlan::from_prefix(&rowptr, 1, 10, threads, Isa::Scalar, epoch)
    }

    #[test]
    fn plan_from_prefix_tiles_rows() {
        // 4 slices of 8 rows, last slice ragged (nrows = 29).
        let sliceptr = vec![0usize, 64, 80, 96, 128];
        let plan = SpmvPlan::from_prefix(&sliceptr, 8, 29, 3, Isa::Scalar, 0);
        assert_eq!(plan.nparts(), 3);
        assert_eq!(plan.nrows(), 29);
        let last = plan.parts().last().unwrap();
        assert_eq!(last.row1, 29, "ragged last slice clamps to nrows");
    }

    #[test]
    fn plan_run_on_serial_and_parallel_agree() {
        let sliceptr: Vec<usize> = (0..=10).map(|i| i * 7).collect();
        for threads in [1usize, 4] {
            let ctx = ExecCtx::new(threads);
            let plan = SpmvPlan::from_prefix(&sliceptr, 4, 40, threads, Isa::Scalar, 0);
            let mut y = vec![0.0f64; 40];
            plan.run_on(&ctx, &mut y, &|_, part, win| {
                for (i, v) in win.iter_mut().enumerate() {
                    *v = (part.row0 + i) as f64;
                }
            });
            let want: Vec<f64> = (0..40).map(|i| i as f64).collect();
            assert_eq!(y, want, "threads={threads}");
        }
    }

    #[test]
    fn cache_hits_until_invalidated() {
        let cache = PlanCache::new();
        let build = |epoch| plan(2, epoch);
        let a = cache.get_or_build(2, build);
        let b = cache.get_or_build(2, build);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
        cache.invalidate();
        let c = cache.get_or_build(2, build);
        assert!(!Arc::ptr_eq(&a, &c), "invalidation must force a rebuild");
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn cache_keys_by_thread_count() {
        let cache = PlanCache::new();
        let two = cache.get_or_build(2, |e| plan(2, e));
        let four = cache.get_or_build(4, |e| plan(4, e));
        assert!(!Arc::ptr_eq(&two, &four));
        // Both stay cached: alternating counts don't thrash.
        assert!(Arc::ptr_eq(&two, &cache.get_or_build(2, |e| plan(2, e))));
        assert!(Arc::ptr_eq(&four, &cache.get_or_build(4, |e| plan(4, e))));
    }

    #[test]
    fn clone_starts_empty() {
        let cache = PlanCache::new();
        let a = cache.get_or_build(2, |e| plan(2, e));
        let cloned = cache.clone();
        let b = cloned.get_or_build(2, |e| plan(2, e));
        assert!(!Arc::ptr_eq(&a, &b), "cloned caches re-derive plans");
    }

    #[test]
    fn permutation_round_trips() {
        let p = Permutation::new(vec![2, 0, 3, 1]);
        let inv = p.inverse();
        for k in 0..4 {
            assert_eq!(inv.as_slice()[p.as_slice()[k] as usize] as usize, k);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate permutation entry")]
    fn permutation_rejects_duplicates() {
        Permutation::new(vec![0, 1, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn permutation_rejects_out_of_range() {
        Permutation::new(vec![0, 4, 1, 2]);
    }

    #[test]
    fn scatter_matches_serial_for_any_lane_count() {
        let fwd: Vec<u32> = vec![5, 3, 0, 7, 1, 6, 2, 4];
        let p = Permutation::new(fwd);
        let src: Vec<f64> = (0..8).map(|i| (i as f64) * 1.5 + 0.25).collect();
        let mut want = vec![0.0; 8];
        p.scatter_ctx::<false>(&ExecCtx::serial(), &src, &mut want);
        for threads in [2usize, 4, 7] {
            let ctx = ExecCtx::new(threads);
            let mut got = vec![0.0; 8];
            p.scatter_ctx::<false>(&ctx, &src, &mut got);
            assert_eq!(got, want, "threads={threads}");
            // Accumulating variant.
            let mut acc = want.clone();
            p.scatter_ctx::<true>(&ctx, &src, &mut acc);
            let doubled: Vec<f64> = want.iter().map(|v| 2.0 * v).collect();
            assert_eq!(acc, doubled, "threads={threads} (add)");
        }
    }
}
