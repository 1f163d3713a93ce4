//! Persistent worker pool backing [`crate::ExecCtx`].
//!
//! SpMV is called millions of times per solve (once per Krylov iteration
//! per Newton step per time step), so the dispatch path must cost nothing
//! next to the ~µs kernel itself.  Earlier revisions pushed one
//! heap-boxed closure per thread through a channel per product; at 256²
//! problem sizes the boxing, channel locks, and condvar round-trips cost
//! more than the SpMV and the "parallel" path ran *slower* than serial.
//!
//! This pool dispatches a region with **zero heap allocations**:
//!
//! 1. the caller writes one preallocated region slot (a borrowed
//!    `&dyn Fn(usize)` part-function with its lifetime erased, the part
//!    count, and the caller's thread handle),
//! 2. publishes it with one SeqCst epoch increment and unparks the
//!    workers,
//! 3. **helps**: the caller is lane 0 and runs parts `0, L, 2L, …` itself
//!    (a pool of L lanes spawns only `L-1` worker threads),
//! 4. workers run their residue classes, bump a completion counter, and
//!    the last one unparks the caller.
//!
//! The design mirrors scoped threads semantically: `WorkerPool::run`
//! accepts a part-function borrowing the caller's stack and **blocks
//! until every part has finished** before returning, so the borrow can
//! never dangle.  That blocking guarantee is what makes the single
//! lifetime erasure below sound.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Regions slower than this land a `pool.region.slow` flight-recorder
/// event.  Normal SpMV regions finish in microseconds, so anything past
/// this threshold is an anomaly worth a postmortem breadcrumb.  Recording
/// one allocates nothing: [`WorkerPool::new`] has the recorder set up its
/// ring before the first region, and an event without ids is copied into
/// the ring's preallocated slots.
const SLOW_REGION_MS: f64 = 25.0;

/// A published parallel region.  `f`'s true lifetime is the duration of
/// the [`WorkerPool::run`] call that wrote it; see the safety argument
/// there.
struct Region {
    f: &'static (dyn Fn(usize) + Sync),
    nparts: usize,
    /// The caller to unpark when the last worker finishes.
    caller: std::thread::Thread,
}

/// The single preallocated region slot, reused by every dispatch.
struct RegionSlot(UnsafeCell<Option<Region>>);

// SAFETY: the slot is written only by the caller while every worker is
// quiescent (between regions: the previous `run` returned only after the
// completion count reached the worker count), and read by workers only
// after they observe the SeqCst epoch increment that follows the write.
// The epoch store/load pair orders every write before every read, so no
// unsynchronized concurrent access exists.
unsafe impl Sync for RegionSlot {}
// SAFETY: the erased `&'static dyn Fn` is only ever dereferenced inside
// the region protocol above; moving the slot between threads (inside the
// shared Arc) transfers no thread-local state.
unsafe impl Send for RegionSlot {}

/// State shared between the caller and the workers.
struct Shared {
    /// Region sequence number; an increment publishes the slot.
    epoch: AtomicUsize,
    /// Workers finished with the current region.
    done: AtomicUsize,
    shutdown: AtomicBool,
    region: RegionSlot,
    /// Panic payloads captured by workers, re-raised by the caller after
    /// the whole region completed.  Cold path only.
    panics: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
}

/// `L-1` long-lived parked worker threads plus the calling thread,
/// executing `L`-lane parallel regions.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes `run` calls from different caller threads so two regions
    /// cannot race on the single region slot.  Uncontended in the solver
    /// stack (one caller); never touched by workers.
    dispatch: Mutex<()>,
}

impl WorkerPool {
    /// Builds a pool of `lanes` (≥ 2) execution lanes: the caller plus
    /// `lanes - 1` spawned workers that live until the pool is dropped.
    pub fn new(lanes: usize) -> Self {
        assert!(
            lanes >= 2,
            "a pool needs at least two lanes; use ExecCtx::serial() for one"
        );
        // Reads the recorder's switch, which builds its ring when it is on:
        // a slow region's event then lands in storage that exists, and the
        // dispatch stays allocation-free on every lane.
        sellkit_obs::flight::enabled();
        let shared = Arc::new(Shared {
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            region: RegionSlot(UnsafeCell::new(None)),
            panics: Mutex::new(Vec::new()),
        });
        let workers = (0..lanes - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sellkit-worker-{i}"))
                    .spawn(move || worker_loop(i, lanes, &shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            dispatch: Mutex::new(()),
        }
    }

    /// Total execution lanes (caller + workers).
    pub fn lanes(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs parts `0..nparts` of `f` across the lanes and blocks until all
    /// have completed.  Lane `l` runs parts `l, l+L, l+2L, …`; the caller
    /// is lane 0.
    ///
    /// `f` may borrow from the caller's stack, exactly like scoped
    /// threads: the function does not return — not even by panic — before
    /// every part has finished running, so no borrow outlives its
    /// referent.  If any part panicked, the first captured payload is
    /// re-raised here (after *all* parts completed); the pool survives.
    ///
    /// The hot path performs **no heap allocation**: one uncontended mutex
    /// acquisition, one slot write, one SeqCst increment, `L-1` unparks.
    /// Regions must not nest (calling `run` from inside `f` deadlocks).
    pub fn run(&self, nparts: usize, f: &(dyn Fn(usize) + Sync)) {
        if nparts == 0 {
            return;
        }
        let lanes = self.lanes();
        // A poisoned lock is fine: a panicking region still waits for all
        // workers before unwinding (the blocking guarantee), so the state
        // behind the lock is never left inconsistent.
        let _region_guard = self
            .dispatch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Per-dispatch overhead span: records how much wall time the
        // publish + park/unpark protocol adds around the kernels.
        let _dispatch = sellkit_obs::span("PoolDispatch");
        let region_t0 = std::time::Instant::now();
        let shared = &*self.shared;

        // SAFETY: only the lifetime is transmuted (the reference and its
        // trait object are promoted to 'static on the same fat-pointer
        // type).  The erased borrow cannot outlive the true lifetime of
        // `f` because this function blocks below until `done` reports that
        // every worker has finished the region — including on the panic
        // path — and the slot is cleared before returning.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        // SAFETY: exclusive slot access — all workers are quiescent
        // between regions and the dispatch mutex excludes other callers;
        // the SeqCst epoch increment below publishes this write.
        unsafe {
            *shared.region.0.get() = Some(Region {
                f: erased,
                nparts,
                caller: std::thread::current(),
            });
        }
        shared.done.store(0, Ordering::SeqCst);
        shared.epoch.fetch_add(1, Ordering::SeqCst);
        for w in &self.workers {
            w.thread().unpark();
        }

        // The caller helps as lane 0.  Each part is caught individually so
        // a panicking part never skips the lane's remaining parts — the
        // completion guarantee is per part, not per lane.
        let mut own: Option<Box<dyn std::any::Any + Send>> = None;
        let mut p = 0;
        while p < nparts {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(p))) {
                sellkit_obs::flight::record("pool.panic", &[p as u64], 0.0, nparts as f64);
                own.get_or_insert(payload);
            }
            p += lanes;
        }

        let nworkers = self.workers.len();
        while shared.done.load(Ordering::SeqCst) < nworkers {
            // Spurious or stale unparks just re-check the counter.
            std::thread::park();
        }
        // SAFETY: every worker reported done, so no reference to the
        // erased borrow remains; exclusive slot access as above.
        unsafe {
            *shared.region.0.get() = None;
        }

        // Flight-recorder breadcrumb for anomalous regions only: the ring
        // must not see the million-per-run µs-scale dispatches, but a
        // region that blows past the threshold is exactly what a
        // postmortem wants timestamped.
        let region_ms = region_t0.elapsed().as_secs_f64() * 1e3;
        if region_ms > SLOW_REGION_MS {
            sellkit_obs::flight::record("pool.region.slow", &[], nparts as f64, region_ms);
        }

        let mut panics = shared
            .panics
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(payload) = own {
            panics.push(payload);
        }
        if !panics.is_empty() {
            let payload = panics.remove(0);
            panics.clear();
            drop(panics);
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Bump the epoch so spinning workers notice, then wake parked ones.
        self.shared.epoch.fetch_add(1, Ordering::SeqCst);
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(index: usize, lanes: usize, shared: &Shared) {
    let mut seen = 0usize;
    loop {
        let epoch = shared.epoch.load(Ordering::SeqCst);
        if epoch == seen {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::park();
            continue;
        }
        seen = epoch;
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // SAFETY: the slot was fully written before the epoch increment
        // observed above (SeqCst ordering), and nobody rewrites it until
        // every worker has bumped `done` for this region.
        let (f, nparts, caller) = unsafe {
            let region = (*shared.region.0.get())
                .as_ref()
                .expect("epoch advanced without a published region");
            (region.f, region.nparts, region.caller.clone())
        };
        let mut p = index + 1;
        if p < nparts {
            // Worker busy time and one Chrome-trace track per worker
            // (thread name `sellkit-worker-N`).  Disabled cost is one
            // relaxed atomic load per region.
            let _busy = sellkit_obs::span("PoolJob");
            // Per-part catch: a panicking part never skips the lane's
            // remaining parts (the completion guarantee is per part).
            while p < nparts {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(p))) {
                    sellkit_obs::flight::record(
                        "pool.panic",
                        &[p as u64],
                        index as f64 + 1.0,
                        nparts as f64,
                    );
                    shared
                        .panics
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .push(payload);
                }
                p += lanes;
            }
        }
        if shared.done.fetch_add(1, Ordering::SeqCst) + 1 == lanes - 1 {
            caller.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_parts_and_blocks_until_done() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.lanes(), 4);
        assert_eq!(pool.workers.len(), 3);
        let counter = AtomicUsize::new(0);
        pool.run(16, &|p| {
            counter.fetch_add(p + 1, Ordering::SeqCst);
        });
        // `run` returned, so every increment must be visible: Σ 1..=16.
        assert_eq!(counter.load(Ordering::SeqCst), 136);
    }

    #[test]
    fn parts_borrow_disjoint_output_windows() {
        let pool = WorkerPool::new(3);
        let mut y = vec![0.0f64; 12];
        {
            let windows: Vec<std::sync::Mutex<&mut [f64]>> =
                y.chunks_mut(4).map(std::sync::Mutex::new).collect();
            pool.run(windows.len(), &|p| {
                let mut win = windows[p].lock().unwrap();
                for (i, v) in win.iter_mut().enumerate() {
                    *v = (p * 4 + i) as f64;
                }
            });
        }
        let want: Vec<f64> = (0..12).map(|i| i as f64).collect();
        assert_eq!(y, want);
    }

    #[test]
    fn pool_is_reusable_across_regions() {
        let pool = WorkerPool::new(2);
        for round in 0..100 {
            let total = AtomicUsize::new(0);
            pool.run(5, &|p| {
                total.fetch_add(round * 10 + p, Ordering::SeqCst);
            });
            assert_eq!(total.load(Ordering::SeqCst), round * 50 + 10);
        }
    }

    #[test]
    fn more_lanes_than_parts() {
        let pool = WorkerPool::new(8);
        let counter = AtomicUsize::new(0);
        pool.run(3, &|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn panic_in_one_part_propagates_after_all_finish() {
        let pool = WorkerPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(5, &|p| {
                if p == 0 {
                    panic!("part exploded");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(finished.load(Ordering::SeqCst), 4, "other parts still ran");
        // The pool survives a panicked region.
        let ok = AtomicUsize::new(0);
        pool.run(1, &|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_panic_propagates_too() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Part 1 runs on worker lane 1, not the caller.
            pool.run(4, &|p| {
                if p == 1 {
                    panic!("worker part exploded");
                }
            });
        }));
        assert!(result.is_err());
        // Reusable afterwards.
        let ok = AtomicUsize::new(0);
        pool.run(2, &|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn zero_parts_is_a_noop() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("must not be called"));
    }
}
