//! Event registry, per-thread shards, and RAII span guards.
//!
//! The hot-path contract: recording a span touches only state owned by the
//! recording thread (its *shard*), so concurrent workers never contend on a
//! shared lock.  Each shard is guarded by a `Mutex` for the benefit of the
//! merge in [`Registry::report`], but between reports that mutex is only
//! ever taken by its owner thread and is therefore uncontended.
//!
//! Stage attribution follows the PETSc model: spans nest on a per-thread
//! stack, and an event's accumulator is keyed by its full path (for
//! example `KSPSolve>MatMult`), so time spent in `MatMult` inside a solve
//! is attributed to **both** the `MatMult` leaf and every enclosing stage
//! — enclosing spans time inclusively.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Hist;
use crate::report::{EventReport, Report, SeriesPoint, ThreadReport, TraceSpan};

/// Per-shard cap on retained trace spans; beyond it spans still accumulate
/// into event totals but are dropped from the Chrome trace (counted in
/// [`Report::dropped_spans`]).
const TRACE_CAP: usize = 64 * 1024;

/// Joins path components; a single `>` keeps paths compact and unambiguous
/// because event names never contain it.
pub(crate) const PATH_SEP: char = '>';

static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

/// Trace-id allocator shared by every registry: ids correlate requests
/// across subsystems, so they must be process-unique, not per-registry.
/// Starts at 1 so 0 can mean "no id" in wire formats.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// A process-unique id following one logical request through the system
/// (queue → batch → kernel), stitched into the Chrome trace as flow
/// events.  Allocation is one relaxed `fetch_add`; ids are never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Allocates the next process-unique id.
    pub fn fresh() -> TraceId {
        TraceId(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Accumulated totals for one event path within one shard.
#[derive(Clone, Debug, Default)]
struct EventAcc {
    count: u64,
    ns: u64,
    flops: f64,
    bytes: f64,
    /// Global sequence number of the first record, so merged reports can
    /// list events in first-use order.
    first_seq: u64,
}

/// Everything one thread records; owned (in practice) by that thread.
#[derive(Default)]
struct ShardData {
    /// Names of the currently-open spans, innermost last.
    stack: Vec<&'static str>,
    /// Event path (`A>B>C`) → totals.
    events: HashMap<String, EventAcc>,
    counters: HashMap<&'static str, f64>,
    /// Gauges keep the sequence number of the write so the merge can pick
    /// the most recent value across shards.
    gauges: HashMap<&'static str, (u64, f64)>,
    series: HashMap<&'static str, Vec<SeriesPoint>>,
    hists: HashMap<&'static str, Hist>,
    trace: Vec<TraceSpan>,
    dropped_spans: u64,
    /// Nanoseconds covered by *top-level* spans: the thread's busy time.
    busy_ns: u64,
}

struct Shard {
    tid: u64,
    label: Mutex<String>,
    data: Mutex<ShardData>,
}

struct RegistryInner {
    id: u64,
    epoch: Instant,
    shards: Mutex<Vec<Arc<Shard>>>,
    next_tid: AtomicU64,
    seq: AtomicU64,
    /// Nanoseconds at which [`Registry::stop`] froze the clock; 0 = running.
    stopped_ns: AtomicU64,
}

/// A thread-safe event registry.
///
/// Cloning is cheap (`Arc`); all clones share the same accumulators.  Most
/// code uses the process-global registry through the free functions in the
/// crate root, but a private registry (`tests/extensions.rs`) keeps a run
/// isolated from every other.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry; its epoch (t = 0 for trace timestamps)
    /// is the moment of creation.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                shards: Mutex::new(Vec::new()),
                next_tid: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                stopped_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Seconds since the registry was created (or until [`Registry::stop`]).
    pub fn elapsed(&self) -> f64 {
        let stopped = self.inner.stopped_ns.load(Ordering::Relaxed);
        if stopped != 0 {
            stopped as f64 * 1e-9
        } else {
            self.inner.epoch.elapsed().as_secs_f64()
        }
    }

    /// Freezes the total-time clock used by reports.  Idempotent: only the
    /// first call takes effect.
    pub fn stop(&self) {
        let now = self.inner.epoch.elapsed().as_nanos() as u64;
        let _ = self.inner.stopped_ns.compare_exchange(
            0,
            now.max(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    fn next_seq(&self) -> u64 {
        self.inner.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The calling thread's shard, created and registered on first use.
    fn shard(&self) -> Arc<Shard> {
        thread_local! {
            /// (registry id, shard) pairs for every registry this thread
            /// has recorded into.  A linear scan: real programs use one or
            /// two registries per thread.
            static LOCAL: RefCell<Vec<(u64, Arc<Shard>)>> = const { RefCell::new(Vec::new()) };
        }
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            if let Some((_, shard)) = local.iter().find(|(id, _)| *id == self.inner.id) {
                return Arc::clone(shard);
            }
            let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
            let label = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_string);
            let shard = Arc::new(Shard {
                tid,
                label: Mutex::new(label),
                data: Mutex::new(ShardData::default()),
            });
            self.inner
                .shards
                .lock()
                .expect("shard list lock")
                .push(Arc::clone(&shard));
            local.push((self.inner.id, Arc::clone(&shard)));
            shard
        })
    }

    /// Opens a timed span for `name`; it closes (and records) when the
    /// returned guard drops.  Nest freely — `KSPSolve>MatMult` style paths
    /// are derived from the per-thread span stack.
    pub fn span(&self, name: &'static str) -> Span {
        self.span_traffic(name, 0.0, 0.0)
    }

    /// Like [`Registry::span`], also attributing `flops` floating-point
    /// operations and `bytes` of modeled memory traffic to the event.
    pub fn span_traffic(&self, name: &'static str, flops: f64, bytes: f64) -> Span {
        let shard = self.shard();
        let depth = {
            let mut data = shard.data.lock().expect("own shard lock");
            let depth = data.stack.len();
            data.stack.push(name);
            depth
        };
        Span {
            registry: Some(self.clone()),
            shard: Some(shard),
            name,
            depth,
            flops,
            bytes,
            start: Instant::now(),
            t0_us: self.inner.epoch.elapsed().as_nanos() as f64 * 1e-3,
            args: Vec::new(),
            flow_in: Vec::new(),
            flow_out: Vec::new(),
            _not_send: PhantomData,
        }
    }

    /// Records a completed timing directly (no span): bumps the count and
    /// adds `seconds`/`flops` under the current stage path.
    pub fn record(&self, name: &'static str, seconds: f64, flops: f64) {
        let shard = self.shard();
        let seq = self.next_seq();
        let mut data = shard.data.lock().expect("own shard lock");
        let path = path_of(&data.stack, name);
        let acc = data.events.entry(path).or_insert_with(|| EventAcc {
            first_seq: seq,
            ..EventAcc::default()
        });
        acc.count += 1;
        acc.ns += (seconds * 1e9) as u64;
        acc.flops += flops;
    }

    /// Adds flops to an event without bumping its count — for attributing
    /// work measured out-of-band to an already-timed event.
    pub fn add_flops(&self, name: &'static str, flops: f64) {
        let shard = self.shard();
        let seq = self.next_seq();
        let mut data = shard.data.lock().expect("own shard lock");
        let path = path_of(&data.stack, name);
        let acc = data.events.entry(path).or_insert_with(|| EventAcc {
            first_seq: seq,
            ..EventAcc::default()
        });
        acc.flops += flops;
    }

    /// Adds `delta` to the named counter (summed across threads).
    pub fn counter(&self, name: &'static str, delta: f64) {
        let shard = self.shard();
        let mut data = shard.data.lock().expect("own shard lock");
        *data.counters.entry(name).or_insert(0.0) += delta;
    }

    /// Sets the named gauge; the merged report keeps the latest write.
    pub fn gauge(&self, name: &'static str, value: f64) {
        let shard = self.shard();
        let seq = self.next_seq();
        let mut data = shard.data.lock().expect("own shard lock");
        data.gauges.insert(name, (seq, value));
    }

    /// Appends an `(x, y)` sample to the named series (e.g. residual norm
    /// per iteration).  Merged samples are sorted by `x`.
    pub fn series_point(&self, name: &'static str, x: f64, y: f64) {
        let shard = self.shard();
        let mut data = shard.data.lock().expect("own shard lock");
        data.series
            .entry(name)
            .or_default()
            .push(SeriesPoint { x, y });
    }

    /// Records one sample into the named histogram (per-thread shards,
    /// bucket-exact merge at report time — see `hist.rs`).
    pub fn hist(&self, name: &'static str, value: f64) {
        let shard = self.shard();
        let mut data = shard.data.lock().expect("own shard lock");
        data.hists
            .entry(name)
            .or_insert_with(Hist::new)
            .record(value);
    }

    /// Names the calling thread's track in reports and Chrome traces.
    pub fn set_thread_label(&self, label: &str) {
        let shard = self.shard();
        *shard.label.lock().expect("shard label lock") = label.to_string();
    }

    /// Merges every thread's shard into an immutable [`Report`] snapshot.
    ///
    /// Callable at any time, including while other threads are still
    /// recording; in-flight (unclosed) spans are simply not included yet.
    pub fn report(&self) -> Report {
        let shards = self.inner.shards.lock().expect("shard list lock");
        let mut events: HashMap<String, EventAcc> = HashMap::new();
        let mut counters: HashMap<&'static str, f64> = HashMap::new();
        let mut gauges: HashMap<&'static str, (u64, f64)> = HashMap::new();
        let mut series: HashMap<&'static str, Vec<SeriesPoint>> = HashMap::new();
        let mut hists: HashMap<&'static str, Hist> = HashMap::new();
        let mut trace = Vec::new();
        let mut threads = Vec::new();
        let mut dropped = 0u64;
        for shard in shards.iter() {
            let data = shard.data.lock().expect("merge shard lock");
            // A thread earns a report row by doing attributable work
            // (spans, records, series, histogram samples).  Shards that
            // only wrote counters or gauges — e.g. client threads calling
            // `submit` — still merge those below but are pruned from the
            // thread table, which otherwise fills with `busy_s: 0` rows.
            let idle = data.events.is_empty()
                && data.trace.is_empty()
                && data.series.is_empty()
                && data.hists.is_empty()
                && data.busy_ns == 0;
            if !idle {
                threads.push(ThreadReport {
                    tid: shard.tid,
                    label: shard.label.lock().expect("shard label lock").clone(),
                    busy_s: data.busy_ns as f64 * 1e-9,
                });
            }
            for (path, acc) in &data.events {
                let merged = events.entry(path.clone()).or_insert_with(|| EventAcc {
                    first_seq: acc.first_seq,
                    ..EventAcc::default()
                });
                merged.count += acc.count;
                merged.ns += acc.ns;
                merged.flops += acc.flops;
                merged.bytes += acc.bytes;
                merged.first_seq = merged.first_seq.min(acc.first_seq);
            }
            for (name, v) in &data.counters {
                *counters.entry(name).or_insert(0.0) += v;
            }
            for (name, (seq, v)) in &data.gauges {
                let slot = gauges.entry(name).or_insert((*seq, *v));
                if *seq >= slot.0 {
                    *slot = (*seq, *v);
                }
            }
            for (name, points) in &data.series {
                series.entry(name).or_default().extend_from_slice(points);
            }
            for (name, h) in &data.hists {
                hists
                    .entry(name)
                    .and_modify(|acc| acc.merge(h))
                    .or_insert_with(|| h.clone());
            }
            trace.extend_from_slice(&data.trace);
            dropped += data.dropped_spans;
        }
        threads.sort_by_key(|t| t.tid);
        let mut event_rows: Vec<EventReport> = events
            .into_iter()
            .map(|(path, acc)| {
                let name = path.rsplit(PATH_SEP).next().unwrap_or(&path).to_string();
                EventReport {
                    path,
                    name,
                    count: acc.count,
                    seconds: acc.ns as f64 * 1e-9,
                    flops: acc.flops,
                    bytes: acc.bytes,
                    first_seq: acc.first_seq,
                }
            })
            .collect();
        event_rows.sort_by_key(|e| e.first_seq);
        for points in series.values_mut() {
            points.sort_by(|a, b| a.x.total_cmp(&b.x));
        }
        trace.sort_by(|a, b| {
            (a.tid, a.t0_us)
                .partial_cmp(&(b.tid, b.t0_us))
                .expect("finite")
        });
        Report {
            total_s: self.elapsed(),
            threads,
            events: event_rows,
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(k, (_, v))| (k.to_string(), v))
                .collect(),
            series: series
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            hists: hists
                .into_iter()
                .map(|(k, h)| (k.to_string(), h.snapshot()))
                .collect(),
            trace,
            dropped_spans: dropped,
        }
    }
}

fn path_of(stack: &[&'static str], leaf: &str) -> String {
    let mut path = String::new();
    for frame in stack {
        path.push_str(frame);
        path.push(PATH_SEP);
    }
    path.push_str(leaf);
    path
}

/// RAII guard for an open event span; closing (dropping) it records the
/// elapsed time under the event's stage path.
///
/// Deliberately `!Send`: a span must close on the thread that opened it,
/// because its frame lives on that thread's stage stack.
pub struct Span {
    registry: Option<Registry>,
    shard: Option<Arc<Shard>>,
    name: &'static str,
    depth: usize,
    flops: f64,
    bytes: f64,
    start: Instant,
    t0_us: f64,
    args: Vec<(&'static str, String)>,
    flow_in: Vec<u64>,
    flow_out: Vec<u64>,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// A span that records nothing — what the crate-root free functions
    /// hand out while logging is disabled.
    pub(crate) fn inert() -> Span {
        Span {
            registry: None,
            shard: None,
            name: "",
            depth: 0,
            flops: 0.0,
            bytes: 0.0,
            start: Instant::now(),
            t0_us: 0.0,
            args: Vec::new(),
            flow_in: Vec::new(),
            flow_out: Vec::new(),
            _not_send: PhantomData,
        }
    }

    /// Whether this span records on drop (false for the inert guard).
    fn live(&self) -> bool {
        self.registry.is_some()
    }

    /// Attaches a key/value argument shown on the span in Chrome traces.
    pub fn arg(&mut self, key: &'static str, value: impl Into<String>) {
        if self.live() {
            self.args.push((key, value.into()));
        }
    }

    /// Links `id` *into* this span: the span consumes (terminates) that
    /// request's flow — e.g. `SpMMBatch` fans in every coalesced request.
    pub fn flow_in(&mut self, id: TraceId) {
        if self.live() {
            self.flow_in.push(id.0);
        }
    }

    /// Links `id` *out of* this span: the span originates that request's
    /// flow — e.g. `Submit` starts the arrow a later batch terminates.
    pub fn flow_out(&mut self, id: TraceId) {
        if self.live() {
            self.flow_out.push(id.0);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let (Some(registry), Some(shard)) = (self.registry.take(), self.shard.take()) else {
            return;
        };
        let ns = self.start.elapsed().as_nanos() as u64;
        let seq = registry.next_seq();
        let mut data = shard.data.lock().expect("own shard lock");
        // Unwind to this span's frame.  Truncation (rather than a single
        // pop) keeps the stack consistent even if an inner guard was
        // leaked via `std::mem::forget`.
        data.stack.truncate(self.depth + 1);
        debug_assert_eq!(data.stack.last(), Some(&self.name), "span stack discipline");
        let path = {
            let (frames, _) = data.stack.split_at(self.depth);
            path_of(frames, self.name)
        };
        data.stack.pop();
        let acc = data.events.entry(path).or_insert_with(|| EventAcc {
            first_seq: seq,
            ..EventAcc::default()
        });
        acc.count += 1;
        acc.ns += ns;
        acc.flops += self.flops;
        acc.bytes += self.bytes;
        if self.depth == 0 {
            data.busy_ns += ns;
        }
        if data.trace.len() < TRACE_CAP {
            let tid = shard.tid;
            data.trace.push(TraceSpan {
                name: self.name.to_string(),
                tid,
                t0_us: self.t0_us,
                dur_us: ns as f64 * 1e-3,
                args: std::mem::take(&mut self.args),
                flow_in: std::mem::take(&mut self.flow_in),
                flow_out: std::mem::take(&mut self.flow_out),
            });
        } else {
            data.dropped_spans += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_to_both_events() {
        let reg = Registry::new();
        {
            let _outer = reg.span("KSPSolve");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = reg.span_traffic("MatMult", 100.0, 800.0);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let report = reg.report();
        let outer = report.event("KSPSolve").expect("outer recorded");
        let inner = report.event("MatMult").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert_eq!(inner.flops, 100.0);
        assert_eq!(inner.bytes, 800.0);
        assert!(
            outer.seconds >= inner.seconds,
            "outer span time is inclusive of the nested span"
        );
        let paths: Vec<&str> = report.events.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"KSPSolve"));
        assert!(paths.contains(&"KSPSolve>MatMult"));
    }

    #[test]
    fn add_flops_adds_to_a_record_without_counting_a_call() {
        let reg = Registry::new();
        reg.record("MatMult", 0.5, 1e9);
        reg.add_flops("MatMult", 1e9);
        let report = reg.report();
        let e = report.event("MatMult").unwrap();
        assert_eq!(e.count, 1, "add_flops must not bump the call count");
        assert!((e.seconds - 0.5).abs() < 1e-9);
        assert_eq!(e.flops, 2e9);
        assert!((e.gflops() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn events_report_in_first_use_order() {
        let reg = Registry::new();
        reg.record("Setup", 0.1, 0.0);
        reg.record("MatMult", 0.2, 0.0);
        reg.record("Setup", 0.1, 0.0);
        reg.record("VecAXPY", 0.05, 0.0);
        let names: Vec<String> = reg.report().events.iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, ["Setup", "MatMult", "VecAXPY"]);
    }

    #[test]
    fn counters_sum_and_gauges_keep_latest() {
        let reg = Registry::new();
        reg.counter("halo.bytes", 100.0);
        reg.counter("halo.bytes", 28.0);
        reg.gauge("serve.queue_depth", 1.5);
        reg.gauge("serve.queue_depth", 1.25);
        let report = reg.report();
        assert_eq!(report.counters["halo.bytes"], 128.0);
        assert_eq!(report.gauges["serve.queue_depth"], 1.25);
    }

    #[test]
    fn merge_across_threads_equals_serial_totals() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let reg = reg.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let _s = reg.span_traffic("MatMult", 10.0, 80.0);
                        if (i + t) % 2 == 0 {
                            reg.counter("jobs", 1.0);
                        }
                    }
                });
            }
        });
        let report = reg.report();
        let e = report.event("MatMult").unwrap();
        assert_eq!(e.count, 200);
        assert_eq!(e.flops, 2000.0);
        assert_eq!(e.bytes, 16000.0);
        assert_eq!(report.counters["jobs"], 100.0);
        assert_eq!(report.threads.len(), 4);
    }

    #[test]
    fn stop_freezes_total_time() {
        let reg = Registry::new();
        reg.stop();
        let t1 = reg.elapsed();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let t2 = reg.elapsed();
        assert_eq!(t1, t2, "stop() pins the report total");
    }

    #[test]
    fn counter_only_threads_prune_from_thread_table_but_still_merge() {
        let reg = Registry::new();
        {
            let _s = reg.span("Work"); // this thread earns its row
        }
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let reg = reg.clone();
                scope.spawn(move || {
                    reg.counter("submits", 1.0);
                    reg.gauge("depth", 2.0);
                });
            }
        });
        let report = reg.report();
        assert_eq!(report.threads.len(), 1, "gauge-only shards pruned");
        assert_eq!(report.counters["submits"], 3.0, "counters still merge");
        assert_eq!(report.gauges["depth"], 2.0, "gauges still merge");
    }

    #[test]
    fn trace_ids_are_unique_and_flows_land_on_trace_spans() {
        let a = TraceId::fresh();
        let b = TraceId::fresh();
        assert_ne!(a, b);

        let reg = Registry::new();
        {
            let mut submit = reg.span("Submit");
            submit.flow_out(a);
        }
        {
            let mut batch = reg.span("SpMMBatch");
            batch.flow_in(a);
            batch.flow_in(b);
            batch.arg("k", "2");
        }
        let report = reg.report();
        let submit = report.trace.iter().find(|s| s.name == "Submit").unwrap();
        assert_eq!(submit.flow_out, vec![a.0]);
        assert!(submit.flow_in.is_empty());
        let batch = report.trace.iter().find(|s| s.name == "SpMMBatch").unwrap();
        assert_eq!(batch.flow_in, vec![a.0, b.0]);
        assert_eq!(batch.args, vec![("k", "2".to_string())]);
    }

    #[test]
    fn hist_records_merge_across_threads() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let reg = reg.clone();
                scope.spawn(move || {
                    for i in 0..25 {
                        reg.hist("latency", (t * 25 + i) as f64 * 0.5);
                    }
                });
            }
        });
        let report = reg.report();
        let h = report.hists.get("latency").expect("merged histogram");
        assert_eq!(h.count, 100);
        let p50 = h.percentile(0.5);
        assert!((p50 - 24.75).abs() < 24.75 / 16.0, "p50 = {p50}");
        assert_eq!(report.threads.len(), 4, "hist samples earn thread rows");
    }

    #[test]
    fn series_points_merge_sorted_by_x() {
        let reg = Registry::new();
        reg.series_point("ksp.rnorm", 1.0, 0.5);
        reg.series_point("ksp.rnorm", 0.0, 1.0);
        reg.series_point("ksp.rnorm", 2.0, 0.25);
        let report = reg.report();
        let xs: Vec<f64> = report.series["ksp.rnorm"].iter().map(|p| p.x).collect();
        assert_eq!(xs, [0.0, 1.0, 2.0]);
    }
}
