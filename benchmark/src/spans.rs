//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around its calls into the program, one
//! per layer boundary; the program itself is not touched.  Records stay in
//! a per-thread buffer until [`take`] and are written out as a Chrome
//! trace when the run ends.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span.  `parent` is the span open on the same thread when
/// this one started (0 for none); `op` groups the spans of one operation
/// (one request, one time step).
#[derive(Clone, Debug)]
pub struct Rec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub op: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Local {
    tid: u64,
    op: u64,
    open: Vec<u64>,
    recs: Vec<Rec>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        op: 0,
        open: Vec::new(),
        recs: Vec::new(),
    });
}

/// Turns recording on or off for every thread.
pub fn enable(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

/// Sets the operation id stamped on this thread's following spans.
pub fn set_op(op: u64) {
    LOCAL.with(|l| l.borrow_mut().op = op);
}

/// An open span; closes when dropped.
pub struct Span {
    id: u64,
    name: &'static str,
    start: Instant,
}

/// Opens a span, or an inert guard while recording is off.
pub fn span(name: &'static str) -> Span {
    let id = if ON.load(Ordering::Relaxed) {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|l| l.borrow_mut().open.push(id));
        id
    } else {
        0
    };
    Span {
        id,
        name,
        start: Instant::now(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = Instant::now();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.open.pop();
            let rec = Rec {
                id: self.id,
                parent: l.open.last().copied().unwrap_or(0),
                name: self.name,
                op: l.op,
                tid: l.tid,
                start_ns: (self.start - epoch()).as_nanos() as u64,
                end_ns: (end - epoch()).as_nanos() as u64,
            };
            l.recs.push(rec);
        });
    }
}

/// Records a span whose ends were measured elsewhere, such as a request
/// timed from when it was due.  Returns its id so children can name it.
pub fn record(name: &'static str, op: u64, parent: u64, start: Instant, end: Instant) -> u64 {
    if !ON.load(Ordering::Relaxed) {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let rec = Rec {
            id,
            parent,
            name,
            op,
            tid: l.tid,
            start_ns: start.saturating_duration_since(epoch()).as_nanos() as u64,
            end_ns: end.saturating_duration_since(epoch()).as_nanos() as u64,
        };
        l.recs.push(rec);
    });
    id
}

/// Removes and returns the calling thread's records.
pub fn take() -> Vec<Rec> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().recs))
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_s: f64,
    /// Total minus the part covered by child spans.
    pub self_s: f64,
}

/// Sums count, duration and self time per span name.
pub fn aggregate(recs: &[Rec]) -> BTreeMap<&'static str, Agg> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for r in recs.iter().filter(|r| r.parent != 0) {
        *children.entry(r.parent).or_default() += r.end_ns - r.start_ns;
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for r in recs {
        let dur = r.end_ns - r.start_ns;
        let own = dur.saturating_sub(children.get(&r.id).copied().unwrap_or(0));
        let a = out.entry(r.name).or_default();
        a.count += 1;
        a.total_s += dur as f64 * 1e-9;
        a.self_s += own as f64 * 1e-9;
    }
    out
}

/// Total seconds per span name over the direct children of the spans named
/// `parent`: how a parent's time divides among the layers it calls.
pub fn children_of(recs: &[Rec], parent: &str) -> BTreeMap<&'static str, f64> {
    let parents: std::collections::HashSet<u64> = recs
        .iter()
        .filter(|r| r.name == parent)
        .map(|r| r.id)
        .collect();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for r in recs.iter().filter(|r| parents.contains(&r.parent)) {
        *out.entry(r.name).or_default() += (r.end_ns - r.start_ns) as f64 * 1e-9;
    }
    out
}

/// Seconds between the end of each span named `from` and the start of the
/// next span named `to` on the same thread, and how many such gaps: the
/// time of a call that sits between two spans but cannot carry its own.
pub fn gap_between(recs: &[Rec], from: &str, to: &str) -> (u64, f64) {
    let mut ends: Vec<&Rec> = recs.iter().filter(|r| r.name == from).collect();
    ends.sort_by_key(|r| r.end_ns);
    let mut starts: Vec<&Rec> = recs.iter().filter(|r| r.name == to).collect();
    starts.sort_by_key(|r| r.start_ns);
    let (mut count, mut total_ns) = (0, 0);
    for f in ends {
        let next = starts
            .iter()
            .find(|t| t.tid == f.tid && t.start_ns >= f.end_ns);
        if let Some(t) = next {
            count += 1;
            total_ns += t.start_ns - f.end_ns;
        }
    }
    (count, total_ns as f64 * 1e-9)
}

/// Renders records in the Chrome trace-event format (`chrome://tracing`,
/// Perfetto): one complete event per span.
pub fn chrome_trace(recs: &[Rec]) -> String {
    let events: Vec<String> = recs
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                r.name,
                r.tid,
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                r.id,
                r.parent,
                r.op
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Recording is process-wide, so the cases share one test.
    #[test]
    fn nesting_self_time_and_trace_export() {
        enable(false);
        drop(span("off"));
        assert!(take().is_empty());

        enable(true);
        set_op(7);
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let t = Instant::now();
        let req = record("request", 9, 0, t, t + std::time::Duration::from_millis(1));
        record(
            "submit",
            9,
            req,
            t,
            t + std::time::Duration::from_micros(10),
        );
        enable(false);

        let recs = take();
        assert_eq!(recs.len(), 4);
        let inner = recs.iter().find(|r| r.name == "inner").unwrap();
        let outer = recs.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((outer.parent, outer.op), (0, 7));

        let agg = aggregate(&recs);
        assert!(agg["outer"].total_s >= 0.004);
        let own = agg["outer"].total_s - agg["inner"].total_s;
        assert!((agg["outer"].self_s - own).abs() < 1e-9);
        assert!((agg["request"].self_s - 0.00099).abs() < 1e-9);
        let (gaps, between) = gap_between(&recs, "inner", "request");
        assert_eq!(gaps, 1);
        let request = recs.iter().find(|r| r.name == "request").unwrap();
        let want = (request.start_ns - inner.end_ns) as f64 * 1e-9;
        assert!((between - want).abs() < 1e-12);
        assert_eq!(gap_between(&recs, "request", "inner"), (0, 0.0));
        let under = children_of(&recs, "outer");
        assert_eq!(under.len(), 1);
        assert!((under["inner"] - agg["inner"].total_s).abs() < 1e-12);

        let json = sellkit_obs::parse_json(&chrome_trace(&recs)).expect("valid JSON");
        assert_eq!(json.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }
}
