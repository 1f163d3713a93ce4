//! Immutable report snapshots and the three exporters.
//!
//! A [`Report`] is produced by merging every thread's shard (see
//! `registry.rs`) and can be rendered three ways:
//!
//! * [`Report::log_view`] — the human `-log_view`-style table, events
//!   grouped under their top-level stage and indented by nesting depth;
//! * [`Report::to_json`] — a versioned machine-readable document (the
//!   `BENCH_*.json` trajectory format), validated by
//!   [`validate_report_json`];
//! * [`Report::chrome_trace`] — Chrome trace-event JSON loadable in
//!   `chrome://tracing` or Perfetto, one track per recording thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::HistSnapshot;
use crate::json::{parse, Json};
use crate::registry::PATH_SEP;

/// Version stamped into every JSON report as `"version"`; bump on any
/// breaking schema change.  v2 added `hists`, `machine`, and span flow
/// links; [`validate_report_json`] still accepts
/// [`MIN_SUPPORTED_SCHEMA_VERSION`] documents so checked-in v1 artifacts
/// keep validating.
pub const REPORT_SCHEMA_VERSION: u64 = 2;

/// Oldest schema version [`validate_report_json`] accepts.
pub const MIN_SUPPORTED_SCHEMA_VERSION: u64 = 1;

/// One `(x, y)` sample of a named series (e.g. iteration → residual norm).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Sample abscissa (iteration number, time, …).
    pub x: f64,
    /// Sample value.
    pub y: f64,
}

/// One recording thread's identity and busy time.
#[derive(Clone, Debug)]
pub struct ThreadReport {
    /// Stable per-registry thread index (track id in Chrome traces).
    pub tid: u64,
    /// Human label — the OS thread name unless overridden.
    pub label: String,
    /// Seconds covered by this thread's top-level spans.
    pub busy_s: f64,
}

/// Merged totals for one event path.
#[derive(Clone, Debug)]
pub struct EventReport {
    /// Full stage path, components joined by `>` (e.g. `KSPSolve>MatMult`).
    pub path: String,
    /// Leaf event name (last path component).
    pub name: String,
    /// Number of completed spans / records.
    pub count: u64,
    /// Total inclusive seconds.
    pub seconds: f64,
    /// Total attributed floating-point operations.
    pub flops: f64,
    /// Total modeled memory traffic in bytes (§6 traffic model).
    pub bytes: f64,
    /// Merge key preserving first-use order; smaller = earlier.
    pub(crate) first_seq: u64,
}

impl EventReport {
    /// Achieved Gflop/s (0 when no time was recorded).
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops / self.seconds * 1e-9
        } else {
            0.0
        }
    }

    /// Achieved GB/s of modeled traffic (0 when no time was recorded).
    pub fn achieved_gbs(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes / self.seconds * 1e-9
        } else {
            0.0
        }
    }

    /// Nesting depth: 0 for top-level events.
    pub fn depth(&self) -> usize {
        self.path.chars().filter(|&c| c == PATH_SEP).count()
    }
}

/// One completed span in the execution trace.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Leaf event name.
    pub name: String,
    /// Recording thread's track id.
    pub tid: u64,
    /// Start time in microseconds since the registry epoch.
    pub t0_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Key/value arguments attached via [`Span::arg`](crate::Span::arg).
    pub args: Vec<(&'static str, String)>,
    /// Trace ids whose flows *terminate* at this span (fan-in: the
    /// requests a batch coalesced).
    pub flow_in: Vec<u64>,
    /// Trace ids whose flows *originate* at this span (a request's
    /// submission point).
    pub flow_out: Vec<u64>,
}

/// An immutable merged snapshot of everything a registry recorded.
#[derive(Clone, Debug)]
pub struct Report {
    /// Wall seconds from registry creation to `report()` (or `stop()`).
    pub total_s: f64,
    /// Every thread that recorded at least one datum, by track id.
    pub threads: Vec<ThreadReport>,
    /// Event totals in first-use order, one row per stage path.
    pub events: Vec<EventReport>,
    /// Summed named counters (e.g. `halo.bytes`).
    pub counters: BTreeMap<String, f64>,
    /// Latest-write named gauges (e.g. `serve.queue_depth`).
    pub gauges: BTreeMap<String, f64>,
    /// Named sample series sorted by `x` (e.g. `serve.latency_ms`).
    pub series: BTreeMap<String, Vec<SeriesPoint>>,
    /// Merged latency/size histograms (e.g. `serve.latency_ms`).
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Completed spans sorted by `(tid, t0)`, capped per thread.
    pub trace: Vec<TraceSpan>,
    /// Spans dropped from `trace` after the per-thread cap was hit.
    pub dropped_spans: u64,
}

impl Report {
    /// Aggregated totals for `name` summed over **all** stage paths ending
    /// in that leaf (e.g. `MatMult` under both `KSPSolve` and `MGSmooth`).
    pub fn event(&self, name: &str) -> Option<EventReport> {
        let mut out: Option<EventReport> = None;
        for e in self.events.iter().filter(|e| e.name == name) {
            match &mut out {
                None => {
                    let mut head = e.clone();
                    head.path = head.name.clone();
                    out = Some(head);
                }
                Some(acc) => {
                    acc.count += e.count;
                    acc.seconds += e.seconds;
                    acc.flops += e.flops;
                    acc.bytes += e.bytes;
                    acc.first_seq = acc.first_seq.min(e.first_seq);
                }
            }
        }
        out
    }

    /// Renders the PETSc `-log_view`-style table: events grouped by stage
    /// path, indented by depth, with per-event Gflop/s and GB/s columns.
    pub fn log_view(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>12} {:>7} {:>9} {:>9}",
            "event", "count", "time (s)", "%total", "Gflop/s", "GB/s"
        );
        let _ = writeln!(out, "{}", "-".repeat(84));
        // Events are in first-use order; emit each top-level stage followed
        // by its subtree, subtree rows sorted by path so children group
        // under their parent.
        let mut rows: Vec<&EventReport> = self.events.iter().collect();
        rows.sort_by(|a, b| {
            let ra = root_of(&a.path);
            let rb = root_of(&b.path);
            let sa = self.root_seq(ra);
            let sb = self.root_seq(rb);
            (sa, &a.path, a.first_seq).cmp(&(sb, &b.path, b.first_seq))
        });
        for e in rows {
            let indent = "  ".repeat(e.depth());
            let pct = if self.total_s > 0.0 {
                e.seconds / self.total_s * 100.0
            } else {
                0.0
            };
            let label = format!("{indent}{}", e.name);
            let _ = writeln!(
                out,
                "{:<34} {:>8} {:>12.6} {:>6.1}% {:>9.3} {:>9.3}",
                label,
                e.count,
                e.seconds,
                pct,
                e.gflops(),
                e.achieved_gbs()
            );
        }
        let _ = writeln!(out, "{}", "-".repeat(84));
        let _ = writeln!(out, "total time: {:.6} s", self.total_s);
        if !self.threads.is_empty() {
            let _ = writeln!(out, "threads:");
            for t in &self.threads {
                let util = if self.total_s > 0.0 {
                    t.busy_s / self.total_s * 100.0
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  [{}] {:<20} busy {:>10.6} s ({:>5.1}%)",
                    t.tid, t.label, t.busy_s, util
                );
            }
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge   {name} = {v}");
        }
        for (name, h) in &self.hists {
            let _ = writeln!(
                out,
                "hist    {name}: count={} p50={:.3} p90={:.3} p99={:.3} p999={:.3} max={:.3}",
                h.count,
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.percentile(0.999),
                h.max
            );
        }
        if self.dropped_spans > 0 {
            let _ = writeln!(out, "({} trace spans dropped past cap)", self.dropped_spans);
        }
        out
    }

    /// Serializes the report to the versioned JSON schema.
    ///
    /// When `roofline_bw_gbs` (a STREAM-model bandwidth ceiling, GB/s) is
    /// given, every event with modeled bytes also carries `roof_pct` —
    /// achieved GB/s as a percentage of that ceiling.  The v2 `machine`
    /// member is always written as `null`.
    pub fn to_json(&self, roofline_bw_gbs: Option<f64>) -> String {
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|e| {
                let mut members = vec![
                    ("path", Json::from(e.path.as_str())),
                    ("name", Json::from(e.name.as_str())),
                    ("count", Json::from(e.count)),
                    ("seconds", Json::from(e.seconds)),
                    ("flops", Json::from(e.flops)),
                    ("bytes", Json::from(e.bytes)),
                    ("gflops", Json::from(e.gflops())),
                    ("gbs", Json::from(e.achieved_gbs())),
                ];
                if let Some(bw) = roofline_bw_gbs {
                    if e.bytes > 0.0 && bw > 0.0 {
                        members.push(("roof_pct", Json::from(e.achieved_gbs() / bw * 100.0)));
                    }
                }
                Json::obj(members)
            })
            .collect();
        let threads: Vec<Json> = self
            .threads
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("tid", Json::from(t.tid)),
                    ("label", Json::from(t.label.as_str())),
                    ("busy_s", Json::from(t.busy_s)),
                ])
            })
            .collect();
        let series = Json::Obj(
            self.series
                .iter()
                .map(|(name, points)| {
                    (
                        name.clone(),
                        Json::Arr(
                            points
                                .iter()
                                .map(|p| Json::Arr(vec![Json::from(p.x), Json::from(p.y)]))
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        let hists = Json::Obj(
            self.hists
                .iter()
                .map(|(name, h)| (name.clone(), h.to_json()))
                .collect(),
        );
        let doc = Json::obj(vec![
            ("schema", Json::from("sellkit-obs-report")),
            ("version", Json::from(REPORT_SCHEMA_VERSION)),
            ("total_s", Json::from(self.total_s)),
            (
                "roofline_bw_gbs",
                roofline_bw_gbs.map_or(Json::Null, Json::from),
            ),
            ("machine", Json::Null),
            ("threads", Json::Arr(threads)),
            ("events", Json::Arr(events)),
            ("counters", Json::from_map(&self.counters)),
            ("gauges", Json::from_map(&self.gauges)),
            ("series", series),
            ("hists", hists),
            ("dropped_spans", Json::from(self.dropped_spans)),
        ]);
        doc.to_string()
    }

    /// Serializes the span trace in Chrome trace-event format: complete
    /// (`ph: "X"`) events plus `thread_name` metadata, one track per
    /// recording thread.  Spans with flow links additionally emit flow
    /// start (`ph: "s"`) and flow end (`ph: "f"`) events sharing the
    /// request's trace id, so Perfetto draws an arrow from each request's
    /// submission span to the batch that served it.  Load in
    /// `chrome://tracing` or Perfetto.
    pub fn chrome_trace(&self) -> String {
        let mut events: Vec<Json> = Vec::with_capacity(self.trace.len() + self.threads.len());
        for t in &self.threads {
            events.push(Json::obj(vec![
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(t.tid)),
                (
                    "args",
                    Json::obj(vec![("name", Json::from(t.label.as_str()))]),
                ),
            ]));
        }
        for s in &self.trace {
            let mut members = vec![
                ("name", Json::from(s.name.as_str())),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.t0_us)),
                ("dur", Json::from(s.dur_us)),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(s.tid)),
            ];
            if !s.args.is_empty() {
                members.push((
                    "args",
                    Json::obj(
                        s.args
                            .iter()
                            .map(|(k, v)| (*k, Json::from(v.as_str())))
                            .collect(),
                    ),
                ));
            }
            events.push(Json::obj(members));
            // Flow events bind to the enclosing slice on their
            // (ts, tid): starts sit at the slice opening, ends just
            // inside the closing edge so they land within the slice.
            for &id in &s.flow_out {
                events.push(Json::obj(vec![
                    ("name", Json::from("request")),
                    ("cat", Json::from("request")),
                    ("ph", Json::from("s")),
                    ("id", Json::from(id)),
                    ("ts", Json::from(s.t0_us)),
                    ("pid", Json::from(0u64)),
                    ("tid", Json::from(s.tid)),
                ]));
            }
            for &id in &s.flow_in {
                events.push(Json::obj(vec![
                    ("name", Json::from("request")),
                    ("cat", Json::from("request")),
                    ("ph", Json::from("f")),
                    ("bp", Json::from("e")),
                    ("id", Json::from(id)),
                    ("ts", Json::from(s.t0_us)),
                    ("pid", Json::from(0u64)),
                    ("tid", Json::from(s.tid)),
                ]));
            }
        }
        Json::obj(vec![("traceEvents", Json::Arr(events))]).to_string()
    }

    fn root_seq(&self, root: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| root_of(&e.path) == root)
            .map(|e| e.first_seq)
            .min()
            .unwrap_or(u64::MAX)
    }
}

fn root_of(path: &str) -> &str {
    path.split(PATH_SEP).next().unwrap_or(path)
}

/// Validates a JSON document against the `sellkit-obs-report` schema;
/// returns the first problem found.  Accepts every version from
/// [`MIN_SUPPORTED_SCHEMA_VERSION`] through [`REPORT_SCHEMA_VERSION`],
/// so v1 artifacts checked in before histograms/machine stamps existed
/// keep validating; v2-only members are required only of v2 documents.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some("sellkit-obs-report") {
        return Err("missing or wrong \"schema\" marker".into());
    }
    let version = match doc.get("version").and_then(Json::as_f64) {
        Some(v)
            if (MIN_SUPPORTED_SCHEMA_VERSION as f64..=REPORT_SCHEMA_VERSION as f64)
                .contains(&v) =>
        {
            v as u64
        }
        Some(v) => return Err(format!("unsupported schema version {v}")),
        None => return Err("missing \"version\"".into()),
    };
    let total = doc
        .get("total_s")
        .and_then(Json::as_f64)
        .ok_or("missing numeric \"total_s\"")?;
    if total < 0.0 || total.is_nan() {
        return Err(format!("negative total_s {total}"));
    }
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("missing \"events\" array")?;
    for (i, e) in events.iter().enumerate() {
        for key in ["path", "name"] {
            if e.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("event {i}: missing string \"{key}\""));
            }
        }
        for key in ["count", "seconds", "flops", "bytes", "gflops", "gbs"] {
            match e.get(key).and_then(Json::as_f64) {
                Some(v) if v >= 0.0 => {}
                Some(v) => return Err(format!("event {i}: negative \"{key}\" = {v}")),
                None => return Err(format!("event {i}: missing numeric \"{key}\"")),
            }
        }
    }
    let threads = doc
        .get("threads")
        .and_then(Json::as_arr)
        .ok_or("missing \"threads\" array")?;
    for (i, t) in threads.iter().enumerate() {
        if t.get("tid").and_then(Json::as_f64).is_none()
            || t.get("label").and_then(Json::as_str).is_none()
            || t.get("busy_s").and_then(Json::as_f64).is_none()
        {
            return Err(format!("thread {i}: missing tid/label/busy_s"));
        }
    }
    for key in ["counters", "gauges", "series"] {
        match doc.get(key) {
            Some(Json::Obj(_)) => {}
            _ => return Err(format!("missing \"{key}\" object")),
        }
    }
    if version >= 2 {
        let Some(Json::Obj(hists)) = doc.get("hists") else {
            return Err("v2 report: missing \"hists\" object".into());
        };
        for (name, h) in hists {
            for key in [
                "count", "sum", "min", "max", "mean", "p50", "p90", "p99", "p999",
            ] {
                match h.get(key).and_then(Json::as_f64) {
                    Some(v) if v >= 0.0 => {}
                    Some(v) => return Err(format!("hist {name}: negative \"{key}\" = {v}")),
                    None => return Err(format!("hist {name}: missing numeric \"{key}\"")),
                }
            }
            if h.get("buckets").and_then(Json::as_arr).is_none() {
                return Err(format!("hist {name}: missing \"buckets\" array"));
            }
        }
        match doc.get("machine") {
            Some(Json::Null) => {}
            Some(m) => {
                if m.get("fingerprint").and_then(Json::as_str).is_none()
                    || m.get("host_cores").and_then(Json::as_f64).is_none()
                    || !matches!(m.get("gating"), Some(Json::Bool(_)))
                {
                    return Err("machine stamp: missing fingerprint/host_cores/gating".into());
                }
            }
            None => return Err("v2 report: missing \"machine\" member (may be null)".into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_report() -> Report {
        let reg = Registry::new();
        {
            let _solve = reg.span("KSPSolve");
            let _mm = reg.span_traffic("MatMult", 2000.0, 12_000.0);
        }
        reg.record("Assembly", 0.25, 0.0);
        reg.counter("halo.bytes", 4096.0);
        reg.gauge("serve.queue_depth", 1.03);
        reg.series_point("ksp.rnorm", 0.0, 1.0);
        reg.series_point("ksp.rnorm", 1.0, 1e-3);
        for i in 0..50 {
            reg.hist("serve.latency_ms", 1.0 + i as f64 * 0.1);
        }
        reg.report()
    }

    #[test]
    fn json_export_passes_its_own_validator() {
        let report = sample_report();
        let text = report.to_json(Some(100.0));
        validate_report_json(&text).expect("self-emitted report validates");
        let doc = parse(&text).unwrap();
        assert_eq!(
            doc.get("version").and_then(Json::as_f64),
            Some(REPORT_SCHEMA_VERSION as f64)
        );
        let events = doc.get("events").and_then(Json::as_arr).unwrap();
        let mm = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("MatMult"))
            .expect("MatMult event present");
        assert!(mm.get("bytes").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(mm.get("roof_pct").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_report_json("not json").is_err());
        assert!(validate_report_json("{}").is_err());
        assert!(
            validate_report_json(
                "{\"schema\":\"sellkit-obs-report\",\"version\":99,\"total_s\":1,\
                 \"threads\":[],\"events\":[],\"counters\":{},\"gauges\":{},\"series\":{}}"
            )
            .is_err(),
            "future schema versions are rejected"
        );
        assert!(
            validate_report_json(
                "{\"schema\":\"sellkit-obs-report\",\"version\":1,\"total_s\":1,\
                 \"threads\":[],\"events\":[{\"path\":\"X\",\"name\":\"X\"}],\
                 \"counters\":{},\"gauges\":{},\"series\":{}}"
            )
            .is_err(),
            "events must carry full numeric columns"
        );
    }

    #[test]
    fn validator_accepts_v1_documents() {
        // The exact shape of a pre-histogram v1 artifact: no "hists", no
        // "machine".  Backward compatibility is part of the v2 contract.
        validate_report_json(
            "{\"schema\":\"sellkit-obs-report\",\"version\":1,\"total_s\":1,\
             \"threads\":[{\"tid\":0,\"label\":\"main\",\"busy_s\":0.5}],\
             \"events\":[],\"counters\":{},\"gauges\":{},\"series\":{}}",
        )
        .expect("v1 documents stay valid");
        // ...but a v2 document without the v2 members is rejected.
        assert!(validate_report_json(
            "{\"schema\":\"sellkit-obs-report\",\"version\":2,\"total_s\":1,\
             \"threads\":[],\"events\":[],\"counters\":{},\"gauges\":{},\"series\":{}}"
        )
        .is_err());
    }

    #[test]
    fn validator_checks_the_machine_member_of_stamped_input() {
        // `to_json` writes `"machine": null`; reports that carry a stamp
        // (written before the stamp was dropped) are input the validator
        // still checks.
        let text = sample_report().to_json(Some(100.0));
        validate_report_json(&text).expect("unstamped report validates");
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("machine"), Some(&Json::Null));
        let h = doc
            .get("hists")
            .and_then(|h| h.get("serve.latency_ms"))
            .unwrap();
        assert_eq!(h.get("count").and_then(Json::as_f64), Some(50.0));
        assert!(h.get("p99").and_then(Json::as_f64).unwrap() > 0.0);

        let stamped = text.replace(
            "\"machine\":null",
            "\"machine\":{\"fingerprint\":\"c4-bw25\",\"host_cores\":4,\"gating\":true}",
        );
        assert_ne!(stamped, text);
        validate_report_json(&stamped).expect("a well-formed stamp validates");
        let bad = stamped.replace("\"host_cores\":4,", "");
        assert!(
            validate_report_json(&bad).is_err(),
            "a corrupted stamp fails"
        );
    }

    #[test]
    fn chrome_trace_emits_flow_events_bound_to_slices() {
        let reg = Registry::new();
        let id = crate::TraceId::fresh();
        {
            let mut submit = reg.span("Submit");
            submit.flow_out(id);
        }
        {
            let mut batch = reg.span("SpMMBatch");
            batch.flow_in(id);
            batch.arg("k", "1");
        }
        let report = reg.report();
        let doc = parse(&report.chrome_trace()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let start = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
            .expect("flow start");
        let end = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("f"))
            .expect("flow end");
        assert_eq!(
            start.get("id").and_then(Json::as_f64),
            end.get("id").and_then(Json::as_f64),
            "one flow arrow, one id"
        );
        assert_eq!(end.get("bp").and_then(Json::as_str), Some("e"));
        let batch_slice = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("SpMMBatch"))
            .unwrap();
        assert_eq!(
            batch_slice
                .get("args")
                .and_then(|a| a.get("k"))
                .and_then(Json::as_str),
            Some("1")
        );
        // The flow end binds to the batch slice: same tid, ts inside it.
        let (bt, bd) = (
            batch_slice.get("ts").and_then(Json::as_f64).unwrap(),
            batch_slice.get("dur").and_then(Json::as_f64).unwrap(),
        );
        let et = end.get("ts").and_then(Json::as_f64).unwrap();
        assert!(et >= bt && et <= bt + bd, "flow end inside the batch slice");
    }

    #[test]
    fn chrome_trace_is_well_formed_with_thread_tracks() {
        let report = sample_report();
        let doc = parse(&report.chrome_trace()).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let metas: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), report.threads.len());
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2, "KSPSolve + MatMult");
        for s in &spans {
            assert!(s.get("ts").and_then(Json::as_f64).unwrap() >= 0.0);
            assert!(s.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        }
    }

    #[test]
    fn log_view_groups_nested_events_under_their_stage() {
        let report = sample_report();
        let table = report.log_view();
        let solve_line = table.lines().position(|l| l.contains("KSPSolve")).unwrap();
        let mult_line = table.lines().position(|l| l.contains("  MatMult")).unwrap();
        assert!(
            mult_line == solve_line + 1,
            "nested MatMult is indented directly under KSPSolve:\n{table}"
        );
        assert!(table.contains("counter halo.bytes"));
        assert!(table.contains("gauge   serve.queue_depth"));
    }

    #[test]
    fn event_aggregates_across_paths() {
        let reg = Registry::new();
        {
            let _a = reg.span("KSPSolve");
            let _m = reg.span_traffic("MatMult", 10.0, 100.0);
        }
        {
            let _b = reg.span("MGSmooth");
            let _m = reg.span_traffic("MatMult", 10.0, 100.0);
        }
        let report = reg.report();
        let mm = report.event("MatMult").unwrap();
        assert_eq!(mm.count, 2);
        assert_eq!(mm.bytes, 200.0);
        assert_eq!(
            report.events.iter().filter(|e| e.name == "MatMult").count(),
            2
        );
    }
}
