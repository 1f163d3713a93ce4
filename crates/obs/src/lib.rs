//! Staged tracing and metrics for sellkit: a PETSc `-log_view`-style
//! engine with roofline attribution and machine-readable trace export.
//!
//! # Model
//!
//! Instrumentation sites open RAII **spans** ([`span`], [`span_traffic`])
//! that nest on a per-thread stage stack, PETSc-style:
//! `SNESSolve>KSPSolve>MGSmooth>MatMult`.  Each closed span adds its
//! inclusive time (plus optional flops and modeled traffic bytes) to the
//! accumulator for its full stage path, so nested work is attributed to
//! both the leaf event and every enclosing stage.  Named [`counter`]s,
//! [`gauge`]s, and sample [`series_point`]s ride along for non-span
//! telemetry (halo bytes, queue depth, residual histories).
//!
//! All state is sharded per thread and merged only when [`report`] takes a
//! snapshot, so pool workers record without contending on shared locks.
//!
//! # Overhead contract
//!
//! The global instrumentation is compiled in but **off by default**: every
//! free function begins with one relaxed atomic load ([`enabled`]) and
//! returns immediately (handing out an inert [`Span`]) while logging is
//! disabled.  Enable it with the `SELLKIT_LOG` environment variable (any
//! nonempty value other than `0`) or programmatically via [`set_enabled`].
//!
//! # Exporters
//!
//! A [`Report`] renders as the human [`Report::log_view`] table, the
//! versioned JSON document [`Report::to_json`] (schema checked by
//! [`validate_report_json`]), or a Chrome trace [`Report::chrome_trace`]
//! with one track per recording thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
mod hist;
mod json;
mod registry;
mod report;

pub use hist::HistSnapshot;
pub use json::{parse as parse_json, Json};
pub use registry::{Registry, Span, TraceId};
pub use report::{
    validate_report_json, EventReport, Report, SeriesPoint, ThreadReport, TraceSpan,
    MIN_SUPPORTED_SCHEMA_VERSION, REPORT_SCHEMA_VERSION,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Tri-state enable flag: 0 = not yet initialized from the environment,
/// 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

const OFF: u8 = 1;
const ON: u8 = 2;

#[cold]
fn init_from_env() -> u8 {
    let on = match std::env::var("SELLKIT_LOG") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    };
    let state = if on { ON } else { OFF };
    // Racing initializers compute the same value; last store wins harmlessly.
    STATE.store(state, Ordering::Relaxed);
    state
}

/// Whether global logging is on.  This is the per-span fast path: one
/// relaxed atomic load (after a one-time lazy read of `SELLKIT_LOG`).
#[inline]
pub fn enabled() -> bool {
    let s = STATE.load(Ordering::Relaxed);
    if s == 0 {
        return init_from_env() == ON;
    }
    s == ON
}

/// Turns global logging on or off programmatically, overriding
/// `SELLKIT_LOG`.  Spans already open keep recording to completion.
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// The process-global registry backing the free functions.  Created on
/// first use; its epoch is that first use.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Opens a span on the global registry, or an inert guard when disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if enabled() {
        global().span(name)
    } else {
        Span::inert()
    }
}

/// Opens a span carrying flops and modeled traffic bytes on the global
/// registry, or an inert guard when disabled.
#[inline]
pub fn span_traffic(name: &'static str, flops: f64, bytes: f64) -> Span {
    if enabled() {
        global().span_traffic(name, flops, bytes)
    } else {
        Span::inert()
    }
}

/// Adds `delta` to a global counter when logging is enabled.
#[inline]
pub fn counter(name: &'static str, delta: f64) {
    if enabled() {
        global().counter(name, delta);
    }
}

/// Sets a global gauge when logging is enabled.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if enabled() {
        global().gauge(name, value);
    }
}

/// Appends a sample to a global series when logging is enabled.
#[inline]
pub fn series_point(name: &'static str, x: f64, y: f64) {
    if enabled() {
        global().series_point(name, x, y);
    }
}

/// Records a sample into a global histogram when logging is enabled.
/// Histograms are sharded per thread and merged bucket-exactly at
/// [`report`]/[`snapshot`] time, surfacing p50/p90/p99/p999.
#[inline]
pub fn hist(name: &'static str, value: f64) {
    if enabled() {
        global().hist(name, value);
    }
}

/// Labels the calling thread's track in global reports and traces.
#[inline]
pub fn set_thread_label(label: &str) {
    if enabled() {
        global().set_thread_label(label);
    }
}

/// Snapshots the global registry into a [`Report`].  Meaningful only when
/// logging was enabled; otherwise the report is empty.
pub fn report() -> Report {
    global().report()
}

/// Snapshots the global registry **without** stopping anything —
/// recording threads keep appending, and the returned [`Report`] is a
/// consistent point-in-time merge.  It is [`report`] under the name a
/// caller polling a live run reads best.
pub fn snapshot() -> Report {
    global().report()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flag and the global registry are process-wide, so the
    // tests below run in one #[test] to avoid order dependence between
    // parallel test threads.
    #[test]
    fn global_gating_and_recording() {
        set_enabled(false);
        assert!(!enabled());
        {
            let _s = span("ShouldNotRecord");
        }
        counter("dead.counter", 1.0);

        set_enabled(true);
        assert!(enabled());
        {
            let _s = span_traffic("MatMult", 100.0, 800.0);
        }
        set_enabled(false);

        let report = report();
        assert!(report.event("ShouldNotRecord").is_none());
        assert!(!report.counters.contains_key("dead.counter"));
        let mm = report.event("MatMult").expect("recorded while enabled");
        assert_eq!(mm.flops, 100.0);
    }
}
