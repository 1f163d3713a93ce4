//! The flight recorder: an always-on bounded ring of recent
//! operationally-significant events (request submissions, batch
//! compositions, pool panics, slow regions), kept cheap enough to leave
//! enabled in production and dumped as a JSON artifact when something
//! goes wrong.
//!
//! # Cost contract
//!
//! Unlike spans (off by default), the recorder is **on by default** — a
//! postmortem trail is only useful if it was running before the failure.
//! The budget holding that tolerable: recording sites are *rare* (one
//! per request/batch/panic, never per kernel call), and when disabled
//! via `SELLKIT_FLIGHT=0` every call is one relaxed atomic load.
//!
//! # Dump triggers
//!
//! [`dump`] writes the ring as `sellkit-flight` JSON to the path in
//! `SELLKIT_FLIGHT_DUMP` (default `target/sellkit-flight-dump.json`).
//! The serve stack calls it when a batch poisons or a pool worker
//! panics; `Server::drop` calls it when `SELLKIT_FLIGHT_DUMP` is set so
//! CI can always collect the artifact.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Maximum events retained; older events are evicted FIFO (and counted).
pub(crate) const FLIGHT_CAP: usize = 4096;

/// Version stamped into every dump as `"version"`.
pub(crate) const FLIGHT_SCHEMA_VERSION: u64 = 1;

/// Tri-state enable flag: 0 = not yet read from the environment,
/// 1 = disabled, 2 = enabled (the default).
static STATE: AtomicU8 = AtomicU8::new(0);

const OFF: u8 = 1;
const ON: u8 = 2;

#[cold]
fn init_from_env() -> u8 {
    // Opt-out rather than opt-in: `SELLKIT_FLIGHT=0` disables.
    let off = matches!(std::env::var("SELLKIT_FLIGHT"), Ok(v) if v == "0");
    let state = if off { OFF } else { ON };
    STATE.store(state, Ordering::Relaxed);
    state
}

/// Whether the recorder is capturing.  This is the idle fast path: one
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    let s = STATE.load(Ordering::Relaxed);
    if s == 0 {
        return init_from_env() == ON;
    }
    s == ON
}

/// Turns the recorder on or off programmatically, overriding
/// `SELLKIT_FLIGHT`.
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Monotone sequence number (never reused, survives eviction).
    pub seq: u64,
    /// Microseconds since the recorder's first event.
    pub t_us: f64,
    /// Static event kind, dot-namespaced (`req.submit`, `batch.poisoned`,
    /// `pool.panic`, …).
    pub kind: &'static str,
    /// Correlated ids — request trace ids for serve events, part indices
    /// for pool events.
    pub ids: Vec<u64>,
    /// First free-form numeric attribute (kind-specific, e.g. batch k).
    pub a: f64,
    /// Second free-form numeric attribute (kind-specific, e.g. millis).
    pub b: f64,
}

struct Ring {
    next_seq: u64,
    evicted: u64,
    events: VecDeque<FlightEvent>,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            next_seq: 0,
            evicted: 0,
            events: VecDeque::with_capacity(FLIGHT_CAP),
        })
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Records one event (no-op while disabled).  `ids` correlate the event
/// with request trace ids or pool part indices; `a`/`b` are
/// kind-specific numeric attributes.
pub fn record(kind: &'static str, ids: &[u64], a: f64, b: f64) {
    if !enabled() {
        return;
    }
    let t_us = epoch().elapsed().as_nanos() as f64 * 1e-3;
    let Ok(mut ring) = ring().lock() else {
        return;
    };
    let seq = ring.next_seq;
    ring.next_seq += 1;
    if ring.events.len() >= FLIGHT_CAP {
        ring.events.pop_front();
        ring.evicted += 1;
    }
    ring.events.push_back(FlightEvent {
        seq,
        t_us,
        kind,
        ids: ids.to_vec(),
        a,
        b,
    });
}

/// Copies out the current ring contents, oldest first.
pub fn snapshot() -> Vec<FlightEvent> {
    ring()
        .lock()
        .map(|r| r.events.iter().cloned().collect())
        .unwrap_or_default()
}

/// Empties the ring (sequence numbers keep counting).  For tests.
pub fn clear() {
    if let Ok(mut ring) = ring().lock() {
        ring.events.clear();
    }
}

/// Serializes the ring as a `sellkit-flight` JSON document.
pub(crate) fn dump_json() -> String {
    let (evicted, events) = ring()
        .lock()
        .map(|r| (r.evicted, r.events.iter().cloned().collect::<Vec<_>>()))
        .unwrap_or_default();
    let events: Vec<Json> = events
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("seq", Json::from(e.seq)),
                ("t_us", Json::from(e.t_us)),
                ("kind", Json::from(e.kind)),
                (
                    "ids",
                    Json::Arr(e.ids.iter().map(|&id| Json::from(id)).collect()),
                ),
                ("a", Json::from(e.a)),
                ("b", Json::from(e.b)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::from("sellkit-flight")),
        ("version", Json::from(FLIGHT_SCHEMA_VERSION)),
        ("capacity", Json::from(FLIGHT_CAP as u64)),
        ("evicted", Json::from(evicted)),
        ("events", Json::Arr(events)),
    ])
    .to_string()
}

/// The dump destination: `SELLKIT_FLIGHT_DUMP` if set (and non-empty),
/// else `target/sellkit-flight-dump.json` under the current directory.
pub fn dump_path() -> PathBuf {
    match std::env::var("SELLKIT_FLIGHT_DUMP") {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => PathBuf::from("target/sellkit-flight-dump.json"),
    }
}

/// Writes the ring to [`dump_path`], creating parent directories.
/// Returns the path written, or `None` if the write failed — the
/// recorder is a diagnostic and must never take the process down.
pub fn dump() -> Option<PathBuf> {
    let path = dump_path();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    std::fs::write(&path, format!("{}\n", dump_json()))
        .ok()
        .map(|()| path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    // The ring and enable flag are process-global, so everything runs in
    // one #[test] to avoid cross-test interference.
    #[test]
    fn record_snapshot_dump_and_disable_gate() {
        set_enabled(true);
        clear();
        record("test.alpha", &[7, 8], 2.0, 0.5);
        record("test.beta", &[], 0.0, 0.0);
        let events = snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "test.alpha");
        assert_eq!(events[0].ids, vec![7, 8]);
        assert!(events[0].seq < events[1].seq);
        assert!(events[0].t_us <= events[1].t_us);

        // Disabled: record() is a no-op past one atomic load.
        set_enabled(false);
        assert!(!enabled());
        record("test.gamma", &[1], 0.0, 0.0);
        assert_eq!(snapshot().len(), 2, "disabled recorder captures nothing");
        set_enabled(true);

        // The dump document is well-formed and carries the ring.
        let doc = parse(&dump_json()).expect("dump is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("sellkit-flight")
        );
        let dumped = doc.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(dumped.len(), 2);
        assert_eq!(
            dumped[0]
                .get("ids")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );

        // Capacity bound: the ring never grows past FLIGHT_CAP.
        clear();
        for _ in 0..(FLIGHT_CAP + 10) {
            record("test.fill", &[], 0.0, 0.0);
        }
        assert_eq!(snapshot().len(), FLIGHT_CAP);
        let doc = parse(&dump_json()).unwrap();
        assert!(doc.get("evicted").and_then(Json::as_f64).unwrap() >= 10.0);
        clear();
    }
}
