//! Renders a `sellkit-obs-report` JSON document as Prometheus text
//! exposition — the scrape-side bridge from a written report (or
//! a live [`sellkit_obs::snapshot`] dump) to a metrics pipeline.
//!
//! ```sh
//! cargo run -p sellkit-bench --bin obs_scrape -- target/tmp/obs_serve.json
//! cargo run -p sellkit-bench --bin obs_scrape -- --demo
//! ```
//!
//! With a path, the document is validated against the versioned schema
//! first, so a malformed artifact fails here rather than in the scraper.
//! `--demo` records a small in-process workload and scrapes the live
//! registry instead, exercising the same path an embedded poller would.

use sellkit_obs::prometheus_from_report_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--demo") => demo(),
        Some(path) if args.len() == 1 => scrape_file(path),
        _ => {
            eprintln!("usage: obs_scrape <report.json> | --demo");
            std::process::exit(2);
        }
    }
}

fn scrape_file(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: unreadable: {e}");
            std::process::exit(1);
        }
    };
    match prometheus_from_report_json(&text) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Records a tiny SpMV workload live, then scrapes the global registry
/// via [`sellkit_obs::snapshot`] exactly as an embedded poller would.
fn demo() {
    use sellkit_core::{Apply, ExecCtx, MatShape, Operator};

    sellkit_obs::set_enabled(true);
    let a = sellkit_workloads::generators::stencil5(24);
    let x = vec![1.0; a.ncols()];
    let mut y = vec![0.0; a.nrows()];
    for i in 0..8 {
        a.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
        sellkit_obs::hist("demo.apply_ms", 0.05 + 0.01 * f64::from(i));
    }
    sellkit_obs::counter("demo.applies", 8.0);

    let rep = sellkit_obs::snapshot();
    let json = rep.to_json(None);
    match prometheus_from_report_json(&json) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("live snapshot failed validation: {e}");
            std::process::exit(1);
        }
    }
}
