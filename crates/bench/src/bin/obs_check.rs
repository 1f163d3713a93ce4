//! Validates a `sellkit-obs-report` JSON document against the versioned
//! schema — the CI gate keeping the reports the e2e tests write machine-readable.
//!
//! ```sh
//! cargo run -p sellkit-bench --bin obs_check -- target/tmp/obs_gray_scott.json
//! ```
//!
//! Exits nonzero (with the first problem found) on any schema violation.

use sellkit_obs::{parse_json, validate_report_json};

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: obs_check <report.json>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        match validate_report_json(&text) {
            Ok(()) => {
                let doc = parse_json(&text).expect("validated implies parseable");
                let nevents = doc
                    .get("events")
                    .and_then(|e| e.as_arr())
                    .map_or(0, |a| a.len());
                let total = doc
                    .get("total_s")
                    .and_then(|t| t.as_f64())
                    .unwrap_or(f64::NAN);
                println!("{path}: ok ({nevents} events, total {total:.3} s)");
            }
            Err(e) => {
                eprintln!("{path}: schema violation: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
