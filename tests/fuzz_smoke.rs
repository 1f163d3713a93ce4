//! The differential oracle as part of `cargo test`: one fixed-seed case of
//! every generator family through the whole walk of `sellkit-fuzz` (every
//! row of `ROWS` — f64 SpMV, f64 SpMM, packed codecs — × format × ISA tier
//! and pool × Set/Add against the scalar-CSR oracle).  The open-ended,
//! time-budgeted walk stays with the `sellkit-fuzz` binary in CI.

use sellkit_fuzz::{build, run_case, Config, Ctxs, FAMILIES, ROWS};

#[test]
fn every_family_passes_the_differential_sweeps() {
    // Two pool sizes keep the run a few seconds in a debug build; the
    // thread-count matrix proper is `tests/parallel.rs`.
    let cfg = Config {
        threads: vec![1, 3],
        ..Config::default()
    };
    let ctxs = Ctxs::new(&cfg.threads);
    let seed = 0xC0FFEE;
    let mut findings = Vec::new();
    for family in FAMILIES {
        let case = build(family, seed);
        findings.extend(run_case(&case, &ROWS, &cfg, &ctxs, seed).findings);
    }
    let report: Vec<String> = findings
        .iter()
        .map(|f| format!("{}: {}", f.case_name, f.detail))
        .collect();
    assert!(report.is_empty(), "{}", report.join("\n"));
}
