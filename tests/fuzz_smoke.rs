//! The differential oracle as part of `cargo test`: one fixed-seed case of
//! every generator family through the SpMV, SpMM and codec sweeps of
//! `sellkit-fuzz` (all formats × ISA tiers × thread counts × Set/Add
//! against the scalar-CSR oracle).  The open-ended, time-budgeted walk
//! stays with the `sellkit-fuzz` binary in CI.

use sellkit_fuzz::{build, run_case, run_codec_case, run_spmm_case, Config, Ctxs, FAMILIES};

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
        findings.extend(run_case(&case, &cfg, &ctxs, seed));
        findings.extend(run_spmm_case(&case, &cfg, &ctxs, seed));
        findings.extend(run_codec_case(&case, &cfg, &ctxs, seed));
    }
    let report: Vec<String> = findings
        .iter()
        .map(|f| format!("{}: {}", f.case_name, f.detail))
        .collect();
    assert!(report.is_empty(), "{}", report.join("\n"));
}
