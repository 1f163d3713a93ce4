//! Regression tests pinning the paper's quantitative claims as far as this
//! host can check them: the direction of every vectorization claim,
//! measured; the §6 traffic facts, on real matrices; and, for the claims
//! that need KNL, Theta or the older Xeons, the written record in
//! EXPERIMENTS.md.

use sellkit::core::{traffic, Csr, Isa, Operator, Sell8};
use sellkit::workloads::{GrayScott, GrayScottParams};
use sellkit_solvers::ts::OdeProblem;

/// The grid of the Gray-Scott Jacobian the measured checks use, and its
/// unknowns (two species a node).
const GRID: usize = 96;
const N: usize = 2 * GRID * GRID;

fn jacobian() -> Csr {
    let gs = GrayScott::new(GRID, GrayScottParams::default());
    gs.rhs_jacobian(0.0, &gs.initial_condition(1))
}

/// Times `spmv` the way every measured check does: warm up, then the best
/// of 15 runs of four products.
fn best_time(spmv: impl Fn(&[f64], &mut [f64])) -> f64 {
    let x: Vec<f64> = (0..N).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut y = vec![0.0; N];
    spmv(&x, &mut y);
    let mut best = f64::INFINITY;
    for _ in 0..15 {
        let t = std::time::Instant::now();
        for _ in 0..4 {
            spmv(&x, std::hint::black_box(&mut y));
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Times two products on the grid-96 Jacobian and asserts `fast` wins —
/// only the direction, which is all a shared host keeps stable.  An
/// unoptimized build cannot see it: there
/// every intrinsic is an out-of-line call (an unaligned vector load alone
/// runs `ptr::read_unaligned`'s debug precondition checks), while the
/// scalar lanes inline to plain arithmetic, so the SIMD tiers time 1.4×
/// (AVX-512) to 1.8× (AVX2) the scalar one on the build host.  `cargo test`
/// therefore only bounds that overhead at 3×; CI runs this target with
/// `--release`.  Hosts below AVX2 skip.
fn assert_faster(what: &str, fast: impl Fn(&[f64], &mut [f64]), slow: impl Fn(&[f64], &mut [f64])) {
    if Isa::detect() < Isa::Avx2 {
        eprintln!("host has no AVX2/AVX-512; skipping measured check");
        return;
    }
    let (fast, slow) = (best_time(fast), best_time(slow));
    let slack = if cfg!(debug_assertions) { 3.0 } else { 1.0 };
    assert!(
        fast < slack * slow,
        "{what} ({fast:.2e}s) must beat {slack}× the baseline ({slow:.2e}s)"
    );
}

/// The scalar-tier CSR product: the paper's "baseline CSR".
fn csr_baseline(a: &Csr) -> impl Fn(&[f64], &mut [f64]) + '_ {
    |x, y| a.spmv_isa(Isa::Scalar, x, y)
}

/// Asserts that EXPERIMENTS.md's `## {heading}` section quotes each of the
/// paper's numbers in `quotes` and marks them "not reproduced on this host".
fn assert_recorded(heading: &str, quotes: &[&str]) {
    const DOC: &str = include_str!("../EXPERIMENTS.md");
    let start = DOC
        .find(&format!("\n## {heading}"))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no section {heading:?}"));
    let rest = &DOC[start + 4..];
    let section = &rest[..rest.find("\n## ").unwrap_or(rest.len())];
    for q in quotes.iter().chain(&["not reproduced on this host"]) {
        assert!(section.contains(q), "§ {heading} does not say {q:?}");
    }
}

/// Abstract §7.2: "The AVX-512 version ... is on average twofold faster
/// than the baseline CSR."  Here: SELL-8 at the widest tier beats it.
#[test]
fn claim_sell_avx512_twofold() {
    let a = jacobian();
    let sell = Sell8::from_csr(&a);
    let wide = |x: &[f64], y: &mut [f64]| sell.spmv_isa(Isa::detect(), x, y);
    assert_faster("SELL-8 at the widest tier", wide, csr_baseline(&a));
}

/// §7.2: "The AVX and AVX2 versions ... have a speedup of 1.8 and 1.7."
/// Here: SELL-8 at each of those tiers the host has beats the baseline.
#[test]
fn claim_sell_avx_and_avx2() {
    let a = jacobian();
    let sell = Sell8::from_csr(&a);
    for isa in [Isa::Avx, Isa::Avx2].into_iter().filter(|i| i.available()) {
        let tier = |x: &[f64], y: &mut [f64]| sell.spmv_isa(isa, x, y);
        assert_faster(&format!("SELL-8 at {isa}"), tier, csr_baseline(&a));
    }
}

/// §7.2 / §8: "the performance of CSR-based kernel increases by 54% after
/// being manually optimized by using AVX-512 intrinsics."  Here: CSR at the
/// widest tier beats the scalar one.
#[test]
fn claim_csr_avx512_plus_54_percent() {
    let a = jacobian();
    let wide = |x: &[f64], y: &mut [f64]| a.spmv_isa(Isa::detect(), x, y);
    assert_faster("CSR at the widest tier", wide, csr_baseline(&a));
}

/// §7.2: CSRPerm "does not yield any improvement", MKL "performs slightly
/// worse than the baseline", AVX2 CSR regresses against AVX — on KNL.
#[test]
fn claim_perm_mkl_and_avx2_regression() {
    let quotes = ["no improvement", "10–20 % below", "AVX2 regression"];
    assert_recorded("Figure 8", &quotes);
}

/// §2.6 / Figure 4: flat saturates ≈490 GB/s needing ≈58 procs; cache
/// needs ≈40.
#[test]
fn claim_stream_saturation() {
    assert_recorded("Figure 4", &["490 GB/s", "58 processes", "40 processes"]);
}

/// §6: traffic formulas on the Fig 8 shape, and the §7.2 arithmetic
/// intensity ≈ 0.132.
#[test]
fn claim_traffic_formulas() {
    let m = 2 * 2048 * 2048;
    let (n, nnz) = (m, 10 * m);
    let c = traffic::csr_traffic(m, n, nnz);
    let e = traffic::sell_traffic(m, n, nnz);
    assert_eq!(c.bytes, (12 * nnz + 24 * m + 8 * n) as u64);
    assert_eq!(e.bytes, (12 * nnz + 10 * m + 8 * n) as u64);
    assert!((c.arithmetic_intensity() - 0.132).abs() < 0.005);
}

/// Figure 9 places SELL-AVX512 above CSR on the roofline's intensity axis.
/// On the real Jacobian, SELL-8 moves fewer bytes a flop than CSR; both sit
/// near the paper's 0.132 (SELL-8 above the §6 formula's 0.145: its 2-byte
/// column offsets stream 11.85 B/nnz where the formula charges 13.8).
#[test]
fn claim_roofline_placement() {
    let a = jacobian();
    let csr = a.spmv_traffic().arithmetic_intensity();
    let sell = Sell8::from_csr(&a).spmv_traffic().arithmetic_intensity();
    assert!(sell > csr, "SELL-8 AI {sell} must exceed CSR's {csr}");
    assert!((0.12..=0.16).contains(&csr), "CSR AI {csr}");
    assert!((0.12..=0.18).contains(&sell), "SELL-8 AI {sell}");
}

/// §7.4: only marginal SELL gains on Xeons; Skylake ≈ 2× the older Xeons;
/// KNL ahead of all for vectorized SELL.
#[test]
fn claim_cross_architecture() {
    let quotes = ["marginal", "Skylake ≈ 2×", "KNL best overall"];
    assert_recorded("Figure 11", &quotes);
}

/// Figure 10 / §7.3: ≈2× MatMult speedup in flat and cache modes, "just
/// marginal improvement" with DRAM only.
#[test]
fn claim_multinode_mode_dependence() {
    let quotes = ["approximately twofold", "just marginal improvement"];
    assert_recorded("Figure 10", &quotes);
}

/// §7.1: "cache mode yields slightly lower performance than does flat
/// mode, which is consistent with the STREAM benchmark results".
#[test]
fn claim_cache_mode_slightly_below_flat() {
    let quotes = ["slightly lower performance than does flat mode"];
    assert_recorded("Figure 7", &quotes);
}

/// Measured on this host: the widest SELL kernel must beat the scalar SELL
/// kernel on a bandwidth-light (cache-resident) matrix — the direction of
/// every vectorization claim in the paper.
#[test]
fn measured_vectorization_direction() {
    let sell = Sell8::from_csr(&jacobian());
    assert_faster(
        &format!("vectorized SELL ({:?})", Isa::detect()),
        |x, y| sell.spmv_isa(Isa::detect(), x, y),
        |x, y| sell.spmv_isa(Isa::Scalar, x, y),
    );
}
