//! Regression tests pinning the paper's quantitative claims: the machine
//! model must keep reproducing every headline number, and the measured
//! kernels must satisfy the claims that are checkable on this host.

use sellkit::core::{traffic, Isa, MatShape, Sell8};
use sellkit::machine::specs::{broadwell_e5_2699v4, haswell_e5_2699v3, knl_7230, skylake_8180m};
use sellkit::machine::stream_model::knl_stream_curve;
use sellkit::machine::{predict_gflops, KernelKind, MatrixShape, MemoryMode, Roofline};
use sellkit::workloads::{GrayScott, GrayScottParams};
use sellkit_solvers::ts::OdeProblem;

const FIG8_SHAPE: fn() -> MatrixShape = || MatrixShape::gray_scott(2048);

fn knl64(k: KernelKind) -> f64 {
    predict_gflops(&knl_7230(), MemoryMode::FlatMcdram, k, 64, FIG8_SHAPE())
}

/// Abstract §7.2: "The AVX-512 version ... is on average twofold faster
/// than the baseline CSR."
#[test]
fn claim_sell_avx512_twofold() {
    let r = knl64(KernelKind::SellAvx512) / knl64(KernelKind::CsrBaseline);
    assert!((1.85..=2.25).contains(&r), "SELL-AVX512/baseline = {r}");
}

/// §7.2: "The AVX and AVX2 versions ... have a speedup of 1.8 and 1.7."
#[test]
fn claim_sell_avx_and_avx2() {
    let base = knl64(KernelKind::CsrBaseline);
    let r_avx = knl64(KernelKind::SellAvx) / base;
    let r_avx2 = knl64(KernelKind::SellAvx2) / base;
    assert!((1.65..=1.95).contains(&r_avx), "SELL-AVX = {r_avx}");
    assert!((1.55..=1.85).contains(&r_avx2), "SELL-AVX2 = {r_avx2}");
}

/// §7.2 / §8: "the performance of CSR-based kernel increases by 54% after
/// being manually optimized by using AVX-512 intrinsics."
#[test]
fn claim_csr_avx512_plus_54_percent() {
    let r = knl64(KernelKind::CsrAvx512) / knl64(KernelKind::CsrBaseline);
    assert!((1.45..=1.65).contains(&r), "CSR-AVX512/baseline = {r}");
}

/// §7.2: "CSR with permutation (AIJPERM) does not yield any improvement";
/// "Intel MKL library performs slightly worse than the baseline";
/// "using AVX2 instructions for CSR leads to a regression ... compared
/// with the AVX version."
#[test]
fn claim_perm_mkl_and_avx2_regression() {
    let base = knl64(KernelKind::CsrBaseline);
    let perm = knl64(KernelKind::CsrPerm) / base;
    assert!((0.97..=1.03).contains(&perm), "CSRPerm = {perm}");
    let mkl = knl64(KernelKind::MklCsr) / base;
    assert!((0.80..=0.90).contains(&mkl), "MKL = {mkl} (10-20% below)");
    assert!(
        knl64(KernelKind::CsrAvx2) < knl64(KernelKind::CsrAvx),
        "AVX2 regression"
    );
}

/// §2.6 / Figure 4: flat saturates ≈490 GB/s needing ≈58 procs; cache
/// needs ≈40; vectorization matters dramatically in flat mode only.
#[test]
fn claim_stream_saturation() {
    let flat = knl_stream_curve(MemoryMode::FlatMcdram, true);
    assert!((470.0..=500.0).contains(&flat.bmax_gbs));
    assert!((54..=62).contains(&flat.saturation_procs()));
    let cache = knl_stream_curve(MemoryMode::Cache, true);
    assert!((36..=44).contains(&cache.saturation_procs()));
}

/// §6: traffic formulas, and the §7.2 arithmetic intensity ≈ 0.132.
#[test]
fn claim_traffic_formulas() {
    let s = FIG8_SHAPE();
    let c = traffic::csr_traffic(s.m, s.n, s.nnz);
    let e = traffic::sell_traffic(s.m, s.n, s.nnz);
    assert_eq!(c.bytes, (12 * s.nnz + 24 * s.m + 8 * s.n) as u64);
    assert_eq!(e.bytes, (12 * s.nnz + 10 * s.m + 8 * s.n) as u64);
    assert!((c.arithmetic_intensity() - 0.132).abs() < 0.005);
}

/// Figure 9: SELL-AVX512 near the MCDRAM roofline, baseline far below.
#[test]
fn claim_roofline_placement() {
    let r = Roofline::theta_knl();
    let pts = r.place_kernels(&knl_7230());
    let get = |k: KernelKind| pts.iter().find(|p| p.kernel == k).expect("kernel placed");
    assert!(get(KernelKind::SellAvx512).roof_fraction > 0.8);
    assert!(get(KernelKind::CsrBaseline).roof_fraction < 0.55);
}

/// §7.4: only marginal SELL gains on Xeons; Skylake ≈ 2× the older Xeons;
/// KNL ahead of all for vectorized SELL.
#[test]
fn claim_cross_architecture() {
    let shape = FIG8_SHAPE();
    for spec in [haswell_e5_2699v3(), broadwell_e5_2699v4(), skylake_8180m()] {
        let sell = predict_gflops(
            &spec,
            MemoryMode::FlatDdr,
            KernelKind::SellAvx512,
            spec.cores,
            shape,
        );
        let base = predict_gflops(
            &spec,
            MemoryMode::FlatDdr,
            KernelKind::CsrBaseline,
            spec.cores,
            shape,
        );
        assert!(sell / base < 1.25, "{}: {}", spec.name, sell / base);
    }
    let skl = predict_gflops(
        &skylake_8180m(),
        MemoryMode::FlatDdr,
        KernelKind::CsrAvx2,
        28,
        shape,
    );
    let bdw = predict_gflops(
        &broadwell_e5_2699v4(),
        MemoryMode::FlatDdr,
        KernelKind::CsrAvx2,
        22,
        shape,
    );
    assert!(skl / bdw > 1.4, "Skylake/Broadwell = {}", skl / bdw);
    let knl = knl64(KernelKind::SellAvx512);
    assert!(knl > 45.0, "KNL SELL-AVX512 ≈ 50 Gflop/s, got {knl}");
}

/// Figure 10: ≈2× MatMult speedup in flat and cache modes, marginal with
/// DRAM only ("just marginal improvement in the SpMV performance using
/// sliced ELLPACK instead of CSR", §7.3).
#[test]
fn claim_multinode_mode_dependence() {
    let shape = FIG8_SHAPE();
    let knl = knl_7230();
    let speedup = |mode| {
        predict_gflops(&knl, mode, KernelKind::SellAvx512, 64, shape)
            / predict_gflops(&knl, mode, KernelKind::CsrBaseline, 64, shape)
    };
    assert!(speedup(MemoryMode::FlatMcdram) > 1.8);
    assert!(speedup(MemoryMode::Cache) > 1.6);
    assert!(
        speedup(MemoryMode::FlatDdr) < 1.25,
        "DRAM-only gain must be marginal"
    );
}

/// §7.1: "cache mode yields slightly lower performance than does flat
/// mode, which is consistent with the STREAM benchmark results".
#[test]
fn claim_cache_mode_slightly_below_flat() {
    let shape = FIG8_SHAPE();
    let knl = knl_7230();
    let sell_flat = predict_gflops(
        &knl,
        MemoryMode::FlatMcdram,
        KernelKind::SellAvx512,
        64,
        shape,
    );
    let sell_cache = predict_gflops(&knl, MemoryMode::Cache, KernelKind::SellAvx512, 64, shape);
    assert!(
        sell_cache < sell_flat,
        "cache below flat for the bandwidth-hungry kernel"
    );
    assert!(
        sell_cache > 0.8 * sell_flat,
        "but only slightly: {sell_cache} vs {sell_flat}"
    );
    let base_flat = predict_gflops(
        &knl,
        MemoryMode::FlatMcdram,
        KernelKind::CsrBaseline,
        64,
        shape,
    );
    let base_cache = predict_gflops(&knl, MemoryMode::Cache, KernelKind::CsrBaseline, 64, shape);
    assert!(base_cache <= base_flat * 1.001);
}

/// Measured on this host: the widest SELL kernel must beat the scalar SELL
/// kernel on a bandwidth-light (cache-resident) matrix — the direction of
/// every vectorization claim in the paper.  (Absolute ratios depend on
/// this host's memory system, so only the direction is asserted.)
///
/// An unoptimized build cannot see that direction: there every intrinsic
/// is an out-of-line call (an unaligned vector load alone runs
/// `ptr::read_unaligned`'s debug precondition checks), while the scalar
/// lanes inline to plain arithmetic, so the SIMD tiers time 1.4× (AVX-512)
/// to 1.8× (AVX2) the scalar one on the build host.  `cargo test` therefore
/// only bounds that overhead; the direction itself is asserted in
/// optimized builds (CI runs this target with `--release`).
#[test]
fn measured_vectorization_direction() {
    if Isa::detect() < Isa::Avx2 {
        eprintln!("host has no AVX2/AVX-512; skipping measured check");
        return;
    }
    let gs = GrayScott::new(96, GrayScottParams::default());
    let w = gs.initial_condition(1);
    let a = gs.rhs_jacobian(0.0, &w);
    let sell = Sell8::from_csr(&a);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut y = vec![0.0; a.nrows()];

    let mut time = |isa: Isa| {
        // Warm up, then best of 15.
        sell.spmv_isa(isa, &x, &mut y);
        let mut best = f64::INFINITY;
        for _ in 0..15 {
            let t = std::time::Instant::now();
            for _ in 0..4 {
                sell.spmv_isa(isa, &x, std::hint::black_box(&mut y));
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let scalar = time(Isa::Scalar);
    let wide = time(Isa::detect());
    let slack = if cfg!(debug_assertions) { 3.0 } else { 1.0 };
    assert!(
        wide < slack * scalar,
        "vectorized SELL ({:?}: {wide:.2e}s) must beat {slack}× scalar ({scalar:.2e}s)",
        Isa::detect()
    );
}
