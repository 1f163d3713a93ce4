//! Kernel microbenchmarks:
//!
//! * slice-height sweep (C = 1/4/8/16) — §5.1's trade-off;
//! * CSR remainder-loop sensitivity: row lengths straddling the SIMD
//!   width (§2.3 drawback 1 / §3.3);
//! * BAIJ 2×2 block kernel vs scalar CSR on the natural-block matrix;
//! * `gather_hw_vs_loads`: SELL-8 reading `x` with scalar loads (what
//!   every tier of `sellkit-core` does) against the same loop through
//!   `vgatherdpd`, in and out of cache.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sellkit_core::{Apply, Baij, ExecCtx, Isa, MatShape, Operator, Sell};
use sellkit_solvers::ts::OdeProblem;
use sellkit_workloads::generators::banded;
use sellkit_workloads::{GrayScott, GrayScottParams};

fn bench_slice_heights(c: &mut Criterion) {
    let a = banded(100_000, 4, 3);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut y = vec![0.0; a.nrows()];
    let mut g = c.benchmark_group("kernels_micro/slice_height");
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.sample_size(15);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(800));
    let s1 = Sell::<1>::from_csr(&a);
    let s4 = Sell::<4>::from_csr(&a);
    let s8 = Sell::<8>::from_csr(&a);
    let s16 = Sell::<16>::from_csr(&a);
    g.bench_function("C=1 (scalar, = CSR storage)", |b| {
        b.iter(|| s1.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
    });
    g.bench_function("C=4 (scalar)", |b| {
        b.iter(|| s4.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
    });
    g.bench_function("C=8 (vectorized)", |b| {
        b.iter(|| s8.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
    });
    g.bench_function("C=16 (scalar)", |b| {
        b.iter(|| s16.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
    });
    g.finish();
}

fn bench_csr_remainder(c: &mut Criterion) {
    // Row lengths chosen around the 8-wide SIMD boundary: 8 (no
    // remainder), 9 (worst remainder), 7 (remainder-only rows).
    let mut g = c.benchmark_group("kernels_micro/csr_remainder");
    g.sample_size(15);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(800));
    for band in [3usize, 4, 7] {
        let rowlen = 2 * band + 1;
        let a = banded(50_000, band, 5);
        let x: Vec<f64> = (0..a.ncols()).map(|i| i as f64 * 1e-4).collect();
        let mut y = vec![0.0; a.nrows()];
        g.throughput(Throughput::Elements(a.nnz() as u64));
        for isa in Isa::available_tiers() {
            if isa == Isa::Scalar {
                continue;
            }
            let m = a.clone().with_isa(isa);
            g.bench_with_input(
                BenchmarkId::new(format!("rowlen{rowlen}"), isa),
                &band,
                |b, _| {
                    b.iter(|| m.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
                },
            );
        }
    }
    g.finish();
}

fn bench_baij(c: &mut Criterion) {
    let gs = GrayScott::new(128, GrayScottParams::default());
    let w = gs.initial_condition(1);
    let a = gs.rhs_jacobian(0.0, &w);
    let baij = Baij::from_csr(&a, 2);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.01).cos()).collect();
    let mut y = vec![0.0; a.nrows()];
    let mut g = c.benchmark_group("kernels_micro/baij_vs_csr");
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.sample_size(15);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(800));
    g.bench_function("CSR", |b| {
        b.iter(|| a.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
    });
    g.bench_function("BAIJ bs=2", |b| {
        b.iter(|| baij.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
    });
    g.finish();
}

fn bench_gather(c: &mut Criterion) {
    // Gray-Scott Jacobians at grid 64 (82 k nonzeros, 1 MB: cache
    // resident) and grid 1024 (21 M nonzeros, 250 MB: several times the
    // last-level cache).  The ratio is a property of the host's microcode:
    // EXPERIMENTS.md §5.5 records it for the hosts it was run on.
    let mut g = c.benchmark_group("kernels_micro/gather_hw_vs_loads");
    g.sample_size(15);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(1500));
    for (place, grid) in [("in_cache", 64usize), ("dram", 1024)] {
        let gs = GrayScott::new(grid, GrayScottParams::default());
        let a = gs.rhs_jacobian(0.0, &gs.initial_condition(1));
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.003).sin()).collect();
        let mut y = vec![0.0; a.nrows()];
        g.throughput(Throughput::Elements(a.nnz() as u64));
        for v in sellkit_bench::measure::build_gather_variants(&a) {
            g.bench_function(format!("{}/{place}", v.label), |b| {
                b.iter(|| (v.run)(&x, &mut y))
            });
        }
    }
    g.finish();
}

fn bench_tuned_kernel(c: &mut Criterion) {
    // §5.5: "we have manually unrolled the outer loop and performed a
    // prefetch operation ... these classic optimization techniques do not
    // affect the performance significantly."  Re-measure that claim: both
    // loops prefetch the same measured distance ahead (`PREFETCH_COLS` in
    // `kernels::sell`), so the pair isolates the two-slice unroll.
    let gs = GrayScott::new(192, GrayScottParams::default());
    let w = gs.initial_condition(1);
    let a = gs.rhs_jacobian(0.0, &w);
    let sell = sellkit_core::Sell8::from_csr(&a);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.003).sin()).collect();
    let mut y = vec![0.0; a.nrows()];
    let mut g = c.benchmark_group("kernels_micro/tuned_vs_plain");
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.sample_size(15);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(800));
    g.bench_function("plain", |b| {
        b.iter(|| sell.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
    });
    g.bench_function("two-slice unroll", |b| {
        b.iter(|| sell.spmv_tuned(&x, &mut y))
    });
    g.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    // Shared-memory scaling of the worker-pool engine on the 256²
    // Gray-Scott Jacobian (the §7 problem at the paper's smallest grid):
    // SELL-8 SpMV at 1/2/4/8 threads, bitwise-identical output at every
    // width.  Speedup requires ≥ the corresponding number of physical
    // cores; on fewer cores the extra widths measure dispatch overhead.
    let gs = GrayScott::new(256, GrayScottParams::default());
    let w = gs.initial_condition(1);
    let a = gs.rhs_jacobian(0.0, &w);
    let sell = sellkit_core::Sell8::from_csr(&a);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.002).sin()).collect();
    let mut y = vec![0.0; a.nrows()];
    let mut g = c.benchmark_group("kernels_micro/thread_scaling_sell8");
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.sample_size(15);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(800));
    for threads in [1usize, 2, 4, 8] {
        let ctx = ExecCtx::new(threads);
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| sell.apply(&ctx, (&x).into(), (&mut y).into(), Apply::Set))
        });
    }
    g.finish();
}

fn bench_spmm(c: &mut Criterion) {
    // Blocked right-hand sides: SELL's spmm streams the matrix once for k
    // vectors, multiplying effective arithmetic intensity by ~k (§6).
    let a = banded(60_000, 4, 9);
    let sell = sellkit_core::Sell8::from_csr(&a);
    let k = 4;
    let x: Vec<f64> = (0..k * a.ncols())
        .map(|i| (i as f64 * 0.001).sin())
        .collect();
    let mut y = vec![0.0; k * a.nrows()];
    let mut g = c.benchmark_group("kernels_micro/spmm_k4");
    g.throughput(Throughput::Elements((k * a.nnz()) as u64));
    g.sample_size(15);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(800));
    g.bench_function("blocked spmm (matrix once)", |b| {
        b.iter(|| sell.spmm(&x, k, &mut y))
    });
    g.bench_function("k separate spmv (matrix k times)", |b| {
        b.iter(|| {
            for v in 0..k {
                let xv = &x[v * a.ncols()..(v + 1) * a.ncols()];
                let yv = &mut y[v * a.nrows()..(v + 1) * a.nrows()];
                sell.apply(&ExecCtx::serial(), (xv).into(), (yv).into(), Apply::Set);
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_slice_heights,
    bench_csr_remainder,
    bench_baij,
    bench_gather,
    bench_tuned_kernel,
    bench_thread_scaling,
    bench_spmm
);
criterion_main!(benches);
