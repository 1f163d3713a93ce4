//! §5.4 ablation: no sorting (the paper's choice) vs SELL-C-σ sorting.
//! On regular matrices sorting buys nothing; on irregular ones it cuts
//! padding at the cost of input-vector locality.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sellkit_core::{Apply, ExecCtx, MatShape, Operator, Sell8, SellSigma8};
use sellkit_workloads::generators;

fn bench_sigma(c: &mut Criterion) {
    for (name, a) in [
        ("stencil5_256", generators::stencil5(256)),
        (
            "power_law_20k",
            generators::power_law(20_000, 2, 64, 1.3, 11),
        ),
    ] {
        let plain = Sell8::from_csr(&a);
        let sigma32 = SellSigma8::from_csr_sigma(&a, 32);
        let sigma_global = SellSigma8::from_csr_sigma(&a, a.nrows());
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.02).sin()).collect();
        let mut y = vec![0.0; a.nrows()];

        let mut g = c.benchmark_group(format!("ablation_sigma/{name}"));
        g.throughput(Throughput::Elements(a.nnz() as u64));
        g.sample_size(20);
        g.warm_up_time(Duration::from_millis(200));
        g.measurement_time(Duration::from_millis(1000));
        g.bench_function(
            format!("no sorting (padding {:.1}%)", plain.padding_ratio() * 100.0),
            |b| {
                b.iter(|| plain.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
            },
        );
        g.bench_function(
            format!("sigma=32 (padding {:.1}%)", sigma32.padding_ratio() * 100.0),
            |b| {
                b.iter(|| {
                    sigma32.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set)
                })
            },
        );
        g.bench_function(
            format!(
                "sigma=global (padding {:.1}%)",
                sigma_global.padding_ratio() * 100.0
            ),
            |b| {
                b.iter(|| {
                    sigma_global.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set)
                })
            },
        );
        g.finish();
    }
}

criterion_group!(benches, bench_sigma);
criterion_main!(benches);
