//! §5.3 ablation: SELL without a bit array vs the ESB-style variant with
//! one.  The paper measures the bit-array-free kernel ~10 % faster.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sellkit_core::{Apply, ExecCtx, Isa, MatShape, Operator, Sell8, SellEsb};
use sellkit_workloads::generators;

fn bench_bitarray(c: &mut Criterion) {
    for (name, a) in [
        ("stencil5_256", generators::stencil5(256)),
        (
            "power_law_20k",
            generators::power_law(20_000, 2, 64, 1.3, 11),
        ),
    ] {
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.01).cos()).collect();
        let mut y = vec![0.0; a.nrows()];

        let mut g = c.benchmark_group(format!("ablation_bitarray/{name}"));
        g.throughput(Throughput::Elements(a.nnz() as u64));
        g.sample_size(20);
        g.warm_up_time(Duration::from_millis(200));
        g.measurement_time(Duration::from_millis(1000));
        for isa in Isa::available_tiers() {
            let sell = Sell8::from_csr(&a).with_isa(isa);
            let esb = SellEsb::from_csr(&a).with_isa(isa);
            g.bench_function(format!("SELL (no bit array) {isa}"), |b| {
                b.iter(|| sell.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
            });
            g.bench_function(format!("SELL+bitarray (ESB-style) {isa}"), |b| {
                b.iter(|| esb.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set))
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_bitarray);
criterion_main!(benches);
