//! `spmv_dram` and `spmv_irregular`: one `Operator::apply` on a matrix too
//! large for the cache, where `core::kernels` does nearly all the work.
//!
//! The two differ in what limits the kernel.  The Gray-Scott Jacobian has
//! ten entries in every row and streams; the power-law matrix pads SELL-8
//! by three quarters and gathers from all over `x`.

use sellkit_core::{Codec, Csr, ExecCtx, Isa, MatShape, Operator, Sell, Sell8, SellSigma8};
use sellkit_workloads::generators;

use crate::harness::{
    apply, gray_scott, gs_jacobian, oracle, timed, timed_setup, tracing, Cx, Ledger, Outcome, Slot,
};
use crate::machine::stream_probe;
use crate::spans;
use crate::stats::{sample, sample_interleaved, Summary};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Dram,
    Irregular,
}

/// The workload's third format, which only the traced run times: packed
/// f32 values on the regular matrix, σ-sorted slices on the irregular one.
enum Alt {
    F32(Sell<8>),
    Sigma(SellSigma8),
}

impl Alt {
    fn op(&self) -> &dyn Operator {
        match self {
            Alt::F32(m) => m,
            Alt::Sigma(m) => m,
        }
    }

    /// The SELL storage the raw kernel runs on (for σ: the sorted rows,
    /// without the scatter back to the original order).
    fn raw(&self) -> &Sell<8> {
        match self {
            Alt::F32(m) => m,
            Alt::Sigma(m) => m.sell(),
        }
    }
}

struct Setup {
    csr: Csr,
    sell: Sell8,
    x: Vec<f64>,
    convert_sell_s: f64,
}

/// `y = Q(A)·x` row by row in scalar order, `Q` the codec's rounding of
/// each value: the oracle for a packed format, which decodes to exactly
/// these values.
fn oracle_quantized(a: &Csr, codec: Codec, x: &[f64]) -> Vec<f64> {
    (0..a.nrows())
        .map(|i| {
            let mut sum = 0.0;
            for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                sum += codec.quantize(v) * x[c as usize];
            }
            sum
        })
        .collect()
}

fn gflops(nnz: usize, seconds: &[f64]) -> f64 {
    2.0 * nnz as f64 / Summary::of(seconds).median / 1e9
}

pub fn run(cx: &Cx, kind: Kind) -> Outcome {
    let mut led = Ledger::default();
    let serial = ExecCtx::serial();
    let (s, setup_s) = timed_setup(|| {
        let csr = match kind {
            Kind::Dram => {
                let gs = gray_scott(cx.sizes().dram_grid);
                gs_jacobian(&gs, &gs.initial_condition(cx.seed), cx.pool)
            }
            Kind::Irregular => {
                generators::power_law(cx.sizes().irregular_rows, 2, 96, 1.3, cx.seed)
            }
        };
        let x = cx.vector(1, csr.ncols());
        let (sell, convert_sell_s) = timed(|| Sell8::from_csr(&csr));
        let mut y = vec![0.0; csr.nrows()];
        for m in [&sell as &dyn Operator, &csr] {
            apply(m, &serial, &x, &mut y);
        }
        Setup {
            csr,
            sell,
            x,
            convert_sell_s,
        }
    });
    let Setup { csr, sell, x, .. } = &s;
    let (m, nnz) = (csr.nrows(), csr.nnz());

    let (mut y_sell, mut y_csr) = (vec![0.0; m], vec![0.0; m]);
    let t = sample_interleaved(
        cx.e2e_budget(),
        10,
        &mut [&mut || apply(sell, &serial, x, &mut y_sell), &mut || {
            apply(csr, &serial, x, &mut y_csr)
        }],
    );
    let gflops = |seconds: f64| 2.0 * nnz as f64 / 1e9 / seconds;
    let slots = vec![
        Slot::of("spmv_gflops_sell8", "GFLOP/s", &t[0], gflops),
        Slot::of("spmv_gflops_csr", "GFLOP/s", &t[1], gflops),
    ];

    let want = oracle(csr, x);
    led.check("Sell8 apply", t[0].len() as u64, &y_sell, &want);
    led.check("Csr apply", t[1].len() as u64, &y_csr, &want);

    let mut recs = Vec::new();
    if cx.trace {
        let traffic = layers(cx, kind, &s, &want, &t[0], &mut led);
        recs = spans::take();
        if kind == Kind::Dram {
            // The probe's arrays are larger than the matrices: free those
            // first, and take the peak resident set before it runs.
            drop((s, want, y_sell, y_csr));
            led.peak_rss_mib = Some(crate::machine::peak_rss_mib());
            roofline(cx, &traffic, &mut led);
        }
    }
    led.finish(setup_s, slots, recs)
}

/// Number of timed measurements [`layers`] divides the traced budget into.
const LAYER_PARTS: usize = 16;

/// A kernel's name, the bytes `spmv_traffic()` computes for one call, and
/// the median seconds one call took.
type Traffic = (&'static str, u64, f64);

/// `machine.*` and the `roof_frac` of each kernel against it.  Bytes are
/// the §6 minimum computed from the matrix, not counted by hardware; the
/// roof is measured here, in the same run.
fn roofline(cx: &Cx, traffic: &[Traffic], led: &mut Ledger) {
    let st = stream_probe(
        cx.pool,
        cx.layer_budget(LAYER_PARTS) * 2,
        5,
        cx.quick.then_some(1 << 20),
    );
    let model = sellkit_machine::host_stream_bw_gbs(1);
    led.put("machine.llc_bytes", st.llc_bytes as f64);
    led.put("machine.stream_array_bytes", st.array_bytes as f64);
    led.put("machine.triad_gbs_t1", st.triad_t1);
    led.put("machine.copy_gbs_t1", st.copy_t1);
    led.put("machine.triad_gbs_pool", st.triad_pool);
    led.put("machine.copy_gbs_pool", st.copy_pool);
    led.put("machine.model_bw_gbs_t1", model);
    led.put("machine.model_over_measured", model / st.triad_t1);
    for &(name, bytes, seconds) in traffic {
        let frac = bytes as f64 / seconds / 1e9 / st.roof_t1();
        led.put(format!("core.kernels.{name}_roof_frac"), frac);
        // Faster than memory means the traffic model or the probe is
        // wrong, and the run is invalid rather than fast.  (The smoke
        // run's matrix sits in cache, where the rule does not apply.)
        led.count(1, frac <= 1.0 || cx.quick, || {
            format!("{name} runs at {frac:.3} of the measured roof")
        });
    }
}

fn layers(
    cx: &Cx,
    kind: Kind,
    s: &Setup,
    want: &[f64],
    apply_serial: &[f64],
    led: &mut Ledger,
) -> Vec<Traffic> {
    let Setup { csr, sell, x, .. } = s;
    let (m, n, nnz) = (csr.nrows(), csr.ncols(), csr.nnz());
    let slice = cx.layer_budget(LAYER_PARTS);
    let best = Isa::detect();
    let serial = ExecCtx::serial();
    let mut y = vec![0.0; m];

    // core.kernels: the raw kernels, no plan and no pool.
    let t = sample(slice, 5, || csr.spmv_isa(Isa::Scalar, x, &mut y));
    led.put("core.kernels.csr_scalar_gflops", gflops(nnz, &t));
    let t_csr = sample(slice, 5, || csr.spmv_isa(best, x, &mut y));
    led.check("Csr::spmv_isa", t_csr.len() as u64, &y, want);
    led.put("core.kernels.csr_gflops", gflops(nnz, &t_csr));
    let t_sell = sample(slice, 5, || sell.spmv_isa(best, x, &mut y));
    led.check("Sell8::spmv_isa", t_sell.len() as u64, &y, want);
    led.put("core.kernels.sell8_gflops", gflops(nnz, &t_sell));
    for (isa, name) in [
        (Isa::Avx, "avx"),
        (Isa::Avx2, "avx2"),
        (Isa::Avx512, "avx512"),
    ] {
        if isa.available() {
            let t = sample(slice, 5, || sell.spmv_isa(isa, x, &mut y));
            led.check(name, t.len() as u64, &y, want);
            led.put(format!("core.kernels.sell8_{name}_gflops"), gflops(nnz, &t));
        }
    }
    // The workload's third format, built here because only the layers
    // time it.
    let (alt, convert_alt_s) = timed(|| match kind {
        Kind::Dram => Alt::F32(Sell::<8>::from_csr_codec(csr, Codec::F32)),
        Kind::Irregular => Alt::Sigma(SellSigma8::from_csr_sigma(csr, 4096)),
    });
    let alt_name = match alt {
        Alt::F32(_) => "sell8_f32",
        Alt::Sigma(_) => "sell8_sigma",
    };
    apply(alt.op(), &serial, x, &mut y);
    match alt {
        Alt::F32(_) => led.check(alt_name, 1, &y, &oracle_quantized(csr, Codec::F32, x)),
        Alt::Sigma(_) => led.check(alt_name, 1, &y, want),
    }
    let t_alt = sample(slice, 5, || alt.raw().spmv_isa(best, x, &mut y));
    led.put(
        format!("core.kernels.{alt_name}_gflops"),
        gflops(nnz, &t_alt),
    );
    led.put("core.kernels.sell8_padding_ratio", sell.padding_ratio());

    let mut traffic: Vec<Traffic> = vec![
        ("csr", csr.spmv_traffic().bytes, Summary::of(&t_csr).median),
        (
            "sell8",
            sell.spmv_traffic().bytes,
            Summary::of(&t_sell).median,
        ),
    ];
    if let Alt::F32(packed) = &alt {
        let bytes = packed.spmv_traffic().bytes;
        traffic.push(("sell8_f32", bytes, Summary::of(&t_alt).median));
    }
    for (name, bytes, _) in &traffic {
        led.put(
            format!("core.kernels.{name}_bytes_per_nnz"),
            *bytes as f64 / nnz as f64,
        );
    }

    {
        let k = 8;
        let xk = cx.vector(2, n * k);
        let mut yk = vec![0.0; m * k];
        let t = sample(slice, 5, || sell.spmm_isa(best, &xk, &mut yk, k));
        led.put("core.kernels.spmm_k8_gflops", gflops(nnz * k, &t));
    }
    match kind {
        Kind::Dram => {
            let bf16 = Sell::<8>::from_csr_codec(csr, Codec::Bf16);
            let t = sample(slice, 5, || bf16.spmv_isa(best, x, &mut y));
            let want = oracle_quantized(csr, Codec::Bf16, x);
            led.check("bf16 spmv_isa", t.len() as u64, &y, &want);
            led.put("core.kernels.sell8_bf16_gflops", gflops(nnz, &t));
        }
        Kind::Irregular => {
            // Even row lengths, scattered columns: gather without padding.
            let r9 = generators::random_uniform(m, 9, cx.seed);
            let want = oracle(&r9, x);
            let t = sample(slice, 5, || r9.spmv_isa(best, x, &mut y));
            led.check("random9 csr", t.len() as u64, &y, &want);
            led.put("core.kernels.random9_csr_gflops", gflops(r9.nnz(), &t));
            let r9s = Sell8::from_csr(&r9);
            let t = sample(slice, 5, || r9s.spmv_isa(best, x, &mut y));
            led.check("random9 sell8", t.len() as u64, &y, &want);
            led.put("core.kernels.random9_sell8_gflops", gflops(r9.nnz(), &t));
        }
    }
    led.put("core.convert.sell8_s", s.convert_sell_s);
    led.put(format!("core.convert.{alt_name}_s"), convert_alt_s);

    // core.exec: what the pool buys on a matrix this size (nothing is
    // gated on it).
    if kind == Kind::Dram {
        let pool = ExecCtx::new(cx.pool);
        apply(sell, &pool, x, &mut y);
        let t = sample(slice, 5, || apply(sell, &pool, x, &mut y));
        led.check("Sell8 apply on the pool", t.len() as u64, &y, want);
        led.put(
            "core.exec.pool_speedup_dram",
            Summary::of(apply_serial).median / Summary::of(&t).median,
        );
    }

    // The same apply with the span recorder and the program's own registry
    // on, next to one with both off.
    let mut y_on = vec![0.0; m];
    let t = sample_interleaved(
        slice * 2,
        5,
        &mut [&mut || apply(sell, &serial, x, &mut y), &mut || {
            tracing(true);
            {
                let _s = spans::span("core.apply");
                apply(sell, &serial, x, &mut y_on);
            }
            tracing(false);
        }],
    );
    led.put_overhead(&t[0], &t[1]);
    led.put_plan_counters();
    traffic
}
