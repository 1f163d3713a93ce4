//! What every workload shares: its run parameters, the shape of its result,
//! input generation and the oracle comparison.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sellkit_core::{Csr, Isa};
use sellkit_solvers::ts::OdeProblem;
use sellkit_workloads::{GrayScott, GrayScottParams};

use crate::spans::Rec;
use crate::stats::Summary;

/// Problem sizes.  Fixed constants, not knobs: `FULL` is the benchmark,
/// `QUICK` a smoke run whose numbers compare with nothing.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub dram_grid: usize,
    pub irregular_rows: usize,
    pub krylov_grid: usize,
    pub solve_grid: usize,
    /// Number of `Operator::apply` calls timed as one sample on
    /// `apply_small`, where a single call is too short to time.
    pub small_batch: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dram_grid: 1536,
        irregular_rows: 2_000_000,
        krylov_grid: 512,
        solve_grid: 256,
        small_batch: 100,
    };
    pub const QUICK: Sizes = Sizes {
        dram_grid: 96,
        irregular_rows: 20_000,
        krylov_grid: 64,
        solve_grid: 32,
        small_batch: 10,
    };
}

/// Grids of the `apply_small` level sweep and of the serve tenant; all
/// cache-resident on purpose.
pub const SMALL_GRIDS: [usize; 3] = [64, 32, 16];

/// Parameters of one run.
#[derive(Clone, Copy, Debug)]
pub struct Cx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The smoke run: `Sizes::QUICK`, output stamped not comparable.
    pub quick: bool,
    /// Threads of the pool context (`T_pool`).
    pub pool: usize,
}

impl Cx {
    pub fn sizes(&self) -> Sizes {
        if self.quick {
            Sizes::QUICK
        } else {
            Sizes::FULL
        }
    }

    /// Time for the end-to-end measurements: the whole run when untraced,
    /// a third of it when traced (the rest goes to the layers).
    pub fn e2e_budget(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 3.0
        } else {
            self.seconds
        })
    }

    /// Time for one of `parts` per-layer measurements of a traced run.
    pub fn layer_budget(&self, parts: usize) -> Duration {
        Duration::from_secs_f64(self.seconds * 2.0 / 3.0 / parts as f64)
    }

    /// A generator for one named input, so that inputs do not depend on the
    /// order they are drawn in.
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// A vector of `n` values uniform in [-1, 1).
    pub fn vector(&self, stream: u64, n: usize) -> Vec<f64> {
        let mut rng = self.rng(stream);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }
}

/// Runs a set-up closure three times, each value dropped before the next
/// is built, and returns the last with the median of the three times: one
/// set-up of the 47 M-nonzero matrix takes 4 to 8 s on the same host.
pub fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    loop {
        let (value, s) = timed(&mut f);
        times.push(s);
        if times.len() == 3 {
            return (value, Summary::of(&times).median);
        }
    }
}

/// One end-to-end timing of a workload: the time of its operation in
/// milliseconds as the contract metric reports it (the low decile of the
/// samples, unless built by hand), the same under the name and in the unit
/// the issue uses, and the samples' summary for the record.
#[derive(Clone, Debug)]
pub struct Slot {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub ms: f64,
    pub samples: Summary,
}

impl Slot {
    /// A slot over timing samples in seconds; `to_value` turns the reported
    /// seconds into the issue's unit (a time scaled, or work divided by it).
    pub fn of(
        name: &'static str,
        unit: &'static str,
        seconds: &[f64],
        to_value: impl Fn(f64) -> f64,
    ) -> Slot {
        let samples = scaled(seconds, 1e3);
        Slot {
            name,
            unit,
            value: to_value(samples.low / 1e3),
            ms: samples.low,
            samples,
        }
    }
}

/// Summary of `samples` multiplied by `factor`.
pub fn scaled(samples: &[f64], factor: f64) -> Summary {
    let v: Vec<f64> = samples.iter().map(|s| s * factor).collect();
    Summary::of(&v)
}

/// What one workload run produced.
pub struct Outcome {
    pub setup_s: f64,
    /// `op_ms`, then `ref_ms`; a workload outside the contract may time
    /// more, which are printed under their own names only.
    pub slots: Vec<Slot>,
    pub attempted: u64,
    pub failed: u64,
    /// What failed verification, for the reader.
    pub notes: Vec<String>,
    /// Per-layer metrics of a traced run.
    pub layer: Vec<(String, f64)>,
    pub spans: Vec<Rec>,
    /// `VmHWM` when the workload was done.
    pub peak_rss_mib: f64,
}

/// Collects per-layer metrics and verification failures during a run.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub layer: Vec<(String, f64)>,
    /// Peak resident set, if it was read before the end of the run (before
    /// the bandwidth probe allocates arrays larger than any workload).
    pub peak_rss_mib: Option<f64>,
}

impl Ledger {
    /// Closes the run: the ledger's counts with the timings and spans.
    pub fn finish(self, setup_s: f64, slots: Vec<Slot>, spans: Vec<Rec>) -> Outcome {
        Outcome {
            setup_s,
            slots,
            attempted: self.attempted,
            failed: self.failed,
            notes: self.notes,
            layer: self.layer,
            spans,
            peak_rss_mib: self
                .peak_rss_mib
                .unwrap_or_else(crate::machine::peak_rss_mib),
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.layer.push((name.into(), value));
    }

    /// `obs.overhead_frac` from timings of one operation with tracing off
    /// and on: (traced - untraced) / untraced.
    pub fn put_overhead(&mut self, off: &[f64], on: &[f64]) {
        let (off, on) = (Summary::of(off).median, Summary::of(on).median);
        self.put("obs.overhead_frac", (on - off) / off);
    }

    /// Plan-cache hits and misses the program's registry counted while
    /// tracing was on.
    pub fn put_plan_counters(&mut self) {
        let counters = sellkit_obs::snapshot().counters;
        for (name, key) in [
            ("core.plan.cache_hit", "plan.cache.hit"),
            ("core.plan.cache_miss", "plan.cache.miss"),
        ] {
            self.put(name, counters.get(key).copied().unwrap_or(0.0));
        }
    }

    /// Counts `ops` operations of which `failed` failed.
    pub fn tally(&mut self, ops: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(what());
        }
    }

    /// Counts `ops` operations, all failed unless `ok`.
    pub fn count(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.tally(ops, if ok { 0 } else { ops }, what);
    }

    /// Counts `ops` operations whose last output is `got`, checked against
    /// the oracle's `want` under the differential fuzzer's policy: same
    /// NaN/Inf class, then at most 4096 ULP apart.
    pub fn check(&mut self, what: &str, ops: u64, got: &[f64], want: &[f64]) {
        let verdict = sellkit_fuzz::diff::compare(got, want, &sellkit_fuzz::Config::default());
        self.count(ops, verdict.is_none(), || {
            format!("{what}: {}", verdict.unwrap_or_default())
        });
    }
}

/// Runs `f` once and returns its value with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// `y = A·x` through `Operator::apply`, the call every rung is built on.
pub fn apply(
    m: &dyn sellkit_core::Operator,
    ctx: &sellkit_core::ExecCtx,
    x: &[f64],
    y: &mut [f64],
) {
    m.apply(ctx, x.into(), y.into(), sellkit_core::Apply::Set);
}

/// Seconds the program's registry has recorded under each of `events`.
pub fn obs_seconds<const N: usize>(events: [&str; N]) -> [f64; N] {
    let report = sellkit_obs::snapshot();
    events.map(|e| report.event(e).map_or(0.0, |e| e.seconds))
}

/// Turns the benchmark's span recorder and the program's own `sellkit-obs`
/// registry on or off together: a traced measurement pays for both.
pub fn tracing(on: bool) {
    crate::spans::enable(on);
    sellkit_obs::set_enabled(on);
}

/// `y = A·x` by the scalar CSR kernel: the oracle every output is held to.
pub fn oracle(a: &Csr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; sellkit_core::MatShape::nrows(a)];
    a.spmv_isa(Isa::Scalar, x, &mut y);
    y
}

/// The Gray-Scott system on an `n × n` grid with the paper's parameters.
pub fn gray_scott(n: usize) -> GrayScott {
    GrayScott::new(n, GrayScottParams::default())
}

/// The Gray-Scott Jacobian at state `w`, assembled the way an MPI rank
/// would: row blocks through `rhs_jacobian_rows`, a contiguous range of
/// blocks per thread, concatenated.  Equal to `rhs_jacobian` entry for
/// entry, at a third of its cost at 47 M nonzeros because no sort spans
/// the whole matrix.
pub fn gs_jacobian(gs: &GrayScott, w: &[f64], threads: usize) -> Csr {
    const BLOCK: usize = 1 << 14;
    let n = gs.dim();
    let nblocks = n.div_ceil(BLOCK);
    let per_thread = nblocks.div_ceil(threads.max(1));
    // Row lengths, columns and values of one thread's rows.
    type Part = (Vec<usize>, Vec<u32>, Vec<f64>);
    let parts: Vec<Part> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nblocks)
            .step_by(per_thread)
            .map(|b0| {
                s.spawn(move || {
                    let mut part: Part = Default::default();
                    for b in b0..(b0 + per_thread).min(nblocks) {
                        let rows = b * BLOCK..((b + 1) * BLOCK).min(n);
                        let block = gs.rhs_jacobian_rows(0.0, w, rows);
                        part.0
                            .extend(block.rowptr().windows(2).map(|p| p[1] - p[0]));
                        part.1.extend_from_slice(block.colidx());
                        part.2.extend_from_slice(block.values());
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("assembly thread panicked"))
            .collect()
    });
    let mut rowptr = Vec::with_capacity(n + 1);
    rowptr.push(0usize);
    let mut colidx = Vec::with_capacity(10 * n);
    let mut vals = Vec::with_capacity(10 * n);
    for (lens, cols, values) in parts {
        for len in lens {
            rowptr.push(rowptr[rowptr.len() - 1] + len);
        }
        colidx.extend_from_slice(&cols);
        vals.extend_from_slice(&values);
    }
    Csr::from_parts(n, n, rowptr, colidx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_assembly_equals_rhs_jacobian() {
        let gs = gray_scott(96);
        let w = gs.initial_condition(3);
        let want = gs.rhs_jacobian(0.0, &w);
        for threads in [1, 2, 3] {
            let got = gs_jacobian(&gs, &w, threads);
            assert_eq!(got.rowptr(), want.rowptr());
            assert_eq!(got.colidx(), want.colidx());
            assert_eq!(got.values(), want.values());
        }
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_between_streams() {
        let cx = |seed| Cx {
            seed,
            seconds: 1.0,
            trace: false,
            quick: true,
            pool: 2,
        };
        assert_eq!(cx(5).vector(1, 8), cx(5).vector(1, 8));
        assert_ne!(cx(5).vector(1, 8), cx(5).vector(2, 8));
        assert_ne!(cx(5).vector(1, 8), cx(6).vector(1, 8));
    }

    #[test]
    fn setup_reports_the_median_of_three() {
        let mut calls = 0;
        let (value, s) = timed_setup(|| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(if calls == 2 { 60 } else { 5 }));
            calls
        });
        assert_eq!(value, 3);
        assert!((0.005..0.05).contains(&s), "median {s}");
    }

    #[test]
    fn ledger_counts_a_wrong_output_as_failed() {
        let mut l = Ledger::default();
        l.check("good", 10, &[1.0, 2.0], &[1.0, 2.0]);
        l.check("bad", 5, &[1.0, 2.5], &[1.0, 2.0]);
        l.check("nan", 1, &[f64::NAN], &[0.0]);
        assert_eq!((l.attempted, l.failed, l.notes.len()), (16, 6, 2));
    }
}
