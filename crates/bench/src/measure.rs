//! Real (wall-clock) SpMV measurement on the host CPU.
//!
//! Builds every kernel variant the host supports from one CSR matrix and
//! times them identically, so measured *ratios* are directly comparable
//! with the paper's Figure 8 legend.

use std::time::Instant;

use sellkit_core::{Apply, Csr, ExecCtx, Isa, MatShape, Operator, Sell8};

/// A named, runnable SpMV closure.
pub struct Variant {
    /// Label matching the paper's legends.
    pub label: String,
    /// The kernel, capturing its matrix.
    pub run: Box<dyn Fn(&[f64], &mut [f64])>,
}

/// An "MKL-like" third-party CSR kernel: inspector-free, one indirect call
/// per row — the generic vendor-library stand-in (DESIGN.md §3).
pub struct MklLikeCsr {
    a: Csr,
    row_kernel: fn(&[u32], &[f64], &[f64]) -> f64,
}

impl MklLikeCsr {
    /// Wraps a CSR matrix.
    pub fn new(a: &Csr) -> Self {
        fn dot_row(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
            let mut s = 0.0;
            for (k, &c) in cols.iter().enumerate() {
                s += vals[k] * x[c as usize];
            }
            s
        }
        Self {
            a: a.clone(),
            row_kernel: dot_row,
        }
    }

    /// `y = A·x` through the per-row function pointer (defeats inlining,
    /// the way an opaque library boundary does).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        let f = std::hint::black_box(self.row_kernel);
        for i in 0..self.a.nrows() {
            y[i] = f(self.a.row_cols(i), self.a.row_vals(i), x);
        }
    }
}

/// Figure 8's "CSRPerm" series (PETSc `AIJPERM`, §2.4): CSR storage plus
/// a permutation grouping rows of equal length, so a group is swept
/// across the row index with non-unit-stride access to `val`/`colidx`.
/// A measurement stand-in, not a format.
struct AijPerm {
    a: Csr,
    /// Row indices sorted by row length.
    perm: Vec<u32>,
    /// `(end in perm, common row length)` of each group.
    groups: Vec<(usize, usize)>,
}

impl AijPerm {
    fn new(a: &Csr) -> Self {
        let mut perm: Vec<u32> = (0..a.nrows() as u32).collect();
        perm.sort_by_key(|&i| a.row_len(i as usize));
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for (at, &r) in perm.iter().enumerate() {
            let len = a.row_len(r as usize);
            match groups.last_mut() {
                Some(g) if g.1 == len => g.0 = at + 1,
                _ => groups.push((at + 1, len)),
            }
        }
        Self {
            a: a.clone(),
            perm,
            groups,
        }
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        let (rowptr, colidx, val) = (self.a.rowptr(), self.a.colidx(), self.a.values());
        let mut start = 0;
        for &(end, len) in &self.groups {
            let rows = &self.perm[start..end];
            for &r in rows {
                y[r as usize] = 0.0;
            }
            for j in 0..len {
                for &r in rows {
                    let k = rowptr[r as usize] + j;
                    y[r as usize] += val[k] * x[colidx[k] as usize];
                }
            }
            start = end;
        }
    }
}

/// Builds all kernel variants the host CPU can run, in Figure 8 order.
pub fn build_variants(a: &Csr) -> Vec<Variant> {
    let mut out: Vec<Variant> = Vec::new();
    let tiers = Isa::available_tiers();

    for &isa in tiers.iter().rev() {
        if isa == Isa::Scalar {
            continue;
        }
        let sell = Sell8::from_csr(a).with_isa(isa);
        out.push(Variant {
            label: format!("SELL using {isa}"),
            run: Box::new(move |x, y| {
                sell.apply(&ExecCtx::serial(), (x).into(), (y).into(), Apply::Set)
            }),
        });
    }
    for &isa in tiers.iter().rev() {
        if isa == Isa::Scalar {
            continue;
        }
        let csr = a.clone().with_isa(isa);
        out.push(Variant {
            label: format!("CSR using {isa}"),
            run: Box::new(move |x, y| {
                csr.apply(&ExecCtx::serial(), (x).into(), (y).into(), Apply::Set)
            }),
        });
    }
    let perm = AijPerm::new(a);
    out.push(Variant {
        label: "CSRPerm".into(),
        run: Box::new(move |x, y| perm.spmv(x, y)),
    });
    let base = a.clone().with_isa(Isa::Scalar);
    out.push(Variant {
        label: "CSR baseline".into(),
        run: Box::new(move |x, y| {
            base.apply(&ExecCtx::serial(), (x).into(), (y).into(), Apply::Set)
        }),
    });
    let mkl = MklLikeCsr::new(a);
    out.push(Variant {
        label: "MKL-like".into(),
        run: Box::new(move |x, y| mkl.spmv(x, y)),
    });
    let sell_novec = Sell8::from_csr(a).with_isa(Isa::Scalar);
    out.push(Variant {
        label: "SELL using novec".into(),
        run: Box::new(move |x, y| {
            sell_novec.apply(&ExecCtx::serial(), (x).into(), (y).into(), Apply::Set)
        }),
    });
    out
}

/// Additional measured variants beyond the Figure 8 set: the §5.5 tuned
/// kernel and alternative slice heights (§5.1 trade-off).
pub fn build_extended_variants(a: &Csr) -> Vec<Variant> {
    use sellkit_core::{Sell, SellSigma8};
    let mut out = Vec::new();
    let tuned = Sell8::from_csr(a);
    out.push(Variant {
        label: "SELL tuned (unroll+prefetch)".into(),
        run: Box::new(move |x, y| tuned.spmv_tuned(x, y)),
    });
    let s4 = Sell::<4>::from_csr(a);
    out.push(Variant {
        label: "SELL C=4".into(),
        run: Box::new(move |x, y| s4.apply(&ExecCtx::serial(), (x).into(), (y).into(), Apply::Set)),
    });
    let s16 = Sell::<16>::from_csr(a);
    out.push(Variant {
        label: "SELL C=16".into(),
        run: Box::new(move |x, y| {
            s16.apply(&ExecCtx::serial(), (x).into(), (y).into(), Apply::Set)
        }),
    });
    let sigma = SellSigma8::from_csr_sigma(a, a.nrows().max(1));
    out.push(Variant {
        label: "SELL sigma=global".into(),
        run: Box::new(move |x, y| {
            sigma.apply(&ExecCtx::serial(), (x).into(), (y).into(), Apply::Set)
        }),
    });
    out
}

/// Times one kernel: best-of-`reps` wall time for a single `y = A·x`.
pub fn time_spmv(run: &dyn Fn(&[f64], &mut [f64]), x: &[f64], y: &mut [f64], reps: usize) -> f64 {
    assert!(reps >= 1);
    // Warm-up.
    run(x, y);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        run(x, std::hint::black_box(y));
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Converts nonzeros + seconds into Gflop/s (2 flops per nonzero).
pub fn gflops(nnz: usize, secs: f64) -> f64 {
    2.0 * nnz as f64 / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        sellkit_workloads::generators::stencil5(32)
    }

    #[test]
    fn variants_all_agree_numerically() {
        let a = sample();
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut want = vec![0.0; a.nrows()];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        for v in build_variants(&a) {
            let mut got = vec![0.0; a.nrows()];
            (v.run)(&x, &mut got);
            for i in 0..a.nrows() {
                assert!((got[i] - want[i]).abs() < 1e-12, "{} row {i}", v.label);
            }
        }
    }

    #[test]
    fn variant_labels_cover_figure8_roles() {
        let labels: Vec<String> = build_variants(&sample())
            .into_iter()
            .map(|v| v.label)
            .collect();
        assert!(labels.iter().any(|l| l == "CSR baseline"));
        assert!(labels.iter().any(|l| l == "CSRPerm"));
        assert!(labels.iter().any(|l| l == "MKL-like"));
        assert!(labels.iter().any(|l| l.starts_with("SELL using")));
    }

    #[test]
    fn extended_variants_agree_numerically() {
        let a = sample();
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.02).cos()).collect();
        let mut want = vec![0.0; a.nrows()];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut want).into(),
            Apply::Set,
        );
        for v in build_extended_variants(&a) {
            let mut got = vec![0.0; a.nrows()];
            (v.run)(&x, &mut got);
            for i in 0..a.nrows() {
                assert!((got[i] - want[i]).abs() < 1e-12, "{} row {i}", v.label);
            }
        }
    }

    #[test]
    fn timing_returns_positive() {
        let a = sample();
        let x = vec![1.0; a.ncols()];
        let mut y = vec![0.0; a.nrows()];
        let v = build_variants(&a);
        let t = time_spmv(&v[0].run, &x, &mut y, 3);
        assert!(t > 0.0);
        assert!(gflops(a.nnz(), t) > 0.0);
    }

    #[test]
    fn mkl_like_matches_csr() {
        let a = sample();
        let x = vec![0.5; a.ncols()];
        let mut y1 = vec![0.0; a.nrows()];
        let mut y2 = vec![0.0; a.nrows()];
        a.apply(
            &ExecCtx::serial(),
            (&x).into(),
            (&mut y1).into(),
            Apply::Set,
        );
        MklLikeCsr::new(&a).spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }
}
