//! One regeneration function per paper exhibit, listed by name in
//! [`EXHIBITS`].  Each returns the text it prints so tests can assert on
//! structure.
//!
//! Sections are labeled either `[model]` (the calibrated KNL/Xeon machine
//! model — DESIGN.md §3 explains why) or `[measured]` (real kernels timed
//! on this host, real mpisim ranks).

use sellkit_core::traffic::{csr_traffic, sell_traffic};
use sellkit_core::{Apply, ExecCtx, Isa, MatShape, Operator, Sell8};
use sellkit_dist::{DistMat, DistVec};
use sellkit_machine::specs::{self, ProcessorSpec};
use sellkit_machine::stream_model::knl_stream_curve;
use sellkit_machine::{
    predict_gflops, stream_probe, KernelKind, MatrixShape, MemoryMode, Roofline, StreamKernel,
};
use sellkit_mpisim::run as mpirun;
use sellkit_solvers::ts::OdeProblem;
use sellkit_workloads::{GrayScott, GrayScottParams};

use crate::measure::{build_extended_variants, build_variants, gflops, time_spmv};
use crate::table::{f1, f2, f3, render};

/// Every exhibit by the name the `exhibit` binary takes, in paper order.
/// The flag asks for the `[measured]` sections; exhibits without one
/// ignore it.
pub const EXHIBITS: &[(&str, fn(bool) -> String)] = &[
    ("table1", |_| table1()),
    ("fig4", fig4),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", |_| fig9()),
    ("fig10", fig10),
    ("fig11", |_| fig11()),
    ("traffic_model", |_| traffic_model()),
];

/// Table 1: processor specifications.
pub fn table1() -> String {
    let rows: Vec<Vec<String>> = specs::table1()
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.cores.to_string(),
                format!("{:.1}({:.1}) GHz", s.base_ghz, s.turbo_ghz),
                s.l3_mib.map_or("-".into(), |v| format!("{v} MB")),
                format!("{} GB/s", s.ddr_gbs),
                s.hbm_gbs.map_or("-".into(), |v| format!(">{v:.0} GB/s")),
            ]
        })
        .collect();
    let mut out =
        String::from("Table 1: Intel processors used for evaluating SpMV performance\n\n");
    out.push_str(&render(
        &[
            "Processor",
            "Cores",
            "Base(Turbo) Freq",
            "L3 Cache",
            "Max DDR4 BW",
            "HBM BW",
        ],
        &rows,
    ));
    out
}

/// Figure 4: STREAM bandwidth vs MPI processes on KNL.
pub fn fig4(measure: bool) -> String {
    let mut out =
        String::from("Figure 4: STREAM tests on KNL (triad bandwidth, GB/s)\n\n[model]\n");
    let series = [
        ("Flat:AVX512", MemoryMode::FlatMcdram, true),
        ("Flat:novec", MemoryMode::FlatMcdram, false),
        ("Cache:AVX512", MemoryMode::Cache, true),
        ("Cache:novec", MemoryMode::Cache, false),
    ];
    let procs = [8usize, 16, 24, 32, 40, 48, 56, 64, 68];
    let rows: Vec<Vec<String>> = procs
        .iter()
        .map(|&p| {
            let mut row = vec![p.to_string()];
            for (_, mode, vec) in series {
                row.push(f1(knl_stream_curve(mode, vec).at(p)));
            }
            row
        })
        .collect();
    out.push_str(&render(
        &["procs", series[0].0, series[1].0, series[2].0, series[3].0],
        &rows,
    ));
    for (label, mode, vec) in series {
        let c = knl_stream_curve(mode, vec);
        out.push_str(&format!(
            "{label}: saturates at {} procs ({:.0} GB/s asymptote)\n",
            c.saturation_procs(),
            c.bmax_gbs
        ));
    }

    if measure {
        out.push_str("\n[measured] host STREAM (single core):\n");
        for kernel in [StreamKernel::Copy, StreamKernel::Triad] {
            let s = stream_probe(kernel, 1, None);
            out.push_str(&format!(
                "  {kernel:?}: {:.1} GB/s ({} MiB arrays, {} MiB LLC)\n",
                s.gbs,
                s.array_bytes >> 20,
                s.llc_bytes >> 20
            ));
        }
    }
    out
}

/// Figure 7: out-of-box (CSR baseline) SpMV performance across grid
/// sizes, memory modes, and process counts.
pub fn fig7(measure: bool) -> String {
    let mut out = String::from(
        "Figure 7: baseline out-of-box SpMV performance using CSR (Gflop/s)\n\n[model] KNL 7230\n",
    );
    let knl = specs::knl_7230();
    let grids = [1024usize, 2048, 4096];
    for mode in MemoryMode::ALL {
        out.push_str(&format!("\n{mode}\n"));
        let rows: Vec<Vec<String>> = [16usize, 32, 64]
            .iter()
            .map(|&p| {
                let mut row = vec![p.to_string()];
                for &g in &grids {
                    row.push(f2(predict_gflops(
                        &knl,
                        mode,
                        KernelKind::CsrBaseline,
                        p,
                        MatrixShape::gray_scott(g),
                    )));
                }
                row
            })
            .collect();
        out.push_str(&render(
            &[
                "procs",
                "1024x1024 grid",
                "2048x2048 grid",
                "4096x4096 grid",
            ],
            &rows,
        ));
    }

    if measure {
        out.push_str("\n[measured] host, CSR baseline, grid-size insensitivity:\n");
        for g in [256usize, 512, 1024] {
            let gs = GrayScott::new(g, GrayScottParams::default());
            let w = gs.initial_condition(1);
            let a = gs.rhs_jacobian(0.0, &w);
            let x = vec![1.0; a.ncols()];
            let mut y = vec![0.0; a.nrows()];
            let t = time_spmv(
                &|x, y| a.apply(&ExecCtx::serial(), (x).into(), (y).into(), Apply::Set),
                &x,
                &mut y,
                5,
            );
            out.push_str(&format!(
                "  {g}x{g} grid: {:.2} Gflop/s\n",
                gflops(a.nnz(), t)
            ));
        }
    }
    out
}

/// Figure 8: all nine kernels on one KNL node, 2048² grid.
pub fn fig8(measure: bool) -> String {
    let mut out = String::from(
        "Figure 8: SpMV performance by matrix format (2048x2048 grid, ~8M DOF)\n\n\
         [model] KNL 7230, flat mode MCDRAM, Gflop/s\n\n",
    );
    let knl = specs::knl_7230();
    let shape = MatrixShape::gray_scott(2048);
    let procs = [4usize, 8, 16, 32, 64];
    let mut headers = vec!["kernel".to_string()];
    headers.extend(procs.iter().map(|p| format!("p={p}")));
    headers.push("vs baseline @64".into());
    let base64 = predict_gflops(
        &knl,
        MemoryMode::FlatMcdram,
        KernelKind::CsrBaseline,
        64,
        shape,
    );
    let rows: Vec<Vec<String>> = KernelKind::FIG8
        .iter()
        .map(|&k| {
            let mut row = vec![k.to_string()];
            for &p in &procs {
                row.push(f2(predict_gflops(
                    &knl,
                    MemoryMode::FlatMcdram,
                    k,
                    p,
                    shape,
                )));
            }
            let r = predict_gflops(&knl, MemoryMode::FlatMcdram, k, 64, shape) / base64;
            row.push(format!("{:.2}x", r));
            row
        })
        .collect();
    let hdr: Vec<&str> = headers.iter().map(String::as_str).collect();
    out.push_str(&render(&hdr, &rows));

    if measure {
        out.push_str(&format!(
            "\n[measured] host ({} detected), 512x512 grid Gray-Scott Jacobian:\n\n",
            Isa::detect()
        ));
        let gs = GrayScott::new(512, GrayScottParams::default());
        let w = gs.initial_condition(1);
        let a = gs.rhs_jacobian(0.0, &w);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.001).sin()).collect();
        let mut y = vec![0.0; a.nrows()];
        let mut variants = build_variants(&a);
        variants.extend(build_extended_variants(&a));
        let mut base = 0.0;
        let mut meas: Vec<(String, f64)> = Vec::new();
        for v in &variants {
            let t = time_spmv(&v.run, &x, &mut y, 7);
            let g = gflops(a.nnz(), t);
            if v.label == "CSR baseline" {
                base = g;
            }
            meas.push((v.label.clone(), g));
        }
        let rows: Vec<Vec<String>> = meas
            .iter()
            .map(|(l, g)| vec![l.clone(), f2(*g), format!("{:.2}x", g / base)])
            .collect();
        out.push_str(&render(&["kernel", "Gflop/s", "vs baseline"], &rows));
    }
    out
}

/// Figure 9: roofline analysis on Theta.
pub fn fig9() -> String {
    let r = Roofline::theta_knl();
    let mut out = format!(
        "Figure 9: Roofline on {} — {:.1} Gflop/s (maximum)\n\nceilings:\n",
        r.name, r.peak_gflops
    );
    for (label, bw) in &r.ceilings {
        out.push_str(&format!("  {label} - {bw:.1} GB/s\n"));
    }
    out.push_str("\n[model] kernels at 64 procs, flat MCDRAM:\n\n");
    let pts = r.place_kernels(&specs::knl_7230());
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.kernel.to_string(),
                f3(p.ai),
                f2(p.gflops),
                format!("{:.0}%", p.roof_fraction * 100.0),
            ]
        })
        .collect();
    out.push_str(&render(
        &["kernel", "AI (flops/byte)", "Gflop/s", "% of MCDRAM roof"],
        &rows,
    ));
    out
}

/// Figure 10: multinode wall time on Theta, CSR vs SELL.
///
/// `[model]`: wall-time bars for 64–512 nodes.  Magnitudes are anchored to
/// the figure's 64-node readings; the CSR→SELL change comes from the
/// machine model's per-mode MatMult speedup and the §7 observation that
/// MatMult is roughly half the runtime ("the Jacobian evaluation and its
/// multiplication with input vectors dominate ... about half of the total
/// running time").
pub fn fig10(measure: bool) -> String {
    let mut out = String::from(
        "Figure 10: SpMV performance on the supercomputer Theta\n\
         (16384x16384 grid, 5 time steps, 6-level multigrid)\n\n[model]\n\n",
    );
    let knl = specs::knl_7230();
    let shape = MatrixShape::gray_scott(2048); // per-node working shape for ratio purposes
                                               // 64-node total wall time anchors (seconds), read off the figure.
    let anchors = [
        (MemoryMode::FlatDdr, 2450.0, 0.35),
        (MemoryMode::Cache, 1500.0, 0.45),
        (MemoryMode::FlatMcdram, 1400.0, 0.45),
    ];
    let mut rows = Vec::new();
    for nodes in [64usize, 128, 256, 512] {
        for (mode, t64, mm_frac) in anchors {
            let sell = predict_gflops(&knl, mode, KernelKind::SellAvx512, 64, shape);
            let csr = predict_gflops(&knl, mode, KernelKind::CsrBaseline, 64, shape);
            let speedup = sell / csr;
            // Strong scaling with a mild communication overhead per doubling.
            let scale = 64.0 / nodes as f64;
            let overhead = 1.0 + 0.04 * ((nodes / 64) as f64).log2();
            let total_csr = t64 * scale * overhead;
            let mm_csr = total_csr * mm_frac;
            let mm_sell = mm_csr / speedup;
            let total_sell = total_csr - mm_csr + mm_sell;
            rows.push(vec![
                nodes.to_string(),
                mode.to_string(),
                f1(total_csr),
                f1(mm_csr),
                f1(total_sell),
                f1(mm_sell),
                format!("{:.2}x", mm_csr / mm_sell),
            ]);
        }
    }
    out.push_str(&render(
        &[
            "nodes",
            "memory mode",
            "CSR total [s]",
            "CSR MatMult",
            "SELL total [s]",
            "SELL MatMult",
            "MatMult speedup",
        ],
        &rows,
    ));

    if measure {
        out.push_str("\n[measured] 4 mpisim ranks, 128x128 Gray-Scott Jacobian, 200 MatMults:\n");
        let gs = GrayScott::new(128, GrayScottParams::default());
        let w = gs.initial_condition(1);
        let a = gs.rhs_jacobian(0.0, &w);
        let nnz = a.nnz();
        for (label, use_sell) in [("CSR", false), ("SELL", true)] {
            let a2 = a.clone();
            let secs = mpirun(4, move |comm| {
                let n = a2.nrows();
                let xv = DistVec::from_fn(comm, n, |g| (g as f64 * 0.01).sin());
                let mut yv = DistVec::zeros(comm, n);
                let t = std::time::Instant::now();
                if use_sell {
                    let dm = DistMat::<Sell8>::from_global_csr(comm, &a2, 1);
                    for _ in 0..200 {
                        dm.mult(comm, xv.local(), yv.local_mut());
                    }
                } else {
                    let dm = DistMat::<sellkit_core::Csr>::from_global_csr(comm, &a2, 1);
                    for _ in 0..200 {
                        dm.mult(comm, xv.local(), yv.local_mut());
                    }
                }
                comm.barrier();
                t.elapsed().as_secs_f64()
            })[0];
            out.push_str(&format!(
                "  {label}: {:.3} s ({:.2} Gflop/s aggregate)\n",
                secs,
                gflops(nnz, secs / 200.0)
            ));
        }
    }
    out
}

/// Figure 11: the nine kernels across the four processors of Table 1.
/// This host's measured series is [`fig8`]'s.
pub fn fig11() -> String {
    let mut out = String::from(
        "Figure 11: SpMV performance on different Xeon processors (Gflop/s)\n\n\
         [model] full physical cores, one MPI rank per core; KNL in flat\n\
         MCDRAM mode, Xeons on DDR4\n\n",
    );
    let procs: Vec<ProcessorSpec> = vec![
        specs::haswell_e5_2699v3(),
        specs::broadwell_e5_2699v4(),
        specs::skylake_8180m(),
        specs::knl_7230(),
    ];
    let shape = MatrixShape::gray_scott(2048);
    let rows: Vec<Vec<String>> = KernelKind::FIG11
        .iter()
        .map(|&k| {
            let mut row = vec![k.to_string()];
            for spec in &procs {
                let mode = if spec.hbm_gbs.is_some() {
                    MemoryMode::FlatMcdram
                } else {
                    MemoryMode::FlatDdr
                };
                row.push(f2(predict_gflops(spec, mode, k, spec.cores, shape)));
            }
            row
        })
        .collect();
    out.push_str(&render(
        &["kernel", "Haswell", "Broadwell", "Skylake", "KNL"],
        &rows,
    ));
    out
}

/// §6: the memory-traffic model, evaluated on the paper's shapes.
pub fn traffic_model() -> String {
    let mut out = String::from(
        "Section 6: minimum memory traffic per SpMV\n\
         CSR : 12*nnz + 24*m + 8*n bytes\n\
         SELL: 12*nnz + 10*m + 8*n bytes\n\n",
    );
    let rows: Vec<Vec<String>> = [1024usize, 2048, 4096, 16384]
        .iter()
        .map(|&g| {
            let s = MatrixShape::gray_scott(g);
            let c = csr_traffic(s.m, s.n, s.nnz);
            let e = sell_traffic(s.m, s.n, s.nnz);
            vec![
                format!("{g}x{g}"),
                s.m.to_string(),
                s.nnz.to_string(),
                format!("{:.1} MB", c.bytes as f64 / 1e6),
                format!("{:.1} MB", e.bytes as f64 / 1e6),
                f3(c.arithmetic_intensity()),
                f3(e.arithmetic_intensity()),
            ]
        })
        .collect();
    out.push_str(&render(
        &[
            "grid",
            "rows",
            "nnz",
            "CSR bytes",
            "SELL bytes",
            "CSR AI",
            "SELL AI",
        ],
        &rows,
    ));

    // Real padding on the real Jacobian: SELL pays (almost) nothing here.
    let gs = GrayScott::new(128, GrayScottParams::default());
    let w = gs.initial_condition(1);
    let a = gs.rhs_jacobian(0.0, &w);
    let sell = Sell8::from_csr(&a);
    out.push_str(&format!(
        "\nreal 128x128 Jacobian: nnz {} stored {} padding {:.3}%\n",
        a.nnz(),
        sell.stored_elems(),
        sell.padding_ratio() * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_all_processors() {
        let t = table1();
        for name in ["KNL 7230", "Broadwell", "Haswell", "Skylake"] {
            assert!(t.contains(name), "{name} missing:\n{t}");
        }
    }

    #[test]
    fn fig4_model_rows_present() {
        let f = fig4(false);
        assert!(f.contains("Flat:AVX512"));
        assert!(f.contains("saturates at"));
    }

    #[test]
    fn fig7_has_three_modes() {
        let f = fig7(false);
        assert!(f.contains("flat mode, MCDRAM"));
        assert!(f.contains("flat mode, DRAM"));
        assert!(f.contains("cache mode"));
    }

    #[test]
    fn fig8_model_contains_all_nine_kernels() {
        let f = fig8(false);
        for k in KernelKind::FIG8 {
            assert!(f.contains(&k.to_string()), "{k} missing");
        }
        assert!(f.contains("vs baseline"));
    }

    #[test]
    fn fig9_has_ceilings() {
        let f = fig9();
        assert!(f.contains("MCDRAM - 419.7 GB/s"));
        assert!(f.contains("1018.4"));
    }

    #[test]
    fn fig10_model_has_all_node_counts() {
        let f = fig10(false);
        for n in ["64", "128", "256", "512"] {
            assert!(f.contains(n));
        }
        assert!(f.contains("MatMult speedup"));
    }

    #[test]
    fn fig11_spans_processors() {
        let f = fig11();
        assert!(f.contains("Haswell"));
        assert!(f.contains("KNL"));
    }

    #[test]
    fn traffic_model_shows_formulas() {
        let t = traffic_model();
        assert!(t.contains("12*nnz + 24*m + 8*n"));
        assert!(t.contains("12*nnz + 10*m + 8*n"));
        assert!(t.contains("padding"));
    }
}
