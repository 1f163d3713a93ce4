//! One regeneration function per paper figure, and [`EXHIBITS`]: every
//! section the `exhibit` binary prints, by name — these figures, then the
//! ablations of [`crate::ablations`].  Each returns the text it prints so
//! tests can assert on structure.
//!
//! Every section is `[measured]`: real kernels timed on this host, real
//! mpisim ranks, or (for §6) byte counts of real matrices.  The paper's
//! KNL and Xeon numbers are not reproduced here; EXPERIMENTS.md sets each
//! beside what this host measured.

use sellkit_core::traffic::{csr_traffic, sell_traffic};
use sellkit_core::{Csr, Isa, MatShape, Sell8};
use sellkit_dist::{DistMat, DistVec};
use sellkit_machine::{stream_probe, StreamKernel};
use sellkit_mpisim::run as mpirun;

use crate::ablations::{bit_array, csr_remainder, gather, slice_height, solve, spmm, threads};
use crate::measure::{
    build_extended_variants, build_variants, gflops, jacobian, probe_x, time_variants, Variant,
};
use crate::table::{f2, f3, render};

/// Every exhibit by the name the `exhibit` binary takes: the figures in
/// paper order, then the ablations in section order.
pub const EXHIBITS: &[(&str, fn() -> String)] = &[
    ("fig4", fig4),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig10", fig10),
    ("traffic_model", traffic_model),
    ("csr_remainder", csr_remainder),
    ("slice_height", slice_height),
    ("bit_array", bit_array),
    ("gather", gather),
    ("spmm", spmm),
    ("threads", threads),
    ("solve", solve),
];

/// Figure 4: STREAM bandwidth — this host's single-core copy and triad.
pub(crate) fn fig4() -> String {
    let mut out = String::from(
        "Figure 4: STREAM bandwidth (GB/s)\n\n[measured] host STREAM (single core):\n",
    );
    for kernel in [StreamKernel::Copy, StreamKernel::Triad] {
        let s = stream_probe(kernel, 1, None);
        out.push_str(&format!(
            "  {kernel:?}: {:.1} GB/s ({} MiB arrays, {} MiB LLC)\n",
            s.gbs,
            s.array_bytes >> 20,
            s.llc_bytes >> 20
        ));
    }
    out
}

/// Figure 7: the out-of-box CSR baseline across grid sizes, with SELL-8 at
/// the widest tier beside it.
pub(crate) fn fig7() -> String {
    let mut rows = Vec::new();
    for g in [256usize, 512, 1024] {
        let a = jacobian(g);
        let (m, n, nnz) = (a.nrows(), a.ncols(), a.nnz());
        let sell = Sell8::from_csr(&a);
        let variants = [
            Variant::op("CSR baseline", a.with_isa(Isa::Scalar)),
            Variant::op("SELL-8", sell),
        ];
        let secs = time_variants(&variants, &probe_x(n), m, 5);
        let (csr, sell) = (gflops(nnz, secs[0]), gflops(nnz, secs[1]));
        rows.push(vec![
            format!("{g}x{g}"),
            f2(csr),
            f2(sell),
            format!("{:.2}x", sell / csr),
        ]);
    }
    let sell_head = format!("SELL-8 {}", Isa::detect());
    format!(
        "Figure 7: baseline out-of-box SpMV performance using CSR (Gflop/s)\n\n\
         [measured] host, one thread, grid-size insensitivity:\n\n{}",
        render(
            &["grid", "CSR baseline", sell_head.as_str(), "SELL/CSR"],
            &rows
        )
    )
}

/// Figure 8: every kernel variant on one Gray-Scott Jacobian.
pub(crate) fn fig8() -> String {
    let a = jacobian(512);
    let mut variants = build_variants(&a);
    variants.extend(build_extended_variants(&a));
    let secs = time_variants(&variants, &probe_x(a.ncols()), a.nrows(), 7);
    let rates: Vec<f64> = secs.iter().map(|&s| gflops(a.nnz(), s)).collect();
    let base = variants
        .iter()
        .position(|v| v.label == "CSR baseline")
        .map(|i| rates[i])
        .expect("build_variants lists the CSR baseline");
    let rows: Vec<Vec<String>> = variants
        .iter()
        .zip(&rates)
        .map(|(v, &g)| vec![v.label.clone(), f2(g), format!("{:.2}x", g / base)])
        .collect();
    format!(
        "Figure 8: SpMV performance by matrix format\n\n\
         [measured] host ({} detected), 512x512 grid Gray-Scott Jacobian:\n\n{}",
        Isa::detect(),
        render(&["kernel", "Gflop/s", "vs baseline"], &rows)
    )
}

/// Figure 10: distributed MatMult, CSR vs SELL, on mpisim ranks.
pub(crate) fn fig10() -> String {
    let mut out = String::from(
        "Figure 10: distributed SpMV, CSR vs SELL\n\n\
         [measured] 4 mpisim ranks, 128x128 Gray-Scott Jacobian, 200 MatMults:\n",
    );
    let a = jacobian(128);
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
                let dm = DistMat::<Csr>::from_global_csr(comm, &a2, 1);
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
    out
}

/// §6: the memory-traffic formulas, evaluated on the Gray-Scott Jacobian
/// shape (`2g²` rows, 10 nonzeros a row) of the paper's grids.
pub(crate) fn traffic_model() -> String {
    let mut out = String::from(
        "Section 6: minimum memory traffic per SpMV\n\
         CSR : 12*nnz + 24*m + 8*n bytes\n\
         SELL: 12*nnz + 10*m + 8*n bytes\n\n",
    );
    let rows: Vec<Vec<String>> = [1024usize, 2048, 4096, 16384]
        .iter()
        .map(|&g| {
            let m = 2 * g * g;
            let nnz = 10 * m;
            let c = csr_traffic(m, m, nnz);
            let e = sell_traffic(m, m, nnz);
            vec![
                format!("{g}x{g}"),
                m.to_string(),
                nnz.to_string(),
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
    let a = jacobian(128);
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
    use crate::assert_recorded;

    // The paper-side halves of the exhibits, which this host cannot run,
    // are EXPERIMENTS.md's to quote.

    #[test]
    fn table1_mentions_all_processors() {
        let names = ["KNL 7230", "Broadwell", "Haswell", "Skylake"];
        assert_recorded("Table 1", &names);
    }

    #[test]
    fn fig4_model_rows_present() {
        assert_recorded("Figure 4", &["flat+AVX-512", "cache mode", "Copy 16.6"]);
    }

    #[test]
    fn fig7_has_three_modes() {
        assert_recorded("Figure 7", &["MCDRAM", "DRAM", "cache mode"]);
    }

    #[test]
    fn fig8_model_contains_all_nine_kernels() {
        let kernels = [
            "| SELL AVX-512 |",
            "| SELL AVX |",
            "| SELL AVX2 |",
            "| CSR AVX-512 |",
            "| CSR AVX vs AVX2 |",
            "| CSRPerm |",
            "| MKL |",
        ];
        assert_recorded("Figure 8", &kernels);
    }

    #[test]
    fn fig9_has_ceilings() {
        assert_recorded("Figure 9", &["MCDRAM 419.7 GB/s", "1018.4"]);
    }

    #[test]
    fn fig10_model_has_all_node_counts() {
        assert_recorded("Figure 10", &["64→512 nodes", "1.75×"]);
    }

    #[test]
    fn fig11_spans_processors() {
        assert_recorded("Figure 11", &["Haswell/Broadwell/Skylake", "KNL"]);
    }

    #[test]
    fn traffic_model_shows_formulas() {
        let t = traffic_model();
        assert!(t.contains("12*nnz + 24*m + 8*n"));
        assert!(t.contains("12*nnz + 10*m + 8*n"));
        assert!(t.contains("padding"));
    }
}
