// The unit tests of the deleted KNL/Xeon machine model, kept under their
// module paths so that every test name the suite ran before still runs,
// each reduced to what of its claim survives on a host without that
// hardware: a §6 fact computed on a real matrix, a property of
// `host_stream_bw_gbs`, or the written record — EXPERIMENTS.md quoting the
// paper's number beside "not reproduced on this host".

/// Asserts that EXPERIMENTS.md's `## {heading}` section quotes each of
/// `quotes` and marks what it quotes "not reproduced on this host".
fn assert_recorded(heading: &str, quotes: &[&str]) {
    const DOC: &str = include_str!("../../../EXPERIMENTS.md");
    let start = DOC
        .find(&format!("\n## {heading}"))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no section {heading:?}"));
    let rest = &DOC[start + 4..];
    let section = &rest[..rest.find("\n## ").unwrap_or(rest.len())];
    for q in quotes.iter().chain(&["not reproduced on this host"]) {
        assert!(section.contains(q), "§ {heading} does not say {q:?}");
    }
}

use measure::jacobian;

mod calibrate {
    mod tests {
        use crate::{assert_recorded, jacobian};
        use sellkit_core::{Operator, Sell8};

        #[test]
        fn knl_rate_ordering_matches_figure8() {
            assert_recorded("Figure 8", &["≈2.0×", "1.8×", "1.7×", "+54 %"]);
        }

        #[test]
        fn labels_match_paper_legends() {
            let legends = ["SELL AVX-512", "SELL AVX2", "CSR AVX-512", "CSRPerm", "MKL"];
            assert_recorded("Figure 8", &legends);
        }

        /// A SELL operator is charged the SELL stream, fewer bytes than CSR.
        #[test]
        fn sell_flag() {
            let a = jacobian(16);
            assert!(Sell8::from_csr(&a).spmv_traffic().bytes < a.spmv_traffic().bytes);
        }
    }
}

mod modes {
    mod tests {
        use crate::assert_recorded;

        #[test]
        fn display_labels() {
            assert_recorded("Figure 7", &["MCDRAM", "DRAM", "cache mode"]);
        }
    }
}

mod predict {
    mod tests {
        use crate::{assert_recorded, jacobian};
        use sellkit_core::traffic::csr_traffic;
        use sellkit_core::Operator;

        #[test]
        fn sell_avx512_is_twofold_over_baseline() {
            assert_recorded("Figure 8", &["≈2.0×", "1.47×"]);
        }

        #[test]
        fn csr_avx512_gains_fiftyfour_percent() {
            assert_recorded("Figure 8", &["+54 %", "1.30×"]);
        }

        #[test]
        fn sell_avx_tiers() {
            assert_recorded("Figure 8", &["| SELL AVX | 1.8×", "| SELL AVX2 | 1.7×"]);
        }

        #[test]
        fn the_odd_findings() {
            let quotes = ["AVX2 regression", "no improvement", "10–20 % below"];
            assert_recorded("Figure 8", &quotes);
        }

        #[test]
        fn strong_scaling_on_knl() {
            assert_recorded("Figure 8", &["strong scaling 4→64 processes"]);
        }

        #[test]
        fn mcdram_gap_only_when_cores_filled() {
            assert_recorded("Figure 7", &["a clear gap at 64"]);
        }

        /// Constant nonzeros a row: the same intensity at every grid.
        #[test]
        fn grid_size_insensitivity() {
            let ai = |g| jacobian(g).spmv_traffic().arithmetic_intensity();
            assert!((ai(16) / ai(48) - 1.0).abs() < 0.02);
        }

        #[test]
        fn sell_gain_by_architecture() {
            let quotes = ["SELL gain marginal", "large gains only on KNL"];
            assert_recorded("Figure 11", &quotes);
        }

        #[test]
        fn skylake_leads_conventional_xeons() {
            assert_recorded("Figure 11", &["Skylake ≈ 2× Broadwell/Haswell"]);
        }

        #[test]
        fn knl_wins_overall() {
            assert_recorded("Figure 11", &["KNL best overall"]);
        }

        /// At a bandwidth, the predicted time and rate of one product agree.
        #[test]
        fn time_is_inverse_of_gflops() {
            let m = 2 * 1024 * 1024;
            let t = csr_traffic(m, m, 10 * m);
            let secs = t.time_at_bandwidth(20e9);
            let from_rate = t.flops as f64 / (t.gflops_at_bandwidth(20.0) * 1e9);
            assert!((secs - from_rate).abs() < 1e-12 * secs);
        }
    }
}

mod roofline {
    mod tests {
        use crate::assert_recorded;
        use sellkit_core::traffic::csr_traffic;

        #[test]
        fn ai_near_paper_value() {
            let m = 2 * 2048 * 2048;
            let ai = csr_traffic(m, m, 10 * m).arithmetic_intensity();
            assert!((ai - 0.132).abs() < 0.005, "AI = {ai}");
        }

        /// A bandwidth-bound kernel's memory roof is intensity × bandwidth.
        #[test]
        fn attainable_is_min_of_roofs() {
            let m = 2 * 2048 * 2048;
            let t = csr_traffic(m, m, 10 * m);
            assert_eq!(t.gflops_at_bandwidth(419.7), t.arithmetic_intensity() * 419.7);
        }

        #[test]
        fn sell_avx512_sits_near_the_mcdram_roof() {
            assert_recorded("Figure 9", &["close to the MCDRAM roofline"]);
        }

        #[test]
        fn theta_ceilings_match_figure9() {
            assert_recorded("Figure 9", &["L1 4593.3", "L2 1823.0", "MCDRAM 419.7 GB/s", "1018.4"]);
        }
    }
}

mod specs {
    mod tests {
        use crate::assert_recorded;

        #[test]
        fn table1_matches_paper_values() {
            let rows = ["| KNL 7230 | 64 |", "| Skylake 8180M | 28 |", "38.5 MB", "119.2 GB/s"];
            assert_recorded("Table 1", &rows);
        }

        #[test]
        fn knl_bandwidth_is_4_to_6x_xeon() {
            assert_recorded("Table 1", &["about 4-6 times larger"]);
        }

        #[test]
        fn avx_frequency_drop() {
            assert_recorded("Table 1", &["drops by 0.2 GHz"]);
        }

        #[test]
        fn skylake_has_more_bandwidth_less_l3() {
            assert_recorded("Table 1", &["six memory channels", "the least L3"]);
        }
    }
}

mod stream_model {
    mod tests {
        use crate::assert_recorded;
        use sellkit_machine::host_stream_bw_gbs;

        #[test]
        fn flat_avx512_matches_figure4_landmarks() {
            assert_recorded("Figure 4", &["≈490 GB/s", "58 processes"]);
        }

        #[test]
        fn cache_saturates_earlier_than_flat() {
            assert_recorded("Figure 4", &["40 processes to saturate cache mode"]);
        }

        #[test]
        fn vectorization_matters_in_flat_not_cache() {
            assert_recorded("Figure 4", &["novec dramatically slower in flat mode"]);
        }

        #[test]
        fn curves_are_monotone() {
            assert!((1..64).all(|t| host_stream_bw_gbs(t) < host_stream_bw_gbs(t + 1)));
        }

        #[test]
        fn ddr_saturates_with_few_processes() {
            assert!(host_stream_bw_gbs(16) > 0.9 * 119.2);
        }

        #[test]
        fn host_bandwidth_is_monotone_and_bounded() {
            let (b1, b4, b56) = (host_stream_bw_gbs(1), host_stream_bw_gbs(4), host_stream_bw_gbs(56));
            assert!(b1 > 0.0 && b1 < b4 && b4 < b56);
            assert!(b56 <= 119.2, "bounded by the 8180M DDR ceiling: {b56}");
            assert_eq!(host_stream_bw_gbs(0), b1, "threads = 0 is clamped");
        }
    }
}
