//! Saturating STREAM bandwidth curves — the Figure 4 model.
//!
//! Figure 4's observations, which the curve parameters below encode:
//!
//! * flat-MCDRAM with AVX-512 climbs to ≈490 GB/s and needs ≈58 processes
//!   to saturate;
//! * cache mode tops out lower (≈345 GB/s) and saturates by ≈40 processes;
//! * disabling vectorization dramatically lowers achieved bandwidth in
//!   flat mode but "only slightly" in cache mode;
//! * DDR saturates early (few processes) at its 115.2 GB/s ceiling.
//!
//! The shape is `B(p) = Bmax · (1 − e^{−p/τ})`: a smooth rise with
//! saturation point ≈ 3τ, which matches the measured curves well.

use crate::modes::MemoryMode;
use crate::specs::ProcessorSpec;

/// One saturating bandwidth curve.
#[derive(Clone, Copy, Debug)]
pub struct StreamCurve {
    /// Asymptotic bandwidth (GB/s).
    pub bmax_gbs: f64,
    /// Saturation constant: `B(p) = bmax·(1 − e^{−p/τ})`.
    pub tau: f64,
}

impl StreamCurve {
    /// Achieved bandwidth with `p` MPI processes.
    pub fn at(&self, p: usize) -> f64 {
        self.bmax_gbs * (1.0 - (-(p as f64) / self.tau).exp())
    }

    /// Smallest process count achieving 95 % of the asymptote (the
    /// "processes needed to saturate" number quoted in §2.6).
    pub fn saturation_procs(&self) -> usize {
        (1..=4096)
            .find(|&p| self.at(p) >= 0.95 * self.bmax_gbs)
            .unwrap_or(4096)
    }
}

/// The Figure 4 KNL curves: `(mode, vectorized) → curve`.
///
/// Calibration targets (read off Figure 4 for the 68-core 7250):
/// flat+AVX512 ≈ 490 GB/s @ 58 procs, cache+AVX512 ≈ 345 GB/s @ 40
/// procs, flat+novec ≈ 220 GB/s, cache+novec ≈ 320 GB/s.
pub fn knl_stream_curve(mode: MemoryMode, vectorized: bool) -> StreamCurve {
    match (mode, vectorized) {
        (MemoryMode::FlatMcdram, true) => StreamCurve {
            bmax_gbs: 490.0,
            tau: 19.0,
        },
        (MemoryMode::FlatMcdram, false) => StreamCurve {
            bmax_gbs: 220.0,
            tau: 16.0,
        },
        (MemoryMode::Cache, true) => StreamCurve {
            bmax_gbs: 345.0,
            tau: 13.0,
        },
        (MemoryMode::Cache, false) => StreamCurve {
            bmax_gbs: 320.0,
            tau: 13.0,
        },
        // DDR: the channels saturate with only a handful of cores, and
        // (unlike MCDRAM) they saturate with or without vector loads.
        (MemoryMode::FlatDdr, true) => StreamCurve {
            bmax_gbs: 115.2,
            tau: 5.0,
        },
        (MemoryMode::FlatDdr, false) => StreamCurve {
            bmax_gbs: 110.0,
            tau: 5.0,
        },
    }
}

/// A generic curve for conventional Xeons: DDR saturates with a fraction
/// of the cores.
pub fn xeon_stream_curve(spec: &ProcessorSpec) -> StreamCurve {
    StreamCurve {
        bmax_gbs: spec.ddr_gbs,
        tau: spec.cores as f64 / 5.0,
    }
}

/// Modeled STREAM bandwidth (GB/s) of the reference Xeon host (Table 1's
/// Skylake 8180M) at a given thread count.  A model of *that* machine: the
/// roof of the one actually running is [`stream_probe`](crate::stream_probe)'s
/// to measure, and the benchmark reports the two side by side
/// (`machine.model_over_measured`).
pub fn host_stream_bw_gbs(threads: usize) -> f64 {
    xeon_stream_curve(&crate::specs::skylake_8180m()).at(threads.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_avx512_matches_figure4_landmarks() {
        let c = knl_stream_curve(MemoryMode::FlatMcdram, true);
        let sat = c.saturation_procs();
        assert!((54..=62).contains(&sat), "saturation at {sat} procs");
        assert!(c.at(64) > 450.0);
        assert!(
            c.at(8) < 200.0,
            "8 procs must be far from saturation: {}",
            c.at(8)
        );
    }

    #[test]
    fn cache_saturates_earlier_than_flat() {
        let flat = knl_stream_curve(MemoryMode::FlatMcdram, true);
        let cache = knl_stream_curve(MemoryMode::Cache, true);
        assert!(cache.saturation_procs() < flat.saturation_procs());
        let sat = cache.saturation_procs();
        assert!((36..=44).contains(&sat), "cache saturation at {sat}");
    }

    #[test]
    fn vectorization_matters_in_flat_not_cache() {
        let flat_gap = knl_stream_curve(MemoryMode::FlatMcdram, true).at(64)
            / knl_stream_curve(MemoryMode::FlatMcdram, false).at(64);
        let cache_gap = knl_stream_curve(MemoryMode::Cache, true).at(64)
            / knl_stream_curve(MemoryMode::Cache, false).at(64);
        assert!(
            flat_gap > 2.0,
            "flat: novec must be dramatically slower ({flat_gap})"
        );
        assert!(
            cache_gap < 1.15,
            "cache: novec only slightly slower ({cache_gap})"
        );
    }

    #[test]
    fn curves_are_monotone() {
        let c = knl_stream_curve(MemoryMode::FlatMcdram, true);
        let mut last = 0.0;
        for p in 1..=68 {
            let b = c.at(p);
            assert!(b > last);
            last = b;
        }
    }

    #[test]
    fn ddr_saturates_with_few_processes() {
        let c = knl_stream_curve(MemoryMode::FlatDdr, true);
        assert!(c.at(16) > 0.9 * c.bmax_gbs);
    }

    #[test]
    fn host_bandwidth_is_monotone_and_bounded() {
        let b1 = host_stream_bw_gbs(1);
        let b4 = host_stream_bw_gbs(4);
        let b56 = host_stream_bw_gbs(56);
        assert!(b1 > 0.0 && b1 < b4 && b4 < b56);
        assert!(b56 <= 119.2, "bounded by the 8180M DDR ceiling: {b56}");
        // threads=0 is clamped, not NaN/zero.
        assert_eq!(host_stream_bw_gbs(0), b1);
    }
}
