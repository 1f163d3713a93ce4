//! The roofline model of Figure 9 (Empirical Roofline Tool output on
//! Theta): cache-level bandwidth ceilings, the compute peak, and where
//! each SpMV kernel lands.

use crate::calibrate::KernelKind;
use crate::modes::MemoryMode;
use crate::predict::{predict_gflops, MatrixShape};
use crate::specs::ProcessorSpec;

/// A set of roofline ceilings for one machine.
#[derive(Clone, Debug)]
pub struct Roofline {
    /// Machine name.
    pub name: &'static str,
    /// Peak double-precision compute (Gflop/s).
    pub peak_gflops: f64,
    /// Bandwidth ceilings as `(label, GB/s)`, fastest first.
    pub ceilings: Vec<(&'static str, f64)>,
}

/// One kernel placed on the roofline.
#[derive(Clone, Debug)]
pub struct RooflinePoint {
    /// Kernel label.
    pub kernel: KernelKind,
    /// Arithmetic intensity (flops/byte).
    pub ai: f64,
    /// Achieved Gflop/s.
    pub gflops: f64,
    /// Fraction of the relevant memory ceiling achieved.
    pub roof_fraction: f64,
}

impl Roofline {
    /// The Theta (KNL) roofline of Figure 9: L1 4593.3 GB/s, L2 1823.0
    /// GB/s, MCDRAM 419.7 GB/s, 1018.4 Gflop/s maximum.
    pub fn theta_knl() -> Self {
        Self {
            name: "Theta (KNL 7250)",
            peak_gflops: 1018.4,
            ceilings: vec![("L1", 4593.3), ("L2", 1823.0), ("MCDRAM", 419.7)],
        }
    }

    /// Attainable Gflop/s at arithmetic intensity `ai` under ceiling `bw`.
    pub fn attainable(&self, ai: f64, bw_gbs: f64) -> f64 {
        (ai * bw_gbs).min(self.peak_gflops)
    }

    /// Fraction of the memory roof achieved by a kernel running at
    /// `gflops` with arithmetic intensity `ai`, against this roofline's
    /// slowest (DRAM-level) ceiling.
    pub fn roof_fraction(&self, ai: f64, gflops: f64) -> f64 {
        let dram = self.ceilings.last().expect("at least one ceiling").1;
        let roof = self.attainable(ai, dram);
        if roof > 0.0 {
            gflops / roof
        } else {
            0.0
        }
    }

    /// Places every Figure 8 kernel on this roofline for the paper's
    /// single-node experiment (2048² grid, 64 processes, flat MCDRAM).
    pub fn place_kernels(&self, spec: &ProcessorSpec) -> Vec<RooflinePoint> {
        let shape = MatrixShape::gray_scott(2048);
        let dram = self.ceilings.last().expect("at least one ceiling").1;
        KernelKind::FIG8
            .iter()
            .map(|&kernel| {
                let traffic = if kernel.is_sell() {
                    sellkit_core::traffic::sell_traffic(shape.m, shape.n, shape.nnz)
                } else {
                    sellkit_core::traffic::csr_traffic(shape.m, shape.n, shape.nnz)
                };
                let ai = traffic.arithmetic_intensity();
                let gflops = predict_gflops(
                    spec,
                    MemoryMode::FlatMcdram,
                    kernel,
                    spec.cores.min(64),
                    shape,
                );
                RooflinePoint {
                    kernel,
                    ai,
                    gflops,
                    roof_fraction: gflops / self.attainable(ai, dram),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::knl_7230;

    #[test]
    fn theta_ceilings_match_figure9() {
        let r = Roofline::theta_knl();
        assert_eq!(r.peak_gflops, 1018.4);
        assert_eq!(r.ceilings[2], ("MCDRAM", 419.7));
    }

    #[test]
    fn attainable_is_min_of_roofs() {
        let r = Roofline::theta_knl();
        // Low AI: bandwidth-bound.
        assert_eq!(r.attainable(0.1, 419.7), 41.97);
        // Huge AI: compute-bound.
        assert_eq!(r.attainable(100.0, 419.7), 1018.4);
    }

    #[test]
    fn sell_avx512_sits_near_the_mcdram_roof() {
        // Figure 9's headline: "the AVX-512 version of the sliced ELLPACK
        // SpMV kernel has pushed the baseline performance close to the
        // MCDRAM roofline".
        let r = Roofline::theta_knl();
        let pts = r.place_kernels(&knl_7230());
        let sell = pts
            .iter()
            .find(|p| p.kernel == KernelKind::SellAvx512)
            .expect("present");
        assert!(
            sell.roof_fraction > 0.80,
            "roof fraction {}",
            sell.roof_fraction
        );
        let base = pts
            .iter()
            .find(|p| p.kernel == KernelKind::CsrBaseline)
            .expect("present");
        assert!(
            base.roof_fraction < 0.55,
            "baseline must sit well below: {}",
            base.roof_fraction
        );
    }

    #[test]
    fn ai_near_paper_value() {
        let r = Roofline::theta_knl();
        let pts = r.place_kernels(&knl_7230());
        for p in &pts {
            // §7.2: "The arithmetic intensity of the SpMV kernel is
            // around 0.132".
            assert!((0.12..0.16).contains(&p.ai), "{}: AI {}", p.kernel, p.ai);
        }
    }
}
