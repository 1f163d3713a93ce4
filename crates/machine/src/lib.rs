//! # sellkit-machine
//!
//! This host's memory roof: [`stream_probe`] *measures* its copy and triad
//! bandwidth (McCalpin's STREAM), the roof every number measured here is a
//! fraction of.
//!
//! The paper's KNL and Xeon results are not modelled: EXPERIMENTS.md sets
//! each of its numbers beside what this host measured, or marks it "not
//! reproduced on this host".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stream;

pub use stream::{stream_probe, StreamKernel, StreamPoint};

/// The STREAM bandwidth (GB/s) a saturating curve assigns to Table 1's
/// Skylake 8180M at `threads` threads: `119.2 · (1 − e^{−t/τ})`, τ = 28 / 5
/// cores, `threads` clamped to at least one.
///
/// Kept only for the frozen `benchmark/` (its `machine.model_bw_gbs_t1`);
/// nothing in the workspace reports a number against it — measured numbers
/// are judged against [`stream_probe`].
pub fn host_stream_bw_gbs(threads: usize) -> f64 {
    119.2 * (1.0 - (-(threads.max(1) as f64) / (28.0 / 5.0)).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_bandwidth_bits_are_pinned() {
        for (t, bits) in [
            (0, 0x4033_7e53_09eb_1de9),
            (1, 0x4033_7e53_09eb_1de9),
            (2, 0x4041_e646_bb2f_d7c6),
            (4, 0x404e_6c5e_8243_2143),
            (28, 0x405d_9965_c5d5_1a61),
            (56, 0x405d_cc74_229a_a2b7),
        ] {
            assert_eq!(host_stream_bw_gbs(t).to_bits(), bits, "threads = {t}");
        }
    }
}
