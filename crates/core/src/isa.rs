//! Instruction-set selection and runtime dispatch.
//!
//! The paper compares the *same* storage format driven by AVX, AVX2, and
//! AVX-512 kernels (Figures 8 and 11).  To make that comparison possible on
//! a single host, every kernel exists for every ISA and callers can force a
//! particular one; [`Isa::detect`] picks the widest ISA supported by the
//! running CPU.

use std::fmt;

/// An x86 SIMD instruction-set tier (plus portable scalar).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Portable scalar code (what the compiler auto-vectorizes; the paper's
    /// "CSR baseline" role).
    Scalar,
    /// 256-bit AVX: no FMA — multiply and add are issued separately
    /// (§5.5).
    Avx,
    /// 256-bit AVX2 + FMA: the AVX lanes with a fused multiply-add, half
    /// the AVX-512 width.  (No tier uses the hardware gather: `x` is read
    /// with scalar loads everywhere, the §5.5 emulation.)
    Avx2,
    /// 512-bit AVX-512 (F + VL as on KNL and Skylake-SP).
    Avx512,
}

impl Isa {
    /// All tiers, narrowest first.
    pub(crate) const ALL: [Isa; 4] = [Isa::Scalar, Isa::Avx, Isa::Avx2, Isa::Avx512];

    /// The widest ISA available on the current CPU.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
                return Isa::Avx512;
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return Isa::Avx2;
            }
            if is_x86_feature_detected!("avx") {
                return Isa::Avx;
            }
        }
        Isa::Scalar
    }

    /// Whether this ISA can run on the current CPU.
    pub fn available(self) -> bool {
        self <= Isa::detect()
    }

    /// Every ISA tier the current CPU supports, narrowest first.
    pub fn available_tiers() -> Vec<Isa> {
        Isa::ALL.iter().copied().filter(|i| i.available()).collect()
    }

    /// SIMD width in 64-bit (double-precision) lanes: 1, 4, 4, 8.
    pub(crate) fn f64_lanes(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Avx | Isa::Avx2 => 4,
            Isa::Avx512 => 8,
        }
    }

    /// Whether the tier has fused multiply-add.
    pub fn has_fma(self) -> bool {
        matches!(self, Isa::Avx2 | Isa::Avx512)
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Isa::Scalar => "novec",
            Isa::Avx => "AVX",
            Isa::Avx2 => "AVX2",
            Isa::Avx512 => "AVX512",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_match_register_widths() {
        assert_eq!(Isa::Scalar.f64_lanes(), 1);
        assert_eq!(Isa::Avx.f64_lanes(), 4);
        assert_eq!(Isa::Avx2.f64_lanes(), 4);
        assert_eq!(Isa::Avx512.f64_lanes(), 8);
    }

    #[test]
    fn feature_matrix_matches_paper() {
        assert!(!Isa::Scalar.has_fma() && !Isa::Avx.has_fma());
        assert!(Isa::Avx2.has_fma() && Isa::Avx512.has_fma());
    }

    #[test]
    fn detect_is_in_available_tiers() {
        let d = Isa::detect();
        assert!(Isa::available_tiers().contains(&d));
        // Scalar always runs.
        assert!(Isa::Scalar.available());
    }

    #[test]
    fn ordering_is_by_width_then_capability() {
        assert!(Isa::Scalar < Isa::Avx);
        assert!(Isa::Avx < Isa::Avx2);
        assert!(Isa::Avx2 < Isa::Avx512);
    }

    #[test]
    fn display_labels_match_paper_legends() {
        assert_eq!(Isa::Avx512.to_string(), "AVX512");
        assert_eq!(Isa::Scalar.to_string(), "novec");
    }
}
