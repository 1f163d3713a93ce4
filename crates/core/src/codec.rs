//! Reduced-precision value codecs for packed SELL storage (PackSELL).
//!
//! The §6 traffic model says SpMV is bandwidth-bound: the `12·nnz` byte
//! term (8-byte value + 4-byte column index per nonzero) dominates, so
//! halving the bytes moved per nonzero is worth ~2× throughput on a
//! saturated memory bus.  A [`Codec`] selects how the SELL value array is
//! *stored*; every kernel still widens loads to f64 lanes and accumulates
//! in f64, and the iterative-refinement wrapper in `sellkit-solvers`
//! recovers full f64 accuracy from the reduced-precision operator.
//!
//! A value is encoded once, at conversion time (or at a value refresh),
//! into the packed bytes — the only copy a reduced-codec matrix holds.
//! `decode` of those bytes is exactly [`Codec::quantize`] of the input,
//! so `get`/`to_csr` observe the **rounded** matrix the kernels multiply
//! by, and every differential test can use the quantized CSR as its oracle
//! without codec-specific slack.

/// Storage precision for SELL/SELL-C-σ value arrays.
///
/// * [`Codec::F64`] — classic 8-byte storage, no packed bytes.
/// * [`Codec::F32`] — IEEE single precision, 4 bytes/value, ~2⁻²⁴
///   relative quantization error.
/// * [`Codec::Bf16`] — bfloat16 (top 16 bits of an f32, round-to-nearest
///   -even), 2 bytes/value, ~2⁻⁸ relative quantization error; keeps the
///   full f64 exponent range so no overflow on quantization.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum Codec {
    /// Full double precision (the default; no packing).
    #[default]
    F64,
    /// IEEE binary32 values, widened to f64 inside the kernels.
    F32,
    /// bfloat16 values (round-to-nearest-even), widened to f64.
    Bf16,
}

impl Codec {
    /// Bytes of packed storage per matrix value.
    pub fn bytes_per_value(self) -> usize {
        match self {
            Codec::F64 => 8,
            Codec::F32 => 4,
            Codec::Bf16 => 2,
        }
    }

    /// Round-trips `v` through the codec's storage precision: the value
    /// the packed bytes will decode to.  `F64` is the identity.
    pub fn quantize(self, v: f64) -> f64 {
        match self {
            Codec::F64 => v,
            Codec::F32 => v as f32 as f64,
            Codec::Bf16 => f32::from_bits(bf16_bits(v as f32) << 16) as f64,
        }
    }

    /// Upper bound on the *relative* quantization error of one value
    /// (half-ULP of the storage format), used by the fuzz harness to
    /// scale its error budget per codec.
    pub fn unit_roundoff(self) -> f64 {
        match self {
            Codec::F64 => 0.0,
            Codec::F32 => (f32::EPSILON / 2.0) as f64,
            // bf16 has an 8-bit significand (7 explicit bits), so the
            // round-to-nearest half-ULP bound is 2⁻⁸.
            Codec::Bf16 => 1.0 / 256.0,
        }
    }

    /// Short lowercase name used in bench labels and fuzz reports.
    pub fn label(self) -> &'static str {
        match self {
            Codec::F64 => "f64",
            Codec::F32 => "f32",
            Codec::Bf16 => "bf16",
        }
    }
}

/// Top 16 bits of `v` rounded to nearest-even — the bfloat16 bit pattern.
/// NaN payloads are forced to a quiet NaN so the rounding add cannot
/// carry a signalling NaN into an infinity.
fn bf16_bits(v: f32) -> u32 {
    let bits = v.to_bits();
    if v.is_nan() {
        // Quiet NaN with the sign preserved.
        return (bits >> 16) | 0x0040;
    }
    // Round to nearest, ties to even on the truncated 16 bits.
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    rounded >> 16
}

/// Encodes `v` into the codec's little-endian packed bytes, rounding
/// exactly as [`Codec::quantize`] does; `F64` panics (it is not packed).
pub(crate) fn encode_into(codec: Codec, v: f64, out: &mut [u8]) {
    match codec {
        Codec::F64 => unreachable!("F64 values are not packed"),
        Codec::F32 => out[..4].copy_from_slice(&(v as f32).to_le_bytes()),
        Codec::Bf16 => {
            let hi = (bf16_bits(v as f32) & 0xFFFF) as u16;
            out[..2].copy_from_slice(&hi.to_le_bytes());
        }
    }
}

/// The f64 value of one packed encoding — `quantize` of what was encoded.
pub(crate) fn decode(codec: Codec, bytes: &[u8]) -> f64 {
    match codec {
        Codec::F64 => unreachable!("F64 values are not packed"),
        Codec::F32 => f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as f64,
        Codec::Bf16 => {
            f32::from_bits((u16::from_le_bytes([bytes[0], bytes[1]]) as u32) << 16) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_is_identity() {
        for v in [0.0, -1.5, 1e300, f64::INFINITY, f64::MIN_POSITIVE] {
            assert_eq!(Codec::F64.quantize(v).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn decode_of_encode_is_quantize() {
        // The unrounded value goes in: `encode_into` rounds as `quantize`
        // does, and re-encoding the rounded value changes nothing.
        let mut buf = [0u8; 4];
        for codec in [Codec::F32, Codec::Bf16] {
            for v in [
                0.0,
                -2.75,
                1e-8,
                std::f64::consts::PI,
                -1e30,
                1.0 / 3.0,
                1e300,
            ] {
                let q = codec.quantize(v);
                encode_into(codec, v, &mut buf);
                assert_eq!(
                    decode(codec, &buf).to_bits(),
                    q.to_bits(),
                    "{codec:?} v = {v}"
                );
                encode_into(codec, q, &mut buf);
                assert_eq!(
                    decode(codec, &buf).to_bits(),
                    q.to_bits(),
                    "{codec:?} q = {q}"
                );
            }
        }
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between bf16(1.0) and the next
        // representable value; ties-to-even keeps 1.0 (even significand).
        let half_ulp = 1.0 + 1.0 / 256.0;
        assert_eq!(Codec::Bf16.quantize(half_ulp), 1.0);
        // Just above the tie rounds up.
        let above = 1.0 + 1.0 / 256.0 + 1.0 / 65536.0;
        assert_eq!(Codec::Bf16.quantize(above), 1.0 + 1.0 / 128.0);
    }

    #[test]
    fn bf16_preserves_nan_and_infinity() {
        assert!(Codec::Bf16.quantize(f64::NAN).is_nan());
        assert_eq!(Codec::Bf16.quantize(f64::INFINITY), f64::INFINITY);
        assert_eq!(Codec::Bf16.quantize(f64::NEG_INFINITY), f64::NEG_INFINITY);
        // Huge-but-finite f64 overflows f32 to Inf — quantize is the
        // storage round-trip, so that is what the packed bytes decode to.
        assert_eq!(Codec::Bf16.quantize(1e300), f64::INFINITY);
    }

    #[test]
    fn quantization_error_within_unit_roundoff() {
        for codec in [Codec::F32, Codec::Bf16] {
            let u = codec.unit_roundoff();
            for i in 1..1000 {
                let v = (i as f64) * 0.137 - 31.0;
                let q = codec.quantize(v);
                assert!(
                    (q - v).abs() <= u * v.abs() * 1.0001,
                    "{codec:?}: v={v} q={q}"
                );
            }
        }
    }
}
