//! Software IEEE 754 binary16 ("half precision", FP16).
//!
//! The paper's Solution 4 stores the Gram matrices `A_u` in FP16 to halve the
//! bytes moved by the memory-bound CG solver. GPUs read FP16 and widen to
//! FP32 before the FMA; we reproduce exactly that contract: [`F16`] is a
//! **storage** type — all arithmetic happens after conversion to `f32`.
//!
//! The conversion pair implemented here is the standard round-to-nearest-even
//! narrowing and exact widening, covering normals, subnormals, signed zeros,
//! infinities and NaNs.

use crate::kernel::{runnable, Compilation, Isa};

/// An IEEE 754 binary16 value stored as its raw bit pattern.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
/// Largest finite value is 65504; smallest positive normal is 2⁻¹⁴;
/// unit roundoff is 2⁻¹¹ ≈ 4.88e-4.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(pub u16);

const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;
const SIGN_MASK: u16 = 0x8000;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value (65504.0).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value (2⁻¹⁴).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value (2⁻²⁴).
    pub const MIN_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon: distance from 1.0 to the next representable value.
    pub const EPSILON: F16 = F16(0x1400);

    /// Narrow an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values above [`F16::MAX`] overflow to infinity; values below the
    /// subnormal range flush to (signed) zero via the rounding, matching
    /// hardware `__float2half_rn`. A NaN stays a NaN of the same sign,
    /// keeping the top ten bits of its payload with the quiet bit set.
    ///
    /// Branch-free: all three encodings are computed and the magnitude
    /// selects one, so a loop over a slice vectorizes.
    ///
    /// * normal results rebase the exponent by integer subtraction and
    ///   round the 13 dropped mantissa bits to nearest even by adding
    ///   `0xFFF` plus the lowest kept bit — a carry rolls into the
    ///   exponent, and from the largest finite value into infinity;
    /// * subnormal results (`|x| < 2⁻¹⁴`) add `0.5`, whose ulp is the
    ///   binary16 subnormal unit `2⁻²⁴`, so the FPU's own rounding leaves
    ///   the encoded mantissa in the low bits of the sum;
    /// * `|x| ≥ 2¹⁶` is infinity, or NaN with payload
    ///   `0x7E00 | mantissa >> 13`.
    #[inline]
    pub fn from_f32(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = (bits >> 16) & 0x8000;
        let abs = bits & 0x7FFF_FFFF;
        let odd = (abs >> 13) & 1;
        let normal = abs.wrapping_sub(112 << 23).wrapping_add(0xFFF + odd) >> 13;
        let half = f32::from_bits(126 << 23);
        let subnormal = (f32::from_bits(abs) + half)
            .to_bits()
            .wrapping_sub(half.to_bits());
        let special = if abs > 0x7F80_0000 {
            0x7E00 | ((abs >> 13) & 0x3FF)
        } else {
            0x7C00
        };
        let h = if abs >= 143 << 23 {
            special
        } else if abs < 113 << 23 {
            subnormal
        } else {
            normal
        };
        F16((sign | h) as u16)
    }

    /// Widen to `f32`. Exact for every binary16 value.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & SIGN_MASK) as u32) << 16;
        let exp = ((self.0 & EXP_MASK) >> 10) as u32;
        let man = (self.0 & MAN_MASK) as u32;

        let bits = if exp == 0 {
            if man == 0 {
                sign // signed zero
            } else {
                // Subnormal: value = man × 2⁻²⁴ = 1.fff × 2^(p−24) where p is
                // the MSB position of man. Normalize into f32.
                let p = 31 - man.leading_zeros(); // 0..=9
                let exp32 = 127 - 24 + p;
                let man32 = (man << (23 - p)) & 0x007F_FFFF; // drop leading 1
                sign | (exp32 << 23) | man32
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (man << 13) // inf / NaN
        } else {
            sign | ((exp + 127 - 15) << 23) | (man << 13)
        };
        f32::from_bits(bits)
    }

    /// `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }

    /// `true` if this value is +∞ or −∞.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & !SIGN_MASK) == EXP_MASK
    }

    /// `true` if this value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// Raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Construct from a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> Self {
        h.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl core::fmt::Debug for F16 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}f16", self.to_f32())
    }
}

impl core::fmt::Display for F16 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Narrow a whole `f32` slice into a pre-allocated `F16` buffer.
///
/// This is the store path of the paper's FP16 pipeline: `get_hermitian`
/// writes `A_u` once in FP16; the CG solver then reads it many times.
///
/// On x86-64 the loop runs in an AVX2 or AVX-512 compilation of the same
/// body, dispatched on [`crate::kernel::isa`] as the kernels are;
/// [`F16::from_f32`] is branch-free, so it vectorizes at any width with
/// the same bits.
pub fn narrow_slice(src: &[f32], dst: &mut [F16]) {
    (crate::kernel::best(NARROW).2)(src, dst)
}

/// Signature shared by the compilations of [`narrow_slice`].
pub type NarrowFn = fn(&[f32], &mut [F16]);

/// The compilations of [`narrow_slice`], portable body first.
static NARROW: &[Compilation<NarrowFn>] = &[
    ("portable", Isa::Portable, narrow_slice_impl),
    #[cfg(target_arch = "x86_64")]
    ("avx2", Isa::Avx2, |src, dst| {
        // SAFETY: `best` and `runnable` only hand out an entry on a host
        // that has the instruction set listed beside it.
        unsafe { x86::narrow_slice_avx2(src, dst) }
    }),
    #[cfg(target_arch = "x86_64")]
    ("avx512", Isa::Avx512, |src, dst| {
        // SAFETY: as above.
        unsafe { x86::narrow_slice_avx512(src, dst) }
    }),
];

/// Every compilation of [`narrow_slice`] this host can run, by name,
/// portable body first. Tests iterate it.
#[doc(hidden)]
pub fn narrow_slice_compilations() -> Vec<(&'static str, NarrowFn)> {
    runnable(NARROW)
}

#[inline(always)]
fn narrow_slice_impl(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "narrow_slice: length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F16::from_f32(s);
    }
}

/// [`narrow_slice_impl`] compiled for AVX2 and for AVX-512. Callers
/// must have verified the features.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn narrow_slice_avx2(src: &[f32], dst: &mut [F16]) {
        narrow_slice_impl(src, dst)
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    pub unsafe fn narrow_slice_avx512(src: &[f32], dst: &mut [F16]) {
        narrow_slice_impl(src, dst)
    }
}

/// Widen a whole `F16` slice into a pre-allocated `f32` buffer, through
/// the branch-light [`crate::kernel::decode_f16`] (bit-identical to
/// [`F16::to_f32`] for every pattern), so the loop vectorizes.
pub fn widen_slice(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen_slice: length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = crate::kernel::decode_f16(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branchy encoder `F16::from_f32` replaced, kept as the
    /// reference the branch-free one must match bit for bit.
    fn from_f32_reference(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN. Preserve NaN-ness (set a mantissa bit).
            return if man == 0 {
                F16(sign | EXP_MASK)
            } else {
                F16(sign | EXP_MASK | 0x0200 | ((man >> 13) as u16 & MAN_MASK))
            };
        }

        // Unbiased exponent in f32, rebiased for f16 (bias 15).
        let half_exp = exp - 127 + 15;
        if half_exp >= 0x1F {
            // Overflow → infinity.
            return F16(sign | EXP_MASK);
        }

        if half_exp <= 0 {
            // Subnormal (or zero) in f16: the implicit leading 1 of the
            // f32 mantissa becomes explicit and is shifted right.
            if half_exp < -10 {
                // Too small even for the largest shift: rounds to zero.
                return F16(sign);
            }
            let full_man = man | 0x0080_0000;
            // value = full_man × 2^(exp-150); the subnormal unit is 2⁻²⁴,
            // so half_man = full_man >> (14 - half_exp).
            let shift = (14 - half_exp) as u32;
            let half_man = full_man >> shift;
            // Round to nearest even on the dropped bits.
            let dropped = full_man & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut h = half_man as u16;
            if dropped > halfway || (dropped == halfway && (h & 1) == 1) {
                h += 1; // may carry into the exponent: that is correct
            }
            return F16(sign | h);
        }

        // Normal case: keep top 10 mantissa bits, round-to-nearest-even.
        let mut h = (half_exp as u16) << 10 | ((man >> 13) as u16 & MAN_MASK);
        let dropped = man & 0x1FFF;
        if dropped > 0x1000 || (dropped == 0x1000 && (h & 1) == 1) {
            h += 1; // carries into exponent (and to infinity) correctly
        }
        F16(sign | h)
    }

    fn assert_encodes_like_reference(bits: u32) {
        let x = f32::from_bits(bits);
        assert_eq!(
            F16::from_f32(x).to_bits(),
            from_f32_reference(x).to_bits(),
            "input {bits:#010x}"
        );
    }

    /// Every sign × exponent × top-ten-mantissa pattern, crossed with the
    /// low 13 bits that decide the rounding (zero, sticky-only, just
    /// below, at and just above halfway, all ones), plus NaN payloads.
    #[test]
    fn encoder_matches_reference_on_rounding_critical_patterns() {
        const LOW: [u32; 6] = [0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF];
        for sign in [0u32, 1] {
            for exp in 0u32..256 {
                for top in 0u32..1024 {
                    for low in LOW {
                        assert_encodes_like_reference(sign << 31 | exp << 23 | top << 13 | low);
                    }
                }
            }
        }
        for payload in [
            1u32, 0x1FFF, 0x2000, 0x40_0000, 0x40_0001, 0x7F_FFFF, 0x15_5555,
        ] {
            assert_encodes_like_reference(0x7F80_0000 | payload);
            assert_encodes_like_reference(0xFF80_0000 | payload);
        }
    }

    /// The whole `f32` domain; about 20 s in release, so it runs under
    /// `cargo test --release -p cumf-numeric -- --ignored`.
    #[test]
    #[ignore = "exhaustive 2^32 sweep: run in release with --ignored"]
    fn encoder_matches_reference_on_every_f32() {
        let mut src = vec![0.0f32; 1 << 16];
        let mut dst = vec![F16::ZERO; 1 << 16];
        for hi in 0u32..1 << 16 {
            for (lo, x) in src.iter_mut().enumerate() {
                *x = f32::from_bits(hi << 16 | lo as u32);
            }
            narrow_slice(&src, &mut dst);
            for (&x, h) in src.iter().zip(&dst) {
                let want = from_f32_reference(x);
                assert_eq!(h.to_bits(), want.to_bits(), "input {:#010x}", x.to_bits());
            }
        }
    }

    /// Every compilation of [`narrow_slice`] against the branchy
    /// reference encoder: every sign, exponent and top mantissa bits
    /// (all 2¹⁶ high halves), each with low halves at and around the
    /// rounding boundaries, in a slice long enough to fill the widest
    /// vector loop and leave a remainder.
    #[test]
    fn every_narrow_compilation_matches_the_reference_encoder() {
        let lows = [
            0x0000u32, 0x0001, 0x0FFF, 0x1000, 0x1001, 0x2000, 0x7FFF, 0xFFFF,
        ];
        let src: Vec<f32> = (0u32..1 << 16)
            .flat_map(|hi| lows.map(|lo| f32::from_bits(hi << 16 | lo)))
            .collect();
        for (name, narrow) in narrow_slice_compilations() {
            let mut dst = vec![F16::ZERO; src.len() - 3];
            narrow(&src[..dst.len()], &mut dst);
            for (&x, h) in src.iter().zip(&dst) {
                let want = from_f32_reference(x);
                assert_eq!(
                    h.to_bits(),
                    want.to_bits(),
                    "{name}: input {:#010x}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn narrow_slice_matches_scalar_encoder_at_every_length() {
        let src: Vec<f32> = (0..67)
            .map(|i| f32::from_bits(0x3300_0000u32.wrapping_add(i * 0x0123_4567)))
            .collect();
        for len in 0..src.len() {
            let mut dst = vec![F16::ZERO; len];
            narrow_slice(&src[..len], &mut dst);
            for (&x, h) in src.iter().zip(&dst) {
                assert_eq!(h.to_bits(), F16::from_f32(x).to_bits());
            }
        }
    }

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "integer {i} must be exact");
        }
    }

    #[test]
    fn constants_match_ieee() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert_eq!(F16::NEG_INFINITY.to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite()); // rounds up past MAX
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
        assert_eq!(F16::from_f32(1e9), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e9), F16::NEG_INFINITY);
    }

    #[test]
    fn underflow_flushes_to_signed_zero() {
        assert_eq!(F16::from_f32(1e-9).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-1e-9).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn subnormals_round_trip() {
        // Every subnormal is k × 2⁻²⁴ for k in 1..1024.
        for k in 1u32..1024 {
            let x = k as f32 * 2.0f32.powi(-24);
            let h = F16::from_f32(x);
            assert_eq!(h.to_f32(), x, "subnormal k={k}");
        }
    }

    #[test]
    fn round_to_nearest_even_at_halfway() {
        // 1 + 2⁻¹¹ is exactly halfway between 1.0 and 1+2⁻¹⁰: ties to even → 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // 1 + 3·2⁻¹¹ is halfway between 1+2⁻¹⁰ and 1+2·2⁻¹⁰: ties to even → 1+2·2⁻¹⁰.
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(
            F16::from_f32(halfway_up).to_f32(),
            1.0 + 2.0 * 2.0f32.powi(-10)
        );
    }

    #[test]
    fn rounding_carry_into_exponent() {
        // Just below 2.0: mantissa all-ones rounds up and carries.
        let x = 2.0 - 2.0f32.powi(-12);
        assert_eq!(F16::from_f32(x).to_f32(), 2.0);
    }

    #[test]
    fn nan_payload_preserved_as_nan() {
        let h = F16::from_f32(f32::NAN);
        assert!(h.is_nan());
        assert!(h.to_f32().is_nan());
    }

    #[test]
    fn relative_error_bound_for_normals() {
        // Unit roundoff for binary16 is 2⁻¹¹.
        let u = 2.0f32.powi(-11);
        let mut x = 2.0f32.powi(-14);
        while x < 60000.0 {
            let err = (F16::from_f32(x).to_f32() - x).abs() / x;
            assert!(err <= u, "x={x} err={err}");
            x *= 1.37;
        }
    }

    #[test]
    fn slice_round_trip() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.25).collect();
        let mut h = vec![F16::ZERO; src.len()];
        let mut back = vec![0.0f32; src.len()];
        narrow_slice(&src, &mut h);
        widen_slice(&h, &mut back);
        assert_eq!(src, back, "quarter-integers are exact in f16");
    }

    #[test]
    fn ordering_matches_f32() {
        let vals = [-3.5f32, -0.0, 0.0, 0.1, 1.0, 1000.0];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    F16::from_f32(a).partial_cmp(&F16::from_f32(b)),
                    a.partial_cmp(&b),
                    "ordering of {a} vs {b}"
                );
            }
        }
    }
}
