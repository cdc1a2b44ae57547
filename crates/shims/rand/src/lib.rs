//! Vendored work-alike shim for the tiny slice of the `rand` crate API this
//! workspace uses. The build environment has no registry access, so the
//! workspace points `rand` at this path crate (see the root `Cargo.toml`).
//!
//! Only determinism and reasonable statistical quality are required by the
//! callers (synthetic dataset generation and property tests) — the stream is
//! **not** identical to upstream `rand`'s `StdRng`. `StdRng` here is
//! splitmix64, which passes the callers' statistical-shape assertions.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// The core random-number-generator interface.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Convenience extension trait over [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        // 53 mantissa bits of the next u64.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
    /// A uniform `f32` in `[0, 1)`.
    fn gen_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (splitmix64).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng {
                state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // splitmix64 (Steele, Lea, Flood 2014) — full-period, passes
            // BigCrush; more than adequate for synthetic data generation.
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.gen_f32();
            assert!((0.0..1.0).contains(&y));
        }
    }
}
