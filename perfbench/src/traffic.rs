//! Seeded input synthesis and open-loop pacing.
//!
//! Everything a workload feeds the program is drawn here from the
//! `--seed` argument, so one seed always produces the same catalog, user
//! factors, popularity ranking and request stream.

use std::time::Duration;

/// SplitMix64: a tiny, fast, well-mixed generator. Stateless helpers
/// ([`mix`]) derive independent streams from `(seed, index)` pairs so a
/// row can be regenerated without replaying the whole stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

/// One SplitMix64 output step applied to `z`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)` as `f32`.
    pub fn sym(&mut self) -> f32 {
        (2.0 * self.unit() - 1.0) as f32
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Fill `out` with uniform `[-scale, scale)` values from stream `seed`.
pub fn fill_sym(out: &mut [f32], seed: u64, scale: f32) {
    let mut rng = Rng::new(seed);
    for v in out {
        *v = rng.sym() * scale;
    }
}

/// Zipf popularity over `n` users with skew `s`: the user at popularity
/// rank `r` (0-based) gets weight `1 / (r + 1)^s`, and ranks are assigned
/// to user ids by a seeded Fisher–Yates shuffle, so which users are hot
/// changes with the seed while the shape of the curve does not.
pub fn zipf_weights(n: usize, s: f64, seed: u64) -> Vec<f64> {
    let mut ids: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed ^ 0x21F0_AAAD);
    for i in (1..n).rev() {
        ids.swap(i, rng.below(i + 1));
    }
    let mut w = vec![0.0; n];
    for (rank, &id) in ids.iter().enumerate() {
        w[id] = 1.0 / ((rank + 1) as f64).powf(s);
    }
    w
}

/// Sleep until `due` on `now`'s clock, without overshooting by a
/// scheduler tick: sleep while more than [`SPIN_WINDOW`] remains, then
/// yield until the deadline, calling `idle` before each sleep or yield.
/// Returns the lateness `now() - due` at exit.
pub fn pace_until(now: impl Fn() -> f64, due: f64, mut idle: impl FnMut()) -> f64 {
    loop {
        let left = due - now();
        if left <= 0.0 {
            return -left;
        }
        idle();
        if left > SPIN_WINDOW {
            std::thread::sleep(Duration::from_secs_f64(left - SPIN_WINDOW));
        } else {
            std::thread::yield_now();
        }
    }
}

/// How close to a send the pacer stops sleeping and starts yielding.
/// Above the host's timer slack, so a sleep never ends past the deadline.
pub const SPIN_WINDOW: f64 = 1.0e-3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_weights_are_deterministic_per_seed() {
        let a = zipf_weights(1000, 1.0, 7);
        assert_eq!(a, zipf_weights(1000, 1.0, 7));
        assert_ne!(
            a,
            zipf_weights(1000, 1.0, 8),
            "the seed picks the hot users"
        );
        let mut sorted = a.clone();
        sorted.sort_by(|x, y| y.total_cmp(x));
        let expect: Vec<f64> = (1..=1000).map(|r| 1.0 / r as f64).collect();
        assert_eq!(sorted, expect, "the curve itself is seed-independent");
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        for _ in 0..100 {
            let (x, y) = (a.unit(), b.unit());
            assert_eq!(x, y);
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn pacer_is_never_early() {
        let t0 = std::time::Instant::now();
        let now = || t0.elapsed().as_secs_f64();
        for due in [0.0005, 0.003, 0.004] {
            let late = pace_until(now, due, || {});
            assert!(late >= 0.0 && now() >= due);
        }
    }
}
