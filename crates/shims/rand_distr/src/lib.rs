//! Vendored work-alike shim for the slice of `rand_distr` this workspace
//! uses: `Normal` (f32/f64, Box–Muller), `LogNormal` (f64), and `Zipf`
//! (exact inverse-CDF table). See `crates/shims/rand/src/lib.rs` for why
//! these shims exist.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rand::{Rng, RngCore};

/// A distribution that can be sampled with any [`RngCore`].
pub trait Distribution<T> {
    /// Draw one sample.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;

    /// An iterator of samples driven by `rng` (which may be `&mut R`).
    fn sample_iter<R: RngCore>(self, rng: R) -> SampleIter<Self, R, T>
    where
        Self: Sized,
    {
        SampleIter {
            dist: self,
            rng,
            _marker: std::marker::PhantomData,
        }
    }
}

/// Iterator returned by [`Distribution::sample_iter`].
pub struct SampleIter<D, R, T> {
    dist: D,
    rng: R,
    _marker: std::marker::PhantomData<T>,
}

impl<D: Distribution<T>, R: RngCore, T> Iterator for SampleIter<D, R, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        Some(self.dist.sample(&mut self.rng))
    }
}

/// Error from constructing a distribution with invalid parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamError;

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter")
    }
}

impl std::error::Error for ParamError {}

fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller: two uniforms → one standard normal (the second is
    // discarded — simplicity over throughput; callers are test-sized).
    let mut u1 = rng.gen_f64();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.gen_f64();
    }
    let u2 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Float types [`Normal`] and [`LogNormal`] are generic over.
pub trait NormalFloat: Copy {
    /// Widen to `f64`.
    fn to_f64(self) -> f64;
    /// Narrow from `f64`.
    fn from_f64(x: f64) -> Self;
}

impl NormalFloat for f32 {
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(x: f64) -> Self {
        x as f32
    }
}

impl NormalFloat for f64 {
    fn to_f64(self) -> f64 {
        self
    }
    fn from_f64(x: f64) -> Self {
        x
    }
}

/// The normal distribution `N(mean, std_dev²)`.
#[derive(Clone, Copy, Debug)]
pub struct Normal<F> {
    mean: F,
    std_dev: F,
}

impl<F: NormalFloat> Normal<F> {
    /// `N(mean, std_dev²)`; `std_dev` must be finite and ≥ 0.
    pub fn new(mean: F, std_dev: F) -> Result<Self, ParamError> {
        if std_dev.to_f64().is_finite() && std_dev.to_f64() >= 0.0 && mean.to_f64().is_finite() {
            Ok(Normal { mean, std_dev })
        } else {
            Err(ParamError)
        }
    }
}

impl<F: NormalFloat> Distribution<F> for Normal<F> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> F {
        F::from_f64(self.mean.to_f64() + self.std_dev.to_f64() * standard_normal(rng))
    }
}

/// The log-normal distribution: `exp(N(mu, sigma²))`.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal<F> {
    norm: Normal<F>,
}

impl LogNormal<f64> {
    /// Log-normal with underlying normal `N(mu, sigma²)`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        Ok(LogNormal {
            norm: Normal::new(mu, sigma)?,
        })
    }
}

impl Distribution<f64> for LogNormal<f64> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// The Zipf distribution over `{1, …, n}` with exponent `s`:
/// `P(k) ∝ k^{-s}`. Sampled exactly by inverse CDF over a precomputed
/// normalized table (`O(n)` memory, `O(log n)` per sample — fine at the
/// scaled dataset sizes this workspace generates).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf over `n ≥ 1` items with exponent `s > 0`.
    pub fn new(n: u64, s: f64) -> Result<Self, ParamError> {
        if n == 0 || !s.is_finite() || s <= 0.0 {
            return Err(ParamError);
        }
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Zipf { cdf })
    }
}

impl Distribution<f64> for Zipf {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = rng.gen_f64();
        // First index whose CDF value exceeds u → 1-based rank.
        let idx = self.cdf.partition_point(|&c| c < u);
        (idx.min(self.cdf.len() - 1) + 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn normal_mean_and_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Normal::new(5.0f64, 2.0).unwrap();
        let n = 20_000;
        let samples: Vec<f64> = d.sample_iter(&mut rng).take(n).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn lognormal_is_positive_with_right_median() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = LogNormal::new(2.0, 0.5).unwrap();
        let mut samples: Vec<f64> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5000];
        assert!((median - 2.0f64.exp()).abs() < 0.5, "median {median}");
    }

    #[test]
    fn zipf_is_one_based_and_head_heavy() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Zipf::new(1000, 1.0).unwrap();
        let mut head = 0usize;
        let n = 10_000;
        for _ in 0..n {
            let k = d.sample(&mut rng);
            assert!((1.0..=1000.0).contains(&k));
            if k <= 100.0 {
                head += 1;
            }
        }
        // Top 10% of ranks carry well over half the mass at s = 1.
        assert!(head as f64 > 0.55 * n as f64, "head mass {head}/{n}");
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, 0.0).is_err());
    }
}
