//! Probability distributions used by the error model and workload generators.
//!
//! Everything here samples from an explicit [`Rng`] so that the
//! whole reproduction stays deterministic under a single seed.

use crate::rng::Rng;

/// A normal (Gaussian) distribution sampled with the Marsaglia polar method.
///
/// # Example
///
/// ```
/// use rr_util::{rng::Rng, dist::Normal};
/// let mut rng = Rng::seed_from_u64(1);
/// let n = Normal::new(10.0, 2.0).expect("sigma must be non-negative");
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParam`] if `sigma` is negative or either
    /// parameter is not finite.
    pub fn new(mean: f64, sigma: f64) -> Result<Self, DistError> {
        if !mean.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(DistError::InvalidParam(
                "normal requires finite mean and sigma >= 0",
            ));
        }
        Ok(Self { mean, sigma })
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.mean + self.sigma * standard_normal(rng)
    }
}

/// One standard-normal variate via the Marsaglia polar method.
pub fn standard_normal(rng: &mut Rng) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// A Zipf distribution over `0..n` with exponent `theta` (YCSB's default is
/// `theta = 0.99`), sampled with the Gray/Jain rejection-inversion-free method
/// used by the original YCSB `ZipfianGenerator`.
///
/// Item `0` is the most popular.
///
/// # Example
///
/// ```
/// use rr_util::{rng::Rng, dist::Zipf};
/// let mut rng = Rng::seed_from_u64(5);
/// let z = Zipf::new(100, 0.99).expect("valid parameters");
/// // Rank 0 should be sampled far more often than rank 99.
/// let mut hits0 = 0;
/// for _ in 0..1000 { if z.sample(&mut rng) == 0 { hits0 += 1; } }
/// assert!(hits0 > 50);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParam`] if `n == 0`, or `theta` is not in
    /// `(0, 1)` ∪ `(1, ∞)` (YCSB's algorithm excludes exactly 1.0).
    pub fn new(n: u64, theta: f64) -> Result<Self, DistError> {
        if n == 0 {
            return Err(DistError::InvalidParam("zipf requires n > 0"));
        }
        if !theta.is_finite() || theta <= 0.0 || (theta - 1.0).abs() < 1e-9 {
            return Err(DistError::InvalidParam(
                "zipf requires finite theta > 0, theta != 1",
            ));
        }
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Ok(Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
        })
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // For the sizes used here (≤ a few million) the direct sum is fine and
        // exact; it is computed once per generator.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// The population size `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew exponent theta.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        let rank = (self.n as f64 * spread) as u64;
        rank.min(self.n - 1)
    }
}

/// Exponentially distributed inter-arrival times: a Poisson arrival process.
///
/// # Example
///
/// ```
/// use rr_util::{rng::Rng, dist::Exponential};
/// let mut rng = Rng::seed_from_u64(2);
/// let e = Exponential::new(1000.0).expect("rate must be positive"); // 1000 events/s
/// let dt = e.sample(&mut rng);
/// assert!(dt > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with `rate` events per unit time.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParam`] if `rate` is not strictly positive.
    pub fn new(rate: f64) -> Result<Self, DistError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(DistError::InvalidParam("exponential requires rate > 0"));
        }
        Ok(Self { rate })
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draws one inter-arrival time (same unit as `1/rate`).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF; `1 - u` avoids ln(0).
        -(1.0 - rng.next_f64()).ln() / self.rate
    }
}

/// A discrete distribution sampled by inverse CDF over explicit weights.
///
/// Used for workload op mixes (e.g. YCSB-A: 50 % read / 50 % update).
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    cumulative: Vec<f64>,
}

impl Discrete {
    /// Builds a discrete distribution from non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParam`] if `weights` is empty, contains a
    /// negative or non-finite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, DistError> {
        if weights.is_empty() {
            return Err(DistError::InvalidParam(
                "discrete requires at least one weight",
            ));
        }
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(DistError::InvalidParam(
                    "discrete weights must be finite and >= 0",
                ));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(DistError::InvalidParam(
                "discrete weights must not sum to zero",
            ));
        }
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|&w| {
                acc += w / total;
                acc
            })
            .collect();
        Ok(Self { cumulative })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution has zero categories (never true post-`new`).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws one category index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative weights are finite"))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Error type for invalid distribution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistError {
    /// A constructor argument was out of the distribution's domain.
    InvalidParam(&'static str),
}

impl core::fmt::Display for DistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DistError::InvalidParam(msg) => write!(f, "invalid distribution parameter: {msg}"),
        }
    }
}

impl std::error::Error for DistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(8);
        let n = Normal::new(5.0, 2.0).unwrap();
        let samples: Vec<f64> = (0..50_000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn zero_sigma_is_degenerate() {
        let mut rng = Rng::seed_from_u64(10);
        let n = Normal::new(3.0, 0.0).unwrap();
        assert_eq!(n.sample(&mut rng), 3.0);
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::seed_from_u64(11);
        let z = Zipf::new(1000, 0.99).unwrap();
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            let r = z.sample(&mut rng) as usize;
            assert!(r < 1000);
            counts[r] += 1;
        }
        // Head dominates: rank 0 should beat rank 500 by a wide margin.
        assert!(counts[0] > 20 * counts[500].max(1));
        // Top-10 should get a large share under theta=0.99.
        let top10: u32 = counts[..10].iter().sum();
        assert!(top10 as f64 > 0.15 * 100_000.0, "top10 = {top10}");
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 0.99).is_err());
        assert!(Zipf::new(10, 1.0).is_err());
        assert!(Zipf::new(10, -0.5).is_err());
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng::seed_from_u64(12);
        let e = Exponential::new(4.0).unwrap();
        let mean = (0..50_000).map(|_| e.sample(&mut rng)).sum::<f64>() / 50_000.0;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn discrete_frequencies_match_weights() {
        let mut rng = Rng::seed_from_u64(13);
        let d = Discrete::new(&[1.0, 3.0]).unwrap();
        let mut c = [0u32; 2];
        for _ in 0..40_000 {
            c[d.sample(&mut rng)] += 1;
        }
        let frac = c[1] as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn discrete_rejects_bad_weights() {
        assert!(Discrete::new(&[]).is_err());
        assert!(Discrete::new(&[0.0, 0.0]).is_err());
        assert!(Discrete::new(&[-1.0, 2.0]).is_err());
    }
}
