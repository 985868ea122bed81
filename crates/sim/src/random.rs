//! Seeded pseudo-random number generation and the sampling distributions
//! used by load generators and workloads.
//!
//! Everything here is deterministic given the seed. The paper's memcached
//! client draws key/value lengths from a Zipfian distribution with
//! `min = 10, max = 100, skew = 0.5` (§VI.A); [`Zipf`] implements exactly
//! that parameterization.

/// The simulator-wide RNG: a seedable, deterministic xoshiro256++
/// generator (the same algorithm `rand`'s `SmallRng` uses on 64-bit
/// targets), implemented locally so the simulator has no external
/// dependencies.
///
/// ```
/// use simnet_sim::random::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed (state expanded via SplitMix64).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi]` (inclusive), unbiased via rejection.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64: lo {lo} > hi {hi}");
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            return self.next_u64(); // full u64 domain
        }
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % span;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Forks an independent stream for a sub-component, so that adding RNG
    /// consumers to one component does not perturb another.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::seed_from(self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A sampling distribution over non-negative real values.
///
/// Used for packet inter-arrival times and processing-time jitter.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Always returns the same value.
    Fixed(f64),
    /// Exponential with the given mean (Poisson arrivals).
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
}

impl Distribution {
    /// Draws one sample. Samples are always finite and non-negative.
    ///
    /// # Panics
    ///
    /// Panics if the distribution parameters are invalid (a negative
    /// value or mean).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Distribution::Fixed(v) => {
                assert!(v >= 0.0, "fixed distribution value must be non-negative");
                v
            }
            Distribution::Exponential { mean } => {
                assert!(mean >= 0.0, "exponential mean must be non-negative");
                if mean == 0.0 {
                    return 0.0;
                }
                let u = 1.0 - rng.next_f64(); // in (0, 1]
                -mean * u.ln()
            }
        }
    }

    /// The distribution's mean.
    pub fn mean(&self) -> f64 {
        match *self {
            Distribution::Fixed(v) => v,
            Distribution::Exponential { mean } => mean,
        }
    }
}

impl Default for Distribution {
    fn default() -> Self {
        Distribution::Fixed(0.0)
    }
}

/// A bounded Zipfian integer distribution over `[min, max]` with skew `s`:
/// `P(k) ∝ 1 / rank(k)^s` where rank 1 is `min`.
///
/// This is the paper's memcached key/value-length generator
/// (`min = 10, max = 100, skew = 0.5`, §VI.A) and is also used to pick hot
/// keys in the KV-store workload.
///
/// ```
/// use simnet_sim::random::{SimRng, Zipf};
/// let zipf = Zipf::new(10, 100, 0.5);
/// let mut rng = SimRng::seed_from(7);
/// let v = zipf.sample(&mut rng);
/// assert!((10..=100).contains(&v));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    min: u64,
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`, if the range exceeds 2^24 values (the CDF is
    /// materialized), or if `skew` is negative or non-finite.
    pub fn new(min: u64, max: u64, skew: f64) -> Self {
        assert!(min <= max, "zipf: min {min} > max {max}");
        assert!(skew.is_finite() && skew >= 0.0, "zipf: invalid skew {skew}");
        let n = max - min + 1;
        assert!(n <= (1 << 24), "zipf: range too large to materialize");
        let mut weights = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 1..=n {
            let w = 1.0 / (rank as f64).powf(skew);
            total += w;
            weights.push(total);
        }
        for w in &mut weights {
            *w /= total;
        }
        Self { min, cdf: weights }
    }

    /// The paper's memcached length distribution: `Zipf::new(10, 100, 0.5)`.
    pub fn paper_lengths() -> Self {
        Self::new(10, 100, 0.5)
    }

    /// Draws one sample in `[min, max]`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        let idx = match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i,
        };
        self.min + (idx as u64).min(self.cdf.len() as u64 - 1)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is over a single value.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The distribution's mean value.
    pub fn mean(&self) -> f64 {
        let mut prev = 0.0;
        let mut mean = 0.0;
        for (i, &c) in self.cdf.iter().enumerate() {
            mean += (self.min + i as u64) as f64 * (c - prev);
            prev = c;
        }
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_forks_are_decoupled() {
        let mut a = SimRng::seed_from(1);
        let mut fork1 = a.fork(1);
        let mut fork2 = a.fork(2);
        assert_ne!(fork1.next_u64(), fork2.next_u64());
    }

    #[test]
    fn uniform_u64_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let v = rng.uniform_u64(5, 9);
            assert!((5..=9).contains(&v));
        }
        assert_eq!(rng.uniform_u64(7, 7), 7);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn fixed_distribution() {
        let mut rng = SimRng::seed_from(2);
        let d = Distribution::Fixed(3.5);
        assert_eq!(d.sample(&mut rng), 3.5);
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from(5);
        let d = Distribution::Exponential { mean: 10.0 };
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut rng = SimRng::seed_from(5);
        let d = Distribution::Exponential { mean: 0.0 };
        assert_eq!(d.sample(&mut rng), 0.0);
    }

    #[test]
    fn zipf_respects_bounds() {
        let zipf = Zipf::new(10, 100, 0.5);
        let mut rng = SimRng::seed_from(6);
        for _ in 0..10_000 {
            let v = zipf.sample(&mut rng);
            assert!((10..=100).contains(&v));
        }
    }

    #[test]
    fn zipf_skews_toward_min() {
        let zipf = Zipf::new(1, 1000, 1.0);
        let mut rng = SimRng::seed_from(7);
        let n = 100_000;
        let low = (0..n).filter(|_| zipf.sample(&mut rng) <= 10).count();
        // With skew 1.0 over 1000 values, ranks 1..=10 hold ~39% of mass.
        assert!(low > n * 30 / 100, "low-rank draws: {low}");
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let zipf = Zipf::new(0, 9, 0.0);
        let mut rng = SimRng::seed_from(8);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn zipf_single_value() {
        let zipf = Zipf::new(5, 5, 2.0);
        let mut rng = SimRng::seed_from(9);
        assert_eq!(zipf.sample(&mut rng), 5);
        assert_eq!(zipf.len(), 1);
    }

    #[test]
    fn zipf_mean_matches_empirical() {
        let zipf = Zipf::paper_lengths();
        let mut rng = SimRng::seed_from(10);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| zipf.sample(&mut rng)).sum();
        let empirical = sum as f64 / n as f64;
        assert!((empirical - zipf.mean()).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "min")]
    fn zipf_rejects_inverted_range() {
        Zipf::new(10, 5, 0.5);
    }
}
