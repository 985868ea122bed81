//! Bounded sample storage with exact quantiles.

/// A bounded store of observations with exact order statistics.
///
/// `EtherLoadGen` reports mean, median, standard deviation and tail latency
/// of network packets (§IV); this type backs that report. Up to `capacity`
/// samples are kept; beyond that, reservoir sampling keeps a uniform random
/// subset (deterministic, seeded by insertion index) so the quantiles stay
/// representative without unbounded memory.
///
/// ```
/// use simnet_sim::stats::SampleSet;
/// let mut s = SampleSet::with_capacity(1024);
/// for v in 1..=100 {
///     s.record(v as f64);
/// }
/// let summary = s.summary();
/// assert_eq!(summary.count, 100);
/// assert!((summary.median - 50.5).abs() < 1.0);
/// assert!((summary.p99 - 99.0).abs() <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SampleSet {
    samples: Vec<f64>,
    capacity: usize,
    seen: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    rejected: u64,
}

/// Summary of a [`SampleSet`]: the statistics row `EtherLoadGen` prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of observations recorded (including evicted ones).
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile.
    pub median: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile (tail latency).
    pub p99: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl LatencySummary {
    /// An all-zero summary (no observations).
    pub fn empty() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            median: 0.0,
            stddev: 0.0,
            p90: 0.0,
            p95: 0.0,
            p99: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }
}

impl Default for SampleSet {
    fn default() -> Self {
        Self::with_capacity(1 << 20)
    }
}

impl SampleSet {
    /// Creates a sample set keeping at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "sample capacity must be positive");
        Self {
            samples: Vec::new(),
            capacity,
            seen: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rejected: 0,
        }
    }

    /// Records one observation.
    ///
    /// Non-finite observations are rejected (counted in
    /// [`SampleSet::rejected`]): a NaN in the store would panic the
    /// quantile sort, and an infinity would pin mean/min/max.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            self.rejected += 1;
            return;
        }
        self.seen += 1;
        self.sum += value;
        self.sum_sq += value * value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            // Deterministic reservoir replacement: SplitMix-style hash of
            // the insertion index selects the victim slot.
            let mut x = self.seen.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 31;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            let slot = x % self.seen;
            if (slot as usize) < self.capacity {
                self.samples[slot as usize] = value;
            }
        }
    }

    /// Total observations recorded (not just retained).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Non-finite observations rejected by [`SampleSet::record`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Exact quantile `q` in `[0, 1]` over the retained samples.
    /// Returns 0.0 if empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// Arithmetic mean over all recorded observations.
    pub fn mean(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.sum / self.seen as f64
        }
    }

    /// Population standard deviation over all recorded observations.
    pub fn stddev(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.seen as f64 - mean * mean)
            .max(0.0)
            .sqrt()
    }

    /// Builds the full summary report.
    pub fn summary(&self) -> LatencySummary {
        if self.seen == 0 {
            return LatencySummary::empty();
        }
        // Sort once for all quantiles.
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let q = |q: f64| -> f64 {
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let frac = pos - lo as f64;
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac
            }
        };
        LatencySummary {
            count: self.seen,
            mean: self.mean(),
            median: q(0.5),
            stddev: self.stddev(),
            p90: q(0.9),
            p95: q(0.95),
            p99: q(0.99),
            min: self.min,
            max: self.max,
        }
    }

    /// The retained samples in `bins` equal bins over the observed
    /// [min, max], as `(lo, hi, count)`; the maximum lands in the last
    /// bin. No bins without samples, and one if every sample is equal.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn histogram(&self, bins: usize) -> Vec<(f64, f64, u64)> {
        assert!(bins > 0, "a histogram needs at least one bin");
        if self.samples.is_empty() {
            return Vec::new();
        }
        let bins = if self.max > self.min { bins } else { 1 };
        let width = (self.max - self.min) / bins as f64;
        let mut counts = vec![0u64; bins];
        for &v in &self.samples {
            let bin = if width > 0.0 {
                ((v - self.min) / width) as usize
            } else {
                0
            };
            counts[bin.min(bins - 1)] += 1;
        }
        let edge = |i: usize| self.min + width * i as f64;
        (0..bins)
            .map(|i| (edge(i), edge(i + 1), counts[i]))
            .collect()
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        let cap = self.capacity;
        *self = Self::with_capacity(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = SampleSet::with_capacity(8);
        assert!(s.is_empty());
        assert_eq!(s.summary(), LatencySummary::empty());
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn exact_quantiles_small() {
        let mut s = SampleSet::with_capacity(100);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.25), 2.0);
    }

    #[test]
    fn summary_fields_consistent() {
        let mut s = SampleSet::with_capacity(1000);
        for v in 1..=100 {
            s.record(v as f64);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 100);
        assert!((sum.mean - 50.5).abs() < 1e-9);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 100.0);
        assert!(sum.p90 >= sum.median);
        assert!(sum.p95 >= sum.p90);
        assert!(sum.p99 >= sum.p95);
    }

    #[test]
    fn reservoir_keeps_capacity() {
        let mut s = SampleSet::with_capacity(64);
        for v in 0..10_000 {
            s.record(v as f64);
        }
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.samples.len(), 64);
        // Mean and min/max are exact regardless of sampling.
        assert!((s.mean() - 4999.5).abs() < 1e-9);
        let sum = s.summary();
        assert_eq!(sum.min, 0.0);
        assert_eq!(sum.max, 9999.0);
        // The sampled median is near the true median.
        assert!((sum.median - 5000.0).abs() < 1500.0);
    }

    #[test]
    fn reservoir_is_deterministic() {
        let run = || {
            let mut s = SampleSet::with_capacity(32);
            for v in 0..1000 {
                s.record((v * 7 % 97) as f64);
            }
            s.summary()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_restores_capacity() {
        let mut s = SampleSet::with_capacity(8);
        for v in 0..100 {
            s.record(v as f64);
        }
        s.reset();
        assert!(s.is_empty());
        s.record(1.0);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn histogram_bins_the_retained_samples_over_their_range() {
        let mut s = SampleSet::with_capacity(64);
        assert!(s.histogram(4).is_empty());
        s.record(3.0);
        assert_eq!(s.histogram(4), [(3.0, 3.0, 1)], "equal samples: one bin");
        for v in 0..=8 {
            s.record(v as f64);
        }
        let bins = s.histogram(4);
        let counts: Vec<u64> = bins.iter().map(|b| b.2).collect();
        assert_eq!(
            counts,
            [2, 3, 2, 3],
            "8.0, the maximum, lands in the last bin"
        );
        assert_eq!((bins[0].0, bins[3].1), (0.0, 8.0));
        assert_eq!(bins[1].0, bins[0].1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        SampleSet::with_capacity(0);
    }

    #[test]
    fn non_finite_samples_cannot_panic_quantiles() {
        let mut s = SampleSet::with_capacity(8);
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.rejected(), 2);
        // The sort inside summary() would panic if NaN had been stored.
        let sum = s.summary();
        assert_eq!(sum.median, 2.0);
        assert_eq!(sum.max, 2.0);
        assert!(sum.mean.is_finite());
    }
}
