//! Constant-space running statistics (Welford's online algorithm).

/// Running mean / standard deviation / min / max over a value stream.
///
/// Suitable for high-volume per-packet measurements where storing samples
/// would be too expensive.
///
/// ```
/// use simnet_sim::stats::Running;
/// let mut r = Running::default();
/// for v in [1.0, 2.0, 3.0] {
///     r.record(v);
/// }
/// assert_eq!(r.count(), 3);
/// assert!((r.mean() - 2.0).abs() < 1e-12);
/// assert_eq!(r.min(), Some(1.0));
/// assert_eq!(r.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    rejected: u64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    ///
    /// Non-finite observations (NaN, ±∞) are rejected: a single NaN would
    /// otherwise poison the mean/min/max for the rest of the run, and an
    /// infinity would pin the mean. Rejections are counted in
    /// [`Running::rejected`].
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            self.rejected += 1;
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite observations rejected by [`Running::record`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl std::fmt::Display for Running {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.stddev(),
            self.min().unwrap_or(0.0),
            self.max().unwrap_or(0.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroed() {
        let r = Running::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.stddev(), 0.0);
        assert_eq!(r.min(), None);
        assert_eq!(r.max(), None);
    }

    #[test]
    fn known_variance() {
        let mut r = Running::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.record(v);
        }
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 4.0).abs() < 1e-12);
        assert!((r.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_cannot_poison_the_mean() {
        let mut r = Running::new();
        r.record(1.0);
        r.record(f64::NAN);
        r.record(f64::INFINITY);
        r.record(f64::NEG_INFINITY);
        r.record(3.0);
        assert_eq!(r.count(), 2);
        assert_eq!(r.rejected(), 3);
        assert!((r.mean() - 2.0).abs() < 1e-12);
        assert_eq!(r.min(), Some(1.0));
        assert_eq!(r.max(), Some(3.0));
        assert!(r.stddev().is_finite());
    }

    #[test]
    fn sum_is_mean_times_count() {
        let mut r = Running::new();
        for v in [1.5, 2.5, 3.0] {
            r.record(v);
        }
        assert!((r.sum() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears() {
        let mut r = Running::new();
        r.record(5.0);
        r.reset();
        assert_eq!(r.count(), 0);
    }
}
