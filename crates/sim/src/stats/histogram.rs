//! Fixed-width binned histogram with under/overflow buckets.

/// A histogram over `[lo, hi)` with `bins` equal-width buckets.
///
/// Values below `lo` land in the underflow bucket; values at or above `hi`
/// land in the overflow bucket. The load generator uses this for its packet
/// forwarding-latency histogram (§IV).
///
/// ```
/// use simnet_sim::stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.record(0.5);
/// h.record(9.9);
/// h.record(42.0);
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(4), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    rejected: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram bounds inverted: [{lo},{hi})");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            rejected: 0,
        }
    }

    /// Records one value.
    ///
    /// NaN values are rejected (counted in [`Histogram::rejected`]) rather
    /// than binned: the `(value - lo) / width as usize` cast would
    /// otherwise silently place NaN in bin 0. ±∞ land in the
    /// under/overflow buckets like any other out-of-range value.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            self.rejected += 1;
        } else if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bin_count(&self, idx: usize) -> u64 {
        self.bins[idx]
    }

    /// Number of bins.
    pub fn bin_len(&self) -> usize {
        self.bins.len()
    }

    /// The `[lo, hi)` span of bin `idx`.
    pub fn bin_range(&self, idx: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let lo = self.lo + width * idx as f64;
        (lo, lo + width)
    }

    /// Count below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// NaN values rejected by [`Histogram::record`] (not part of
    /// [`Histogram::total`]).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Total recorded values including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Zeroes all buckets.
    pub fn reset(&mut self) {
        self.bins.iter_mut().for_each(|b| *b = 0);
        self.underflow = 0;
        self.overflow = 0;
        self.rejected = 0;
    }

    /// Iterates `(bin_lo, bin_hi, count)` over the in-range bins.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.bins.len()).map(move |i| {
            let (lo, hi) = self.bin_range(i);
            (lo, hi, self.bins[i])
        })
    }
}

impl std::fmt::Display for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "histogram [{}, {}) n={}", self.lo, self.hi, self.total())?;
        if self.underflow > 0 {
            writeln!(f, "  <{}: {}", self.lo, self.underflow)?;
        }
        for (lo, hi, count) in self.iter() {
            if count > 0 {
                writeln!(f, "  [{lo:.3}, {hi:.3}): {count}")?;
            }
        }
        if self.overflow > 0 {
            writeln!(f, "  >={}: {}", self.hi, self.overflow)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn places_values_in_bins() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record(0.0);
        h.record(9.999);
        h.record(10.0);
        h.record(99.0);
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(9), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(10.0, 20.0, 2);
        h.record(9.0);
        h.record(20.0);
        h.record(1e9);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn bin_ranges_tile_the_domain() {
        let h = Histogram::new(0.0, 1.0, 4);
        let (lo0, hi0) = h.bin_range(0);
        let (lo3, hi3) = h.bin_range(3);
        assert_eq!(lo0, 0.0);
        assert!((hi0 - 0.25).abs() < 1e-12);
        assert!((lo3 - 0.75).abs() < 1e-12);
        assert!((hi3 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(0.5);
        h.record(5.0);
        h.reset();
        assert_eq!(h.total(), 0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rejects_bad_bounds() {
        Histogram::new(1.0, 1.0, 3);
    }

    #[test]
    fn nan_is_rejected_not_binned() {
        let mut h = Histogram::new(0.0, 10.0, 4);
        h.record(f64::NAN);
        h.record(-f64::NAN);
        // Without the guard both NaNs would silently land in bin 0.
        assert_eq!(h.bin_count(0), 0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.rejected(), 2);
        // Real samples still work after the bad ones.
        h.record(1.0);
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn infinities_land_in_flow_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 4);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.rejected(), 0);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn reset_clears_rejected() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(f64::NAN);
        h.reset();
        assert_eq!(h.rejected(), 0);
    }

    #[test]
    fn display_mentions_counts() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.record(0.5);
        let s = h.to_string();
        assert!(s.contains("n=1"));
    }
}
