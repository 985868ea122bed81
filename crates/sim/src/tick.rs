//! The simulated time base and conversions.
//!
//! One [`Tick`] is one picosecond of simulated time, matching gem5's global
//! tick resolution. All component latencies, link serialization times and
//! clock periods are expressed in ticks.

/// Simulated time in picoseconds.
pub type Tick = u64;

/// Ticks per picosecond (the base unit).
pub const PS: Tick = 1;
/// Ticks per nanosecond.
pub const NS: Tick = 1_000;
/// Ticks per microsecond.
pub const US: Tick = 1_000_000;
/// Ticks per millisecond.
pub const MS: Tick = 1_000_000_000;
/// Ticks per second.
pub const S: Tick = 1_000_000_000_000;

/// Converts nanoseconds to ticks.
///
/// All unit conversions are checked: an unchecked `n * NS` silently wraps
/// in release builds, so a large CLI-supplied duration would fold back
/// into a short (or past) tick instead of failing. Overflow panics, in
/// const and runtime contexts alike.
///
/// ```
/// assert_eq!(simnet_sim::tick::ns(3), 3_000);
/// ```
///
/// # Panics
///
/// Panics if the duration exceeds the `u64` tick horizon (~213 days).
#[inline]
pub const fn ns(n: u64) -> Tick {
    match n.checked_mul(NS) {
        Some(t) => t,
        None => panic!("tick::ns overflow: duration exceeds the u64 tick horizon"),
    }
}

/// Converts microseconds to ticks.
///
/// # Panics
///
/// Panics if the duration exceeds the `u64` tick horizon (see [`ns`]).
#[inline]
pub const fn us(n: u64) -> Tick {
    match n.checked_mul(US) {
        Some(t) => t,
        None => panic!("tick::us overflow: duration exceeds the u64 tick horizon"),
    }
}

/// Converts milliseconds to ticks.
///
/// # Panics
///
/// Panics if the duration exceeds the `u64` tick horizon (see [`ns`]).
#[inline]
pub const fn ms(n: u64) -> Tick {
    match n.checked_mul(MS) {
        Some(t) => t,
        None => panic!("tick::ms overflow: duration exceeds the u64 tick horizon"),
    }
}

/// Converts seconds to ticks.
///
/// # Panics
///
/// Panics if the duration exceeds the `u64` tick horizon (see [`ns`]).
#[inline]
pub const fn s(n: u64) -> Tick {
    match n.checked_mul(S) {
        Some(t) => t,
        None => panic!("tick::s overflow: duration exceeds the u64 tick horizon"),
    }
}

/// A fixed clock frequency, used to convert between cycles and ticks.
///
/// ```
/// use simnet_sim::tick::Frequency;
/// let f = Frequency::ghz(2.0);
/// assert_eq!(f.period(), 500); // 500 ps per cycle
/// assert_eq!(f.cycles_to_ticks(4), 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn hz(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "frequency must be positive");
        Self { hz }
    }

    /// Creates a frequency from gigahertz.
    pub fn ghz(ghz: f64) -> Self {
        Self::hz(ghz * 1e9)
    }

    /// Returns the frequency in gigahertz.
    pub fn as_ghz(&self) -> f64 {
        self.hz / 1e9
    }

    /// Clock period in ticks, rounded to the nearest tick (minimum 1).
    pub fn period(&self) -> Tick {
        ((S as f64 / self.hz).round() as Tick).max(1)
    }

    /// Converts a cycle count to ticks at this frequency.
    pub fn cycles_to_ticks(&self, cycles: u64) -> Tick {
        ((cycles as f64) * (S as f64) / self.hz).round() as Tick
    }

    /// Converts fractional cycles to ticks at this frequency.
    pub fn cycles_f64_to_ticks(&self, cycles: f64) -> Tick {
        (cycles * (S as f64) / self.hz).round() as Tick
    }

    /// Converts a tick span to whole cycles at this frequency (rounded down).
    pub fn ticks_to_cycles(&self, ticks: Tick) -> u64 {
        ((ticks as f64) * self.hz / S as f64) as u64
    }
}

impl Default for Frequency {
    /// 3 GHz, the paper's baseline core frequency (Table I).
    fn default() -> Self {
        Self::ghz(3.0)
    }
}

/// A link or bus bandwidth, used to convert bytes to serialization delay.
///
/// ```
/// use simnet_sim::tick::Bandwidth;
/// let bw = Bandwidth::gbps(100.0);
/// // 100 Gbps = 12.5 GB/s -> 80 ps per byte
/// assert_eq!(bw.bytes_to_ticks(1), 80);
/// assert_eq!(bw.bytes_to_ticks(1500), 120_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    bits_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not strictly positive and finite.
    pub fn bps(bps: f64) -> Self {
        assert!(bps.is_finite() && bps > 0.0, "bandwidth must be positive");
        Self { bits_per_sec: bps }
    }

    /// Creates a bandwidth from gigabits per second.
    pub fn gbps(gbps: f64) -> Self {
        Self::bps(gbps * 1e9)
    }

    /// Returns the bandwidth in gigabits per second.
    pub fn as_gbps(&self) -> f64 {
        self.bits_per_sec / 1e9
    }

    /// Serialization delay in ticks for `bytes` bytes (rounded, minimum 0).
    pub fn bytes_to_ticks(&self, bytes: u64) -> Tick {
        ((bytes as f64 * 8.0) * (S as f64) / self.bits_per_sec).round() as Tick
    }

    /// The throughput achieved by moving `bytes` bytes in `ticks` ticks,
    /// in gigabits per second. Returns 0.0 for a zero time span.
    pub fn measured_gbps(bytes: u64, ticks: Tick) -> f64 {
        if ticks == 0 {
            return 0.0;
        }
        (bytes as f64 * 8.0) / (ticks as f64 / S as f64) / 1e9
    }
}

impl Default for Bandwidth {
    /// 100 Gbps, the paper's network bandwidth (Table I).
    fn default() -> Self {
        Self::gbps(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants_scale() {
        assert_eq!(NS, 1_000 * PS);
        assert_eq!(US, 1_000 * NS);
        assert_eq!(MS, 1_000 * US);
        assert_eq!(S, 1_000 * MS);
    }

    #[test]
    fn conversions_accept_the_exact_horizon() {
        // The largest representable duration in each unit must convert,
        // one past it must panic (covered below), and none may wrap.
        assert_eq!(ns(u64::MAX / NS), (u64::MAX / NS) * NS);
        assert_eq!(us(u64::MAX / US), (u64::MAX / US) * US);
        assert_eq!(ms(u64::MAX / MS), (u64::MAX / MS) * MS);
        assert_eq!(s(u64::MAX / S), (u64::MAX / S) * S);
    }

    #[test]
    #[should_panic(expected = "tick::ns overflow")]
    fn ns_past_horizon_panics_instead_of_wrapping() {
        ns(u64::MAX / NS + 1);
    }

    #[test]
    #[should_panic(expected = "tick::us overflow")]
    fn us_past_horizon_panics_instead_of_wrapping() {
        us(u64::MAX / US + 1);
    }

    #[test]
    #[should_panic(expected = "tick::ms overflow")]
    fn ms_past_horizon_panics_instead_of_wrapping() {
        ms(u64::MAX / MS + 1);
    }

    #[test]
    #[should_panic(expected = "tick::s overflow")]
    fn s_past_horizon_panics_instead_of_wrapping() {
        s(u64::MAX / S + 1);
    }

    #[test]
    fn conversion_round_trips() {
        assert_eq!(ns(1_500), us(1) + ns(500));
    }

    #[test]
    fn frequency_periods() {
        assert_eq!(Frequency::ghz(1.0).period(), 1_000);
        assert_eq!(Frequency::ghz(2.0).period(), 500);
        assert_eq!(Frequency::ghz(4.0).period(), 250);
        assert_eq!(Frequency::ghz(3.0).period(), 333);
    }

    #[test]
    fn frequency_cycle_conversions() {
        let f = Frequency::ghz(2.0);
        assert_eq!(f.cycles_to_ticks(10), 5_000);
        assert_eq!(f.ticks_to_cycles(5_000), 10);
        assert_eq!(f.cycles_f64_to_ticks(0.5), 250);
    }

    #[test]
    fn default_frequency_is_three_ghz() {
        assert!((Frequency::default().as_ghz() - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn frequency_rejects_zero() {
        Frequency::hz(0.0);
    }

    #[test]
    fn bandwidth_serialization_delay() {
        let bw = Bandwidth::gbps(10.0);
        // 10 Gbps -> 0.8 ns per byte.
        assert_eq!(bw.bytes_to_ticks(1), 800);
        assert_eq!(bw.bytes_to_ticks(1000), 800_000);
    }

    #[test]
    fn bandwidth_measurement() {
        // 1000 bytes in 80 ns = 100 Gbps.
        let gbps = Bandwidth::measured_gbps(1000, ns(80));
        assert!((gbps - 100.0).abs() < 1e-9);
        assert_eq!(Bandwidth::measured_gbps(100, 0), 0.0);
    }

    #[test]
    fn default_bandwidth_is_hundred_gbps() {
        assert!((Bandwidth::default().as_gbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bandwidth_rejects_negative() {
        Bandwidth::bps(-1.0);
    }
}
