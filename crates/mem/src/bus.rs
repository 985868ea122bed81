//! A bandwidth-limited, in-order bus modeled as an occupancy resource.
//!
//! The simulator's I/O bus "models \[the\] PCIe bus in a real system"
//! (paper footnote 1). Each transfer waits for the bus to drain, pays a
//! fixed per-transaction overhead (header/ack/protocol cost), then
//! serializes its payload at the configured bandwidth. The paper's Fig. 6
//! finding — "gem5's DMA engine is the bottleneck" at large packet sizes —
//! is this resource saturating.

use simnet_sim::tick::{Bandwidth, Tick};

use simnet_sim::stats::Counter;

/// The outcome of one bus transfer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// When the transfer started (after queuing).
    pub start: Tick,
    /// When the last byte finished.
    pub finish: Tick,
}

impl BusGrant {
    /// Total latency from request to completion.
    pub fn latency(&self, requested_at: Tick) -> Tick {
        self.finish.saturating_sub(requested_at)
    }
}

/// A shared, in-order bus with fixed bandwidth and per-transaction overhead.
///
/// ```
/// use simnet_mem::Bus;
/// use simnet_sim::tick::Bandwidth;
/// let mut bus = Bus::new("io", Bandwidth::gbps(100.0), 0);
/// let first = bus.transfer(0, 1000);   // 80 ns
/// let second = bus.transfer(0, 1000);  // queues behind the first
/// assert_eq!(first.finish, 80_000);
/// assert_eq!(second.start, 80_000);
/// assert_eq!(second.finish, 160_000);
/// ```
#[derive(Debug)]
pub struct Bus {
    name: &'static str,
    bandwidth: Bandwidth,
    overhead: Tick,
    busy_until: Tick,
    /// Transactions granted.
    pub transactions: Counter,
    /// Payload bytes moved.
    pub bytes: Counter,
    /// Ticks spent busy (for utilization reporting).
    pub busy_ticks: Counter,
}

impl Bus {
    /// Creates a bus with the given payload bandwidth and per-transaction
    /// overhead (charged before the payload serializes).
    pub fn new(name: &'static str, bandwidth: Bandwidth, overhead: Tick) -> Self {
        Self {
            name,
            bandwidth,
            overhead,
            busy_until: 0,
            transactions: Counter::new(),
            bytes: Counter::new(),
            busy_ticks: Counter::new(),
        }
    }

    /// The bus's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The configured payload bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Requests a transfer of `bytes` at time `now`; returns when it starts
    /// and finishes. The bus is held for the whole duration.
    pub fn transfer(&mut self, now: Tick, bytes: u64) -> BusGrant {
        let start = now.max(self.busy_until);
        let duration = self.overhead + self.bandwidth.bytes_to_ticks(bytes);
        let finish = start + duration;
        self.busy_until = finish;
        self.transactions.inc();
        self.bytes.add(bytes);
        self.busy_ticks.add(duration);
        BusGrant { start, finish }
    }

    /// Requests a small *control-path* transfer (descriptor fetch) that
    /// interleaves with bulk traffic instead of queuing behind it — PCIe
    /// completions interleave at TLP granularity, so a 16–512 B descriptor
    /// read never waits out microseconds of queued payload. The transfer
    /// still consumes bus capacity (the busy horizon grows by its
    /// serialization time).
    pub fn transfer_priority(&mut self, now: Tick, bytes: u64) -> BusGrant {
        let duration = self.overhead + self.bandwidth.bytes_to_ticks(bytes);
        let finish = now + duration;
        // The busy horizon grows only by the consumed capacity; a control
        // transfer issued at a future timestamp must not drag the whole
        // bulk queue forward to that instant.
        self.busy_until += duration;
        self.transactions.inc();
        self.bytes.add(bytes);
        self.busy_ticks.add(duration);
        BusGrant { start: now, finish }
    }

    /// When the bus next becomes idle.
    pub fn busy_until(&self) -> Tick {
        self.busy_until
    }

    /// Fraction of `[0, now]` the bus spent busy.
    pub fn utilization(&self, now: Tick) -> f64 {
        if now == 0 {
            0.0
        } else {
            (self.busy_ticks.value() as f64 / now as f64).min(1.0)
        }
    }

    /// Registers this bus's statistics under the caller's current group
    /// (`now` prices the utilization fraction).
    pub fn register_stats(&self, now: Tick, reg: &mut simnet_sim::stats::StatsRegistry) {
        reg.scalar(
            "transactions",
            self.transactions.value(),
            "bus transactions",
        );
        reg.scalar("bytes", self.bytes.value(), "payload bytes");
        reg.float("utilization", self.utilization(now), "busy fraction");
    }

    /// Clears statistics and the busy horizon (post-warm-up reset).
    pub fn reset_stats(&mut self) {
        self.transactions.reset();
        self.bytes.reset();
        self.busy_ticks.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_sim::tick::ns;

    fn bus() -> Bus {
        Bus::new("test", Bandwidth::gbps(10.0), ns(5))
    }

    #[test]
    fn transfer_time_includes_overhead() {
        let mut b = bus();
        // 100 B at 10 Gbps = 80 ns, plus 5 ns overhead.
        let g = b.transfer(0, 100);
        assert_eq!(g.start, 0);
        assert_eq!(g.finish, ns(85));
        assert_eq!(g.latency(0), ns(85));
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut b = bus();
        let g1 = b.transfer(0, 100);
        let g2 = b.transfer(ns(10), 100);
        assert_eq!(g2.start, g1.finish);
        assert_eq!(g2.finish, g1.finish + ns(85));
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut b = bus();
        b.transfer(0, 100);
        let g = b.transfer(ns(1000), 100);
        assert_eq!(g.start, ns(1000));
    }

    #[test]
    fn zero_byte_transfer_costs_overhead_only() {
        let mut b = bus();
        let g = b.transfer(0, 0);
        assert_eq!(g.finish, ns(5));
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut b = bus();
        b.transfer(0, 100); // busy 85 of first 170 ns
        assert!((b.utilization(ns(170)) - 0.5).abs() < 1e-9);
        assert_eq!(b.utilization(0), 0.0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut b = bus();
        b.transfer(0, 100);
        b.transfer(0, 50);
        assert_eq!(b.transactions.value(), 2);
        assert_eq!(b.bytes.value(), 150);
        b.reset_stats();
        assert_eq!(b.bytes.value(), 0);
        // busy_until survives a stats reset.
        assert!(b.busy_until() > 0);
    }
}
