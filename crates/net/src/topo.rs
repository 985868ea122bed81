//! Network links and the switch that joins them.
//!
//! The paper's harness drives one load generator into one host over a
//! single full-duplex wire. This module generalizes that wire into a
//! directed link that carries a [`LinkPolicy`]: propagation latency,
//! serialization bandwidth, an optional bounded congestion queue with
//! tail-drop, and optional seeded random loss.
//!
//! * [`TopoLink`] executes a policy. Its pure-wire arithmetic is `start =
//!   max(now, busy_until); done = start + bytes_to_ticks(len + 20);
//!   arrival = done + latency`, the one link model every wire in the
//!   simulator uses.
//! * [`Switch`] forwards frames by destination MAC onto egress links.
//!
//! The harness joins its ports with one table of these links: a load
//! generator and a host on a pair of pure wires, two hosts on a pair
//! (dual mode), or the generator's client ports, a switch and a host
//! (incast).
//!
//! Drops never vanish: every [`TopoLink::transmit`] outcome is counted
//! (`offered == frames + tail_drops + loss_drops`), which is the
//! conservation ledger the property suite checks.

use std::collections::VecDeque;

use simnet_sim::random::SimRng;
use simnet_sim::stats::Counter;
use simnet_sim::tick::{Bandwidth, Tick};

use crate::ethernet::WIRE_OVERHEAD;
use crate::MacAddr;

/// What one directed link does to the frames it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPolicy {
    /// Serialization rate (line rate including preamble + IFG overhead).
    pub bandwidth: Bandwidth,
    /// One-way propagation latency added after serialization completes.
    pub latency: Tick,
    /// Bounded egress/congestion queue in frames, counting the frame in
    /// service; `None` models an unbounded (pure) wire that never drops.
    pub queue_frames: Option<usize>,
    /// Seeded random loss probability in parts per million; 0 = lossless.
    pub loss_ppm: u32,
}

impl LinkPolicy {
    /// A pure wire: serialize + propagate, never drop — the
    /// degenerate-topology policy.
    pub fn wire(bandwidth: Bandwidth, latency: Tick) -> Self {
        LinkPolicy {
            bandwidth,
            latency,
            queue_frames: None,
            loss_ppm: 0,
        }
    }

    /// A wire with a bounded congestion queue of `frames` (tail-drop when
    /// full). `frames` must be ≥ 1 (the frame in service occupies a slot).
    pub fn bounded(bandwidth: Bandwidth, latency: Tick, frames: usize) -> Self {
        assert!(frames >= 1, "a bounded queue needs at least one slot");
        LinkPolicy {
            queue_frames: Some(frames),
            ..LinkPolicy::wire(bandwidth, latency)
        }
    }

    /// Adds seeded random loss of `ppm` parts per million.
    pub fn with_loss(mut self, ppm: u32) -> Self {
        assert!(ppm <= 1_000_000, "loss probability above 1.0");
        self.loss_ppm = ppm;
        self
    }
}

/// The outcome of offering one frame to a [`TopoLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Accepted; the frame arrives at the far end at this tick.
    Deliver(Tick),
    /// The bounded congestion queue was full: tail-dropped at enqueue.
    TailDrop,
    /// Seeded random loss ate the frame on the wire.
    LossDrop,
}

/// One directed link executing a [`LinkPolicy`].
///
/// With the [`LinkPolicy::wire`] policy, `transmit` returns
/// `max(now, busy_until) + (len + 20) bytes at the line rate + latency`:
/// frames serialize back to back, preamble and inter-frame gap included.
#[derive(Debug)]
pub struct TopoLink {
    policy: LinkPolicy,
    busy_until: Tick,
    /// Serialization-completion ticks of queued frames, ascending. Only
    /// maintained for bounded links (the pure wire skips the bookkeeping).
    inflight: VecDeque<Tick>,
    /// Loss draw stream, independent of workload and fault RNGs.
    rng: SimRng,
    /// Frames offered to the link (accepted + dropped).
    pub offered: Counter,
    /// Frames accepted and serialized.
    pub frames: Counter,
    /// Frame bytes accepted (excluding wire overhead).
    pub bytes: Counter,
    /// Frames tail-dropped at the full congestion queue.
    pub tail_drops: Counter,
    /// Frames lost to the seeded random-loss draw.
    pub loss_drops: Counter,
    queue_peak: usize,
}

impl TopoLink {
    /// Creates a link. `seed` feeds the loss draw stream; it is ignored
    /// (but still mixed in deterministically) for lossless policies.
    pub fn new(policy: LinkPolicy, seed: u64) -> Self {
        TopoLink {
            policy,
            busy_until: 0,
            inflight: VecDeque::new(),
            rng: SimRng::seed_from(seed ^ 0x70B0_117C),
            offered: Counter::new(),
            frames: Counter::new(),
            bytes: Counter::new(),
            tail_drops: Counter::new(),
            loss_drops: Counter::new(),
            queue_peak: 0,
        }
    }

    /// The link's policy.
    pub fn policy(&self) -> LinkPolicy {
        self.policy
    }

    /// Offers a frame of `frame_len` bytes at `now`. Queue admission is
    /// checked first (tail-drop), then the loss draw, then the frame
    /// serializes behind the busy horizon.
    pub fn transmit(&mut self, now: Tick, frame_len: usize) -> Verdict {
        self.offered.inc();
        if let Some(bound) = self.policy.queue_frames {
            self.retire(now);
            if self.inflight.len() >= bound {
                self.tail_drops.inc();
                return Verdict::TailDrop;
            }
        }
        if self.policy.loss_ppm > 0 {
            let p = f64::from(self.policy.loss_ppm) / 1e6;
            if self.rng.chance(p) {
                self.loss_drops.inc();
                return Verdict::LossDrop;
            }
        }
        let start = now.max(self.busy_until);
        let wire_bytes = frame_len as u64 + WIRE_OVERHEAD as u64;
        let done = start + self.policy.bandwidth.bytes_to_ticks(wire_bytes);
        self.busy_until = done;
        self.frames.inc();
        self.bytes.add(frame_len as u64);
        if self.policy.queue_frames.is_some() {
            self.inflight.push_back(done);
            self.queue_peak = self.queue_peak.max(self.inflight.len());
        }
        Verdict::Deliver(done + self.policy.latency)
    }

    /// Frames not yet fully serialized at `now` (including the one in
    /// service). Always 0 for unbounded links, which skip the tracking.
    pub fn occupancy(&mut self, now: Tick) -> usize {
        self.retire(now);
        self.inflight.len()
    }

    /// High-water mark of the congestion-queue occupancy.
    pub fn queue_peak(&self) -> usize {
        self.queue_peak
    }

    /// The earliest time a new frame could start serializing.
    pub fn next_free(&self) -> Tick {
        self.busy_until
    }

    /// Clears statistics; the busy horizon and queued frames persist.
    pub fn reset_stats(&mut self) {
        self.offered.reset();
        self.frames.reset();
        self.bytes.reset();
        self.tail_drops.reset();
        self.loss_drops.reset();
        self.queue_peak = 0;
    }

    fn retire(&mut self, now: Tick) {
        while self.inflight.front().is_some_and(|&done| done <= now) {
            self.inflight.pop_front();
        }
    }
}

/// A MAC-learning-free switch: a static destination-MAC → egress-port
/// table. A port is the index of an egress [`TopoLink`] in the owning
/// harness's link table; forwarding is a deterministic linear scan
/// (tables here are a handful of entries).
#[derive(Debug, Default)]
pub struct Switch {
    routes: Vec<(MacAddr, usize)>,
}

impl Switch {
    /// An empty forwarding table.
    pub fn new() -> Self {
        Switch::default()
    }

    /// Binds `mac` to egress `port`. Panics on duplicate MACs — the
    /// table is static, so a duplicate is a harness wiring bug.
    pub fn add_route(&mut self, mac: MacAddr, port: usize) {
        assert!(
            !self.routes.iter().any(|&(m, _)| m == mac),
            "duplicate switch route for {mac:?}"
        );
        self.routes.push((mac, port));
    }

    /// The egress port for `dst`, or `None` for an unknown destination
    /// (the caller counts and drops — no flooding in this model).
    pub fn route(&self, dst: MacAddr) -> Option<usize> {
        self.routes
            .iter()
            .find(|&&(m, _)| m == dst)
            .map(|&(_, port)| port)
    }

    /// Number of routes installed.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_sim::tick::{ns, us};

    fn wire(gbps: f64, latency: Tick) -> TopoLink {
        TopoLink::new(LinkPolicy::wire(Bandwidth::gbps(gbps), latency), 7)
    }

    #[test]
    fn pure_wire_adds_serialization_and_latency() {
        // (1518 + 20) B at 100 Gbps = 123.04 ns serialization, plus
        // propagation.
        let mut link = wire(100.0, us(100));
        assert_eq!(link.transmit(0, 1518), Verdict::Deliver(123_040 + us(100)));
        // (64 + 20) B at 10 Gbps = 67.2 ns.
        let mut link = wire(10.0, 0);
        assert_eq!(link.transmit(0, 64), Verdict::Deliver(67_200));
    }

    #[test]
    fn frames_serialize_back_to_back() {
        let mut link = wire(10.0, 0);
        let Verdict::Deliver(a) = link.transmit(0, 64) else {
            panic!("pure wire dropped")
        };
        let Verdict::Deliver(b) = link.transmit(0, 64) else {
            panic!("pure wire dropped")
        };
        assert_eq!(b - a, ns(67) + 200);
        assert_eq!(link.frames.value(), 2);
        assert_eq!(link.bytes.value(), 128);
    }

    #[test]
    fn line_rate_caps_throughput() {
        let mut link = wire(100.0, 0);
        let n = 1000u64;
        let mut last = 0;
        for _ in 0..n {
            let Verdict::Deliver(arrival) = link.transmit(0, 1518) else {
                panic!("pure wire dropped")
            };
            last = arrival;
        }
        let gbps = Bandwidth::measured_gbps(1518 * n, last);
        assert!(gbps < 100.0);
        assert!(gbps > 95.0, "goodput {gbps}");
    }

    #[test]
    fn idle_wire_starts_immediately() {
        let mut link = wire(10.0, 0);
        link.transmit(0, 64);
        assert_eq!(link.transmit(us(10), 64), Verdict::Deliver(us(10) + 67_200));
    }

    #[test]
    fn bounded_queue_tail_drops_when_full() {
        // 2-deep queue at 10 Gbps: the third back-to-back frame at t=0
        // finds both slots occupied and tail-drops.
        let mut link = TopoLink::new(LinkPolicy::bounded(Bandwidth::gbps(10.0), 0, 2), 7);
        assert!(matches!(link.transmit(0, 64), Verdict::Deliver(_)));
        assert!(matches!(link.transmit(0, 64), Verdict::Deliver(_)));
        assert_eq!(link.transmit(0, 64), Verdict::TailDrop);
        assert_eq!(link.tail_drops.value(), 1);
        assert_eq!(link.queue_peak(), 2);
        // Once the first frame finishes serializing (67.2 ns), a slot
        // frees and the link accepts again.
        assert!(matches!(link.transmit(67_200, 64), Verdict::Deliver(_)));
        // Ledger: offered == frames + tail_drops + loss_drops.
        assert_eq!(
            link.offered.value(),
            link.frames.value() + link.tail_drops.value() + link.loss_drops.value()
        );
    }

    #[test]
    fn occupancy_never_negative_and_retires() {
        let mut link = TopoLink::new(LinkPolicy::bounded(Bandwidth::gbps(10.0), us(1), 8), 7);
        for _ in 0..5 {
            link.transmit(0, 64);
        }
        assert_eq!(link.occupancy(0), 5);
        // All five serialize within 5 × 67.2 ns.
        assert_eq!(link.occupancy(us(1)), 0);
    }

    #[test]
    fn seeded_loss_is_deterministic() {
        let policy = LinkPolicy::wire(Bandwidth::gbps(10.0), 0).with_loss(200_000);
        let run = |seed| {
            let mut link = TopoLink::new(policy, seed);
            (0..256)
                .map(|t| link.transmit(t * 1000, 64))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11), "same seed must replay identically");
        assert_ne!(
            run(11),
            run(12),
            "20% loss over 256 frames must differ across seeds"
        );
        let mut link = TopoLink::new(policy, 11);
        let mut lost = 0;
        for t in 0..1000 {
            if link.transmit(t * 1000, 64) == Verdict::LossDrop {
                lost += 1;
            }
        }
        assert!(
            (100..320).contains(&lost),
            "20% nominal loss, got {lost}/1000"
        );
        assert_eq!(link.loss_drops.value(), lost);
    }

    #[test]
    fn lossless_link_ignores_seed() {
        let mut a = wire(10.0, us(1));
        let mut b = TopoLink::new(LinkPolicy::wire(Bandwidth::gbps(10.0), us(1)), 999);
        for t in 0..64 {
            assert_eq!(a.transmit(t * 500, 200), b.transmit(t * 500, 200));
        }
    }

    #[test]
    fn switch_routes_by_mac() {
        let mut sw = Switch::new();
        let server = MacAddr::simulated(1);
        let c0 = MacAddr::simulated(100);
        let c1 = MacAddr::simulated(101);
        sw.add_route(server, 0);
        sw.add_route(c0, 1);
        sw.add_route(c1, 2);
        assert_eq!(sw.route(server), Some(0));
        assert_eq!(sw.route(c1), Some(2));
        assert_eq!(sw.route(MacAddr::simulated(42)), None);
        assert_eq!(sw.len(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate switch route")]
    fn switch_rejects_duplicate_mac() {
        let mut sw = Switch::new();
        sw.add_route(MacAddr::simulated(1), 0);
        sw.add_route(MacAddr::simulated(1), 1);
    }
}
