//! Property tests for the topology fabric (`simnet-net::topo`): a link
//! is a FIFO (deliveries never reorder), its bounded congestion queue
//! never exceeds its bound, every offered frame lands in exactly one
//! ledger bucket (`offered == frames + tail_drops + loss_drops`), and
//! the seeded loss stream replays bit-identically from the same seed.
//! End to end, fan-in through the switch at a fixed aggregate load keeps
//! the point-to-point throughput.

use proptest::prelude::*;
use simnet::harness::config::TopoConfig;
use simnet::harness::{run_point, AppSpec, RunConfig, SystemConfig};
use simnet::net::topo::{LinkPolicy, Switch, TopoLink, Verdict};
use simnet::net::MacAddr;
use simnet::sim::tick::{ns, us, Bandwidth, Tick};

/// One offered frame: the gap since the previous offer and its length.
#[derive(Debug, Clone, Copy)]
struct Offer {
    gap: Tick,
    len: usize,
}

fn offers() -> impl Strategy<Value = Vec<Offer>> {
    proptest::collection::vec(
        (0u64..=2_000, 64usize..=1518).prop_map(|(gap, len)| Offer { gap: ns(gap), len }),
        1..200,
    )
}

fn policies() -> impl Strategy<Value = LinkPolicy> {
    (
        prop_oneof![Just(10.0f64), Just(40.0), Just(100.0)],
        0u64..=5_000,
        prop_oneof![
            Just(None),
            Just(Some(1usize)),
            Just(Some(4)),
            Just(Some(32))
        ],
        prop_oneof![Just(0u32), Just(1_000), Just(100_000), Just(500_000)],
    )
        .prop_map(|(gbps, latency, bound, ppm)| {
            let base = match bound {
                Some(frames) => LinkPolicy::bounded(Bandwidth::gbps(gbps), ns(latency), frames),
                None => LinkPolicy::wire(Bandwidth::gbps(gbps), ns(latency)),
            };
            base.with_loss(ppm)
        })
}

/// Drives `link` through `offers` and returns `(verdicts, final_now)`.
fn drive(link: &mut TopoLink, offers: &[Offer]) -> (Vec<Verdict>, Tick) {
    let mut now = 0;
    let mut verdicts = Vec::with_capacity(offers.len());
    for offer in offers {
        now += offer.gap;
        verdicts.push(link.transmit(now, offer.len));
    }
    (verdicts, now)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    /// FIFO order: across any policy and offer schedule, the delivered
    /// frames' arrival ticks are nondecreasing — the link never reorders
    /// what it accepts (drops leave gaps, never inversions).
    #[test]
    fn deliveries_never_reorder(policy in policies(), offers in offers(), seed in any::<u64>()) {
        let mut link = TopoLink::new(policy, seed);
        let (verdicts, _) = drive(&mut link, &offers);
        let mut last = 0;
        for v in verdicts {
            if let Verdict::Deliver(arrival) = v {
                prop_assert!(
                    arrival >= last,
                    "arrival {arrival} before prior {last} under {policy:?}"
                );
                last = arrival;
            }
        }
    }

    /// The bounded congestion queue honors its bound: occupancy probed
    /// after every offer — and the recorded high-water mark — never
    /// exceed the configured frame count.
    #[test]
    fn occupancy_never_exceeds_bound(
        bound in 1usize..=32,
        offers in offers(),
        seed in any::<u64>(),
    ) {
        let policy = LinkPolicy::bounded(Bandwidth::gbps(10.0), ns(500), bound);
        let mut link = TopoLink::new(policy, seed);
        let mut now = 0;
        for offer in &offers {
            now += offer.gap;
            link.transmit(now, offer.len);
            prop_assert!(
                link.occupancy(now) <= bound,
                "occupancy {} over bound {bound}",
                link.occupancy(now)
            );
        }
        prop_assert!(link.queue_peak() <= bound, "peak {} over bound {bound}", link.queue_peak());
        // Once the busy horizon passes, everything has serialized out.
        prop_assert_eq!(link.occupancy(link.next_free()), 0);
    }

    /// Conservation ledger: every offered frame is accounted for in
    /// exactly one bucket, and the byte counter sums exactly the accepted
    /// frames' lengths.
    #[test]
    fn ledger_conserves_every_offer(policy in policies(), offers in offers(), seed in any::<u64>()) {
        let mut link = TopoLink::new(policy, seed);
        let mut accepted_bytes = 0u64;
        let mut now = 0;
        for offer in &offers {
            now += offer.gap;
            if let Verdict::Deliver(_) = link.transmit(now, offer.len) {
                accepted_bytes += offer.len as u64;
            }
        }
        prop_assert_eq!(link.offered.value(), offers.len() as u64);
        prop_assert_eq!(
            link.offered.value(),
            link.frames.value() + link.tail_drops.value() + link.loss_drops.value(),
            "ledger must balance"
        );
        prop_assert_eq!(link.bytes.value(), accepted_bytes);
        // A pure wire (no queue, no loss) accepts everything.
        if policy.queue_frames.is_none() && policy.loss_ppm == 0 {
            prop_assert_eq!(link.frames.value(), link.offered.value());
        }
        if policy.loss_ppm == 0 {
            prop_assert_eq!(link.loss_drops.value(), 0);
        }
        if policy.queue_frames.is_none() {
            prop_assert_eq!(link.tail_drops.value(), 0);
        }
    }

    /// Seeded loss is replay-deterministic: two links built from the same
    /// `(policy, seed)` produce identical verdict sequences — and
    /// `reset_stats` does not perturb the draw stream.
    #[test]
    fn seeded_loss_replays_identically(
        offers in offers(),
        seed in any::<u64>(),
        ppm in prop_oneof![Just(1_000u32), Just(50_000), Just(500_000)],
        reset_at in 0usize..50,
    ) {
        let policy = LinkPolicy::wire(Bandwidth::gbps(40.0), ns(1_000)).with_loss(ppm);
        let (a, _) = drive(&mut TopoLink::new(policy, seed), &offers);

        // Replay with a mid-stream stats reset: counters clear, the loss
        // stream and busy horizon must not notice.
        let mut link = TopoLink::new(policy, seed);
        let mut now = 0;
        let mut b = Vec::with_capacity(offers.len());
        for (i, offer) in offers.iter().enumerate() {
            if i == reset_at {
                link.reset_stats();
            }
            now += offer.gap;
            b.push(link.transmit(now, offer.len));
        }
        prop_assert_eq!(a, b, "same seed must replay the same verdicts");
    }

    /// Distinct link seeds give independent loss streams: at 50% loss
    /// over a long offer train, two different seeds virtually never agree
    /// on every draw (probability 2^-len).
    #[test]
    fn distinct_seeds_decorrelate_loss(seed in any::<u64>()) {
        let policy = LinkPolicy::wire(Bandwidth::gbps(40.0), ns(1_000)).with_loss(500_000);
        let offers: Vec<Offer> = (0..256).map(|_| Offer { gap: ns(1_000), len: 256 }).collect();
        let (a, _) = drive(&mut TopoLink::new(policy, seed), &offers);
        let (b, _) = drive(&mut TopoLink::new(policy, seed.wrapping_add(1)), &offers);
        prop_assert!(a != b, "adjacent seeds should not share a loss stream");
    }
}

/// The switch forwards to exactly the port a MAC was bound to and
/// reports `None` for strangers — no flooding, no fallback port.
#[test]
fn switch_routes_are_exact() {
    let mut sw = Switch::new();
    let macs: Vec<MacAddr> = (0..8)
        .map(|i| MacAddr::new([0x02, 0, 0, 0, 0, i as u8]))
        .collect();
    for (port, mac) in macs.iter().enumerate() {
        sw.add_route(*mac, port);
    }
    assert_eq!(sw.len(), 8);
    for (port, mac) in macs.iter().enumerate() {
        assert_eq!(sw.route(*mac), Some(port));
    }
    assert_eq!(sw.route(MacAddr::new([0xff; 6])), None);
}

/// Fan-in must not collapse throughput: TestPMD 1518 B driven past the
/// knee at 120 Gbps aggregate, over `RunConfig::long()`, through 4 and 8
/// clients with a 10 µs latency spread. Each must reach its measured
/// ratio to the 1-client point-to-point kRPS (0.998 and 1.000) within a
/// 20% tolerance, which also covers a 0.8× floor for 8 clients.
#[test]
fn incast_tracks_point_to_point_throughput() {
    let krps = |clients: usize| {
        let topo = match clients {
            1 => TopoConfig::point_to_point(),
            n => TopoConfig::incast(n).with_latency_spread(us(10)),
        };
        let cfg = SystemConfig::gem5().with_topo(topo);
        run_point(&cfg, &AppSpec::TestPmd, 1518, 120.0, RunConfig::long()).achieved_rps() / 1e3
    };
    let base = krps(1);
    for (clients, measured) in [(4, 0.998), (8, 1.000)] {
        let ratio = krps(clients) / base;
        let floor = measured / 1.2;
        assert!(
            ratio >= floor,
            "{clients} clients reach {ratio:.3}x the point-to-point {base:.1} kRPS, \
             below the {floor:.3}x floor"
        );
    }
}
