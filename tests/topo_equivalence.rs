//! The load-bearing proof for the topology tentpole: the fabric is
//! configuration-gated, so the degenerate point-to-point topology must
//! be observationally indistinguishable from the default assembly —
//! byte-identical traces, full stats dumps, event counts, and
//! throughput bits — and the pure-wire [`TopoLink`] must compute the
//! closed-form arrival tick on any offer schedule. (The committed
//! goldens in `tests/golden/` separately pin the degenerate schedule
//! against the pre-topology history.)
//!
//! Incast runs themselves (`clients > 1`) are covered by replay
//! determinism and the per-link drop/queue stats the full dump must
//! expose.

use proptest::prelude::*;
use simnet::harness::config::TopoConfig;
use simnet::harness::summary::run_phases;
use simnet::harness::{
    build_loadgen_sim, stats_text_all, AppSpec, RunConfig, Simulation, SystemConfig,
};
use simnet::net::pool;
use simnet::net::topo::{LinkPolicy, TopoLink, Verdict};
use simnet::sim::tick::{ns, us, Bandwidth};
use simnet::sim::trace::{canonical_text, trace_hash, Component};

/// Everything observable about one run, serialized for comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: String,
    trace_hash: u64,
    stats: String,
    events: u64,
    achieved_gbps_bits: u64,
    drop_rate_bits: u64,
    pool_live_after_drop: u64,
}

/// Drives an assembled simulation and captures the observable surface.
fn observe(mut sim: Simulation, phases: RunConfig) -> Observed {
    sim.enable_trace(1 << 20, Component::ALL_MASK);
    let summary = run_phases(&mut sim, phases);
    let events = sim.take_trace();
    let trace = canonical_text(&events);
    let stats = stats_text_all(&sim, 0);
    drop(sim);
    Observed {
        trace,
        trace_hash: trace_hash(&events),
        stats,
        events: summary.events,
        achieved_gbps_bits: summary.achieved_gbps().to_bits(),
        drop_rate_bits: summary.report.drop_rate.to_bits(),
        pool_live_after_drop: pool::stats().live(),
    }
}

fn assert_equivalent(a: &Observed, b: &Observed, label: &str) {
    assert_eq!(a.trace, b.trace, "{label}: canonical traces diverged");
    assert_eq!(a.trace_hash, b.trace_hash, "{label}: trace hashes diverged");
    assert_eq!(a.stats, b.stats, "{label}: stats dumps diverged");
    assert_eq!(a.events, b.events, "{label}: event counts diverged");
    assert_eq!(
        a.achieved_gbps_bits, b.achieved_gbps_bits,
        "{label}: throughput diverged"
    );
    assert_eq!(
        a.drop_rate_bits, b.drop_rate_bits,
        "{label}: drop rates diverged"
    );
    assert_eq!(
        a.pool_live_after_drop, 0,
        "{label}: first run stranded buffers"
    );
    assert_eq!(
        b.pool_live_after_drop, 0,
        "{label}: second run stranded buffers"
    );
}

const SHORT: RunConfig = RunConfig {
    warmup: us(50),
    measure: us(150),
};

/// Builds the single-point simulation for `cfg` the way `run_point`,
/// `run_observed`, and `repro` all do.
fn build(cfg: &SystemConfig, size: usize, gbps: f64) -> Simulation {
    build_loadgen_sim(cfg, &AppSpec::TestPmd, size, gbps)
}

/// An incast config: `clients` endpoints, heterogeneous access
/// latencies, a bounded trunk queue, and a little seeded access loss.
fn incast_cfg(clients: usize) -> SystemConfig {
    SystemConfig::gem5().with_topo(
        TopoConfig::incast(clients)
            .with_latency_spread(us(5))
            .with_trunk_queue(256)
            .with_loss_ppm(200),
    )
}

/// The degenerate differential matrix: an explicit point-to-point
/// `TopoConfig` must assemble the exact same simulation as the default
/// config across sizes and rates.
#[test]
fn explicit_point_to_point_topology_matches_default_assembly() {
    for (size, gbps) in [(1518usize, 30.0f64), (64, 70.0), (256, 10.0)] {
        let default_cfg = SystemConfig::gem5();
        let topo_cfg = SystemConfig::gem5().with_topo(TopoConfig::point_to_point());
        let a = observe(build(&default_cfg, size, gbps), SHORT);
        let b = observe(build(&topo_cfg, size, gbps), SHORT);
        assert_equivalent(&a, &b, &format!("{size}B @{gbps}Gbps"));
    }
}

/// The degenerate fabric registers nothing: no `system.topo` block and
/// no `loadgen.clients` count may appear in the frozen-format
/// stats dump of a point-to-point run.
#[test]
fn degenerate_runs_keep_the_stats_dump_clean() {
    let cfg = SystemConfig::gem5().with_topo(TopoConfig::point_to_point());
    let obs = observe(build(&cfg, 1518, 30.0), SHORT);
    assert!(
        !obs.stats.contains("system.topo"),
        "degenerate topology must not register fabric stats"
    );
}

/// Incast replay determinism: two fresh builds of an 8-client incast —
/// heterogeneous RTTs, bounded trunk, seeded loss — agree on every
/// observable byte, and the run actually moves traffic.
#[test]
fn incast_replay_is_deterministic() {
    let phases = RunConfig {
        warmup: us(100),
        measure: us(400),
    };
    let a = observe(build(&incast_cfg(8), 1518, 40.0), phases);
    let b = observe(build(&incast_cfg(8), 1518, 40.0), phases);
    assert_equivalent(&a, &b, "incast 8-client replay");
    assert!(!a.trace.is_empty(), "incast run captured no events");
    assert_ne!(
        a.achieved_gbps_bits,
        0f64.to_bits(),
        "incast moved no traffic"
    );
}

/// The full stats dump of an incast run exposes the per-link ledger:
/// client count, fabric aggregates, trunk drop/queue gauges, and one
/// block per access link.
#[test]
fn incast_stats_expose_the_per_link_ledger() {
    // Overdrive a tight trunk so tail-drops actually happen.
    let cfg = SystemConfig::gem5().with_topo(
        TopoConfig::incast(8)
            .with_latency_spread(us(5))
            .with_trunk_queue(16),
    );
    let obs = observe(build(&cfg, 1518, 120.0), SHORT);
    for needle in [
        "loadgen.clients",
        "system.topo.clients",
        "system.topo.unroutable",
        "system.topo.trunk.txFrames",
        "system.topo.trunk.tailDrops",
        "system.topo.trunk.queuePeak",
        "system.topo.uplinks.txFrames",
        "system.topo.downlinks.txFrames",
        "system.topo.uplink0.txFrames",
        "system.topo.downlink7.txFrames",
    ] {
        assert!(obs.stats.contains(needle), "stats dump missing {needle}");
    }
    let tail_drops: u64 = obs
        .stats
        .lines()
        .find(|l| l.starts_with("system.topo.trunk.tailDrops"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("tailDrops line parses");
    assert!(
        tail_drops > 0,
        "overdriven 16-frame trunk never tail-dropped"
    );
    assert_ne!(obs.drop_rate_bits, 0f64.to_bits(), "clients saw no drops");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    /// The pure-wire `TopoLink` computes the closed-form arrival tick
    /// `max(now, busy) + (len + 20 B) at the line rate + latency` (20 B
    /// of preamble, SFD and inter-frame gap) on any offer schedule,
    /// which is the arithmetic every wire in the simulator rests on.
    #[test]
    fn wire_link_matches_closed_form(
        gbps in prop_oneof![Just(10.0f64), Just(40.0), Just(100.0)],
        latency in 0u64..=5_000,
        offers in proptest::collection::vec((0u64..=2_000, 64usize..=1518), 1..100),
        seed in any::<u64>(),
    ) {
        let bw = Bandwidth::gbps(gbps);
        let mut topo = TopoLink::new(LinkPolicy::wire(bw, ns(latency)), seed);
        let (mut now, mut busy, mut bytes) = (0u64, 0u64, 0u64);
        for &(gap, len) in &offers {
            now += ns(gap);
            busy = now.max(busy) + bw.bytes_to_ticks(len as u64 + 20);
            bytes += len as u64;
            prop_assert_eq!(topo.transmit(now, len), Verdict::Deliver(busy + ns(latency)));
        }
        prop_assert_eq!(topo.frames.value(), offers.len() as u64);
        prop_assert_eq!(topo.bytes.value(), bytes);
        prop_assert_eq!(topo.next_free(), busy);
    }
}
