//! The load-bearing proof for the multi-queue tentpole: the whole
//! RSS/multi-lcore machinery is configuration-gated, so a run assembled
//! through the multi-queue entry path at `--nqueues 1 --lcores 1` must
//! be observationally indistinguishable from the legacy single-ring
//! assembly — byte-identical golden traces, full stats dumps, executed
//! event counts, throughput bits, fault counters, and buffer ledgers —
//! across frame sizes, offered rates, and fault plans.
//! (The committed goldens in `tests/golden/` separately pin this
//! combined surface against the pre-multi-queue history.)
//!
//! Multi-queue runs themselves (`nqueues > 1`) are covered by replay
//! determinism and conservation checks: the per-queue
//! FIFOs and per-lcore schedules are a pure function of the seed. A
//! scaling gate pins what they buy: memcached past its knee must keep
//! its measured 2- and 4-lcore speedups.

use proptest::prelude::*;
use simnet::apps::{Iperf, TestPmd};
use simnet::harness::sim::Lcore;
use simnet::harness::summary::run_phases;
use simnet::harness::{
    build_loadgen_sim, run_point, stats_text_all, AppSpec, RunConfig, Simulation, SystemConfig,
};
use simnet::net::pool;
use simnet::sim::fault::{FaultInjector, FaultPlan};
use simnet::sim::tick::us;
use simnet::sim::trace::{canonical_text, trace_hash, Component};
use simnet::stack::{DpdkStack, KernelStack};

/// Everything observable about one run, serialized for comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: String,
    trace_hash: u64,
    stats: String,
    events: u64,
    achieved_gbps_bits: u64,
    fault_total: u64,
    pool_live_after_drop: u64,
}

/// Drives an assembled simulation through the common observability
/// harness and captures the full observable surface.
fn observe(mut sim: Simulation, plan: &str, phases: RunConfig) -> Observed {
    sim.enable_trace(1 << 20, Component::ALL_MASK);
    if !plan.is_empty() {
        let plan = FaultPlan::parse(plan).expect("valid plan");
        sim.install_faults(FaultInjector::new(plan, 11));
    }
    let summary = run_phases(&mut sim, phases);
    let events = sim.take_trace();
    let trace = canonical_text(&events);
    let stats = stats_text_all(&sim, 0);
    let fault_total = sim.fault_injector().counts().total();
    drop(sim);
    Observed {
        trace,
        trace_hash: trace_hash(&events),
        stats,
        events: summary.events,
        achieved_gbps_bits: summary.achieved_gbps().to_bits(),
        fault_total,
        pool_live_after_drop: pool::stats().live(),
    }
}

/// The legacy single-ring assembly: one stack and one application built
/// directly, not through `AppSpec::lcores`, handed to
/// `Simulation::loadgen_mode` with no queue knobs — the pre-multi-queue
/// construction.
fn run_legacy(spec: AppSpec, size: usize, gbps: f64, plan: &str) -> Observed {
    let cfg = SystemConfig::gem5();
    let lcore: Lcore = match spec {
        AppSpec::TestPmd => (Box::new(DpdkStack::new(cfg.seed)), Box::new(TestPmd::new())),
        AppSpec::Iperf => (Box::new(KernelStack::new(cfg.seed)), Box::new(Iperf::new())),
        other => panic!("no legacy oracle for {}", other.label()),
    };
    let loadgen = spec.loadgen(&cfg, size, gbps);
    let sim = Simulation::loadgen_mode(&cfg, vec![lcore], loadgen);
    observe(sim, plan, SHORT)
}

/// The multi-queue assembly at an arbitrary `(nqueues, lcores)` point:
/// `build_loadgen_sim` — the entry `run_point`, `run_observed`, and the
/// `repro --nqueues/--lcores` flags all share.
fn run_mq(spec: AppSpec, nq: usize, lcores: usize, size: usize, gbps: f64, plan: &str) -> Observed {
    let cfg = SystemConfig::gem5().with_queues(nq).with_lcores(lcores);
    let sim = build_loadgen_sim(&cfg, &spec, size, gbps);
    observe(sim, plan, SHORT)
}

/// Asserts the full observable surface matches between two runs.
fn assert_equivalent(a: &Observed, b: &Observed, label: &str) {
    assert_eq!(a.trace, b.trace, "{label}: canonical traces diverged");
    assert_eq!(a.trace_hash, b.trace_hash, "{label}: trace hashes diverged");
    assert_eq!(a.stats, b.stats, "{label}: stats dumps diverged");
    assert_eq!(
        a.events, b.events,
        "{label}: executed-event counts diverged"
    );
    assert_eq!(
        a.achieved_gbps_bits, b.achieved_gbps_bits,
        "{label}: achieved throughput diverged"
    );
    assert_eq!(
        a.fault_total, b.fault_total,
        "{label}: fault counters diverged"
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

/// The canonical differential matrix: sizes × rates × fault plans,
/// single-queue multi-queue assembly vs the legacy construction. Every
/// cell must match bit-for-bit.
#[test]
fn single_queue_matrix_is_byte_identical_to_legacy_assembly() {
    for (size, gbps) in [(1518usize, 30.0f64), (64, 70.0), (256, 10.0)] {
        for plan in ["", "link.ber=3e-5;dma.burst=+500ns/2us@20us"] {
            let legacy = run_legacy(AppSpec::TestPmd, size, gbps, plan);
            let mq = run_mq(AppSpec::TestPmd, 1, 1, size, gbps, plan);
            assert_equivalent(
                &legacy,
                &mq,
                &format!("testpmd {size}B @{gbps}Gbps plan={plan:?}"),
            );
        }
    }
}

/// The kernel stack's softirq path reduces to the legacy op stream at
/// one queue too (its per-lcore address slices and per-queue staging
/// collapse to the single-ring layout at lcore 0 / queue 0).
#[test]
fn kernel_stack_single_queue_matches_legacy_assembly() {
    for plan in ["", "nic.wb_corrupt=8%;link.ber=2e-5"] {
        let legacy = run_legacy(AppSpec::Iperf, 1024, 20.0, plan);
        let mq = run_mq(AppSpec::Iperf, 1, 1, 1024, 20.0, plan);
        assert_equivalent(&legacy, &mq, &format!("iperf plan={plan:?}"));
    }
}

/// Replay determinism for genuinely multi-queue runs: a freshly rebuilt
/// `(nqueues, lcores)` simulation with the same seed reproduces the
/// trace, stats, and event schedule byte-for-byte — including under a
/// fault plan whose draws land across the per-queue FIFOs.
#[test]
fn multi_queue_replay_is_deterministic() {
    for (nq, lcores) in [(2usize, 2usize), (4, 2), (4, 4)] {
        for plan in ["", "link.ber=3e-5;dma.burst=+500ns/2us@20us"] {
            let a = run_mq(AppSpec::TestPmd, nq, lcores, 512, 40.0, plan);
            let b = run_mq(AppSpec::TestPmd, nq, lcores, 512, 40.0, plan);
            assert_equivalent(&a, &b, &format!("replay {nq}q/{lcores}l plan={plan:?}"));
            assert!(!a.trace.is_empty(), "{nq}q/{lcores}l captured no events");
        }
    }
}

/// A sharded memcached run across 4 queues / 4 lcores must answer
/// requests on every queue (RSS steering actually spreads the load) and
/// stay deterministic under replay.
#[test]
fn sharded_memcached_uses_every_queue_and_replays_identically() {
    let phases = RunConfig {
        warmup: us(500),
        measure: us(2_000),
    };
    let build = || {
        let cfg = SystemConfig::gem5().with_queues(4).with_lcores(4);
        build_loadgen_sim(&cfg, &AppSpec::MemcachedDpdk, 0, 400.0)
    };
    let a = observe(build(), "", phases);
    let b = observe(build(), "", phases);
    assert_equivalent(&a, &b, "memcached 4q/4l replay");
    // Per-queue RX counters in the full stats dump must all be nonzero.
    for q in 0..4 {
        let needle = format!("system.nic.rxq{q}.");
        assert!(
            a.stats.contains(&needle),
            "stats dump missing per-queue block {needle}"
        );
    }
    for lcore in 0..4 {
        let needle = format!("system.cpu.lcore{lcore}.");
        assert!(
            a.stats.contains(&needle),
            "stats dump missing per-lcore block {needle}"
        );
    }
}

/// Sharded memcached answers every GET from its own shard: each lcore
/// holds the keys of the queues it polls, and the client steers each
/// request onto the queue that owns its key, so on every shape, DPDK and
/// kernel stack alike, the client sees hits and not one miss. A drifted
/// queue→lcore map or a lost steering rule sends GETs to a shard without
/// their key.
#[test]
fn sharded_memcached_answers_every_get_from_its_own_shard() {
    let stacks = [
        (AppSpec::MemcachedDpdk, 400.0, us(2_000)),
        (AppSpec::MemcachedKernel, 100.0, us(4_000)),
    ];
    for (spec, krps, measure) in stacks {
        for (nq, lcores) in [(2usize, 2usize), (4, 2), (4, 3), (4, 4), (8, 8)] {
            let cfg = SystemConfig::gem5().with_queues(nq).with_lcores(lcores);
            let mut sim = build_loadgen_sim(&cfg, &spec, 0, krps);
            let phases = RunConfig {
                warmup: us(200),
                measure,
            };
            run_phases(&mut sim, phases);
            let client = sim
                .loadgen
                .as_ref()
                .and_then(|lg| lg.memcached())
                .expect("a memcached run has a memcached client");
            let (hits, misses) = (client.hits.value(), client.misses.value());
            let label = format!("{} {nq}q/{lcores}l", spec.label());
            assert_eq!(misses, 0, "{label}: {misses} GETs missed ({hits} hit)");
            assert!(hits > 0, "{label}: no GET hit");
        }
    }
}

/// Multi-queue memcached must scale: driven past the 4-lcore knee at
/// 3,200 kRPS over `RunConfig::long()`, `(nqueues, lcores)` of (2,2) and
/// (4,4) must each reach its measured speedup over (1,1) (2.006 and
/// 3.589, from 889.6, 1784.8 and 3193.2 kRPS) within a 20% tolerance,
/// which also covers a 1.5× floor for 4 lcores. The achieved rate is a
/// pure function of seed and config, so only a model change moves it.
#[test]
fn memcached_scales_with_queues_and_lcores() {
    let krps = |n: usize| {
        let cfg = SystemConfig::gem5().with_queues(n).with_lcores(n);
        run_point(&cfg, &AppSpec::MemcachedDpdk, 0, 3200.0, RunConfig::long()).achieved_rps() / 1e3
    };
    let base = krps(1);
    for (n, measured) in [(2, 2.006), (4, 3.589)] {
        let speedup = krps(n) / base;
        let floor = measured / 1.2;
        assert!(
            speedup >= floor,
            "{n} queues x {n} lcores reach {speedup:.3}x the 1-lcore {base:.1} kRPS, \
             below the {floor:.3}x floor"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    /// Differential fuzz over the single-queue knob space: arbitrary
    /// sizes, rates, and fault plans — the multi-queue assembly
    /// at (1, 1) must match the legacy construction bit-for-bit.
    #[test]
    fn arbitrary_single_queue_points_match_legacy(
        size in prop_oneof![Just(64usize), Just(256), Just(1024), Just(1518)],
        gbps in prop_oneof![Just(2.0f64), Just(15.0), Just(45.0), Just(70.0)],
        plan in prop_oneof![
            Just(""),
            Just("link.ber=3e-5"),
            Just("nic.wb_corrupt=10%;dma.burst=+500ns/2us@20us"),
            Just("nic.fifo_stuck=15us@50us;link.ber=2e-5"),
        ],
    ) {
        let legacy = run_legacy(AppSpec::TestPmd, size, gbps, plan);
        let mq = run_mq(AppSpec::TestPmd, 1, 1, size, gbps, plan);
        assert_equivalent(
            &legacy,
            &mq,
            &format!("fuzz {size}B @{gbps}Gbps plan={plan:?}"),
        );
    }

    /// Replay-determinism fuzz for any-N multi-queue runs, fault plans
    /// included: two fresh builds of the same point must agree on every
    /// observable byte.
    #[test]
    fn arbitrary_multi_queue_points_replay_identically(
        shape in prop_oneof![Just((2usize, 1usize)), Just((2, 2)), Just((4, 1)),
                             Just((4, 3)), Just((4, 4)), Just((8, 8))],
        gbps in prop_oneof![Just(10.0f64), Just(40.0)],
        plan in prop_oneof![
            Just(""),
            Just("link.ber=3e-5"),
            Just("nic.wb_corrupt=10%;nic.fifo_stuck=15us@50us"),
        ],
    ) {
        let (nq, lcores) = shape;
        let a = run_mq(AppSpec::TestPmd, nq, lcores, 512, gbps, plan);
        let b = run_mq(AppSpec::TestPmd, nq, lcores, 512, gbps, plan);
        assert_equivalent(&a, &b, &format!("fuzz replay {nq}q/{lcores}l plan={plan:?}"));
    }
}
