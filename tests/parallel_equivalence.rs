//! The load-bearing proof for the parallel-sharding tentpole: the
//! sharded driver is conservatively synchronized and its cross-shard
//! deliveries are totally ordered by `(tick, sender rank, send order)`,
//! so the *entire observable surface* — merged golden trace, both stats
//! dump levels, the interval time series, fault counters, and the run
//! summary (minus host wall-clock) — must be **byte-identical** between
//! `--threads 1` and `--threads N`. Thread count is an execution detail,
//! never a semantic input.
//!
//! Against the legacy single-queue driver, the sharded run must agree on
//! the surfaces sharding provably preserves: the Compat stats dump and
//! fault counters in loadgen mode (byte-identical), and the measurement
//! summary in fan-in topology mode (ints exact, floats to 1e-9;
//! zipf-flow configs are excluded because the legacy fleet draws flow
//! choices from one shared RNG stream while slices draw per-client
//! streams).

use proptest::prelude::*;
use simnet::harness::config::TopoConfig;
use simnet::harness::summary::{run_phases, Phases};
use simnet::harness::{
    build_loadgen_sim, run_observed_parallel, AppSpec, ObserveOpts, ParallelOutcome, RunConfig,
    SystemConfig,
};
use simnet::sim::fault::{FaultInjector, FaultPlan};
use simnet::sim::tick::us;
use simnet::sim::trace::{canonical_text, trace_hash, Component};

const TRACE_CAP: usize = 1 << 20;

fn short() -> RunConfig {
    RunConfig {
        phases: Phases {
            warmup: us(100),
            measure: us(400),
        },
    }
}

/// Everything observable about one sharded run, serialized for
/// byte-comparison across thread counts.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: String,
    trace_hash: u64,
    evicted: u64,
    stats_compat: String,
    stats_full: String,
    timeseries: Option<String>,
    summary: String,
    fault_counts: String,
}

fn observe(outcome: &ParallelOutcome) -> Observed {
    let mut summary = outcome.summary.clone();
    summary.host_seconds = 0.0;
    Observed {
        trace: canonical_text(&outcome.events),
        trace_hash: trace_hash(&outcome.events),
        evicted: outcome.evicted,
        stats_compat: outcome.stats_compat.clone(),
        stats_full: outcome.stats_full.clone(),
        timeseries: outcome.timeseries.as_ref().map(|ts| ts.to_csv()),
        // `{:?}` of an f64 is its unique shortest-roundtrip form, so this
        // is a bit-exact comparison for every finite float in the summary.
        summary: format!("{summary:?}"),
        fault_counts: format!("{:?}", outcome.fault_counts),
    }
}

fn opts(plan: &str, sample: bool) -> ObserveOpts {
    ObserveOpts {
        trace: Some((TRACE_CAP, Component::ALL_MASK)),
        faults: if plan.is_empty() {
            FaultInjector::disabled()
        } else {
            FaultInjector::new(FaultPlan::parse(plan).expect("valid plan"), 11)
        },
        stats_interval: sample.then(|| us(50)),
        profile: false,
    }
}

fn run_sharded(
    cfg: &SystemConfig,
    spec: AppSpec,
    size: usize,
    gbps: f64,
    threads: usize,
    plan: &str,
    sample: bool,
) -> ParallelOutcome {
    run_observed_parallel(cfg, &spec, size, gbps, short(), threads, opts(plan, sample))
}

fn assert_equivalent(a: &Observed, b: &Observed, label: &str) {
    assert_eq!(a.trace, b.trace, "{label}: merged traces diverged");
    assert_eq!(a.trace_hash, b.trace_hash, "{label}: trace hashes diverged");
    assert_eq!(a.evicted, b.evicted, "{label}: eviction counts diverged");
    assert_eq!(
        a.stats_compat, b.stats_compat,
        "{label}: compat dumps diverged"
    );
    assert_eq!(a.stats_full, b.stats_full, "{label}: full dumps diverged");
    assert_eq!(a.timeseries, b.timeseries, "{label}: time series diverged");
    assert_eq!(a.summary, b.summary, "{label}: summaries diverged");
    assert_eq!(
        a.fault_counts, b.fault_counts,
        "{label}: fault counters diverged"
    );
}

/// Point-to-point scenarios: every observable byte-identical across
/// thread counts, with and without faults and sampling, for DPDK and
/// kernel-stack apps (closed-loop memcached included).
#[test]
fn p2p_thread_count_invariance() {
    let cfg = SystemConfig::gem5();
    let cases: &[(AppSpec, usize, f64, &str, bool)] = &[
        (AppSpec::TestPmd, 512, 4.0, "", false),
        (AppSpec::TestPmd, 256, 9.0, "", true),
        (
            AppSpec::TouchFwd,
            1024,
            6.0,
            "nic.wb_delay=500ns@10%;link.ber=3e-5",
            true,
        ),
        (AppSpec::MemcachedDpdk, 128, 2.0, "", false),
        (AppSpec::Iperf, 512, 3.0, "nic.fifo_stuck=15us@50us", false),
    ];
    for (spec, size, gbps, plan, sample) in cases {
        let one = observe(&run_sharded(&cfg, *spec, *size, *gbps, 1, plan, *sample));
        let two = observe(&run_sharded(&cfg, *spec, *size, *gbps, 2, plan, *sample));
        let label = format!("{spec:?}/{size}B/{gbps}G/{plan:?}/sample={sample}");
        assert_equivalent(&one, &two, &label);
    }
}

/// Fan-in topology scenarios (multi-client incast through the switch):
/// byte-identical across 1, 2, and 4 threads, including the reassembled
/// fabric columns of the time series and the per-link topo stats.
#[test]
fn topo_thread_count_invariance() {
    let mut cfg = SystemConfig::gem5();
    cfg.topo = TopoConfig::incast(4);
    let plans = ["", "nic.wb_delay=500ns@10%"];
    for (plan, sample) in plans.iter().zip([true, false]) {
        let one = observe(&run_sharded(
            &cfg,
            AppSpec::TouchDrop,
            512,
            8.0,
            1,
            plan,
            sample,
        ));
        let two = observe(&run_sharded(
            &cfg,
            AppSpec::TouchDrop,
            512,
            8.0,
            2,
            plan,
            sample,
        ));
        let four = observe(&run_sharded(
            &cfg,
            AppSpec::TouchDrop,
            512,
            8.0,
            4,
            plan,
            sample,
        ));
        let label = format!("incast4/{plan:?}/sample={sample}");
        assert_equivalent(&one, &two, &label);
        assert_equivalent(&one, &four, &label);
    }
}

/// A lossy, congested incast (bounded trunk queue + uplink loss) keeps
/// drop accounting thread-count-invariant: drops land on the shard that
/// owns the dropping link, so totals cannot double-count or go missing.
#[test]
fn topo_lossy_thread_count_invariance() {
    let mut cfg = SystemConfig::gem5();
    cfg.topo = TopoConfig::incast(8);
    cfg.topo.trunk_queue_frames = 24;
    cfg.topo.loss_ppm = 500;
    let one = observe(&run_sharded(
        &cfg,
        AppSpec::TouchDrop,
        700,
        12.0,
        1,
        "",
        true,
    ));
    let four = observe(&run_sharded(
        &cfg,
        AppSpec::TouchDrop,
        700,
        12.0,
        4,
        "",
        true,
    ));
    assert_equivalent(&one, &four, "incast8-lossy");
}

/// The legacy single-queue driver and the sharded driver agree on the
/// loadgen-mode Compat dump byte-for-byte: `sim_ticks`, `host_events`,
/// and every component section are the same numbers, independently
/// assembled.
#[test]
fn p2p_matches_legacy_compat_dump() {
    let cfg = SystemConfig::gem5();
    let cases: &[(AppSpec, usize, f64, &str)] = &[
        (AppSpec::TestPmd, 512, 4.0, ""),
        (
            AppSpec::TouchFwd,
            1024,
            6.0,
            "nic.wb_delay=500ns@10%;link.ber=3e-5",
        ),
        (AppSpec::MemcachedDpdk, 128, 2.0, ""),
    ];
    for (spec, size, gbps, plan) in cases {
        let label = format!("{spec:?}/{plan:?}");
        // Legacy: the exact single-threaded reference path. No tracing on
        // either side — the probe events it schedules change `sim_ticks`
        // and `host_events`, so observability layers must match.
        let mut sim = build_loadgen_sim(&cfg, spec, *size, *gbps);
        if !plan.is_empty() {
            sim.install_faults(FaultInjector::new(
                FaultPlan::parse(plan).expect("valid plan"),
                11,
            ));
        }
        let legacy_summary = run_phases(&mut sim, short().phases);
        let legacy_dump = simnet::harness::stats_text(&sim, 0);
        let legacy_faults = sim.fault_injector().counts();
        drop(sim);

        let mut o = opts(plan, false);
        o.trace = None;
        let sharded = run_observed_parallel(&cfg, spec, *size, *gbps, short(), 2, o);
        assert_eq!(
            legacy_dump, sharded.stats_compat,
            "{label}: compat dump diverged from legacy"
        );
        assert_eq!(
            legacy_faults, sharded.fault_counts,
            "{label}: fault counters diverged from legacy"
        );
        assert_eq!(
            format!("{:?}", legacy_summary.report),
            format!("{:?}", sharded.summary.report),
            "{label}: loadgen report diverged from legacy"
        );
        assert_eq!(
            legacy_summary.events, sharded.summary.events,
            "{label}: measurement event count diverged from legacy"
        );
    }
}

/// Fan-in topology vs legacy: the measurement summary agrees — counters
/// exactly, derived floats to 1e-9. (Sampling off: the drivers finalize
/// the last partial interval at different ticks by design; zipf flows
/// off: legacy draws them from a shared fleet RNG stream.)
#[test]
fn topo_matches_legacy_summary() {
    let mut cfg = SystemConfig::gem5();
    cfg.topo = TopoConfig::incast(4);
    let spec = AppSpec::TouchDrop;
    let mut sim = build_loadgen_sim(&cfg, &spec, 512, 8.0);
    let legacy = run_phases(&mut sim, short().phases);
    drop(sim);
    let sharded = run_sharded(&cfg, spec, 512, 8.0, 4, "", false).summary;

    let l = &legacy.report;
    let s = &sharded.report;
    assert_eq!((l.tx_packets, l.tx_bytes), (s.tx_packets, s.tx_bytes));
    assert_eq!((l.rx_packets, l.rx_bytes), (s.rx_packets, s.rx_bytes));
    assert_eq!(legacy.drop_counts, sharded.drop_counts);
    assert_eq!(legacy.fault_drops, sharded.fault_drops);
    let close = |a: f64, b: f64, what: &str| {
        assert!((a - b).abs() <= 1e-9, "{what}: {a} vs {b}");
    };
    close(l.achieved_gbps, s.achieved_gbps, "achieved_gbps");
    close(l.drop_rate, s.drop_rate, "loadgen drop_rate");
    close(l.latency.mean, s.latency.mean, "latency mean");
    close(l.latency.p99, s.latency.p99, "latency p99");
    close(legacy.drop_rate, sharded.drop_rate, "fsm drop_rate");
    close(legacy.llc_miss_rate, sharded.llc_miss_rate, "llc miss rate");
    close(legacy.row_hit_rate, sharded.row_hit_rate, "row hit rate");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, ..ProptestConfig::default()
    })]

    /// Satellite 2: fault-plan draws are a pure function of the master
    /// seed and packet-arrival sequence, never of thread placement — for
    /// random plans, counters at 1 thread equal counters at 4 threads
    /// exactly.
    #[test]
    fn fault_draws_thread_invariant(
        wb_pct in 1u64..=50,
        wb_ns in 100u64..2_000,
        ber_ppm in 1u64..=80,
        seed in 1u64..1_000,
    ) {
        let plan = format!("nic.wb_delay={wb_ns}ns@{wb_pct}%;link.ber={ber_ppm}e-6");
        let mut cfg = SystemConfig::gem5();
        cfg.seed = seed;
        let make = |threads| {
            let o = ObserveOpts {
                faults: FaultInjector::new(
                    FaultPlan::parse(&plan).expect("valid plan"),
                    seed ^ 0xFA_017,
                ),
                ..ObserveOpts::default()
            };
            run_observed_parallel(&cfg, &AppSpec::TouchFwd, 512, 6.0, short(), threads, o)
        };
        let one = make(1);
        let four = make(4);
        prop_assert_eq!(one.fault_counts, four.fault_counts);
        prop_assert_eq!(
            format!("{:?}", one.summary.report),
            format!("{:?}", four.summary.report)
        );
    }
}

/// Satellite 3: the merged cross-thread profile attributes essentially
/// all of the workers' wall-clock — per-event dispatch kinds plus the
/// explicit `sync_idle` bucket cover the loop with nothing unaccounted.
#[test]
fn profiler_merge_attributes_all_thread_time() {
    let cfg = SystemConfig::gem5();
    let o = ObserveOpts {
        profile: true,
        ..ObserveOpts::default()
    };
    let outcome = run_observed_parallel(&cfg, &AppSpec::TestPmd, 512, 6.0, short(), 2, o);
    let prof = outcome.profile.expect("profiling was requested");
    assert!(prof.loop_nanos() > 0, "merged profile saw no loop time");
    let cov = prof.coverage();
    assert!(
        (cov - 1.0).abs() < 1e-6,
        "merged profile covers {cov:.4} of thread time, want 1.0"
    );
    let report = prof.render();
    assert!(
        report.contains("sync_idle"),
        "merged report must show the sync/idle bucket:\n{report}"
    );
}

/// `--threads` beyond the shard count is a clamp, not an error, and the
/// outcome reports the realized parallelism.
#[test]
fn thread_clamp_reports_realized_parallelism() {
    let cfg = SystemConfig::gem5();
    let outcome = run_sharded(&cfg, AppSpec::TestPmd, 512, 2.0, 16, "", false);
    assert_eq!(outcome.shards, 2, "point-to-point decomposes into 2 shards");
    assert_eq!(outcome.threads, 2, "threads clamp to the shard count");
}

/// A panic on a worker thread fails the run promptly, with the worker's
/// own message. Here the host shard cannot be built (two lcores on a
/// one-queue NIC) while the load-generator shard, on the other thread,
/// would otherwise wait for the host's clock forever.
#[test]
fn worker_panic_fails_the_run_promptly() {
    let mut cfg = SystemConfig::gem5();
    cfg.num_lcores = 2;
    let t0 = std::time::Instant::now();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_sharded(&cfg, AppSpec::TestPmd, 512, 2.0, 2, "", false)
    }))
    .expect_err("an unbuildable host shard must fail the run");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        msg.contains("lcores need at least as many NIC queues"),
        "not the worker's own panic: {msg:?}"
    );
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "worker panic took {:?} to surface",
        t0.elapsed()
    );
}
