//! Property tests for the fault-injection subsystem: the plan grammar
//! round-trips exactly and rejects malformed input, the RX path survives
//! stuck-full FIFO windows with packet conservation intact, and the
//! kitchen-sink [`FaultPlan::aggressive`] plan degrades the run without
//! hanging or blowing up the event count.

use proptest::prelude::*;
use simnet::harness::summary::{run_phases, Phases};
use simnet::harness::{build_loadgen_sim, AppSpec, RunConfig, SystemConfig};
use simnet::net::MIN_FRAME_LEN;
use simnet::sim::fault::{Burst, Delayed, FaultInjector, FaultPlan, Window};
use simnet::sim::tick::us;
use simnet::sim::Tick;

// ---- strategies over the plan grammar ----------------------------------

/// Durations that print as a single clean unit (`NNNps`/`NNNns`/`NNNus`).
fn duration() -> Box<dyn Strategy<Value = Tick>> {
    (
        1u64..1_000,
        prop_oneof![Just(1u64), Just(1_000), Just(1_000_000)],
    )
        .prop_map(|(v, unit)| v * unit)
        .boxed()
}

fn window() -> Box<dyn Strategy<Value = Window>> {
    (duration(), 1u64..8)
        .prop_map(|(duration, mult)| Window {
            duration,
            period: duration * mult,
        })
        .boxed()
}

/// Whole-number percentages: `f64` display round-trips them exactly.
fn pct() -> Box<dyn Strategy<Value = f64>> {
    (1u64..=100).prop_map(|p| p as f64).boxed()
}

fn pct_or_off() -> Box<dyn Strategy<Value = f64>> {
    prop_oneof![Just(0.0), pct()].boxed()
}

fn delayed() -> Box<dyn Strategy<Value = Delayed>> {
    (duration(), pct())
        .prop_map(|(extra, pct)| Delayed { extra, pct })
        .boxed()
}

fn burst() -> Box<dyn Strategy<Value = Burst>> {
    (duration(), window())
        .prop_map(|(extra, window)| Burst { extra, window })
        .boxed()
}

fn ber_or_off() -> Box<dyn Strategy<Value = f64>> {
    prop_oneof![
        Just(0.0),
        (1u32..10, 4i32..9).prop_map(|(m, e)| f64::from(m) * 10f64.powi(-e)),
    ]
    .boxed()
}

fn opt<T: Clone + 'static>(
    s: Box<dyn Strategy<Value = T>>,
) -> Box<dyn Strategy<Value = Option<T>>> {
    prop_oneof![Just(None), s.prop_map(Some)].boxed()
}

fn plan() -> impl Strategy<Value = FaultPlan> {
    (
        (ber_or_off(), opt(window()), opt(delayed()), pct_or_off()),
        (opt(delayed()), opt(window()), opt(burst()), pct_or_off()),
    )
        .prop_map(|((link_ber, fifo_stuck, wb_delay, wb_corrupt_pct), rest)| {
            let (pci_stall, master_clear, dma_burst, dca_miss_pct) = rest;
            FaultPlan {
                link_ber,
                fifo_stuck,
                wb_delay,
                wb_corrupt_pct,
                pci_stall,
                master_clear,
                dma_burst,
                dca_miss_pct,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256, ..ProptestConfig::default()
    })]

    /// The canonical text form is a lossless encoding: parse ∘ print = id
    /// for every representable plan (including the empty one).
    #[test]
    fn plan_display_parse_round_trips(p in plan()) {
        let text = p.to_string();
        let reparsed = FaultPlan::parse(&text)
            .unwrap_or_else(|e| panic!("canonical text {text:?} failed to parse: {e}"));
        prop_assert_eq!(reparsed, p, "round trip through {:?}", text);
    }

    /// Probabilities above 100% are rejected wherever the grammar takes
    /// a percentage.
    #[test]
    fn out_of_range_percentages_rejected(p in 101u64..100_000) {
        let texts = [
            format!("nic.wb_corrupt={p}%"),
            format!("dma.dca_miss={p}%"),
            format!("nic.wb_delay=1us@{p}%"),
            format!("pci.stall=1us@{p}%"),
        ];
        for text in &texts {
            prop_assert!(FaultPlan::parse(text).is_err(), "accepted {}", text);
        }
    }

    /// Windows whose active span exceeds their period are rejected for
    /// every windowed fault site.
    #[test]
    fn inverted_windows_rejected(d in 1u64..1_000_000, mult in 2u64..6) {
        let (dur, period) = (d * mult, d);
        let texts = [
            format!("nic.fifo_stuck={dur}ps@{period}ps"),
            format!("pci.master_clear={dur}ps@{period}ps"),
            format!("dma.burst=+1ns/{dur}ps@{period}ps"),
        ];
        for text in &texts {
            prop_assert!(FaultPlan::parse(text).is_err(), "accepted {}", text);
        }
    }
}

#[test]
fn malformed_plans_are_rejected() {
    for bad in [
        "link.ber",                // no value
        "link.ber=0",              // BER must be in (0, 1)
        "link.ber=1",              // ditto
        "link.ber=nan",            // not a number
        "nic.wb_corrupt=0%",       // probability must be positive
        "nic.wb_corrupt=50",       // missing % suffix
        "pci.stall=1us",           // missing @PCT%
        "pci.stall=100@50%",       // duration without a unit
        "pci.stall=1fs@50%",       // unknown unit
        "nic.fifo_stuck=0us@10us", // zero-length window
        "dma.burst=500ns/1us",     // missing leading +
        "dma.burst=+500ns",        // missing /DURATION
        "mem.ber=1e-6",            // unknown key
        "link.ber=1e-6;;bogus",    // trailing garbage entry
    ] {
        assert!(
            FaultPlan::parse(bad).is_err(),
            "malformed plan {bad:?} was accepted"
        );
    }
    // The empty string is the empty plan, not an error.
    assert!(FaultPlan::parse("").unwrap().is_empty());
    assert!(FaultPlan::parse("  ;  ").unwrap().is_empty());
}

// ---- system-level properties under injected faults ---------------------

/// Assembles a loadgen-mode TestPMD run with `plan` installed and returns
/// `(tx, rx, total_drops, events)` after the measurement window.
fn faulted_run(plan: FaultPlan, seed: u64, gbps: f64, window: Tick) -> (u64, u64, u64, u64) {
    let mut sim = build_loadgen_sim(&SystemConfig::gem5(), &AppSpec::TestPmd, 1518, gbps);
    sim.install_faults(FaultInjector::new(plan, seed));
    run_phases(
        &mut sim,
        RunConfig {
            phases: Phases {
                warmup: 0,
                measure: window,
            },
        }
        .phases,
    );
    let lg = sim.loadgen.as_ref().expect("loadgen mode");
    let fsm = sim.nodes[0].nic.drop_fsm();
    (
        lg.tx_packets(),
        lg.rx_packets(),
        fsm.total_drops(),
        sim.events_executed(),
    )
}

/// Like [`faulted_run`], but assembled at an arbitrary
/// `(nqueues, lcores)` point through the shared multi-queue entry path.
fn faulted_run_mq(
    nq: usize,
    lcores: usize,
    plan: FaultPlan,
    seed: u64,
    gbps: f64,
    window: Tick,
) -> (u64, u64, u64, u64) {
    let cfg = SystemConfig::gem5().with_queues(nq).with_lcores(lcores);
    let mut sim = simnet::harness::build_loadgen_sim(&cfg, &AppSpec::TestPmd, 1518, gbps);
    sim.install_faults(FaultInjector::new(plan, seed));
    run_phases(
        &mut sim,
        Phases {
            warmup: 0,
            measure: window,
        },
    );
    let lg = sim.loadgen.as_ref().expect("loadgen mode");
    let fsm = sim.nodes[0].nic.drop_fsm();
    (
        lg.tx_packets(),
        lg.rx_packets(),
        fsm.total_drops(),
        sim.events_executed(),
    )
}

/// The generous pipeline-capacity bound shared with `tests/properties.rs`.
/// Multi-queue NICs split the same aggregate FIFO across queues but get a
/// descriptor ring per queue, so the ring terms scale with `num_queues`.
fn pipeline_capacity(cfg: &SystemConfig) -> u64 {
    let nq = cfg.nic.num_queues as u64;
    2 * nq * cfg.nic.rx_ring_size as u64
        + nq * cfg.nic.tx_ring_size as u64
        + (cfg.nic.rx_fifo_bytes + cfg.nic.tx_fifo_bytes) / MIN_FRAME_LEN as u64
        + 4_096
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, ..ProptestConfig::default()
    })]

    /// The RX FIFO survives stuck-full windows of arbitrary phase: frames
    /// arriving inside a window drop or queue, the FIFO drains across the
    /// wraparound into the next window, and packet conservation holds.
    #[test]
    fn rx_fifo_survives_stuck_full_windows(
        dur_us in 1u64..5,
        mult in 2u64..6,
        seed in 1u64..1_000,
        gbps in 20.0f64..60.0,
    ) {
        let plan = FaultPlan::parse(
            &format!("nic.fifo_stuck={dur_us}us@{}us", dur_us * mult),
        ).unwrap();
        let (tx, rx, dropped, _) = faulted_run(plan, seed, gbps, us(300));
        prop_assert!(tx > 0, "load generator must send");
        prop_assert!(rx > 0, "FIFO must drain again after each window");
        prop_assert!(rx <= tx, "echoes cannot exceed sends: rx={rx} tx={tx}");
        let in_pipeline = tx - rx - dropped.min(tx - rx);
        let capacity = pipeline_capacity(&SystemConfig::gem5());
        prop_assert!(
            in_pipeline <= capacity,
            "pipeline holds {in_pipeline} > capacity {capacity} \
             (tx={tx} rx={rx} drop={dropped})"
        );
    }

    /// The same conservation bound holds for any `(nqueues, lcores)`
    /// shape: stuck-full windows wedge the partitioned per-queue FIFOs,
    /// but every frame still drops classified or drains — no packet may
    /// vanish between the RSS steering stage and a worker lcore.
    #[test]
    fn multi_queue_fifos_survive_stuck_full_windows(
        shape in prop_oneof![Just((2usize, 2usize)), Just((4, 2)), Just((4, 4))],
        dur_us in 1u64..5,
        mult in 2u64..6,
        seed in 1u64..1_000,
        gbps in 20.0f64..60.0,
    ) {
        let (nq, lcores) = shape;
        let plan = FaultPlan::parse(
            &format!("nic.fifo_stuck={dur_us}us@{}us", dur_us * mult),
        ).unwrap();
        let (tx, rx, dropped, _) = faulted_run_mq(nq, lcores, plan, seed, gbps, us(300));
        prop_assert!(tx > 0, "load generator must send");
        prop_assert!(rx > 0, "{nq}q/{lcores}l: FIFOs must drain after each window");
        prop_assert!(rx <= tx, "echoes cannot exceed sends: rx={rx} tx={tx}");
        let in_pipeline = tx - rx - dropped.min(tx - rx);
        let cfg = SystemConfig::gem5().with_queues(nq).with_lcores(lcores);
        let capacity = pipeline_capacity(&cfg);
        prop_assert!(
            in_pipeline <= capacity,
            "{nq}q/{lcores}l pipeline holds {in_pipeline} > capacity {capacity} \
             (tx={tx} rx={rx} drop={dropped})"
        );
    }
}

/// No-hang regression: the most aggressive preset plan must neither stall
/// the simulation (progress: packets still flow) nor blow up the event
/// count relative to a clean run of the same point.
#[test]
fn aggressive_plan_degrades_but_never_hangs() {
    let window = us(400);
    let (clean_tx, clean_rx, _, clean_events) = faulted_run(FaultPlan::default(), 1, 55.0, window);
    assert!(clean_rx > 0 && clean_tx > 0);

    let (tx, rx, dropped, events) = faulted_run(FaultPlan::aggressive(), 1, 55.0, window);
    assert!(tx > 0, "injection must continue under faults");
    assert!(
        rx > 0,
        "some packets must still complete the echo loop under the aggressive plan"
    );
    assert!(rx <= tx);
    let in_pipeline = tx - rx - dropped.min(tx - rx);
    assert!(
        in_pipeline <= pipeline_capacity(&SystemConfig::gem5()),
        "faults may drop packets but never lose them unclassified \
         (tx={tx} rx={rx} dropped={dropped})"
    );
    // Bounded effort: fault handling adds retries (master-clear kicks)
    // but no unbounded rescheduling loops.
    assert!(
        events <= 4 * clean_events + 10_000,
        "aggressive plan executed {events} events vs {clean_events} clean — \
         suggests a rescheduling loop"
    );
}
