//! Packet-lifecycle coverage under overload: a traced TestPMD run at a
//! rate beyond the NIC's drain capacity must show (a) complete echo
//! lifecycles for delivered packets, and (b) at least one dropped packet
//! whose trace ends in a classified `drop` event, with per-class drop
//! event counts agreeing exactly with the Fig. 4 FSM aggregate counters.
//!
//! The fault-matrix half runs apps × fault plans and asserts the packet
//! conservation invariant: everything injected is delivered, classified
//! as a drop (congestion or fault), or bounded in the pipeline.

use std::collections::HashMap;

use simnet::harness::{run_observed, AppSpec, ObserveOpts, RunConfig, SystemConfig};
use simnet::net::MIN_FRAME_LEN;
use simnet::sim::fault::{FaultInjector, FaultPlan};
use simnet::sim::tick::us;
use simnet::sim::trace::{Component, DropClass, Stage, TraceEvent};

fn overloaded_run() -> (Vec<TraceEvent>, simnet::harness::RunSummary) {
    let cfg = SystemConfig::gem5();
    // No warm-up so the FSM counters in the summary cover exactly the
    // traced window, making trace/counter agreement an equality.
    let rc = RunConfig {
        warmup: 0,
        measure: us(800),
    };
    let opts = ObserveOpts {
        trace: Some((1 << 22, Component::ALL_MASK)),
        ..Default::default()
    };
    let run = run_observed(&cfg, &AppSpec::TestPmd, 1518, 60.0, rc, opts);
    assert_eq!(run.evicted, 0, "trace ring must hold the whole run");
    (run.events, run.summary)
}

/// Per-class totals of `Stage::Drop` events: `(dma, core, tx, fault)`.
fn trace_drop_counts(events: &[TraceEvent]) -> (u64, u64, u64, u64) {
    let (mut dma, mut core, mut tx, mut fault) = (0u64, 0u64, 0u64, 0u64);
    for ev in events {
        if let Stage::Drop { class, .. } = ev.stage {
            match class {
                DropClass::Dma => dma += 1,
                DropClass::Core => core += 1,
                DropClass::Tx => tx += 1,
                DropClass::Fault => fault += 1,
            }
        }
    }
    (dma, core, tx, fault)
}

#[test]
fn overload_drops_are_classified_and_match_fsm_counters() {
    let (events, summary) = overloaded_run();

    let (dma, core, tx, fault) = trace_drop_counts(&events);
    assert!(
        dma + core + tx > 0,
        "a 60 Gbps TestPMD run must drop packets"
    );
    assert_eq!(
        (dma, core, tx),
        summary.drop_counts,
        "per-class trace drop events must equal the DropFsm counters"
    );
    assert_eq!(fault, 0, "no fault plan installed, no fault drops");
}

#[test]
fn dropped_packet_has_complete_lifecycle_ending_in_drop() {
    let (events, _) = overloaded_run();

    // Group stage names by packet id, in emission order.
    let mut by_packet: HashMap<u64, Vec<&'static str>> = HashMap::new();
    for ev in &events {
        if ev.packet_id != simnet::sim::trace::NO_PACKET {
            by_packet
                .entry(ev.packet_id)
                .or_default()
                .push(ev.stage.name());
        }
    }

    let dropped: Vec<_> = by_packet
        .iter()
        .filter(|(_, stages)| stages.contains(&"drop"))
        .collect();
    assert!(!dropped.is_empty(), "at least one packet must be dropped");

    for (id, stages) in &dropped {
        // A dropped packet's RX lifecycle: injected at the load generator,
        // serialized onto the wire, received by the NIC, then refused.
        assert_eq!(
            &stages[..],
            &["inject", "wire_tx", "wire_rx", "drop"],
            "packet {id} lifecycle must end at the classified drop"
        );
    }

    // Delivered packets make it through the full echo path.
    let delivered = by_packet
        .values()
        .filter(|stages| stages.contains(&"echo_rx"))
        .count();
    assert!(delivered > 0, "some packets must complete the echo loop");
    let full = by_packet
        .values()
        .find(|stages| stages.contains(&"echo_rx"))
        .unwrap();
    for stage in [
        "inject",
        "wire_tx",
        "wire_rx",
        "fifo_enq",
        "dma_start",
        "ring_pub",
        "sw_rx",
        "app_rx",
        "app_tx",
        "tx_queue",
        "tx_fifo",
        "tx_wire",
        "echo_rx",
    ] {
        assert!(
            full.contains(&stage),
            "delivered packet missing stage {stage}: {full:?}"
        );
    }
}

/// Packet conservation across an apps × fault-plans matrix: for every
/// cell, `injected == delivered + Σ classified drops + in_flight`, where
/// `in_flight` is bounded by the pipeline's physical capacity, per-class
/// trace drop events equal the FSM counters exactly, and fault drops
/// never leak into the congestion taxonomy.
#[test]
fn packet_conservation_holds_across_fault_matrix() {
    let cfg = SystemConfig::gem5();
    // No warm-up: summary counters cover exactly the traced window.
    let rc = RunConfig {
        warmup: 0,
        measure: us(400),
    };
    let apps = [AppSpec::TestPmd, AppSpec::TouchFwd];
    let plans = [
        "",
        "link.ber=1e-5",
        "nic.wb_corrupt=5%;nic.wb_delay=1us@25%",
        "pci.master_clear=5us@50us;dma.burst=+500ns/2us",
    ];
    // FIFO + both rings + visible queue + wire (same generous bound as
    // tests/properties.rs): what the pipeline can physically hold.
    let capacity = 2 * cfg.nic.rx_ring_size as u64
        + cfg.nic.tx_ring_size as u64
        + (cfg.nic.rx_fifo_bytes + cfg.nic.tx_fifo_bytes) / MIN_FRAME_LEN as u64
        + 4_096;

    for spec in &apps {
        for plan_text in &plans {
            let faults = if plan_text.is_empty() {
                FaultInjector::disabled()
            } else {
                FaultInjector::new(FaultPlan::parse(plan_text).unwrap(), 7)
            };
            let opts = ObserveOpts {
                trace: Some((1 << 22, Component::ALL_MASK)),
                faults,
                ..Default::default()
            };
            let run = run_observed(&cfg, spec, 1518, 55.0, rc, opts);
            let cell = format!("{}/{plan_text:?}", spec.label());
            assert_eq!(run.evicted, 0, "{cell}: trace ring too small");

            let (mut injected, mut delivered) = (0u64, 0u64);
            for ev in &run.events {
                match ev.stage {
                    Stage::Inject { .. } => injected += 1,
                    Stage::EchoRx => delivered += 1,
                    _ => {}
                }
            }
            let (dma, core, tx, fault) = trace_drop_counts(&run.events);

            // Trace drop events must mirror the FSM counters per class,
            // with fault drops in their own bucket.
            assert_eq!(
                (dma, core, tx),
                run.summary.drop_counts,
                "{cell}: congestion drop classes disagree with FSM"
            );
            assert_eq!(
                fault, run.summary.fault_drops,
                "{cell}: fault drop events disagree with FSM fault counter"
            );
            if plan_text.is_empty() {
                assert_eq!(fault, 0, "{cell}: fault drops without a plan");
            }
            if plan_text.contains("link.ber") {
                assert!(
                    fault > 0,
                    "{cell}: 1e-5 BER over a 55 Gbps window must corrupt frames"
                );
            }

            // Conservation: injected packets are delivered, classified as
            // dropped, or still inside the (bounded) pipeline.
            let dropped = dma + core + tx + fault;
            assert!(
                delivered + dropped <= injected,
                "{cell}: accounted {delivered}+{dropped} packets exceed injected {injected}"
            );
            let in_flight = injected - delivered - dropped;
            assert!(
                in_flight <= capacity,
                "{cell}: {in_flight} unaccounted packets exceed pipeline capacity \
                 {capacity} (injected={injected} delivered={delivered} dropped={dropped})"
            );
        }
    }
}

#[test]
fn drop_events_carry_queue_occupancies() {
    let (events, _) = overloaded_run();
    let mut saw_full_fifo = false;
    for ev in &events {
        if let Stage::Drop { fifo_used, .. } = ev.stage {
            // A drop happens precisely because the FIFO could not admit
            // the frame, so the recorded occupancy must be non-zero.
            assert!(fifo_used > 0, "drop at t={} with empty FIFO", ev.tick);
            saw_full_fifo = true;
        }
    }
    assert!(saw_full_fifo);
}
