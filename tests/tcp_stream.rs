//! End-to-end TCP: the load generator's TCP state machine (the paper's
//! future-work extension) streaming into a TCP sink on the simulated
//! kernel stack, over the full NIC/DMA/memory/core pipeline.

use simnet::harness::summary::run_phases;
use simnet::harness::{build_loadgen_sim, AppSpec, RunConfig, Simulation, SystemConfig};
use simnet::sim::tick::us;

fn tcp_run(window: usize, measure_us: u64) -> (Simulation, simnet::harness::RunSummary) {
    let cfg = SystemConfig::gem5();
    let mut sim = build_loadgen_sim(&cfg, &AppSpec::IperfTcp, 1518, window as f64);
    let summary = run_phases(
        &mut sim,
        RunConfig {
            warmup: us(1_000),
            measure: us(measure_us),
        },
    );
    (sim, summary)
}

#[test]
fn tcp_stream_establishes_and_delivers() {
    let (sim, summary) = tcp_run(16, 8_000);
    let lg = sim.loadgen.as_ref().unwrap();
    let tcp = lg.tcp().expect("tcp mode");
    assert!(tcp.is_established(), "handshake completed");
    let goodput = tcp.goodput_gbps(summary.window);
    assert!(goodput > 0.3, "stream moves data: {goodput:.3} Gbps");
    assert!(
        summary.report.latency.count > 50,
        "ACK RTTs sampled: {}",
        summary.report.latency.count
    );
    assert_eq!(tcp.timeouts.value(), 0, "clean path needs no RTOs");
}

#[test]
fn tcp_goodput_scales_with_window_until_service_bound() {
    let g = |w| {
        let (sim, summary) = tcp_run(w, 6_000);
        sim.loadgen
            .as_ref()
            .unwrap()
            .tcp()
            .unwrap()
            .goodput_gbps(summary.window)
    };
    let w2 = g(2);
    let w16 = g(16);
    assert!(
        w16 > w2 * 4.0,
        "window-bound region scales ~linearly: W2={w2:.3} W16={w16:.3}"
    );
    // window * MSS / RTT bound (RTT >= 200 µs propagation):
    let bound = 16.0 * 1448.0 * 8.0 / 200e-6 / 1e9;
    assert!(
        w16 <= bound * 1.05,
        "goodput respects the window bound: {w16:.2} <= {bound:.2}"
    );
}

#[test]
fn tcp_recovers_from_overload_induced_loss() {
    // A window far beyond the kernel's bandwidth-delay product pushes the
    // NIC into drops; TCP must retransmit and keep the stream alive.
    let (sim, summary) = tcp_run(512, 12_000);
    let lg = sim.loadgen.as_ref().unwrap();
    let tcp = lg.tcp().unwrap();
    let goodput = tcp.goodput_gbps(summary.window);
    assert!(goodput > 0.5, "stream survives overload: {goodput:.2} Gbps");
    // The stream either clean-fills the pipe or recovered from losses;
    // acknowledged bytes keep monotonically increasing either way.
    assert!(
        tcp.acked_bytes.value() > 500_000,
        "substantial data acknowledged: {}",
        tcp.acked_bytes.value()
    );
}

#[test]
fn tcp_is_deterministic() {
    let run = || {
        let (sim, summary) = tcp_run(8, 3_000);
        let lg = sim.loadgen.as_ref().unwrap();
        (
            lg.tx_packets(),
            lg.rx_packets(),
            lg.tcp().unwrap().acked_bytes.value(),
            summary.events,
        )
    };
    assert_eq!(run(), run());
}
