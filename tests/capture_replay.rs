//! Cross-crate integration: PCAP capture at the simulated port, on-disk
//! round-trip, and trace-mode replay (§IV's dpdk-pdump workflow).

use simnet::harness::config::TopoConfig;
use simnet::harness::summary::{run_phases, Phases};
use simnet::harness::{build_loadgen_sim, stats_text, AppSpec, Simulation, SystemConfig};
use simnet::loadgen::trace::Pacing;
use simnet::loadgen::{EtherLoadGen, LoadGenMode, TraceConfig};
use simnet::net::pcap::PcapReader;
use simnet::sim::tick::us;

/// Runs 500 µs of TestPMD at 256 B and 5 Gbps with the tap on; returns
/// the PCAP bytes and the finished simulation.
fn capture_run(cfg: &SystemConfig) -> (Vec<u8>, Simulation) {
    capture_point(cfg, 256, 5.0, 500)
}

/// Runs `measure_us` µs of TestPMD at `size` B and `gbps` with the tap
/// on, without warm-up; returns the PCAP bytes and the finished
/// simulation.
fn capture_point(
    cfg: &SystemConfig,
    size: usize,
    gbps: f64,
    measure_us: u64,
) -> (Vec<u8>, Simulation) {
    let mut sim = build_loadgen_sim(cfg, &AppSpec::TestPmd, size, gbps);
    sim.enable_capture();
    run_phases(
        &mut sim,
        Phases {
            warmup: 0,
            measure: us(measure_us),
        },
    );
    (sim.take_capture().expect("capture enabled"), sim)
}

/// FNV-1a of the PCAP bytes of the 256 B loadgen, 4-client incast and
/// 64 B overload captures in [`capture_bytes_are_pinned`]. Taken once
/// from the code that built every frame before it entered a wire; never
/// regenerated.
const CAPTURE_HASHES: [u64; 3] = [
    0xedac_36a0_94d6_c29d,
    0x2362_a7b2_bb1b_7f94,
    0x0535_efbd_a0ba_7aa4,
];

/// 64-bit FNV-1a of a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The PCAP bytes of three captures are pinned: the 256 B loadgen run,
/// the 4-client incast run, and a 64 B overload whose tap records frames
/// the NIC then drops. Every recorded byte, headers, stamps and
/// checksums included, must come out as it did when the constants were
/// taken.
#[test]
fn capture_bytes_are_pinned() {
    let incast = SystemConfig::gem5().with_topo(TopoConfig::incast(4));
    let (loadgen, _) = capture_run(&SystemConfig::gem5());
    let (fanin, _) = capture_run(&incast);
    let (overload, sim) = capture_point(&SystemConfig::gem5(), 64, 70.0, 200);
    assert!(
        sim.nodes[0].nic.drop_fsm().total_drops() > 0,
        "the 64 B run records frames the NIC drops"
    );
    let hashes = [fnv1a(&loadgen), fnv1a(&fanin), fnv1a(&overload)];
    assert_eq!(hashes, CAPTURE_HASHES);
}

#[test]
fn capture_is_valid_pcap_with_both_directions() {
    let incast = SystemConfig::gem5().with_topo(TopoConfig::incast(4));
    for cfg in [SystemConfig::gem5(), incast] {
        check_capture(&cfg);
    }
}

fn check_capture(cfg: &SystemConfig) {
    let (bytes, sim) = capture_run(cfg);
    let mut reader = PcapReader::new(&bytes[..]).expect("valid pcap header");
    let records = reader.read_all().expect("all records parse");
    assert!(records.len() > 100, "captured {} frames", records.len());

    // Timestamps are monotone non-decreasing.
    assert!(
        records.windows(2).all(|w| w[0].tick <= w[1].tick),
        "capture timestamps are ordered"
    );

    // Both requests (to the NIC) and echoes (from it) appear.
    let nic_mac = cfg.nic.mac.octets();
    let to_nic = records
        .iter()
        .filter(|r| r.data.get(0..6) == Some(&nic_mac[..]))
        .count();
    let from_nic = records
        .iter()
        .filter(|r| r.data.get(6..12) == Some(&nic_mac[..]))
        .count();
    // The tap records each frame once, as a link to or from the NIC
    // accepts it: every NIC transmission, never an echo a second time
    // on its arrival, and every departure toward the NIC. That is the
    // generator's on one wire; behind a switch it is the trunk's, since
    // frames still on an uplink when the run ends never reached it.
    let sent = if cfg.topo.is_point_to_point() {
        sim.loadgen.as_ref().expect("loadgen mode").tx_packets()
    } else {
        stats_text(&sim, 0)
            .lines()
            .find_map(|l| l.strip_prefix("system.topo.trunk.txFrames"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .expect("incast dumps the trunk")
    };
    assert!(to_nic > 0, "requests captured");
    assert_eq!(to_nic as u64, sent, "one record per frame sent to the NIC");
    let nic_tx = sim.nodes[0].nic.stats().tx_frames.value();
    assert!(from_nic > 0, "echoes captured");
    assert_eq!(from_nic as u64, nic_tx, "one record per NIC transmission");
}

#[test]
fn replaying_a_capture_reproduces_the_load() {
    let (bytes, _) = capture_run(&SystemConfig::gem5());
    let mut reader = PcapReader::new(&bytes[..]).expect("valid pcap");
    let records = reader.read_all().expect("parses");
    let cfg = SystemConfig::gem5();
    let nic_mac = cfg.nic.mac.octets();
    let requests: Vec<_> = records
        .into_iter()
        .filter(|r| r.data.get(0..6) == Some(&nic_mac[..]))
        .collect();
    let request_count = requests.len();
    assert!(request_count > 50);

    let trace = TraceConfig::from_records(requests, Pacing::HonorTimestamps, cfg.nic.mac);
    let lcores = AppSpec::TestPmd.lcores(&cfg.with_seed(cfg.seed ^ 1));
    let loadgen = EtherLoadGen::new(LoadGenMode::Trace(trace), 3);
    let mut sim = Simulation::loadgen_mode(&cfg, lcores, loadgen);
    let summary = run_phases(
        &mut sim,
        Phases {
            warmup: 0,
            measure: us(900),
        },
    );
    assert_eq!(
        summary.report.tx_packets, request_count as u64,
        "every trace record was replayed"
    );
    // The light 5 Gbps load forwards cleanly on replay too.
    assert!(summary.drop_rate < 0.01);
    assert!(summary.report.rx_packets as f64 > request_count as f64 * 0.8);
}
