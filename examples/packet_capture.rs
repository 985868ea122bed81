//! Capture and replay: record a PCAP trace at the simulated NIC port
//! (the paper's `dpdk-pdump` workflow, §IV), write it to disk, then feed
//! it back through `EtherLoadGen`'s **trace mode** against a fresh node.
//!
//! ```text
//! cargo run --release --example packet_capture [CAPTURE.pcap]
//! ```

use simnet::harness::summary::run_phases;
use simnet::harness::{build_loadgen_sim, AppSpec, RunConfig, Simulation, SystemConfig};
use simnet::loadgen::trace::Pacing;
use simnet::loadgen::{EtherLoadGen, LoadGenMode, TraceConfig};
use simnet::net::pcap::PcapReader;
use simnet::sim::tick::us;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/capture.pcap".to_string());

    // Phase 1: run a memcached workload with a pdump-style tap enabled.
    let cfg = SystemConfig::gem5();
    let spec = AppSpec::MemcachedDpdk;
    let mut sim = build_loadgen_sim(&cfg, &spec, 0, 300.0); // 300 kRPS client
    sim.enable_capture();
    run_phases(
        &mut sim,
        RunConfig {
            warmup: us(200),
            measure: us(2_000),
        },
    );
    let pcap_bytes = sim.take_capture().expect("capture was enabled");
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, &pcap_bytes)?;

    let mut reader = PcapReader::new(&pcap_bytes[..])?;
    let records = reader.read_all()?;
    println!(
        "captured {} frames ({} bytes of pcap) to {path}",
        records.len(),
        pcap_bytes.len()
    );
    let requests: Vec<_> = records
        .iter()
        .filter(|r| {
            // Keep only client->server frames (requests) for replay.
            r.data.get(0..6) == Some(&cfg.nic.mac.octets()[..])
        })
        .cloned()
        .collect();
    println!("{} of them are client->server requests", requests.len());

    // Phase 2: replay the captured requests in trace mode against a fresh
    // node, honoring the captured timestamps.
    let trace = TraceConfig::from_records(requests, Pacing::HonorTimestamps, cfg.nic.mac);
    let replay_gen = EtherLoadGen::new(LoadGenMode::Trace(trace), 7);
    let lcores = spec.lcores(&cfg.with_seed(cfg.seed ^ 1));
    let mut replay = Simulation::loadgen_mode(&cfg, lcores, replay_gen);
    let summary = run_phases(
        &mut replay,
        RunConfig {
            warmup: 0,
            measure: us(2_400),
        },
    );
    println!("\n--- replay against a fresh node ---");
    println!("{}", summary.report);
    println!(
        "NIC accepted {} frames, dropped {}",
        summary.report.tx_packets,
        summary.drop_counts.0 + summary.drop_counts.1 + summary.drop_counts.2
    );
    Ok(())
}
