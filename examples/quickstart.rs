//! Quickstart: boot a simulated node running `testpmd` on the DPDK stack,
//! load it with the hardware load generator, and print the statistics the
//! paper's methodology collects (throughput, drops by cause, RTT).
//!
//! ```text
//! cargo run --release --example quickstart [GBPS] [FRAME_BYTES]
//! ```

use simnet::harness::summary::run_phases;
use simnet::harness::{build_loadgen_sim, stats_text, RunConfig};
use simnet::prelude::*;
use simnet::sim::tick::us;

fn main() {
    let mut args = std::env::args().skip(1);
    let gbps: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20.0);
    let frame: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);

    // The paper's Table I simulated system: 3 GHz 4-wide OoO core,
    // 64 KiB L1s, 1 MiB L2, DCA enabled, 100 Gbps link.
    let cfg = SystemConfig::gem5();
    println!("node: {} | frame {frame}B | offered {gbps} Gbps", cfg.name);

    let summary = run_point(&cfg, &AppSpec::TestPmd, frame, gbps, RunConfig::fast());

    println!("\n--- load generator report ---");
    println!("{}", summary.report);

    let (dma, core, tx) = summary.drop_breakdown;
    println!("\n--- NIC drop classification (Fig. 4 FSM) ---");
    println!(
        "drop rate {:.2}%  (CoreDrop {:.0}%, DmaDrop {:.0}%, TxDrop {:.0}%)",
        summary.drop_rate * 100.0,
        core * 100.0,
        dma * 100.0,
        tx * 100.0
    );
    println!(
        "\nLLC core-path miss rate {:.1}%, DRAM row-buffer hit rate {:.1}%",
        summary.llc_miss_rate * 100.0,
        summary.row_hit_rate * 100.0
    );

    // Where's the knee? Run the bandwidth-test mode.
    println!("\nsearching for the maximum sustainable bandwidth ...");
    let msb = find_msb(
        &cfg,
        &AppSpec::TestPmd,
        frame,
        1.0,
        90.0,
        7,
        RunConfig::fast(),
    );
    for p in &msb.points {
        println!(
            "  offered {:6.2} Gbps -> achieved {:6.2} Gbps, drops {:5.2}%",
            p.offered,
            p.achieved,
            p.drop_rate * 100.0
        );
    }
    match msb.msb {
        Some(knee) => println!("MSB (1% drop knee, §VII.C) = {knee:.1} Gbps"),
        None => println!("overloaded at every probed rate"),
    }

    // gem5-style stats.txt for the original run.
    let mut sim = build_loadgen_sim(&cfg, &AppSpec::TestPmd, frame, gbps);
    run_phases(
        &mut sim,
        RunConfig {
            warmup: us(300),
            measure: us(1_000),
        },
    );
    println!(
        "
{}",
        stats_text(&sim, 0)
    );
}
