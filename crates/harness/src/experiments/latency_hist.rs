//! The §IV latency-histogram artifact: `EtherLoadGen` "also produces a
//! packet drop percentage and a histogram of packet forwarding latency."
//!
//! Run against a zero-propagation link so the histogram shows the *node's*
//! forwarding latency (NIC + DMA + software + TX path), not the wire.

use crate::config::SystemConfig;
use crate::msb::{build_loadgen_sim, AppSpec, RunConfig};
use crate::summary::run_phases;
use crate::table::{fmt_pct, Table};

use super::{Effort, ExperimentOutput};

/// Prints the forwarding-latency histogram for TestPMD at a sustainable
/// and a near-knee load.
pub fn run(effort: Effort) -> ExperimentOutput {
    let loads: &[f64] = match effort {
        Effort::Full => &[10.0, 40.0],
        Effort::Quick => &[10.0],
    };
    let mut cfg = SystemConfig::gem5();
    cfg.link_latency = 0;

    let mut out = ExperimentOutput::default();
    let mut pct = Table::new(
        "Forwarding-latency percentiles — TestPMD 256B (µs)".to_string(),
        &[
            "offered_gbps",
            "n",
            "mean_us",
            "p50_us",
            "p90_us",
            "p99_us",
            "max_us",
        ],
    );
    for &offered in loads {
        let mut sim = build_loadgen_sim(&cfg, &AppSpec::TestPmd, 256, offered);
        sim.enable_interval_stats(simnet_sim::tick::us(100));
        let summary = run_phases(&mut sim, RunConfig::fast().phases);
        sim.finalize_interval_stats();
        if let Some(ts) = sim.take_timeseries() {
            out.artifact(
                format!("latency_hist_{offered:.0}g_ts.ndjson"),
                ts.to_ndjson(),
            );
        }
        let lat = summary.latency();
        pct.row(vec![
            format!("{offered:.0}"),
            lat.count.to_string(),
            format!("{:.2}", lat.mean / 1e6),
            format!("{:.2}", lat.median / 1e6),
            format!("{:.2}", lat.p90 / 1e6),
            format!("{:.2}", lat.p99 / 1e6),
            format!("{:.2}", lat.max / 1e6),
        ]);
        let lg = sim.loadgen.as_ref().expect("loadgen mode");
        let histogram = lg.latency_histogram();

        let mut t = Table::new(
            format!(
                "Forwarding-latency histogram — TestPMD 256B @ {offered:.0} Gbps \
                 (drop {}, n={})",
                fmt_pct(summary.drop_rate),
                histogram.total()
            ),
            &["bin", "count", "share"],
        );
        let total = histogram.total().max(1);
        for (lo, hi, count) in histogram.iter() {
            if count > 0 {
                t.row(vec![
                    format!("{:.1}-{:.1}us", lo / 1e6, hi / 1e6),
                    count.to_string(),
                    fmt_pct(count as f64 / total as f64),
                ]);
            }
        }
        if histogram.overflow() > 0 {
            t.row(vec![
                ">max".into(),
                histogram.overflow().to_string(),
                fmt_pct(histogram.overflow() as f64 / total as f64),
            ]);
        }
        out.table(format!("latency_hist_{offered:.0}g"), t);
    }
    out.table("latency_percentiles", pct);
    out.note(
        "At light load the histogram is a tight spike near the NIC+software \
         floor; near the knee it widens and shifts right as ring/FIFO \
         queueing accumulates (§IV's histogram artifact).",
    );
    out
}
