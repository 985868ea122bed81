//! The §IV latency-histogram artifact: `EtherLoadGen` "also produces a
//! packet drop percentage and a histogram of packet forwarding latency."
//!
//! Run against a zero-propagation link so the histogram shows the *node's*
//! forwarding latency (NIC + DMA + software + TX path), not the wire.
//! Each histogram bins the run's own RTT samples over their [min, max],
//! so it resolves the latency at any scale.

use crate::config::SystemConfig;
use crate::msb::{build_loadgen_sim, AppSpec, RunConfig};
use crate::summary::run_phases;
use crate::table::{fmt_pct, Table};

use super::{Effort, ExperimentOutput};

/// Equal bins per histogram.
const BINS: usize = 20;

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
        let summary = run_phases(&mut sim, RunConfig::fast());
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
        let bins = lg.rtt_histogram(BINS);
        let binned = bins.iter().map(|&(_, _, count)| count).sum::<u64>().max(1);

        let mut t = Table::new(
            format!(
                "Forwarding-latency histogram — TestPMD 256B @ {offered:.0} Gbps \
                 (drop {}, n={})",
                fmt_pct(summary.drop_rate),
                lat.count
            ),
            &["bin", "count", "share"],
        );
        for (lo, hi, count) in bins {
            t.row(vec![
                format!("{:.3}-{:.3}us", lo / 1e6, hi / 1e6),
                count.to_string(),
                fmt_pct(count as f64 / binned as f64),
            ]);
        }
        out.table(format!("latency_hist_{offered:.0}g"), t);
    }
    out.table("latency_percentiles", pct);
    out.note(format!(
        "Each histogram spans its own run's RTT range in {BINS} bins. At \
         light load that range is a fraction of a microsecond above the \
         NIC+software floor; near the knee it widens and shifts right as \
         ring/FIFO queueing accumulates (§IV's histogram artifact)."
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 10 Gbps point's echoes spread over more than one bin, and the
    /// bins hold every echo.
    #[test]
    fn quick_histogram_resolves_the_latency() {
        let out = run(Effort::Quick);
        let column = |table: &str, col: usize| -> Vec<u64> {
            let (_, t) = out.tables.iter().find(|(name, _)| name == table).unwrap();
            let csv = t.to_csv();
            let rows = csv.lines().skip(1);
            rows.map(|row| row.split(',').nth(col).unwrap().parse().unwrap())
                .collect()
        };
        let counts = column("latency_hist_10g", 1);
        let n = column("latency_percentiles", 1)[0];
        assert!(
            counts.iter().filter(|&&c| c > 0).count() > 1,
            "one bin holds every echo: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<u64>(), n);
    }
}
