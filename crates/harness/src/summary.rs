//! Measurement-phase results.

use simnet_loadgen::LoadGenReport;
use simnet_sim::Tick;

use crate::sim::Simulation;

/// Everything the experiments read out of a measurement window.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Load-generator view (throughput, RTT, loadgen-observed drops).
    pub report: LoadGenReport,
    /// NIC-FSM drop rate (drops / receptions) — the paper's drop metric.
    pub drop_rate: f64,
    /// Fraction of drops per cause `(dma, core, tx)` (Fig. 5 bars).
    pub drop_breakdown: (f64, f64, f64),
    /// Raw drop counts `(dma, core, tx)`.
    pub drop_counts: (u64, u64, u64),
    /// Drops caused by injected faults (0 without a fault plan) — kept
    /// out of `drop_counts`/`drop_breakdown` so faults never skew the
    /// Fig. 4 congestion taxonomy.
    pub fault_drops: u64,
    /// LLC miss rate on the core path (Fig. 13's second axis).
    pub llc_miss_rate: f64,
    /// DRAM row-buffer hit rate (Fig. 17 diagnostics).
    pub row_hit_rate: f64,
    /// RX-ring backlog at window end, as a fraction of the ring size: the
    /// written-back descriptors software has not yet consumed. A run that
    /// ends with the ring majority-full is not sustaining its load even if
    /// the FIFO never overflowed inside the window.
    pub rx_backlog_ratio: f64,
    /// Simulated measurement window in ticks.
    pub window: Tick,
    /// Host wall-clock seconds the measurement took (Fig. 20).
    pub host_seconds: f64,
    /// Events executed during the measurement (simulation effort).
    pub events: u64,
}

impl RunSummary {
    /// Achieved throughput in Gbps of echoed frame bytes.
    pub fn achieved_gbps(&self) -> f64 {
        self.report.achieved_gbps
    }

    /// Achieved requests (responses) per second.
    pub fn achieved_rps(&self) -> f64 {
        self.report.achieved_rps
    }

    /// RTT quantiles (median/p90/p95/p99, mean, extrema) measured by the
    /// load generator over the window.
    pub fn latency(&self) -> &simnet_sim::stats::LatencySummary {
        &self.report.latency
    }
}

/// Run configuration: warm-up then measurement (§VI.A: "we sufficiently
/// warm up the Test Node's microarchitectural states ... prior to
/// collecting simulation statistics").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phases {
    /// Warm-up window.
    pub warmup: Tick,
    /// Measurement window.
    pub measure: Tick,
}

/// Runs warm-up + measurement on an assembled simulation and collects the
/// summary.
pub fn run_phases(sim: &mut Simulation, phases: Phases) -> RunSummary {
    let t0 = std::time::Instant::now();
    if phases.warmup > 0 {
        sim.run_until(phases.warmup);
        sim.reset_stats();
    }
    let events_before = sim.events_executed();
    let start = phases.warmup;
    let end = phases.warmup + phases.measure;
    sim.run_until(end);
    let host_seconds = t0.elapsed().as_secs_f64();

    let node = &sim.nodes[0];
    let fsm = node.nic.drop_fsm();
    let report = sim
        .loadgen
        .as_ref()
        .map(|lg| lg.report(start, end))
        .unwrap_or_else(|| {
            // Dual mode: synthesize the throughput report from the NIC's
            // own counters (the drive node's client app holds RTTs).
            LoadGenReport::compute(
                fsm.accepted.value() + fsm.total_drops(),
                node.nic.stats().rx_bytes.value(),
                node.nic.stats().tx_frames.value(),
                node.nic.stats().tx_bytes.value(),
                simnet_sim::stats::LatencySummary::empty(),
                start,
                end,
            )
        });

    let ring = (node.nic.config().rx_ring_size * node.nic.num_queues()).max(1);
    RunSummary {
        rx_backlog_ratio: node.nic.rx_visible_len() as f64 / ring as f64,
        drop_rate: fsm.drop_rate(),
        drop_breakdown: fsm.breakdown(),
        drop_counts: (
            fsm.dma_drops.value(),
            fsm.core_drops.value(),
            fsm.tx_drops.value(),
        ),
        fault_drops: fsm.fault_drops.value(),
        llc_miss_rate: node.mem.llc_stats().core_miss_rate(),
        row_hit_rate: node.mem.dram_stats().row_hit_rate(),
        window: phases.measure,
        host_seconds,
        events: sim.events_executed() - events_before,
        report,
    }
}
