//! Incast fan-in sweep over the topology fabric.
//!
//! The paper drives one load generator into one host over a single
//! wire; this experiment gives the generator `N` client ports behind a
//! MAC switch whose trunk (with a bounded congestion queue) feeds the
//! host — the classic incast shape. Two sweeps:
//!
//! * **fan-in at fixed aggregate load**: the same offered Gbps split
//!   across 1..=16 clients. With a pure trunk the achieved rate should
//!   track the point-to-point baseline closely (the host, not the
//!   fabric, is the bottleneck); heterogeneous access latencies spread
//!   the RTT distribution without moving throughput.
//! * **offered ramp at fixed fan-in**: 8 clients ramped past the trunk's
//!   serialization capacity, where the bounded congestion queue fills
//!   and tail-drops — drops now happen *in the network*, before the NIC
//!   ever sees the frame, which the per-link ledger reports separately
//!   from the host's DMA/core/TX taxonomy.
//!
//! Reported per point: achieved kRPS (each echoed frame is one
//! request-response), client-observed drop rate, p99 RTT, and simulator
//! effort (events per host-second) — the fabric's event cost is part of
//! the result, not hidden.

use simnet_loadgen::ramp::geometric_ramp;
use simnet_sim::tick::us;

use crate::config::{SystemConfig, TopoConfig};
use crate::msb::{run_point, AppSpec, RunConfig};
use crate::table::{fmt_f64, fmt_pct, Table};

use super::{par_map, Effort, ExperimentOutput};

/// Fan-in sizes swept per effort level.
fn fanins(effort: Effort) -> &'static [usize] {
    match effort {
        Effort::Quick => &[1, 4, 8],
        Effort::Full => &[1, 2, 4, 8, 16],
    }
}

/// A topology config for `clients` endpoints; 1 client degenerates to
/// the legacy point-to-point wire (the byte-identical special case).
fn topo_for(clients: usize) -> TopoConfig {
    if clients == 1 {
        TopoConfig::point_to_point()
    } else {
        TopoConfig::incast(clients).with_latency_spread(us(10))
    }
}

/// The incast fan-in sweep.
pub fn run(effort: Effort) -> ExperimentOutput {
    const FRAME: usize = 1518;
    const AGGREGATE_GBPS: f64 = 40.0;
    let spec = AppSpec::TestPmd;

    // Sweep 1: fan-in at fixed aggregate offered load.
    let rows = par_map(fanins(effort).to_vec(), |clients| {
        let cfg = SystemConfig::gem5().with_topo(topo_for(clients));
        let s = run_point(&cfg, &spec, FRAME, AGGREGATE_GBPS, RunConfig::fast());
        let evps = if s.host_seconds > 0.0 {
            s.events as f64 / s.host_seconds
        } else {
            0.0
        };
        (
            clients,
            s.achieved_rps() / 1e3,
            s.report.drop_rate,
            s.latency().p99 / 1e3,
            evps,
        )
    });

    let mut t = Table::new(
        "Topo sweep — incast fan-in at fixed 40 Gbps aggregate (1518 B)",
        &[
            "clients",
            "achieved(kRPS)",
            "drop",
            "rtt p99(ns)",
            "events/host-s",
        ],
    );
    for &(clients, krps, drop, p99, evps) in &rows {
        t.row(vec![
            clients.to_string(),
            fmt_f64(krps),
            fmt_pct(drop),
            fmt_f64(p99),
            format!("{evps:.0}"),
        ]);
    }

    // Sweep 2: offered ramp at 8-client fan-in through a tight trunk
    // queue — the congestion-collapse curve where the fabric, not the
    // host, drops first.
    let steps = match effort {
        Effort::Quick => 3,
        Effort::Full => 6,
    };
    let ramp_rows = par_map(geometric_ramp(20.0, 120.0, steps), |offered| {
        let topo = TopoConfig::incast(8).with_trunk_queue(64);
        let cfg = SystemConfig::gem5().with_topo(topo);
        let s = run_point(&cfg, &spec, FRAME, offered, RunConfig::fast());
        (
            offered,
            s.achieved_gbps(),
            s.report.drop_rate,
            s.latency().p99 / 1e3,
        )
    });

    let mut ramp = Table::new(
        "Topo sweep — 8-client incast ramp, 64-frame trunk queue (1518 B)",
        &["offered(Gbps)", "achieved(Gbps)", "drop", "rtt p99(ns)"],
    );
    for &(offered, achieved, drop, p99) in &ramp_rows {
        ramp.row(vec![
            fmt_f64(offered),
            fmt_f64(achieved),
            fmt_pct(drop),
            fmt_f64(p99),
        ]);
    }

    let mut out = ExperimentOutput::default();
    out.note(
        "Fan-in at fixed aggregate load tracks the point-to-point baseline \
         (the host is the bottleneck; the switch only adds trunk \
         serialization + latency). Past the trunk's capacity the bounded \
         congestion queue fills and tail-drops in the fabric — drops the \
         client observes but the NIC drop FSM never sees.",
    );
    out.table("topo_sweep_fanin", t);
    out.table("topo_sweep_incast_ramp", ramp);
    out
}
