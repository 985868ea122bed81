//! Extension experiment: TCP in `EtherLoadGen` (the paper's future-work
//! item, §V) against a TCP sink on the simulated kernel stack.
//!
//! A window-limited TCP stream replaces the fixed-rate UDP load: goodput
//! scales with the window until the kernel's per-segment service time
//! saturates, after which queueing grows RTT and (past the buffers) NIC
//! drops trigger duplicate-ACK/RTO recovery. The interesting comparison
//! is with Fig. 10–12's open-loop `iperf`: TCP self-clocks, so instead of
//! packet loss the overloaded server shows window-bound throughput.

use crate::config::SystemConfig;
use crate::msb::{build_loadgen_sim, run_point, AppSpec, RunConfig};
use crate::summary::run_phases;
use crate::table::{fmt_f64, Table};

use super::{par_map, Effort, ExperimentOutput};

/// Goodput and recovery behaviour across client window sizes.
pub fn run(effort: Effort) -> ExperimentOutput {
    let windows: &[usize] = match effort {
        Effort::Full => &[1, 2, 4, 8, 16, 32, 64, 128],
        Effort::Quick => &[1, 8, 64],
    };
    let cfg = SystemConfig::gem5();
    let rc = RunConfig::long();

    let rows = par_map(windows.to_vec(), |window| {
        let mut sim = build_loadgen_sim(&cfg, &AppSpec::IperfTcp, 1518, window as f64);
        let summary = run_phases(&mut sim, rc);
        let lg = sim.loadgen.as_ref().expect("loadgen mode");
        let tcp = lg.tcp().expect("tcp mode");
        (
            window,
            tcp.goodput_gbps(summary.window),
            tcp.retransmissions.value(),
            tcp.timeouts.value(),
            summary.report.latency.mean / 1e6,
            summary.drop_rate,
        )
    });

    let mut t = Table::new(
        "Extension — TCP stream goodput vs client window (kernel stack, 1448B MSS)",
        &[
            "window(seg)",
            "goodput(Gbps)",
            "retx",
            "timeouts",
            "RTT mean(us)",
            "NIC drop",
        ],
    );
    for (window, goodput, retx, timeouts, rtt, drop) in rows {
        t.row(vec![
            window.to_string(),
            fmt_f64(goodput),
            retx.to_string(),
            timeouts.to_string(),
            fmt_f64(rtt),
            crate::table::fmt_pct(drop),
        ]);
    }

    // Reference: the open-loop UDP iperf ceiling on the same stack
    // (iperf is a sink, so delivered = offered x (1 - drop)).
    let udp = run_point(&cfg, &AppSpec::Iperf, 1518, 30.0, rc);
    let delivered = udp.report.offered_gbps * (1.0 - udp.drop_rate);
    let mut out = ExperimentOutput::default();
    out.note(format!(
        "Small windows are latency-bound (window*MSS/RTT — compare the \
         goodput column against that product); large windows approach the \
         kernel stack's service ceiling (open-loop UDP reference: \
         {delivered:.1} Gbps delivered at 30 Gbps offered, {:.0}% dropped) \
         without sustained loss: TCP self-clocks.",
        udp.drop_rate * 100.0
    ));
    out.table("ext_tcp_window", t);
    out
}
