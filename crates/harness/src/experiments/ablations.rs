//! Ablations of the paper's own design choices — the knobs §III/§IV add
//! to gem5, exercised the way an architecture study would.
//!
//! * **Descriptor writeback threshold** (§III.A.3): without the paper's
//!   fix, a polling-mode driver sees descriptors written back in whole
//!   descriptor-cache batches (32–64), which "causes unrealistic pressure
//!   on the CPU memory subsystem and increases the possibility of packet
//!   drops at high receive rates" — and inflates latency, since packets
//!   sit invisible until the batch completes.
//! * **DCA way partition**: the LLC ways reserved for stashing trade
//!   network-data residency against core working-set capacity (Fig. 13
//!   fixes this at 4/16; here we sweep it).
//! * **Open vs closed load generation** (§IV cites the "open versus
//!   closed" cautionary tale): the same server shows wildly different
//!   tail latency depending on the client model.

use simnet_mem::cache::CacheConfig;
use simnet_sim::tick::{ns, us, Tick};
use simnet_stack::{DpdkStack, KernelStack};

use crate::config::SystemConfig;
use crate::msb::{run_point, AppSpec, RunConfig};
use crate::sim::Simulation;
use crate::summary::run_phases;
use crate::table::{fmt_f64, fmt_pct, Table};

use super::{par_map, Effort, ExperimentOutput};

/// Descriptor writeback-threshold sweep: latency and drops at a fixed
/// near-knee load.
pub fn writeback_threshold(effort: Effort) -> ExperimentOutput {
    let thresholds: &[usize] = match effort {
        Effort::Full => &[1, 2, 4, 8, 16, 32, 64],
        Effort::Quick => &[1, 4, 64],
    };
    let size = 256usize;
    let load = 41.0; // Gbps — near the knee, so the RX engine stays busy

    let rows = par_map(thresholds.to_vec(), |threshold| {
        let mut cfg = SystemConfig::gem5();
        cfg.nic = cfg.nic.with_wb_threshold(threshold);
        // Zero propagation latency: the batching effect is sub-µs and
        // would vanish under the 200 µs RTT of the default link.
        cfg.link_latency = 0;
        let s = run_point(&cfg, &AppSpec::TestPmd, size, load, RunConfig::fast());
        (threshold, s)
    });

    let mut t = Table::new(
        "Ablation — RX descriptor writeback threshold (§III.A.3), TestPMD 256B @ 41 Gbps",
        &[
            "threshold",
            "drop",
            "RTT mean(ns)",
            "RTT p99(ns)",
            "achieved(Gbps)",
        ],
    );
    for (threshold, s) in rows {
        t.row(vec![
            threshold.to_string(),
            fmt_pct(s.drop_rate),
            fmt_f64(s.report.latency.mean / 1e3),
            fmt_f64(s.report.latency.p99 / 1e3),
            fmt_f64(s.achieved_gbps()),
        ]);
    }
    let mut out = ExperimentOutput::default();
    out.note(
        "Without the paper's parameter a PMD degrades to whole-cache (64) \
         writeback batches: packets become visible in bursts, inflating \
         latency jitter and burst memory pressure. Small thresholds cost \
         extra descriptor-write transactions.",
    );
    out.table("ablation_wb_threshold", t);
    out
}

/// DCA way-partition sweep (the paper fixes 4/16; Fig. 13's leak depends
/// directly on this capacity).
pub fn dca_ways(effort: Effort) -> ExperimentOutput {
    let ways: &[usize] = match effort {
        Effort::Full => &[1, 2, 4, 8],
        Effort::Quick => &[1, 4],
    };
    // Fig. 13's setup: 1 MiB LLC, 4096-entry ring, core deliberately slow.
    let rows = par_map(ways.to_vec(), |dca| {
        let mut cfg = SystemConfig::gem5().with_rx_ring(4096);
        cfg.mem.llc = CacheConfig::with_dca(1 << 20, 16, dca);
        let s = run_point(&cfg, &AppSpec::RxpTx(ns(700)), 256, 15.0, RunConfig::fast());
        (dca, s)
    });
    let mut t = Table::new(
        "Ablation — LLC ways reserved for DCA (RXpTX-700ns 256B @ 15 Gbps, 1MiB LLC)",
        &["dca ways", "LLC miss (core)", "drop", "achieved(Gbps)"],
    );
    for (dca, s) in rows {
        t.row(vec![
            format!("{dca}/16"),
            fmt_pct(s.llc_miss_rate),
            fmt_pct(s.drop_rate),
            fmt_f64(s.achieved_gbps()),
        ]);
    }
    let mut out = ExperimentOutput::default();
    out.note(
        "A larger DCA partition holds more in-flight ring data before the \
         DMA leak begins; too large a partition would instead squeeze the \
         core's share of the LLC (not visible with this single app).",
    );
    out.table("ablation_dca_ways", t);
    out
}

/// Open-loop vs closed-loop clients against the same memcached server.
pub fn open_vs_closed(effort: Effort) -> ExperimentOutput {
    let windows: &[usize] = match effort {
        Effort::Full => &[1, 4, 16, 64, 256],
        Effort::Quick => &[1, 64],
    };
    let cfg = SystemConfig::gem5();
    let spec = AppSpec::MemcachedDpdk;
    let offered = 1_200.0; // kRPS — past the server's open-loop knee

    let mut t = Table::new(
        "Ablation — open vs closed load generation (MemcachedDPDK)",
        &[
            "client",
            "achieved(kRPS)",
            "unanswered",
            "RTT mean(us)",
            "RTT p99(us)",
        ],
    );

    // Open loop: fixed-rate arrivals regardless of responses.
    let open = run_point(&cfg, &spec, 0, offered, RunConfig::long());
    t.row(vec![
        format!("open @ {offered:.0}k"),
        fmt_f64(open.achieved_rps() / 1e3),
        fmt_pct(open.report.drop_rate),
        fmt_f64(open.report.latency.mean / 1e6),
        fmt_f64(open.report.latency.p99 / 1e6),
    ]);

    // Closed loop: at most W outstanding requests.
    let closed = par_map(windows.to_vec(), |window| {
        let mut gen = spec.loadgen(&cfg, 0, offered);
        gen.set_closed_loop(window);
        let mut sim = Simulation::loadgen_mode(&cfg, spec.lcores(&cfg), gen);
        let s = run_phases(&mut sim, RunConfig::long().phases);
        (window, s)
    });
    for (window, s) in closed {
        t.row(vec![
            format!("closed W={window}"),
            fmt_f64(s.achieved_rps() / 1e3),
            fmt_pct(s.report.drop_rate),
            fmt_f64(s.report.latency.mean / 1e6),
            fmt_f64(s.report.latency.p99 / 1e6),
        ]);
    }

    let mut out = ExperimentOutput::default();
    out.note(
        "Open-loop overload shows unbounded queueing latency and unanswered \
         requests; a closed-loop client self-throttles — its latency stays \
         near the service floor and throughput tops out at W / RTT \
         (Schroeder et al.'s open-vs-closed caution, cited in §IV).",
    );
    out.table("ablation_open_closed", t);
    out
}

/// Huge pages on vs off (`--no-huge`): the TLB-walk cost DPDK avoids.
pub fn hugepages(effort: Effort) -> ExperimentOutput {
    let sizes: &[usize] = match effort {
        Effort::Full => &[64, 256, 1518],
        Effort::Quick => &[256],
    };
    let cfg = SystemConfig::gem5();
    let mut t = Table::new(
        "Ablation — huge pages vs 4 KiB pages (TestPMD)",
        &["pkt(B)", "pages", "offered(Gbps)", "achieved(Gbps)", "drop"],
    );
    let mut jobs = Vec::new();
    for &size in sizes {
        for huge in [true, false] {
            jobs.push((size, huge));
        }
    }
    let rows = par_map(jobs, |(size, huge)| {
        // Load each size near its huge-page knee so the extra per-packet
        // cost shows as drops/achieved loss.
        let offered = match size {
            64 => 14.0,
            256 => 40.0,
            _ => 55.0,
        };
        let mut lcores = AppSpec::TestPmd.lcores(&cfg);
        if !huge {
            lcores[0].0 = Box::new(DpdkStack::new(cfg.seed).without_hugepages());
        }
        let loadgen = AppSpec::TestPmd.loadgen(&cfg, size, offered);
        let mut sim = Simulation::loadgen_mode(&cfg, lcores, loadgen);
        let s = run_phases(&mut sim, RunConfig::fast().phases);
        (size, huge, offered, s)
    });
    for (size, huge, offered, s) in rows {
        t.row(vec![
            size.to_string(),
            if huge { "2MiB huge" } else { "4KiB" }.into(),
            fmt_f64(offered),
            fmt_f64(s.achieved_gbps()),
            fmt_pct(s.drop_rate),
        ]);
    }
    let mut out = ExperimentOutput::default();
    out.note(
        "Without huge pages every buffer touch risks a TLB walk (two \
         dependent page-table loads); §II.A lists huge pages among the \
         optimizations that give DPDK its headroom.",
    );
    out.table("ablation_hugepages", t);
    out
}

/// Interrupt-throttling (ITR) sweep on the kernel stack: latency vs
/// interrupt-rate tradeoff.
pub fn interrupt_coalescing(effort: Effort) -> ExperimentOutput {
    let itrs: &[Tick] = match effort {
        Effort::Full => &[0, us(10), us(50), us(100)],
        Effort::Quick => &[0, us(100)],
    };
    let cfg = SystemConfig::gem5();
    // A light memcached load: mostly idle, so every request pays the
    // interrupt path.
    let rate = 50.0; // kRPS
    let mut t = Table::new(
        "Ablation — kernel interrupt coalescing (MemcachedKernel @ 50 kRPS)",
        &[
            "ITR",
            "RTT mean(us)",
            "RTT p99(us)",
            "achieved(kRPS)",
            "events",
        ],
    );
    let rows = par_map(itrs.to_vec(), |itr| {
        let mut stack = KernelStack::new(cfg.seed);
        stack.set_itr(itr);
        let mut lcores = AppSpec::MemcachedKernel.lcores(&cfg);
        lcores[0].0 = Box::new(stack);
        let loadgen = AppSpec::MemcachedKernel.loadgen(&cfg, 0, rate);
        let mut sim = Simulation::loadgen_mode(&cfg, lcores, loadgen);
        let s = run_phases(&mut sim, RunConfig::long().phases);
        (itr, s)
    });
    for (itr, s) in rows {
        t.row(vec![
            format!("{}us", itr / us(1)),
            fmt_f64(s.report.latency.mean / 1e6),
            fmt_f64(s.report.latency.p99 / 1e6),
            fmt_f64(s.achieved_rps() / 1e3),
            s.events.to_string(),
        ]);
    }
    let mut out = ExperimentOutput::default();
    out.note(
        "Coalescing adds directly to request latency at light load while \
         reducing simulation events (interrupt entries); under saturation \
         NAPI polls without interrupts and ITR stops mattering — the \
         interrupt-processing overhead §II.A attributes to the kernel path.",
    );
    out.table("ablation_itr", t);
    out
}
