//! gem5-style statistics dump.
//!
//! gem5 ends a run by writing `stats.txt`: one `name value # description`
//! line per statistic. Since gem5 20.0 those lines come out of a
//! hierarchical stats registry rather than hand-written dump code; this
//! module does the same. [`build_registry`] asks every component to
//! register its counters under its dotted group path
//! (`simnet_sim::stats::StatsRegistry`), and [`stats_text`] renders the
//! result in gem5's `stats.txt` format so runs stay diffable and
//! grep-able the way gem5 users expect.
//!
//! Two dump levels exist:
//!
//! * [`DumpLevel::Compat`] (the default, used by [`stats_text`]) emits
//!   exactly the legacy hand-written stat set — byte-identical output,
//!   verified by a golden test against a frozen copy of the old renderer.
//! * [`DumpLevel::Full`] ([`stats_text_all`]) additionally includes every
//!   post-migration statistic components registered behind
//!   `StatsRegistry::full()` gates (cache class breakdowns, stack
//!   iteration counters, PCI access counters, FIFO watermarks, ...).
//!   New counters become visible here for free.

use std::fmt::Write as _;

use simnet_sim::stats::{DumpLevel, StatsRegistry};

use crate::sim::Simulation;

/// Builds the hierarchical stats registry for node `node`, asking each
/// component to register its own statistics in the legacy section order:
/// simulator, CPU, caches, DRAM, I/O buses, NIC, (stack, PCI — Full
/// level only), fault injection when armed, and the load generator when
/// present.
///
/// # Panics
///
/// Panics if `node` is out of range.
pub fn build_registry(sim: &Simulation, node: usize, level: DumpLevel) -> StatsRegistry {
    let n = &sim.nodes[node];
    let now = sim.now();
    let mut reg = StatsRegistry::with_level(level);

    reg.scalar("sim_ticks", now, "simulated ticks (ps)");
    reg.scalar("host_events", sim.events_executed(), "events executed");

    n.core.register_stats(&mut reg);
    n.mem.register_stats(now, &mut reg);
    n.nic.register_stats(&mut reg);
    if let Some(stack_stats) = n.stack.stats() {
        stack_stats.register_stats(&mut reg);
    }
    // Multi-lcore runs additionally get per-lcore CPU and stack sections
    // (lcore0 is the node's own core; workers are lcore1..). Absent in
    // single-lcore runs, so the compat dump stays byte-identical.
    if !n.workers.is_empty() {
        n.core.register_stats_at("system.cpu.lcore0", &mut reg);
        if let Some(stack_stats) = n.stack.stats() {
            stack_stats.register_stats_at("system.stack.lcore0", &mut reg);
        }
        for (i, w) in n.workers.iter().enumerate() {
            let lcore = i + 1;
            w.core
                .register_stats_at(&format!("system.cpu.lcore{lcore}"), &mut reg);
            if let Some(stack_stats) = w.stack.stats() {
                stack_stats.register_stats_at(&format!("system.stack.lcore{lcore}"), &mut reg);
            }
        }
    }
    n.nic.pci_config().stats().register_stats(&mut reg);

    let injector = sim.fault_injector();
    if injector.is_enabled() {
        injector.register_stats(&mut reg);
        n.nic.register_fault_stats(&mut reg);
    }

    if let Some(lg) = &sim.loadgen {
        lg.register_stats(now, &mut reg);
    }
    // An incast fan-in adds `loadgen.clients` and the `system.topo.*`
    // fabric section. Both are absent in runs without a switch, so the
    // frozen compat dump stays byte-identical.
    sim.register_topo_stats(&mut reg);

    // Interval-sampler health: present only when sampling is on, so the
    // compat dump for unsampled runs stays byte-identical.
    if let Some(nonfinite) = sim.sampler_nonfinite() {
        reg.scoped("system.sampler", |reg| {
            reg.scalar(
                "nonfinite",
                nonfinite,
                "non-finite sampled cells (serialized as null, not 0)",
            );
        });
    }

    // Packet-mempool accounting is a post-registry addition: Full level
    // only, so the frozen compat dump stays byte-identical.
    if reg.full() {
        let pool = simnet_net::pool::stats();
        reg.scoped("system.mempool", |reg| {
            reg.scalar(
                "inUse",
                pool.in_use,
                "pooled packet buffers held by live handles",
            );
            reg.scalar(
                "highWater",
                pool.high_water,
                "peak pooled buffers in use since reset",
            );
            for (i, cap) in simnet_net::pool::CLASS_CAPS.iter().enumerate() {
                reg.scalar(
                    &format!("class{cap}.allocs"),
                    pool.class_allocs[i],
                    "allocations served from this buffer class",
                );
                reg.scalar(
                    &format!("class{cap}.recycles"),
                    pool.class_recycles[i],
                    "buffers returned to this class's freelist",
                );
            }
            reg.scalar(
                "heapFallbacks",
                pool.heap_fallback,
                "allocations that fell back to the heap (class exhausted)",
            );
            reg.scalar(
                "heapLive",
                pool.heap_live,
                "heap-fallback buffers held by live handles",
            );
        });
    }
    reg
}

fn render(reg: &StatsRegistry) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "---------- Begin Simulation Statistics ----------");
    out.push_str(&reg.render_gem5());
    let _ = writeln!(out, "---------- End Simulation Statistics   ----------");
    out
}

/// Renders every component's statistics for node `node` in gem5's
/// `stats.txt` format, at the compatibility level (the legacy stat set,
/// byte-identical to the pre-registry renderer).
///
/// # Panics
///
/// Panics if `node` is out of range.
pub fn stats_text(sim: &Simulation, node: usize) -> String {
    render(&build_registry(sim, node, DumpLevel::Compat))
}

/// Renders the full statistics set for node `node` — the compatibility
/// set plus every post-migration statistic components register at
/// [`DumpLevel::Full`].
///
/// # Panics
///
/// Panics if `node` is out of range.
pub fn stats_text_all(sim: &Simulation, node: usize) -> String {
    render(&build_registry(sim, node, DumpLevel::Full))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msb::{build_loadgen_sim, AppSpec};
    use crate::summary::{run_phases, Phases};
    use crate::SystemConfig;
    use simnet_sim::tick::us;

    /// A frozen copy of the pre-registry hand-written dump. The registry
    /// migration must reproduce this byte-for-byte at the compatibility
    /// level; do not edit this function when adding statistics.
    fn legacy_stats_text(sim: &Simulation, node: usize) -> String {
        fn line(out: &mut String, name: &str, value: impl std::fmt::Display, desc: &str) {
            let _ = writeln!(out, "{name:<52} {value:>16} # {desc}");
        }
        fn line_f(out: &mut String, name: &str, value: f64, desc: &str) {
            let _ = writeln!(out, "{name:<52} {value:>16.6} # {desc}");
        }

        let n = &sim.nodes[node];
        let mut out = String::new();
        let _ = writeln!(out, "---------- Begin Simulation Statistics ----------");
        line(&mut out, "sim_ticks", sim.now(), "simulated ticks (ps)");
        line(
            &mut out,
            "host_events",
            sim.events_executed(),
            "events executed",
        );

        let c = n.core.stats();
        line(
            &mut out,
            "system.cpu.committedInsts",
            c.instructions.value(),
            "instructions committed",
        );
        line(
            &mut out,
            "system.cpu.num_loads",
            c.loads.value(),
            "loads issued",
        );
        line(
            &mut out,
            "system.cpu.num_stores",
            c.stores.value(),
            "stores issued",
        );
        line_f(
            &mut out,
            "system.cpu.ipc",
            c.ipc(n.core.config().frequency),
            "instructions per cycle",
        );
        line_f(
            &mut out,
            "system.cpu.stall_fraction",
            c.stall_fraction(),
            "fraction of time memory-stalled",
        );

        for (name, stats) in [
            ("system.cpu.dcache", n.mem.l1d_stats()),
            ("system.cpu.l2cache", n.mem.l2_stats()),
            ("system.llc", n.mem.llc_stats()),
        ] {
            line(
                &mut out,
                &format!("{name}.overall_hits"),
                stats.core_hits.value() + stats.dma_hits.value(),
                "hits (all classes)",
            );
            line(
                &mut out,
                &format!("{name}.overall_misses"),
                stats.core_misses.value() + stats.dma_misses.value(),
                "misses (all classes)",
            );
            line_f(
                &mut out,
                &format!("{name}.overall_miss_rate"),
                stats.miss_rate(),
                "miss rate",
            );
            line(
                &mut out,
                &format!("{name}.writebacks"),
                stats.writebacks.value(),
                "dirty evictions",
            );
        }

        let d = n.mem.dram_stats();
        line(
            &mut out,
            "system.mem_ctrls.num_reads",
            d.reads.value(),
            "DRAM read accesses",
        );
        line(
            &mut out,
            "system.mem_ctrls.num_writes",
            d.writes.value(),
            "DRAM write accesses",
        );
        line(
            &mut out,
            "system.mem_ctrls.bytes",
            d.bytes.value(),
            "DRAM bytes transferred",
        );
        line_f(
            &mut out,
            "system.mem_ctrls.row_hit_rate",
            d.row_hit_rate(),
            "row-buffer hit rate",
        );

        let now = sim.now();
        for (name, bus) in [
            ("system.iobus.rx", n.mem.io_rx_bus()),
            ("system.iobus.tx", n.mem.io_tx_bus()),
        ] {
            line(
                &mut out,
                &format!("{name}.transactions"),
                bus.transactions.value(),
                "bus transactions",
            );
            line(
                &mut out,
                &format!("{name}.bytes"),
                bus.bytes.value(),
                "payload bytes",
            );
            line_f(
                &mut out,
                &format!("{name}.utilization"),
                bus.utilization(now),
                "busy fraction",
            );
        }

        let ns = n.nic.stats();
        line(
            &mut out,
            "system.nic.rxPackets",
            ns.rx_frames.value(),
            "frames accepted from the wire",
        );
        line(
            &mut out,
            "system.nic.rxBytes",
            ns.rx_bytes.value(),
            "bytes accepted from the wire",
        );
        line(
            &mut out,
            "system.nic.txPackets",
            ns.tx_frames.value(),
            "frames handed to the wire",
        );
        line(
            &mut out,
            "system.nic.txBytes",
            ns.tx_bytes.value(),
            "bytes handed to the wire",
        );
        line(
            &mut out,
            "system.nic.descWritebacks",
            ns.desc_writebacks.value(),
            "descriptor writeback DMAs",
        );
        line(
            &mut out,
            "system.nic.descRefills",
            ns.desc_refills.value(),
            "descriptor cache refills",
        );
        let fsm = n.nic.drop_fsm();
        line(
            &mut out,
            "system.nic.dmaDrops",
            fsm.dma_drops.value(),
            "drops: DMA engine behind (Fig. 4)",
        );
        line(
            &mut out,
            "system.nic.coreDrops",
            fsm.core_drops.value(),
            "drops: core behind (Fig. 4)",
        );
        line(
            &mut out,
            "system.nic.txDrops",
            fsm.tx_drops.value(),
            "drops: TX backpressure (Fig. 4)",
        );
        line_f(
            &mut out,
            "system.nic.dropRate",
            fsm.drop_rate(),
            "dropped / observed",
        );

        let injector = sim.fault_injector();
        if injector.is_enabled() {
            line(
                &mut out,
                "system.fault.plan",
                injector.plan().map(|p| p.to_string()).unwrap_or_default(),
                "installed fault plan",
            );
            line(
                &mut out,
                "system.fault.seed",
                injector.seed().unwrap_or(0),
                "fault RNG seed",
            );
            let fc = injector.counts();
            line(
                &mut out,
                "system.fault.linkBitErrors",
                fc.link_bit_errors,
                "frames corrupted on the wire (FCS fail)",
            );
            line(
                &mut out,
                "system.fault.fifoStuckHits",
                fc.fifo_stuck_hits,
                "RX receptions inside a stuck-full FIFO window",
            );
            line(
                &mut out,
                "system.fault.wbDelays",
                fc.wb_delays,
                "delayed descriptor writeback batches",
            );
            line(
                &mut out,
                "system.fault.wbCorrupts",
                fc.wb_corrupts,
                "corrupted descriptor writebacks (frame lost)",
            );
            line(
                &mut out,
                "system.fault.pciStalls",
                fc.pci_stalls,
                "stalled PCI config reads",
            );
            line(
                &mut out,
                "system.fault.masterClearBlocks",
                fc.master_clear_blocks,
                "DMA attempts blocked by master-enable clear",
            );
            line(
                &mut out,
                "system.fault.dmaBursts",
                fc.dma_bursts,
                "DMA accesses hit by a latency burst",
            );
            line(
                &mut out,
                "system.fault.dcaForcedMisses",
                fc.dca_forced_misses,
                "DCA placements forced to miss the LLC",
            );
            line(
                &mut out,
                "system.fault.total",
                fc.total(),
                "injected faults (all sites)",
            );
            line(
                &mut out,
                "system.nic.faultDrops",
                fsm.fault_drops.value(),
                "drops caused by injected faults",
            );
        }

        if let Some(lg) = &sim.loadgen {
            line(
                &mut out,
                "loadgen.txPackets",
                lg.tx_packets(),
                "packets injected",
            );
            line(
                &mut out,
                "loadgen.rxPackets",
                lg.rx_packets(),
                "packets echoed back",
            );
            let summary = lg.report(0, now).latency;
            line_f(
                &mut out,
                "loadgen.rtt.mean_ns",
                summary.mean / 1e3,
                "mean round-trip (ns)",
            );
            line_f(
                &mut out,
                "loadgen.rtt.p99_ns",
                summary.p99 / 1e3,
                "p99 round-trip (ns)",
            );
        }
        let _ = writeln!(out, "---------- End Simulation Statistics   ----------");
        out
    }

    fn testpmd_run(faulted: bool) -> Simulation {
        let mut sim = build_loadgen_sim(&SystemConfig::gem5(), &AppSpec::TestPmd, 256, 10.0);
        if faulted {
            use simnet_sim::fault::{FaultInjector, FaultPlan};
            let plan = FaultPlan::parse("link.ber=1e-4").unwrap();
            sim.install_faults(FaultInjector::new(plan, 7));
        }
        run_phases(
            &mut sim,
            Phases {
                warmup: 0,
                measure: us(300),
            },
        );
        sim
    }

    #[test]
    fn registry_dump_matches_the_legacy_renderer_byte_for_byte() {
        for faulted in [false, true] {
            let sim = testpmd_run(faulted);
            let golden = legacy_stats_text(&sim, 0);
            let generated = stats_text(&sim, 0);
            assert_eq!(
                generated, golden,
                "registry compat dump diverged from the legacy format (faulted={faulted})"
            );
        }
    }

    #[test]
    fn full_dump_is_a_superset_of_the_compat_dump() {
        let sim = testpmd_run(false);
        let compat = build_registry(&sim, 0, DumpLevel::Compat);
        let full = build_registry(&sim, 0, DumpLevel::Full);
        for entry in compat.entries() {
            assert!(
                full.get(&entry.path).is_some(),
                "compat stat {} missing from full dump",
                entry.path
            );
        }
        assert!(full.len() > compat.len());
        // Post-migration stats appear only at the full level.
        for needle in [
            "system.stack.iterations",
            "system.pci.configReads",
            "system.llc.dma_hits",
            "system.nic.rx_fifo_peak",
            "system.mempool.inUse",
            "system.mempool.highWater",
            "system.mempool.class2048.allocs",
            "system.mempool.class2048.recycles",
            "system.mempool.heapFallbacks",
        ] {
            assert!(compat.get(needle).is_none(), "{needle} leaked into compat");
            assert!(full.get(needle).is_some(), "{needle} missing from full");
        }
    }

    #[test]
    fn dump_contains_all_sections() {
        let mut sim = build_loadgen_sim(&SystemConfig::gem5(), &AppSpec::TestPmd, 256, 10.0);
        run_phases(
            &mut sim,
            Phases {
                warmup: 0,
                measure: us(300),
            },
        );
        let text = stats_text(&sim, 0);
        for needle in [
            "sim_ticks",
            "system.cpu.committedInsts",
            "system.cpu.dcache.overall_miss_rate",
            "system.llc.overall_hits",
            "system.mem_ctrls.row_hit_rate",
            "system.iobus.rx.utilization",
            "system.nic.rxPackets",
            "system.nic.dropRate",
            "loadgen.rtt.mean_ns",
        ] {
            assert!(text.contains(needle), "missing {needle} in dump:\n{text}");
        }
        // Every stat line carries a description.
        let stat_lines = text
            .lines()
            .filter(|l| !l.starts_with("--"))
            .collect::<Vec<_>>();
        assert!(stat_lines.len() > 25);
        assert!(stat_lines.iter().all(|l| l.contains('#')));
        // No fault plan installed: the fault section must be absent.
        assert!(!text.contains("system.fault."));
    }

    #[test]
    fn fault_section_appears_only_with_a_plan() {
        let sim = testpmd_run(true);
        let text = stats_text(&sim, 0);
        for needle in [
            "system.fault.plan",
            "system.fault.seed",
            "system.fault.linkBitErrors",
            "system.fault.total",
            "system.nic.faultDrops",
        ] {
            assert!(text.contains(needle), "missing {needle} in dump:\n{text}");
        }
    }
}
