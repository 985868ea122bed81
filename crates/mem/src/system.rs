//! The wired memory hierarchy: L1I/L1D → L2 → LLC → DRAM, with DMA-side
//! ports over the I/O bus and optional Direct Cache Access.
//!
//! * Core accesses walk the inclusive hierarchy; fills propagate downward
//!   and evictions back-invalidate upper levels.
//! * DMA writes (packet RX, descriptor writeback) cross the RX I/O bus and
//!   land either in the LLC's DCA ways (cache stashing, §III.A.4) or in
//!   DRAM.
//! * DMA reads (packet TX, descriptor fetch) source from the LLC when the
//!   line is resident, else DRAM, then cross the TX I/O bus.
//!
//! L1/L2 hit latencies are expressed in *core cycles* (they live in the
//! core's clock domain, so they scale with the Fig. 15 frequency sweep);
//! LLC and DRAM latencies are wall-clock ticks.
//!
//! The LLC carries a snoop filter: per LLC way, a mask of the cores whose
//! private caches may hold its line. Coherence invalidations (LLC
//! evictions, DMA writes) visit only those cores, and a line the LLC lacks
//! needs none, because the hierarchy is inclusive.

use simnet_sim::fault::{FaultInjector, FaultKind};
use simnet_sim::tick::{ns, Bandwidth, Frequency, Tick};
use simnet_sim::trace::{Component, Stage, Tracer, NO_PACKET};

use crate::bus::Bus;
use crate::cache::{AccessClass, Cache, CacheConfig, Eviction};
use crate::dram::{DramConfig, DramController};
use crate::{line_base, lines_touched, Addr, CACHE_LINE};

/// Completion milestones of one DMA transaction, for a pipelined DMA
/// engine: the engine may start its next transaction at `next_issue`
/// without waiting for `complete`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTiming {
    /// When the DMA engine's pipeline can accept the next transaction
    /// (writes: the I/O bus transfer finished; reads: the memory fetch
    /// completed and the bus transfer is queued).
    pub next_issue: Tick,
    /// When the data is fully at its destination (writes: resident in
    /// LLC/DRAM; reads: delivered across the I/O bus to the device).
    pub complete: Tick,
}

/// Which level served a core access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// Served by the first-level cache.
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the shared last-level cache.
    Llc,
    /// Served by DRAM.
    Dram,
}

/// Full memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Private unified L2 geometry.
    pub l2: CacheConfig,
    /// Shared LLC geometry (DCA ways live here).
    pub llc: CacheConfig,
    /// L1I hit latency in core cycles (Table I: 1).
    pub l1i_cycles: u64,
    /// L1D hit latency in core cycles (Table I: 2).
    pub l1d_cycles: u64,
    /// L2 hit latency in core cycles (Table I: 12).
    pub l2_cycles: u64,
    /// LLC hit latency in wall-clock ticks (uncore domain).
    pub llc_latency: Tick,
    /// L1D miss-status-holding registers (bounds core MLP; Table I: 6).
    pub l1d_mshrs: usize,
    /// L2 MSHRs (Table I: 16).
    pub l2_mshrs: usize,
    /// DRAM geometry/timing.
    pub dram: DramConfig,
    /// Whether DMA writes stash into the LLC (DCA / DDIO).
    pub dca_enabled: bool,
    /// I/O (PCIe stand-in) bandwidth, per direction.
    pub io_bandwidth: Bandwidth,
    /// Per-transaction I/O overhead.
    pub io_overhead: Tick,
}

impl MemoryConfig {
    /// The paper's simulated configuration (Table I): 64 KiB 4-way L1s,
    /// 1 MiB 8-way L2, 16 MiB 16-way LLC with 4 DCA ways, 2-channel
    /// DDR4-2400, DCA enabled.
    pub fn table1_gem5() -> Self {
        Self {
            l1i: CacheConfig::new(64 << 10, 4),
            l1d: CacheConfig::new(64 << 10, 4),
            l2: CacheConfig::new(1 << 20, 8),
            llc: CacheConfig::with_dca(16 << 20, 16, 4),
            l1i_cycles: 1,
            l1d_cycles: 2,
            l2_cycles: 12,
            llc_latency: ns(12),
            l1d_mshrs: 6,
            l2_mshrs: 16,
            dram: DramConfig::ddr4_2400(2),
            dca_enabled: true,
            io_bandwidth: Bandwidth::gbps(60.0),
            io_overhead: ns(4),
        }
    }

    /// Applies an LLC size (keeping associativity and the DCA split).
    pub fn with_llc_size(mut self, bytes: u64) -> Self {
        self.llc = CacheConfig::with_dca(bytes, self.llc.assoc, self.llc.dca_ways);
        self
    }

    /// Disables DCA: DMA traffic goes to DRAM and the LLC is unpartitioned.
    pub fn without_dca(mut self) -> Self {
        self.dca_enabled = false;
        self.llc = CacheConfig::new(self.llc.size, self.llc.assoc);
        self
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::table1_gem5()
    }
}

/// One core's private cache slice: L1I, L1D, and unified L2.
struct CoreCaches {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
}

impl CoreCaches {
    fn new(cfg: &MemoryConfig) -> Self {
        Self {
            l1i: Cache::new("l1i", cfg.l1i),
            l1d: Cache::new("l1d", cfg.l1d),
            l2: Cache::new("l2", cfg.l2),
        }
    }
}

/// Most cores a [`MemorySystem`] can hold: the snoop filter keeps one bit
/// per core in a `u8` (and the NIC has at most 8 queues, so at most 8
/// lcores).
pub const MAX_CORES: usize = 8;

/// The complete memory system.
///
/// ```
/// use simnet_mem::{MemoryConfig, MemorySystem, HitLevel};
/// let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
/// let (lat_miss, level) = mem.core_read(0, 0x4000_0000, 8);
/// assert_eq!(level, HitLevel::Dram);
/// let (lat_hit, level) = mem.core_read(lat_miss, 0x4000_0000, 8);
/// assert_eq!(level, HitLevel::L1);
/// assert!(lat_hit < lat_miss);
/// ```
pub struct MemorySystem {
    cfg: MemoryConfig,
    core_freq: Frequency,
    /// Private per-core hierarchies; index = lcore. One entry reproduces
    /// the single-core system exactly.
    cores: Vec<CoreCaches>,
    /// Which core's private caches the next `core_*` access uses.
    active: usize,
    llc: Cache,
    /// The snoop filter, indexed by LLC way: bit `c` set means core `c`'s
    /// private caches may hold the way's line. Every private copy has its
    /// bit; a bit may outlive its copy. An invalid way's mask is 0.
    sharers: Vec<u8>,
    /// L1I, L1D and L2 hit latencies at `core_freq`.
    l1i_ticks: Tick,
    l1d_ticks: Tick,
    l2_ticks: Tick,
    dram: DramController,
    io_rx: Bus,
    io_tx: Bus,
    tracer: Tracer,
    faults: FaultInjector,
}

impl MemorySystem {
    /// Builds the hierarchy from a configuration.
    pub fn new(cfg: MemoryConfig) -> Self {
        let mut mem = Self {
            cores: vec![CoreCaches::new(&cfg)],
            active: 0,
            llc: Cache::new("llc", cfg.llc),
            sharers: vec![0; (cfg.llc.size / CACHE_LINE) as usize],
            l1i_ticks: 0,
            l1d_ticks: 0,
            l2_ticks: 0,
            dram: DramController::new(cfg.dram),
            io_rx: Bus::new("io-rx", cfg.io_bandwidth, cfg.io_overhead),
            io_tx: Bus::new("io-tx", cfg.io_bandwidth, cfg.io_overhead),
            core_freq: Frequency::default(),
            tracer: Tracer::disabled(),
            faults: FaultInjector::disabled(),
            cfg,
        };
        mem.set_core_frequency(Frequency::default());
        mem
    }

    /// Rebuilds the private hierarchies for `n` cores (fresh, cold).
    /// Call once at construction, before any traffic; the shared LLC,
    /// DRAM, and I/O buses are untouched.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= MAX_CORES`.
    pub fn set_num_cores(&mut self, n: usize) {
        assert!(n > 0, "need at least one core");
        assert!(
            n <= MAX_CORES,
            "{n} cores exceed the snoop filter's limit of {MAX_CORES}"
        );
        self.cores = (0..n).map(|_| CoreCaches::new(&self.cfg)).collect();
        self.sharers.fill(0);
        self.active = 0;
    }

    /// Number of private cache slices.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Selects which core's private caches subsequent `core_*` accesses
    /// use. The harness calls this when it switches lcores; single-core
    /// systems never do.
    pub fn set_active_core(&mut self, core: usize) {
        assert!(core < self.cores.len(), "core {core} out of range");
        self.active = core;
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }

    /// Attaches a packet-lifecycle tracer; the memory system reports DCA
    /// placements (bulk DMA writes steered into the LLC).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a fault injector (see `simnet_sim::fault`): DMA latency
    /// bursts and DCA miss-forcing apply on the device-side ports.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Burst fault: extra issue delay for a DMA transaction at `now`.
    fn dma_fault_delay(&self, now: Tick) -> Tick {
        let extra = self.faults.dma_burst_extra(now);
        if extra > 0 {
            self.tracer.emit(
                now,
                NO_PACKET,
                Component::Mem,
                Stage::Fault {
                    kind: FaultKind::DmaBurst,
                    ticks: extra,
                },
            );
        }
        extra
    }

    /// DCA fault: whether this bulk DMA write is forced to miss to DRAM.
    fn dca_forced_miss(&self, now: Tick) -> bool {
        if self.faults.dca_force_miss() {
            self.tracer.emit(
                now,
                NO_PACKET,
                Component::Mem,
                Stage::Fault {
                    kind: FaultKind::DcaForcedMiss,
                    ticks: 0,
                },
            );
            return true;
        }
        false
    }

    /// Sets the core clock (scales L1/L2 hit latencies).
    pub fn set_core_frequency(&mut self, freq: Frequency) {
        self.core_freq = freq;
        self.l1i_ticks = freq.cycles_to_ticks(self.cfg.l1i_cycles);
        self.l1d_ticks = freq.cycles_to_ticks(self.cfg.l1d_cycles);
        self.l2_ticks = freq.cycles_to_ticks(self.cfg.l2_cycles);
    }

    /// The current core clock.
    pub fn core_frequency(&self) -> Frequency {
        self.core_freq
    }

    /// LLC statistics (Fig. 13's miss-rate series reads these).
    pub fn llc_stats(&self) -> &crate::cache::CacheStats {
        self.llc.stats()
    }

    /// L2 statistics (core 0 — the legacy single-core accessor).
    pub fn l2_stats(&self) -> &crate::cache::CacheStats {
        self.cores[0].l2.stats()
    }

    /// L1D statistics (core 0).
    pub fn l1d_stats(&self) -> &crate::cache::CacheStats {
        self.cores[0].l1d.stats()
    }

    /// L2 statistics of a specific core.
    pub fn l2_stats_of(&self, core: usize) -> &crate::cache::CacheStats {
        self.cores[core].l2.stats()
    }

    /// L1D statistics of a specific core.
    pub fn l1d_stats_of(&self, core: usize) -> &crate::cache::CacheStats {
        self.cores[core].l1d.stats()
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> &crate::dram::DramStats {
        self.dram.stats()
    }

    /// RX-direction I/O bus (DMA writes toward memory).
    pub fn io_rx_bus(&self) -> &Bus {
        &self.io_rx
    }

    /// TX-direction I/O bus (DMA reads toward the device).
    pub fn io_tx_bus(&self) -> &Bus {
        &self.io_tx
    }

    /// Registers the whole hierarchy's statistics: the three legacy cache
    /// groups (`system.cpu.dcache`, `system.cpu.l2cache`, `system.llc`),
    /// `system.mem_ctrls` and both `system.iobus` directions. `now` prices
    /// the bus utilization fractions.
    pub fn register_stats(&self, now: Tick, reg: &mut simnet_sim::stats::StatsRegistry) {
        for (name, stats) in [
            ("system.cpu.dcache", self.cores[0].l1d.stats()),
            ("system.cpu.l2cache", self.cores[0].l2.stats()),
            ("system.llc", self.llc.stats()),
        ] {
            reg.scoped(name, |reg| stats.register_stats(reg));
        }
        if self.cores.len() > 1 {
            for (i, core) in self.cores.iter().enumerate() {
                reg.scoped(format!("system.cpu.lcore{i}.dcache"), |reg| {
                    core.l1d.stats().register_stats(reg);
                });
                reg.scoped(format!("system.cpu.lcore{i}.l2cache"), |reg| {
                    core.l2.stats().register_stats(reg);
                });
            }
        }
        self.dram.stats().register_stats(reg);
        for (name, bus) in [
            ("system.iobus.rx", &self.io_rx),
            ("system.iobus.tx", &self.io_tx),
        ] {
            reg.scoped(name, |reg| bus.register_stats(now, reg));
        }
    }

    /// Verifies the inclusive-hierarchy invariant: every valid L1I/L1D
    /// line is resident in L2, every valid L2 line is resident in the
    /// LLC, and the LLC's snoop filter marks the core as a sharer of it
    /// (diagnostic; used by property tests).
    ///
    /// # Errors
    ///
    /// Returns the first violating line.
    pub fn verify_inclusion(&self) -> Result<(), String> {
        for (c, core) in self.cores.iter().enumerate() {
            for (upper_name, upper) in [("l1d", &core.l1d), ("l1i", &core.l1i)] {
                for line in upper.resident_lines() {
                    if core.l2.probe(line).is_none() {
                        return Err(format!(
                            "core {c} {upper_name} line {line:#x} missing from l2"
                        ));
                    }
                }
            }
            // The L1 lines are L2 lines, so this covers them too.
            for line in core.l2.resident_lines() {
                let Some(way) = self.llc.probe(line) else {
                    return Err(format!("core {c} l2 line {line:#x} missing from llc"));
                };
                if self.sharers[way] & (1 << c) == 0 {
                    return Err(format!(
                        "core {c} l2 line {line:#x} missing from the llc snoop filter"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Clears all statistics after warm-up; cache/row state persists.
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.l1i.reset_stats();
            core.l1d.reset_stats();
            core.l2.reset_stats();
        }
        self.llc.reset_stats();
        self.dram.reset_stats();
        self.io_rx.reset_stats();
        self.io_tx.reset_stats();
    }

    /// Core data read of `size` bytes at `addr`. Returns `(latency, level)`
    /// for the *first* line; additional straddled lines are filled but
    /// their latency overlaps (the core model prices per-line ops itself).
    pub fn core_read(&mut self, now: Tick, addr: Addr, size: u64) -> (Tick, HitLevel) {
        self.core_access(now, addr, size, false, false)
    }

    /// Core data write (write-allocate, write-back).
    pub fn core_write(&mut self, now: Tick, addr: Addr, size: u64) -> (Tick, HitLevel) {
        self.core_access(now, addr, size, true, false)
    }

    /// Instruction fetch.
    pub fn instr_fetch(&mut self, now: Tick, addr: Addr) -> (Tick, HitLevel) {
        self.core_access(now, addr, 1, false, true)
    }

    fn core_access(
        &mut self,
        now: Tick,
        addr: Addr,
        size: u64,
        write: bool,
        instr: bool,
    ) -> (Tick, HitLevel) {
        let lines = lines_touched(addr, size.max(1));
        let mut first: Option<(Tick, HitLevel)> = None;
        for i in 0..lines {
            let line = line_base(addr) + i * CACHE_LINE;
            let res = self.core_access_line(now, line, write, instr);
            if first.is_none() {
                first = Some(res);
            }
        }
        first.expect("at least one line")
    }

    fn core_access_line(
        &mut self,
        now: Tick,
        line: Addr,
        write: bool,
        instr: bool,
    ) -> (Tick, HitLevel) {
        let l1_lat = if instr {
            self.l1i_ticks
        } else {
            self.l1d_ticks
        };
        let core = &mut self.cores[self.active];
        let l1 = if instr { &mut core.l1i } else { &mut core.l1d };
        if l1.lookup(line, AccessClass::Core, write).is_some() {
            return (l1_lat, HitLevel::L1);
        }
        let l2_lat = l1_lat + self.l2_ticks;

        if core.l2.lookup(line, AccessClass::Core, false).is_some() {
            self.fill_l1(line, instr, write);
            return (l2_lat, HitLevel::L2);
        }

        let sharer = 1 << self.active;
        if let Some(way) = self.llc.lookup(line, AccessClass::Core, false) {
            self.fill_l2(line, false);
            self.sharers[way] |= sharer;
            self.fill_l1(line, instr, write);
            return (l2_lat + self.cfg.llc_latency, HitLevel::Llc);
        }

        // DRAM fill (interleaved: core timestamps are iteration-local).
        let issued = now + l2_lat + self.cfg.llc_latency;
        let done = self.dram.access_interleaved(issued, line, false);
        let dram_lat = done - now;
        let way = self.fill_llc_core(done, line);
        self.fill_l2(line, false);
        self.sharers[way] = sharer;
        self.fill_l1(line, instr, write);
        (dram_lat, HitLevel::Dram)
    }

    fn fill_l1(&mut self, line: Addr, instr: bool, dirty: bool) {
        let core = &mut self.cores[self.active];
        let l1 = if instr { &mut core.l1i } else { &mut core.l1d };
        match l1.fill(line, AccessClass::Core, dirty).evicted {
            Eviction::Dirty(victim) => {
                // Inclusive hierarchy: the victim is in L2; propagate dirt.
                core.l2.fill(victim, AccessClass::Core, true);
            }
            Eviction::Clean(_) | Eviction::None => {}
        }
    }

    fn fill_l2(&mut self, line: Addr, dirty: bool) {
        match self.cores[self.active]
            .l2
            .fill(line, AccessClass::Core, dirty)
            .evicted
        {
            Eviction::Dirty(victim) => {
                self.back_invalidate_l1(victim);
                self.llc.fill(victim, AccessClass::Core, true);
            }
            Eviction::Clean(victim) => {
                self.back_invalidate_l1(victim);
            }
            Eviction::None => {}
        }
    }

    /// Fills `line` (absent from the LLC) into the core partition and
    /// returns its way, whose sharer mask the caller then sets.
    fn fill_llc_core(&mut self, now: Tick, line: Addr) -> usize {
        let fill = self.llc.fill(line, AccessClass::Core, false);
        let sharers = self.sharers[fill.way];
        match fill.evicted {
            Eviction::Dirty(victim) => {
                self.invalidate_private(sharers, victim);
                self.dram.access_interleaved(now, victim, true);
            }
            Eviction::Clean(victim) => {
                self.invalidate_private(sharers, victim);
            }
            Eviction::None => {}
        }
        fill.way
    }

    /// Private-L2 eviction: only the evicting (active) core's L1s can
    /// hold the victim (its L2 is inclusive of them alone).
    fn back_invalidate_l1(&mut self, line: Addr) {
        let core = &mut self.cores[self.active];
        core.l1d.invalidate(line);
        core.l1i.invalidate(line);
    }

    /// Coherence: kills `line` in the private caches of every core in
    /// `sharers` (an LLC way's mask). No other core can hold it, and a core
    /// whose L2 lacks it holds no L1 copy either (inclusion).
    fn invalidate_private(&mut self, mut sharers: u8, line: Addr) {
        while sharers != 0 {
            let core = &mut self.cores[sharers.trailing_zeros() as usize];
            if core.l2.invalidate(line).is_some() {
                core.l1d.invalidate(line);
                core.l1i.invalidate(line);
            }
            sharers &= sharers - 1;
        }
    }

    /// One line of a DMA write whose bus transfer finished at `t_bus`: it
    /// lands in the LLC's DCA ways if `dca`, else in DRAM, and every
    /// private copy dies. `interleaved` selects the DRAM port for control
    /// writes. Returns when the line is at its destination.
    fn dma_write_line(&mut self, t_bus: Tick, line: Addr, dca: bool, interleaved: bool) -> Tick {
        let dram_write = if interleaved {
            DramController::access_interleaved
        } else {
            DramController::access
        };
        if dca {
            let fill = self.llc.fill(line, AccessClass::Dma, true);
            // The way's mask goes with what it held: `line`'s sharers if it
            // was resident, the victim's if one was evicted, none if the
            // way was invalid. A line the LLC lacked has no private copy.
            let sharers = std::mem::take(&mut self.sharers[fill.way]);
            match fill.evicted {
                Eviction::None => self.invalidate_private(sharers, line),
                Eviction::Clean(victim) => self.invalidate_private(sharers, victim),
                Eviction::Dirty(victim) => {
                    self.invalidate_private(sharers, victim);
                    dram_write(&mut self.dram, t_bus, victim, true);
                }
            }
            t_bus + self.cfg.llc_latency
        } else {
            if let Some(way) = self.llc.probe(line) {
                let sharers = std::mem::take(&mut self.sharers[way]);
                self.invalidate_private(sharers, line);
                self.llc.invalidate(line);
            }
            dram_write(&mut self.dram, t_bus, line, true)
        }
    }

    /// NIC DMA write of `size` bytes at `addr` (packet RX data or
    /// descriptor writeback). Crosses the RX I/O bus; lands in the LLC DCA
    /// partition when DCA is enabled, else in DRAM. Returns the completion
    /// tick.
    pub fn dma_write(&mut self, now: Tick, addr: Addr, size: u64) -> Tick {
        self.dma_write_timed(now, addr, size).complete
    }

    /// Like [`MemorySystem::dma_write`] but exposes the pipelining point:
    /// the DMA engine may issue its next transaction once the I/O bus
    /// transfer finishes, before the data lands in LLC/DRAM.
    pub fn dma_write_timed(&mut self, now: Tick, addr: Addr, size: u64) -> DmaTiming {
        let now = now + self.dma_fault_delay(now);
        let dca = self.cfg.dca_enabled && !self.dca_forced_miss(now);
        let grant = self.io_rx.transfer(now, size);
        let t_bus = grant.finish;
        let lines = lines_touched(addr, size.max(1));
        let first = line_base(addr);
        let mut done = t_bus;
        for i in 0..lines {
            let line = first + i * CACHE_LINE;
            done = done.max(self.dma_write_line(t_bus, line, dca, false));
        }
        if dca {
            self.tracer.emit(
                t_bus,
                NO_PACKET,
                Component::Mem,
                Stage::DcaPlace { bytes: size as u32 },
            );
        }
        DmaTiming {
            next_issue: t_bus,
            complete: done,
        }
    }

    /// NIC DMA read of `size` bytes at `addr` (packet TX data or descriptor
    /// fetch). Sources each line from the LLC if resident (the DCA TX-side
    /// benefit) else DRAM, then crosses the TX I/O bus. Returns the
    /// completion tick.
    pub fn dma_read(&mut self, now: Tick, addr: Addr, size: u64) -> Tick {
        self.dma_read_timed(now, addr, size).complete
    }

    /// A *control-path* DMA write (descriptor writeback): lands in the
    /// LLC/DRAM like [`MemorySystem::dma_write_timed`], but its bus
    /// transfer interleaves with queued bulk traffic (posted write TLPs)
    /// instead of pushing the bulk queue's horizon forward.
    pub fn dma_write_control(&mut self, now: Tick, addr: Addr, size: u64) -> DmaTiming {
        let now = now + self.dma_fault_delay(now);
        let grant = self.io_rx.transfer_priority(now, size);
        let t_bus = grant.finish;
        let lines = lines_touched(addr, size.max(1));
        let first = line_base(addr);
        let dca = self.cfg.dca_enabled;
        let mut done = t_bus;
        for i in 0..lines {
            let line = first + i * CACHE_LINE;
            done = done.max(self.dma_write_line(t_bus, line, dca, true));
        }
        DmaTiming {
            next_issue: t_bus,
            complete: done,
        }
    }

    /// A *control-path* DMA read (descriptor fetch): sources from
    /// LLC/DRAM like [`MemorySystem::dma_read_timed`], but its bus
    /// transfer interleaves with queued bulk traffic instead of waiting
    /// behind it (see [`Bus::transfer_priority`]).
    pub fn dma_read_control(&mut self, now: Tick, addr: Addr, size: u64) -> DmaTiming {
        let now = now + self.dma_fault_delay(now);
        let lines = lines_touched(addr, size.max(1));
        let first = line_base(addr);
        let mut data_ready = now;
        for i in 0..lines {
            let line = first + i * CACHE_LINE;
            if self.llc.lookup(line, AccessClass::Dma, false).is_some() {
                data_ready = data_ready.max(now + self.cfg.llc_latency);
            } else {
                data_ready = data_ready.max(self.dram.access(now, line, false));
            }
        }
        DmaTiming {
            next_issue: data_ready,
            complete: self.io_tx.transfer_priority(data_ready, size).finish,
        }
    }

    /// Like [`MemorySystem::dma_read`] but exposes the pipelining point:
    /// the next transaction's memory fetch may start once this one's data
    /// is ready (the bus transfer is already queued in order).
    pub fn dma_read_timed(&mut self, now: Tick, addr: Addr, size: u64) -> DmaTiming {
        let now = now + self.dma_fault_delay(now);
        let lines = lines_touched(addr, size.max(1));
        let first = line_base(addr);
        let mut data_ready = now;
        for i in 0..lines {
            let line = first + i * CACHE_LINE;
            // DMA reads do not allocate: a hit sources from the LLC (the
            // DCA TX-side benefit), a miss goes to DRAM.
            if self.llc.lookup(line, AccessClass::Dma, false).is_some() {
                data_ready = data_ready.max(now + self.cfg.llc_latency);
            } else {
                data_ready = data_ready.max(self.dram.access(now, line, false));
            }
        }
        DmaTiming {
            next_issue: data_ready,
            complete: self.io_tx.transfer(data_ready, size).finish,
        }
    }
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("cores", &self.cores.len())
            .field("l1d", &self.cores[0].l1d)
            .field("l2", &self.cores[0].l2)
            .field("llc", &self.llc)
            .field("dca", &self.cfg.dca_enabled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;

    fn system() -> MemorySystem {
        MemorySystem::new(MemoryConfig::table1_gem5())
    }

    #[test]
    fn read_walks_down_then_hits_high() {
        let mut mem = system();
        let (_, level) = mem.core_read(0, 0x5000_0000, 8);
        assert_eq!(level, HitLevel::Dram);
        let (_, level) = mem.core_read(1000, 0x5000_0000, 8);
        assert_eq!(level, HitLevel::L1);
    }

    #[test]
    fn latency_ordering_l1_l2_llc_dram() {
        let mut mem = system();
        let (dram, _) = mem.core_read(0, 0x6000_0000, 8);
        let (l1, _) = mem.core_read(0, 0x6000_0000, 8);
        // Evict from L1 by filling its sets, then re-read for an L2 hit.
        // L1D is 64 KiB 4-way -> 256 sets; 0x6000_0000 maps to set 0.
        // Lines at stride 256*64 = 16 KiB share set 0.
        for i in 1..=4u64 {
            mem.core_read(0, 0x6000_0000 + i * 16 * 1024, 8);
        }
        let (l2, level) = mem.core_read(0, 0x6000_0000, 8);
        assert_eq!(level, HitLevel::L2);
        assert!(l1 < l2, "l1 {l1} < l2 {l2}");
        assert!(l2 < dram, "l2 {l2} < dram {dram}");
    }

    #[test]
    fn instruction_and_data_paths_are_separate() {
        let mut mem = system();
        mem.instr_fetch(0, layout::WORKSET_BASE);
        let (_, level) = mem.core_read(0, layout::WORKSET_BASE, 4);
        // Data read finds the line in L2 (filled by the fetch), not L1D.
        assert_eq!(level, HitLevel::L2);
    }

    #[test]
    fn dca_write_lands_in_llc() {
        let mut mem = system();
        let addr = layout::mbuf_addr(0);
        mem.dma_write(0, addr, 1518);
        let (_, level) = mem.core_read(10_000_000, addr, 8);
        assert_eq!(level, HitLevel::Llc);
    }

    #[test]
    fn without_dca_write_lands_in_dram() {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5().without_dca());
        let addr = layout::mbuf_addr(0);
        mem.dma_write(0, addr, 1518);
        let (_, level) = mem.core_read(10_000_000, addr, 8);
        assert_eq!(level, HitLevel::Dram);
    }

    #[test]
    fn dma_write_invalidates_stale_core_copies() {
        let mut mem = system();
        let addr = layout::mbuf_addr(1);
        mem.core_read(0, addr, 8); // cached in L1/L2/LLC
        mem.dma_write(1_000_000, addr, 64);
        // The next core read must not hit a stale L1 copy; with DCA it hits
        // the LLC (fresh DMA data).
        let (_, level) = mem.core_read(2_000_000, addr, 8);
        assert_eq!(level, HitLevel::Llc);
    }

    #[test]
    fn dma_read_prefers_llc_resident_lines() {
        let mut mem = system();
        let addr = layout::mbuf_addr(2);
        mem.dma_write(0, addr, 64); // resident in DCA ways
        let t_hit = mem.dma_read(1_000_000, addr, 64) - 1_000_000;
        let far = layout::mbuf_addr(1000);
        let t_miss = mem.dma_read(2_000_000, far, 64) - 2_000_000;
        assert!(
            t_hit < t_miss,
            "llc-sourced {t_hit} < dram-sourced {t_miss}"
        );
    }

    #[test]
    fn dma_burst_fault_adds_latency_inside_windows() {
        use simnet_sim::fault::{FaultInjector, FaultPlan};
        let plan = FaultPlan::parse("dma.burst=+500ns/1us@10us").unwrap();
        let mut faulty = system();
        faulty.set_fault_injector(FaultInjector::new(plan, 1));
        let mut clean = system();
        let addr = layout::mbuf_addr(0);
        // Inside the burst window (t=0): the faulty system is 500 ns late.
        let f = faulty.dma_write_timed(0, addr, 1518);
        let c = clean.dma_write_timed(0, addr, 1518);
        assert_eq!(f.complete, c.complete + ns(500));
        // Outside the window (t=5 µs): identical timing.
        let t = simnet_sim::tick::us(5);
        let f = faulty.dma_read_timed(t, addr, 1518);
        let c = clean.dma_read_timed(t, addr, 1518);
        assert_eq!(f.complete, c.complete);
    }

    #[test]
    fn dca_forced_miss_sends_write_to_dram() {
        use simnet_sim::fault::{FaultInjector, FaultPlan};
        let plan = FaultPlan::parse("dma.dca_miss=100%").unwrap();
        let mut mem = system();
        let inj = FaultInjector::new(plan, 1);
        mem.set_fault_injector(inj.clone());
        let addr = layout::mbuf_addr(0);
        mem.dma_write(0, addr, 1518);
        let (_, level) = mem.core_read(10_000_000, addr, 8);
        assert_eq!(level, HitLevel::Dram, "forced miss bypasses the LLC");
        assert!(inj.counts().dca_forced_misses > 0);
    }

    #[test]
    fn io_bus_saturates_under_load() {
        let mut mem = system();
        // Issue 100 x 1518B DMA writes at the same instant; the RX bus
        // serializes them.
        let mut done = 0;
        for i in 0..100 {
            done = mem.dma_write(0, layout::mbuf_addr(i), 1518);
        }
        let gbps = simnet_sim::tick::Bandwidth::measured_gbps(1518 * 100, done);
        assert!(gbps < 60.0, "must not exceed raw bus bandwidth: {gbps}");
        assert!(gbps > 30.0, "sanity: {gbps}");
    }

    #[test]
    fn frequency_scales_l1_latency() {
        let mut fast = system();
        fast.set_core_frequency(Frequency::ghz(4.0));
        let mut slow = system();
        slow.set_core_frequency(Frequency::ghz(1.0));
        fast.core_read(0, 0x7000_0000, 8);
        slow.core_read(0, 0x7000_0000, 8);
        let (f, _) = fast.core_read(0, 0x7000_0000, 8);
        let (s, _) = slow.core_read(0, 0x7000_0000, 8);
        assert_eq!(f * 4, s);
    }

    #[test]
    fn straddling_read_fills_both_lines() {
        let mut mem = system();
        mem.core_read(0, 0x9000_0000 + 60, 8); // straddles two lines
        let (_, a) = mem.core_read(0, 0x9000_0000 + 56, 4);
        let (_, b) = mem.core_read(0, 0x9000_0000 + 64, 4);
        assert_eq!(a, HitLevel::L1);
        assert_eq!(b, HitLevel::L1);
    }

    #[test]
    fn register_stats_covers_the_legacy_groups() {
        use simnet_sim::stats::StatsRegistry;
        let mut mem = system();
        mem.core_read(0, 0xA100_0000, 8);
        mem.dma_write(0, layout::mbuf_addr(7), 256);
        let mut reg = StatsRegistry::new();
        mem.register_stats(1_000_000, &mut reg);
        for path in [
            "system.cpu.dcache.overall_misses",
            "system.cpu.l2cache.overall_miss_rate",
            "system.llc.writebacks",
            "system.mem_ctrls.row_hit_rate",
            "system.iobus.rx.utilization",
            "system.iobus.tx.bytes",
        ] {
            assert!(reg.get(path).is_some(), "missing {path}");
        }
    }

    #[test]
    fn per_core_private_caches_are_isolated() {
        let mut mem = system();
        mem.set_num_cores(2);
        let addr = 0xB000_0000;
        mem.set_active_core(0);
        mem.core_read(0, addr, 8); // DRAM fill into core 0's slice + LLC
        mem.set_active_core(1);
        let (_, level) = mem.core_read(1000, addr, 8);
        assert_eq!(level, HitLevel::Llc, "core 1 misses privately, hits LLC");
        let (_, level) = mem.core_read(2000, addr, 8);
        assert_eq!(level, HitLevel::L1);
        mem.verify_inclusion().unwrap();
    }

    #[test]
    fn dma_write_invalidates_every_core() {
        let mut mem = system();
        mem.set_num_cores(2);
        let addr = layout::mbuf_addr(3);
        for c in 0..2 {
            mem.set_active_core(c);
            mem.core_read(0, addr, 8);
        }
        mem.dma_write(1_000_000, addr, 64);
        for c in 0..2 {
            mem.set_active_core(c);
            let (_, level) = mem.core_read(2_000_000, addr, 8);
            assert_eq!(level, HitLevel::Llc, "core {c} stale copy must die");
        }
    }

    #[test]
    fn stats_reset_clears_counters() {
        let mut mem = system();
        mem.core_read(0, 0xA000_0000, 8);
        mem.dma_write(0, layout::mbuf_addr(5), 256);
        assert!(mem.llc_stats().accesses() > 0 || mem.dram_stats().reads.value() > 0);
        mem.reset_stats();
        assert_eq!(mem.l1d_stats().accesses(), 0);
        assert_eq!(mem.dram_stats().reads.value(), 0);
    }
}
