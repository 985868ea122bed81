//! The NIC device: Fig. 3's packet life cycle as a timed state machine.
//!
//! The device is passive: an enclosing node (see `simnet-harness`)
//! delivers wire packets, kicks the DMA engines when their pipelined
//! completions fire, and polls/submits on behalf of software. Every method
//! takes `now` and returns the ticks at which things finish, so the node's
//! event queue carries the schedule.
//!
//! With `NicConfig::num_queues > 1` the device operates N independent
//! RX/TX queue pairs (82574/82599-style multi-queue): arriving flows are
//! steered by the Toeplitz RSS hash ([`simnet_net::rss`]), each queue
//! owns a ring-sized slice of the global descriptor/mbuf index space and
//! a partition of the on-chip FIFOs, and each queue pair has its own DMA
//! engine pipeline. With one queue every method reduces to the exact
//! single-ring i8254x schedule — the differential equivalence suite
//! (`tests/mq_equivalence.rs`) holds this to the byte.

use std::collections::VecDeque;

use simnet_mem::system::DmaTiming;
use simnet_mem::{layout, MemorySystem};
use simnet_net::{rss, MacAddr, Packet};
use simnet_pci::ConfigSpace;
use simnet_sim::fault::{FaultInjector, FaultKind};
use simnet_sim::stats::Counter;
use simnet_sim::trace::{Component, DropClass, Stage, Tracer, NO_PACKET};
use simnet_sim::Tick;

use crate::config::NicConfig;
use crate::drop_fsm::{BufferState, DropFsm};
use crate::fifo::ByteFifo;
use crate::regs::{irq, RegisterFile};

/// Intel's vendor id (the e1000 PMD matches on this).
pub const VENDOR_INTEL: u16 = 0x8086;
/// The 82540EM device id modeled by gem5's i8254xGBe.
pub const DEVICE_82540EM: u16 = 0x100e;

/// A received packet exposed to software after descriptor writeback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxCompletion {
    /// When the descriptor writeback made this packet visible.
    pub visible_at: Tick,
    /// The packet data (now resident in the mbuf).
    pub packet: Packet,
    /// Global RX ring slot / mbuf index holding the data. With multiple
    /// queues this is `queue * rx_ring_size + local_slot`, so the
    /// originating queue is `slot / rx_ring_size`.
    pub slot: usize,
}

/// A TX request: the packet and the mbuf index its bytes live in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRequest {
    /// The frame to transmit.
    pub packet: Packet,
    /// The mbuf index the NIC must DMA-read the payload from.
    pub mbuf: usize,
}

/// A frame arriving from the wire. Admission reads only its id, length
/// and RSS queue; [`RxFrame::build`] runs only for a frame the RX FIFO
/// admits, so a frame whose bytes are not built yet (a synthetic
/// generator's descriptor) is never built if it drops.
pub trait RxFrame {
    /// The packet id.
    fn id(&self) -> u64;
    /// The frame length in bytes.
    fn len(&self) -> usize;
    /// Whether the frame is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The RX queue RSS steers the frame to on an `nqueues`-queue NIC:
    /// [`rss::queue_for`] of the built frame.
    fn queue(&self, nqueues: usize) -> usize;
    /// The frame's bytes.
    fn build(self) -> Packet;
}

impl RxFrame for Packet {
    #[inline]
    fn id(&self) -> u64 {
        Packet::id(self)
    }

    #[inline]
    fn len(&self) -> usize {
        Packet::len(self)
    }

    #[inline]
    fn queue(&self, nqueues: usize) -> usize {
        rss::queue_for(self, nqueues)
    }

    #[inline]
    fn build(self) -> Packet {
        self
    }
}

/// NIC-level counters (aggregated over all queues).
#[derive(Debug, Default)]
pub struct NicStats {
    /// Frames accepted from the wire.
    pub rx_frames: Counter,
    /// Bytes accepted from the wire.
    pub rx_bytes: Counter,
    /// Frames handed to the wire.
    pub tx_frames: Counter,
    /// Bytes handed to the wire.
    pub tx_bytes: Counter,
    /// Descriptor writeback DMA transactions.
    pub desc_writebacks: Counter,
    /// Descriptor-cache replenish DMA transactions.
    pub desc_refills: Counter,
    /// RX engine went idle because the FIFO was empty.
    pub rx_idle_fifo_empty: Counter,
    /// RX engine went idle because no descriptors were available.
    pub rx_idle_no_desc: Counter,
}

/// One RX queue: FIFO partition, descriptor ring slice, DMA pipeline.
#[derive(Debug)]
struct RxQueue {
    fifo: ByteFifo<Packet>,
    /// Descriptors posted by software, not yet prefetched into the cache.
    avail: usize,
    /// Prefetched descriptors, immediately usable by the DMA engine.
    desc_cache: usize,
    /// Next local ring slot the DMA engine will fill.
    next_slot: usize,
    /// In-flight packet DMA: (pipeline-ready tick, data-complete tick,
    /// global slot).
    inflight: Option<(Tick, Tick, usize)>,
    /// Completed packets awaiting descriptor writeback:
    /// (complete, packet, global slot).
    pending_wb: Vec<(Tick, Packet, usize)>,
    /// Written-back packets visible to software.
    visible: VecDeque<RxCompletion>,
    /// Deferred RX descriptor posts: (tick, count).
    posts: VecDeque<(Tick, usize)>,
    /// Frames accepted into this queue.
    frames: Counter,
    /// Bytes accepted into this queue.
    bytes: Counter,
}

impl RxQueue {
    fn new(fifo_bytes: u64) -> Self {
        Self {
            fifo: ByteFifo::new(fifo_bytes),
            avail: 0,
            desc_cache: 0,
            next_slot: 0,
            inflight: None,
            pending_wb: Vec::new(),
            visible: VecDeque::new(),
            posts: VecDeque::new(),
            frames: Counter::new(),
            bytes: Counter::new(),
        }
    }
}

/// One TX queue: submit ring slice, DMA pipeline, FIFO partition.
#[derive(Debug)]
struct TxQueue {
    queue: VecDeque<TxRequest>,
    inflight: Option<Tick>,
    /// Occupied TX ring slots (freed on TX descriptor writeback).
    occupancy: usize,
    /// Pending occupancy releases: (tick, count).
    releases: VecDeque<(Tick, usize)>,
    /// TX completions not yet written back.
    pending_wb: usize,
    /// Next local ring slot.
    next_slot: usize,
    /// Packets whose payload DMA finished, waiting for the wire.
    fifo: ByteFifo<Packet>,
    /// Wire-ready ticks for the packets in `fifo`, in order.
    wire_ready: VecDeque<Tick>,
    /// Frames this queue handed to the wire.
    frames: Counter,
    /// Bytes this queue handed to the wire.
    bytes: Counter,
}

impl TxQueue {
    fn new(fifo_bytes: u64) -> Self {
        Self {
            queue: VecDeque::new(),
            inflight: None,
            occupancy: 0,
            releases: VecDeque::new(),
            pending_wb: 0,
            next_slot: 0,
            fifo: ByteFifo::new(fifo_bytes),
            wire_ready: VecDeque::new(),
            frames: Counter::new(),
            bytes: Counter::new(),
        }
    }
}

/// The simulated NIC.
pub struct Nic {
    cfg: NicConfig,
    regs: RegisterFile,
    pci: ConfigSpace,
    fsm: DropFsm,
    stats: NicStats,
    tracer: Tracer,
    faults: FaultInjector,
    rxq: Vec<RxQueue>,
    txq: Vec<TxQueue>,
}

impl Nic {
    /// Creates a NIC.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration.
    pub fn new(cfg: NicConfig) -> Self {
        cfg.validate();
        let mut regs = RegisterFile::new(cfg.compat);
        let _ = regs.write(crate::regs::offsets::WBTHRESH, cfg.wb_threshold as u32);
        let _ = regs.write(crate::regs::offsets::RDLEN, cfg.rx_ring_size as u32);
        let _ = regs.write(crate::regs::offsets::TDLEN, cfg.tx_ring_size as u32);
        if cfg.num_queues > 1 {
            let _ = regs.write(crate::regs::offsets::MRQC, cfg.num_queues as u32);
        }
        let vendor = if cfg.vendor_id_broken {
            0x0000
        } else {
            VENDOR_INTEL
        };
        // Each queue owns an equal partition of the on-chip FIFOs; one
        // queue gets the whole FIFO, exactly the single-ring device.
        let nq = cfg.num_queues as u64;
        Self {
            regs,
            pci: ConfigSpace::new(vendor, DEVICE_82540EM, cfg.compat),
            fsm: DropFsm::new(),
            stats: NicStats::default(),
            tracer: Tracer::disabled(),
            faults: FaultInjector::disabled(),
            rxq: (0..cfg.num_queues)
                .map(|_| RxQueue::new(cfg.rx_fifo_bytes / nq))
                .collect(),
            txq: (0..cfg.num_queues)
                .map(|_| TxQueue::new(cfg.tx_fifo_bytes / nq))
                .collect(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Number of RX/TX queue pairs.
    pub fn num_queues(&self) -> usize {
        self.cfg.num_queues
    }

    /// Total RX descriptor entries across all queues — the size of the
    /// global slot/mbuf index space.
    fn total_rx_ring(&self) -> usize {
        self.cfg.num_queues * self.cfg.rx_ring_size
    }

    fn total_tx_ring(&self) -> usize {
        self.cfg.num_queues * self.cfg.tx_ring_size
    }

    /// The port's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.cfg.mac
    }

    /// The register file (MMIO).
    pub fn regs_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// Read-only PCI configuration space.
    pub fn pci_config(&self) -> &ConfigSpace {
        &self.pci
    }

    /// The drop-classification FSM and its counters.
    pub fn drop_fsm(&self) -> &DropFsm {
        &self.fsm
    }

    /// Attaches a packet-lifecycle tracer (see `simnet_sim::trace`),
    /// shared with the device's PCI config space.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.pci.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Attaches a fault injector (see `simnet_sim::fault`), shared with
    /// the device's PCI config space.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.pci.set_fault_injector(faults.clone());
        self.faults = faults;
    }

    /// Diagnostic: RX FIFO bytes currently used (all queues).
    pub fn rx_fifo_used(&self) -> u64 {
        self.rxq.iter().map(|q| q.fifo.used()).sum()
    }

    /// Diagnostic: highest per-queue RX FIFO occupancy — the congestion
    /// gauge the interval sampler reports alongside the aggregate.
    pub fn rx_fifo_used_max(&self) -> u64 {
        self.rxq.iter().map(|q| q.fifo.used()).max().unwrap_or(0)
    }

    /// Diagnostic: RX FIFO capacity in bytes (all queues).
    pub fn rx_fifo_capacity(&self) -> u64 {
        self.rxq.iter().map(|q| q.fifo.capacity()).sum()
    }

    /// Diagnostic: occupied TX ring slots (as last settled, all queues).
    pub fn tx_ring_used(&self) -> usize {
        self.txq.iter().map(|q| q.occupancy).sum()
    }

    /// Device counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Clears statistics (post-warm-up).
    pub fn reset_stats(&mut self) {
        self.fsm.reset_stats();
        self.stats = NicStats::default();
        for q in &mut self.rxq {
            q.frames.reset();
            q.bytes.reset();
        }
        for q in &mut self.txq {
            q.frames.reset();
            q.bytes.reset();
        }
    }

    /// Registers the `system.nic.*` statistics section (device counters
    /// plus the Fig. 4 drop-classification counters). With multiple
    /// queues, per-queue `system.nic.rxq<i>.*` / `system.nic.txq<i>.*`
    /// groups follow the aggregate; with one queue the dump is
    /// byte-identical to the single-ring device's.
    pub fn register_stats(&self, reg: &mut simnet_sim::stats::StatsRegistry) {
        let s = &self.stats;
        let fsm = &self.fsm;
        reg.scoped("system.nic", |reg| {
            reg.scalar(
                "rxPackets",
                s.rx_frames.value(),
                "frames accepted from the wire",
            );
            reg.scalar(
                "rxBytes",
                s.rx_bytes.value(),
                "bytes accepted from the wire",
            );
            reg.scalar(
                "txPackets",
                s.tx_frames.value(),
                "frames handed to the wire",
            );
            reg.scalar("txBytes", s.tx_bytes.value(), "bytes handed to the wire");
            reg.scalar(
                "descWritebacks",
                s.desc_writebacks.value(),
                "descriptor writeback DMAs",
            );
            reg.scalar(
                "descRefills",
                s.desc_refills.value(),
                "descriptor cache refills",
            );
            reg.scalar(
                "dmaDrops",
                fsm.dma_drops.value(),
                "drops: DMA engine behind (Fig. 4)",
            );
            reg.scalar(
                "coreDrops",
                fsm.core_drops.value(),
                "drops: core behind (Fig. 4)",
            );
            reg.scalar(
                "txDrops",
                fsm.tx_drops.value(),
                "drops: TX backpressure (Fig. 4)",
            );
            reg.float("dropRate", fsm.drop_rate(), "dropped / observed");
            if reg.full() {
                reg.scalar(
                    "rxIdleFifoEmpty",
                    s.rx_idle_fifo_empty.value(),
                    "RX engine idle: FIFO empty",
                );
                reg.scalar(
                    "rxIdleNoDesc",
                    s.rx_idle_no_desc.value(),
                    "RX engine idle: no descriptors",
                );
                reg.scalar(
                    "rx_fifo_occupancy",
                    self.rx_fifo_used(),
                    "RX FIFO bytes in use at dump time",
                );
                reg.scalar(
                    "rx_fifo_peak",
                    self.rxq
                        .iter()
                        .map(|q| q.fifo.high_watermark())
                        .sum::<u64>(),
                    "highest RX FIFO byte occupancy observed",
                );
            }
        });
        if self.cfg.num_queues > 1 {
            for (i, q) in self.rxq.iter().enumerate() {
                reg.scoped(format!("system.nic.rxq{i}"), |reg| {
                    reg.scalar(
                        "rxPackets",
                        q.frames.value(),
                        "frames steered to this queue",
                    );
                    reg.scalar("rxBytes", q.bytes.value(), "bytes steered to this queue");
                    reg.scalar(
                        "fifo_peak",
                        q.fifo.high_watermark(),
                        "highest FIFO-partition byte occupancy",
                    );
                });
            }
            for (i, q) in self.txq.iter().enumerate() {
                reg.scoped(format!("system.nic.txq{i}"), |reg| {
                    reg.scalar("txPackets", q.frames.value(), "frames sent from this queue");
                    reg.scalar("txBytes", q.bytes.value(), "bytes sent from this queue");
                });
            }
        }
    }

    /// Registers `system.nic.faultDrops` — kept out of
    /// [`Nic::register_stats`] because the legacy dump places it inside
    /// the conditional fault section.
    pub fn register_fault_stats(&self, reg: &mut simnet_sim::stats::StatsRegistry) {
        reg.scalar(
            "system.nic.faultDrops",
            self.fsm.fault_drops.value(),
            "drops caused by injected faults",
        );
    }

    fn settle_q(&mut self, queue: usize, now: Tick) {
        let txq = &mut self.txq[queue];
        while let Some(&(t, n)) = txq.releases.front() {
            if t <= now {
                txq.occupancy = txq.occupancy.saturating_sub(n);
                txq.releases.pop_front();
            } else {
                break;
            }
        }
        let rxq = &mut self.rxq[queue];
        while let Some(&(t, n)) = rxq.posts.front() {
            if t <= now {
                rxq.avail = (rxq.avail + n).min(self.cfg.rx_ring_size);
                rxq.posts.pop_front();
            } else {
                break;
            }
        }
    }

    /// Traces the drop of frame `id` from queue `queue` at `at`, with the
    /// queue's buffer occupancies.
    #[inline]
    fn trace_drop(&self, at: Tick, id: u64, queue: usize, class: DropClass) {
        let rxq = &self.rxq[queue];
        self.tracer.emit(
            at,
            id,
            Component::Nic,
            Stage::Drop {
                class,
                fifo_used: rxq.fifo.used(),
                ring_free: (rxq.avail + rxq.desc_cache) as u32,
                tx_used: self.txq[queue].occupancy as u32,
            },
        );
    }

    fn buffer_state(&self, queue: usize, incoming_len: u64) -> BufferState {
        // The ring counts as full when the free descriptors (posted tail
        // space plus the NIC's cached ones) fall below one replenish
        // batch — the RXDMT0-style low-threshold condition. Software owns
        // everything else (used descriptors awaiting poll), which is
        // exactly the "core is behind" state of §VII.A.
        let rxq = &self.rxq[queue];
        let free = rxq.avail + rxq.desc_cache;
        BufferState {
            rx_fifo_full: !rxq.fifo.fits(incoming_len),
            rx_ring_full: free <= self.cfg.desc_refill_batch,
            tx_ring_full: self.txq[queue].occupancy >= self.cfg.tx_ring_size,
        }
    }

    // ------------------------------------------------------------------
    // RX path
    // ------------------------------------------------------------------

    /// A frame arrives from the wire at `now`, steered to its RSS queue.
    /// Returns `Some(kind)` if it was dropped (RX FIFO overrun),
    /// classified per Fig. 4. The frame is built only once the FIFO
    /// admits it.
    pub fn wire_rx(&mut self, now: Tick, frame: impl RxFrame) -> Option<DropClass> {
        let queue = frame.queue(self.cfg.num_queues);
        self.settle_q(queue, now);
        let id = frame.id();
        let len = frame.len() as u64;
        // Injected link bit error: the frame fails its FCS check at the
        // MAC and is discarded before it can touch any buffer.
        if self.faults.link_bit_error(len * 8) {
            let kind = self.fsm.on_fault_drop();
            self.tracer.emit(
                now,
                id,
                Component::Nic,
                Stage::Fault {
                    kind: FaultKind::LinkBitError,
                    ticks: 0,
                },
            );
            self.trace_drop(now, id, queue, kind);
            return Some(kind);
        }
        let mut observed = self.buffer_state(queue, len);
        // Injected stuck-full window: the FIFO refuses the frame whatever
        // its real occupancy; the Fig. 4 FSM classifies as usual.
        if self.faults.fifo_stuck(now) {
            observed.rx_fifo_full = true;
            self.tracer.emit(
                now,
                id,
                Component::Nic,
                Stage::Fault {
                    kind: FaultKind::FifoStuck,
                    ticks: 0,
                },
            );
        }
        let verdict = self.fsm.on_packet_rx(observed);
        if verdict.is_some() {
            self.regs.raise_cause(irq::RXO);
            if let Some(kind) = verdict {
                self.trace_drop(now, id, queue, kind);
            }
            return verdict;
        }
        self.stats.rx_frames.inc();
        self.stats.rx_bytes.add(len);
        let rxq = &mut self.rxq[queue];
        rxq.frames.inc();
        rxq.bytes.add(len);
        rxq.fifo
            .push(len, frame.build())
            .unwrap_or_else(|_| unreachable!("FSM verified the FIFO fits"));
        let fifo_used = rxq.fifo.used();
        self.tracer
            .emit(now, id, Component::Nic, Stage::FifoEnqueue { fifo_used });
        None
    }

    /// Whether queue `queue`'s RX DMA engine is idle but has work at
    /// `now` (the node should schedule an [`Nic::rx_dma_advance_q`]).
    pub fn rx_dma_needs_kick_q(&mut self, queue: usize, now: Tick) -> bool {
        self.settle_q(queue, now);
        let rxq = &self.rxq[queue];
        rxq.inflight.is_none() && !rxq.fifo.is_empty() && (rxq.desc_cache > 0 || rxq.avail > 0)
    }

    /// Starts DMA for the packet at queue `queue`'s FIFO head, if that
    /// engine is idle and a descriptor is available. Returns the tick at
    /// which the engine pipeline can accept the next packet (schedule
    /// [`Nic::rx_dma_advance_q`] there).
    pub fn rx_dma_start_q(
        &mut self,
        queue: usize,
        now: Tick,
        mem: &mut MemorySystem,
    ) -> Option<Tick> {
        if self.rxq[queue].inflight.is_some() {
            return None;
        }
        let Some((len, head)) = self.rxq[queue].fifo.peek() else {
            self.stats.rx_idle_fifo_empty.inc();
            return None;
        };
        let head_id = head.id();

        self.settle_q(queue, now);
        // A transiently cleared bus-master enable blocks new DMA; the
        // node schedules a retry at the end of the fault window.
        if self.faults.master_cleared(now) {
            self.tracer.emit(
                now,
                NO_PACKET,
                Component::Pci,
                Stage::Fault {
                    kind: FaultKind::PciMasterClear,
                    ticks: 0,
                },
            );
            return None;
        }
        let total_ring = self.total_rx_ring();
        let ring = self.cfg.rx_ring_size;
        let mut t = now;
        // Replenish the descriptor cache if needed (and possible).
        if self.rxq[queue].desc_cache == 0 {
            if self.rxq[queue].avail == 0 {
                self.stats.rx_idle_no_desc.inc();
                return None; // RX ring empty: engine stalls until post
            }
            let n = self.cfg.desc_refill_batch.min(self.rxq[queue].avail);
            let addr = layout::rx_desc_addr(queue * ring + self.rxq[queue].next_slot, total_ring);
            let timing = mem.dma_read_control(t, addr, n as u64 * layout::DESC_SIZE);
            t = timing.complete;
            self.rxq[queue].desc_cache += n;
            self.rxq[queue].avail -= n;
            self.stats.desc_refills.inc();
        }

        let rxq = &mut self.rxq[queue];
        rxq.desc_cache -= 1;
        let slot = queue * ring + rxq.next_slot;
        rxq.next_slot = (rxq.next_slot + 1) % ring;
        let timing: DmaTiming = mem.dma_write_timed(t, layout::mbuf_addr(slot), len);
        self.tracer.emit(
            t,
            head_id,
            Component::Nic,
            Stage::DmaStart {
                slot: slot as u32,
                dca: mem.config().dca_enabled,
            },
        );
        self.rxq[queue].inflight = Some((timing.next_issue, timing.complete, slot));
        Some(timing.next_issue)
    }

    /// Advances queue `queue`'s RX engine at a pipeline-ready tick:
    /// retires the in-flight packet (moving it toward descriptor
    /// writeback) and starts the next one. Returns the next advance tick,
    /// if any.
    pub fn rx_dma_advance_q(
        &mut self,
        queue: usize,
        now: Tick,
        mem: &mut MemorySystem,
    ) -> Option<Tick> {
        if let Some((ready, complete, slot)) = self.rxq[queue].inflight {
            if ready > now {
                return Some(ready);
            }
            let rxq = &mut self.rxq[queue];
            rxq.inflight = None;
            let (_, packet) = rxq.fifo.pop().expect("in-flight packet is FIFO head");
            rxq.pending_wb.push((complete, packet, slot));
            let threshold = self.regs.writeback_threshold();
            if self.rxq[queue].pending_wb.len() >= threshold {
                self.flush_rx_writeback(queue, now, mem);
            }
        }
        let next = self.rx_dma_start_q(queue, now, mem);
        if next.is_none() && !self.rxq[queue].pending_wb.is_empty() {
            // Engine going idle: flush the sub-threshold remainder so the
            // last packets of a burst become visible (RDTR timer ~ 0).
            self.flush_rx_writeback(queue, now, mem);
        }
        next
    }

    fn flush_rx_writeback(&mut self, queue: usize, now: Tick, mem: &mut MemorySystem) {
        if self.rxq[queue].pending_wb.is_empty() {
            return;
        }
        let count = self.rxq[queue].pending_wb.len();
        let first_slot = self.rxq[queue].pending_wb[0].2;
        let addr = layout::rx_desc_addr(first_slot, self.total_rx_ring());
        let data_done = self.rxq[queue]
            .pending_wb
            .iter()
            .map(|&(t, _, _)| t)
            .max()
            .expect("non-empty");
        let timing =
            mem.dma_write_control(now.max(data_done), addr, count as u64 * layout::DESC_SIZE);
        // Injected writeback delay: the whole batch lands late (one roll
        // per writeback transaction).
        let delay = self.faults.wb_delay();
        let visible_at = timing.complete + delay;
        if delay > 0 {
            self.tracer.emit(
                timing.complete,
                NO_PACKET,
                Component::Nic,
                Stage::Fault {
                    kind: FaultKind::WbDelay,
                    ticks: delay,
                },
            );
        }
        for (_, packet, slot) in std::mem::take(&mut self.rxq[queue].pending_wb) {
            // Injected writeback corruption: the descriptor's status bits
            // are garbage, software never sees the frame, and the mbuf
            // leaks until the ring wraps — a classified fault drop.
            if self.faults.wb_corrupt() {
                let kind = self.fsm.on_fault_drop();
                self.tracer.emit(
                    visible_at,
                    packet.id(),
                    Component::Nic,
                    Stage::Fault {
                        kind: FaultKind::WbCorrupt,
                        ticks: 0,
                    },
                );
                self.trace_drop(visible_at, packet.id(), queue, kind);
                continue;
            }
            self.tracer.emit(
                visible_at,
                packet.id(),
                Component::Nic,
                Stage::RingPublish { slot: slot as u32 },
            );
            self.rxq[queue].visible.push_back(RxCompletion {
                visible_at,
                packet,
                slot,
            });
        }
        self.stats.desc_writebacks.inc();
        self.regs.raise_cause(irq::RXT0);
    }

    /// Software posts `count` RX descriptors to *every* queue (tail bump
    /// after freeing mbufs), effective immediately. Returns whether some
    /// RX engine was stalled and should be kicked.
    pub fn rx_ring_post(&mut self, count: usize) -> bool {
        let mut kick = false;
        let ring = self.cfg.rx_ring_size;
        for rxq in &mut self.rxq {
            let was_stalled = rxq.desc_cache == 0 && rxq.avail == 0;
            rxq.avail = (rxq.avail + count).min(ring);
            kick |= was_stalled && !rxq.fifo.is_empty();
        }
        kick
    }

    /// Software posts `count` RX descriptors to queue `queue` effective
    /// at tick `at` — the stack calls this with the tick its loop
    /// iteration *finishes*, so the tail bump lands when the store
    /// actually retires, not when the iteration was scheduled.
    pub fn rx_ring_post_q_at(&mut self, queue: usize, at: Tick, count: usize) {
        if count > 0 {
            self.rxq[queue].posts.push_back((at, count));
        }
    }

    /// Diagnostic: descriptors currently available to the DMA engines
    /// (all queues).
    pub fn rx_descriptors_available(&self) -> usize {
        self.rxq.iter().map(|q| q.avail + q.desc_cache).sum()
    }

    /// Diagnostic: packets written back and awaiting software poll (all
    /// queues).
    pub fn rx_visible_len(&self) -> usize {
        self.rxq.iter().map(|q| q.visible.len()).sum()
    }

    /// Diagnostic: deepest per-queue unpolled backlog.
    pub fn rx_visible_len_max(&self) -> usize {
        self.rxq.iter().map(|q| q.visible.len()).max().unwrap_or(0)
    }

    /// Tick at which the oldest written-back packet on queue `queue`
    /// became (or becomes) visible to software, if any — lets an idle
    /// poll loop sleep until there is work instead of simulating every
    /// empty spin.
    pub fn rx_next_visible_at_q(&self, queue: usize) -> Option<Tick> {
        self.rxq[queue].visible.front().map(|c| c.visible_at)
    }

    /// Polls queue `queue` into a caller-owned buffer: appends up to
    /// `max - out.len()` completions, reusing the caller's allocation —
    /// the form the stacks' steady-state loops use, so a descriptor
    /// drain costs no host allocation per poll.
    pub fn rx_poll_q_into(
        &mut self,
        queue: usize,
        now: Tick,
        max: usize,
        out: &mut Vec<RxCompletion>,
    ) {
        let visible = &mut self.rxq[queue].visible;
        while out.len() < max {
            match visible.front() {
                Some(c) if c.visible_at <= now => {
                    out.push(visible.pop_front().expect("front exists"));
                }
                _ => break,
            }
        }
    }

    // ------------------------------------------------------------------
    // TX path
    // ------------------------------------------------------------------

    /// Software submits TX requests to queue `queue` (tail bump). The
    /// prefix that fits the free ring slots moves into the ring; the
    /// requests beyond it stay in `requests`, in order, for the caller to
    /// retry (the backpressure that produces TxDrops). The batch keeps
    /// its capacity, so a reused staging buffer costs no allocation per
    /// submit. Returns how many the ring accepted.
    pub fn tx_submit_q(&mut self, queue: usize, now: Tick, requests: &mut Vec<TxRequest>) -> usize {
        self.settle_q(queue, now);
        let txq = &mut self.txq[queue];
        let take = (self.cfg.tx_ring_size - txq.occupancy).min(requests.len());
        txq.occupancy += take;
        for req in requests.drain(..take) {
            self.tracer
                .emit(now, req.packet.id(), Component::Nic, Stage::TxQueue);
            txq.queue.push_back(req);
        }
        take
    }

    /// Whether queue `queue`'s TX DMA engine is idle but has work.
    pub fn tx_dma_needs_kick_q(&self, queue: usize) -> bool {
        self.txq[queue].inflight.is_none() && !self.txq[queue].queue.is_empty()
    }

    /// Advances queue `queue`'s TX engine: fetches the next queued
    /// packet's descriptor and payload from memory, parking the frame in
    /// the TX FIFO. Returns the pipeline-ready tick at which to call this
    /// again, or `None` when the engine idles (empty queue or full FIFO).
    ///
    /// Frames become wire-ready at their payload-completion ticks; drain
    /// them with [`Nic::tx_take_wire_packet`].
    pub fn tx_dma_advance_q(
        &mut self,
        queue: usize,
        now: Tick,
        mem: &mut MemorySystem,
    ) -> Option<Tick> {
        if let Some(ready) = self.txq[queue].inflight {
            if ready > now {
                return Some(ready);
            }
            self.txq[queue].inflight = None;
        }

        let head_len = self.txq[queue]
            .queue
            .front()
            .map(|r| r.packet.len() as u64)?;
        if !self.txq[queue].fifo.fits(head_len) {
            // Wire is behind; the node re-kicks after draining the FIFO.
            return None;
        }
        if self.faults.master_cleared(now) {
            self.tracer.emit(
                now,
                NO_PACKET,
                Component::Pci,
                Stage::Fault {
                    kind: FaultKind::PciMasterClear,
                    ticks: 0,
                },
            );
            return None;
        }
        let total_ring = self.total_tx_ring();
        let ring = self.cfg.tx_ring_size;
        let txq = &mut self.txq[queue];
        let req = txq.queue.pop_front().expect("head exists");

        // Fetch the TX descriptor, then the payload.
        let slot = queue * ring + txq.next_slot;
        txq.next_slot = (txq.next_slot + 1) % ring;
        let desc = mem.dma_read_control(
            now,
            layout::tx_desc_addr(slot, total_ring),
            layout::DESC_SIZE,
        );
        let payload = mem.dma_read_timed(desc.next_issue, layout::mbuf_addr(req.mbuf), head_len);

        self.tracer.emit(
            payload.complete,
            req.packet.id(),
            Component::Nic,
            Stage::TxFifo,
        );
        let txq = &mut self.txq[queue];
        txq.fifo
            .push(head_len, req.packet)
            .unwrap_or_else(|_| unreachable!("fits checked above"));
        txq.wire_ready.push_back(payload.complete);

        // TX descriptor writeback, batched like RX; ring slots free when
        // the writeback lands.
        txq.pending_wb += 1;
        let threshold = self.regs.writeback_threshold();
        if self.txq[queue].pending_wb >= threshold || self.txq[queue].queue.is_empty() {
            let n = self.txq[queue].pending_wb;
            let wb = mem.dma_write_control(
                payload.complete,
                layout::tx_desc_addr(slot, total_ring),
                n as u64 * layout::DESC_SIZE,
            );
            self.txq[queue].releases.push_back((wb.complete, n));
            self.txq[queue].pending_wb = 0;
            self.stats.desc_writebacks.inc();
            self.regs.raise_cause(irq::TXDW);
        }

        self.txq[queue].inflight = Some(payload.next_issue);
        Some(payload.next_issue)
    }

    /// Takes the next packet ready for the wire at or before `now`,
    /// arbitrating across queues: the earliest-ready head wins, ties to
    /// the lowest queue index (round-robin-free, deterministic). The node
    /// serializes it on the link and calls `tx_take_wire_packet` again
    /// when the wire accepts more.
    pub fn tx_take_wire_packet(&mut self, now: Tick) -> Option<(Tick, Packet)> {
        let mut best: Option<(Tick, usize)> = None;
        for (q, txq) in self.txq.iter().enumerate() {
            if let Some(&ready) = txq.wire_ready.front() {
                if ready <= now && best.is_none_or(|(b, _)| ready < b) {
                    best = Some((ready, q));
                }
            }
        }
        let (ready, q) = best?;
        let txq = &mut self.txq[q];
        txq.wire_ready.pop_front();
        let (len, packet) = txq.fifo.pop()?;
        txq.frames.inc();
        txq.bytes.add(len);
        self.stats.tx_frames.inc();
        self.stats.tx_bytes.add(len);
        self.tracer
            .emit(ready, packet.id(), Component::Nic, Stage::TxWire);
        Some((ready, packet))
    }

    /// Earliest tick at which a TX packet becomes wire-ready (any queue).
    pub fn tx_next_wire_ready(&self) -> Option<Tick> {
        self.txq
            .iter()
            .filter_map(|q| q.wire_ready.front().copied())
            .min()
    }
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("mac", &self.cfg.mac)
            .field("queues", &self.cfg.num_queues)
            .field("rx_fifo_used", &self.rx_fifo_used())
            .field("rx_avail", &self.rxq.iter().map(|q| q.avail).sum::<usize>())
            .field(
                "desc_cache",
                &self.rxq.iter().map(|q| q.desc_cache).sum::<usize>(),
            )
            .field("tx_occupancy", &self.tx_ring_used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_mem::MemoryConfig;
    use simnet_net::PacketBuilder;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemoryConfig::table1_gem5())
    }

    fn nic() -> Nic {
        Nic::new(NicConfig::paper_default())
    }

    fn packet(id: u64, len: usize) -> Packet {
        PacketBuilder::new()
            .dst(MacAddr::simulated(1))
            .src(MacAddr::simulated(99))
            .frame_len(len)
            .build(id)
    }

    /// Polls up to `max` completions visible at `now` from queue 0.
    fn poll(n: &mut Nic, now: Tick, max: usize) -> Vec<RxCompletion> {
        let mut out = Vec::new();
        n.rx_poll_q_into(0, now, max, &mut out);
        out
    }

    /// `count` 64-byte TX requests with ids and mbufs from `first`.
    fn tx_requests(first: u64, count: u64) -> Vec<TxRequest> {
        (first..first + count)
            .map(|i| TxRequest {
                packet: packet(i, 64),
                mbuf: i as usize,
            })
            .collect()
    }

    /// A UDP frame whose source port steers it to `queue` of `nq`.
    fn steered_packet(id: u64, queue: usize, nq: usize) -> Packet {
        let ports = rss::ports_for_queues([10, 0, 0, 2], [10, 0, 0, 1], 11_211, nq);
        PacketBuilder::new()
            .dst(MacAddr::simulated(1))
            .src(MacAddr::simulated(99))
            .udp([10, 0, 0, 2], [10, 0, 0, 1], ports[queue], 11_211)
            .frame_len(128)
            .build(id)
    }

    /// Drives one queue's RX engine until idle, like the node's event
    /// loop.
    fn pump_rx_q(nic: &mut Nic, queue: usize, mut now: Tick, mem: &mut MemorySystem) -> Tick {
        if let Some(t) = nic.rx_dma_start_q(queue, now, mem) {
            now = t;
        }
        while let Some(t) = nic.rx_dma_advance_q(queue, now, mem) {
            now = t.max(now + 1);
        }
        now
    }

    #[test]
    fn rx_packet_becomes_visible_after_dma_and_writeback() {
        let mut m = mem();
        let mut n = nic();
        n.rx_ring_post(1024);
        assert!(n.wire_rx(0, packet(1, 256)).is_none());
        assert!(n.rx_dma_needs_kick_q(0, 0));
        let end = pump_rx_q(&mut n, 0, 0, &mut m);
        let got = poll(&mut n, end + 1_000_000, 32);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].packet.id(), 1);
        assert!(got[0].visible_at > 0, "DMA + writeback take time");
    }

    #[test]
    fn packets_invisible_before_writeback_tick() {
        let mut m = mem();
        let mut n = nic();
        n.rx_ring_post(1024);
        n.wire_rx(0, packet(1, 256));
        pump_rx_q(&mut n, 0, 0, &mut m);
        assert_eq!(poll(&mut n, 0, 32), vec![]);
    }

    #[test]
    fn no_descriptors_means_no_dma() {
        let mut m = mem();
        let mut n = nic();
        // No rx_ring_post: ring is empty.
        n.wire_rx(0, packet(1, 64));
        assert!(!n.rx_dma_needs_kick_q(0, 0));
        assert_eq!(n.rx_dma_start_q(0, 0, &mut m), None);
        // Posting descriptors reports the stall so the node can kick.
        assert!(n.rx_ring_post(64));
    }

    #[test]
    fn fifo_overrun_drops_are_classified_dma_when_ring_has_room() {
        let mut n = nic();
        n.rx_ring_post(1024);
        // Fill the FIFO without ever running the DMA engine.
        let fifo_cap = n.config().rx_fifo_bytes;
        let mut sent = 0u64;
        let mut dropped = None;
        let mut id = 0;
        while dropped.is_none() {
            id += 1;
            dropped = n.wire_rx(0, packet(id, 1518));
            sent += 1;
            assert!(sent < 1_000, "must eventually drop");
        }
        assert_eq!(dropped, Some(DropClass::Dma));
        assert!(sent > fifo_cap / 1518);
        assert_eq!(n.drop_fsm().dma_drops.value(), 1);
    }

    #[test]
    fn fifo_overrun_with_empty_ring_is_core_drop() {
        let mut n = nic();
        // Ring never posted: rx_ring_full. Fill the FIFO.
        let mut dropped = None;
        let mut id = 0;
        while dropped.is_none() {
            id += 1;
            dropped = n.wire_rx(0, packet(id, 1518));
        }
        assert_eq!(dropped, Some(DropClass::Core));
    }

    #[test]
    fn writeback_threshold_batches_visibility() {
        let mut m = mem();
        let mut n = Nic::new(NicConfig::paper_default().with_wb_threshold(8));
        n.rx_ring_post(1024);
        for i in 0..8 {
            n.wire_rx(0, packet(i, 64));
        }
        pump_rx_q(&mut n, 0, 0, &mut m);
        let got = poll(&mut n, simnet_sim::tick::ms(1), 32);
        assert_eq!(got.len(), 8);
        // All eight became visible at the same writeback tick.
        let t0 = got[0].visible_at;
        assert!(got.iter().all(|c| c.visible_at == t0));
        assert_eq!(n.stats().desc_writebacks.value(), 1);
    }

    #[test]
    fn small_threshold_writes_back_incrementally() {
        let mut m = mem();
        let mut n = Nic::new(NicConfig::paper_default().with_wb_threshold(1));
        n.rx_ring_post(1024);
        for i in 0..4 {
            n.wire_rx(0, packet(i, 64));
        }
        pump_rx_q(&mut n, 0, 0, &mut m);
        assert!(n.stats().desc_writebacks.value() >= 4);
    }

    #[test]
    fn tx_round_trip_produces_wire_packet() {
        let mut m = mem();
        let mut n = nic();
        let req = TxRequest {
            packet: packet(7, 512),
            mbuf: 3,
        };
        let mut batch = vec![req];
        assert_eq!(n.tx_submit_q(0, 0, &mut batch), 1);
        assert!(batch.is_empty());
        assert!(n.tx_dma_needs_kick_q(0));
        let mut now = 0;
        while let Some(t) = n.tx_dma_advance_q(0, now, &mut m) {
            now = t.max(now + 1);
        }
        let ready = n.tx_next_wire_ready().expect("one packet pending");
        let (at, pkt) = n.tx_take_wire_packet(ready).expect("wire-ready");
        assert_eq!(pkt.id(), 7);
        assert_eq!(at, ready);
        assert_eq!(n.stats().tx_frames.value(), 1);
        assert_eq!(n.stats().tx_bytes.value(), 512);
    }

    #[test]
    fn tx_ring_backpressure_rejects_excess() {
        let mut n = Nic::new(NicConfig {
            tx_ring_size: 4,
            ..NicConfig::paper_default()
        });
        let mut batch = Vec::with_capacity(8);
        batch.extend(tx_requests(0, 6));
        let capacity = batch.capacity();
        // The accepted prefix enters the ring; the rejects stay behind
        // in order, in the caller's buffer, which keeps its capacity.
        assert_eq!(n.tx_submit_q(0, 0, &mut batch), 4);
        assert_eq!(batch, tx_requests(4, 2));
        assert_eq!(batch.capacity(), capacity);
        assert_eq!(n.tx_ring_used(), 4);
        // The ring stays full: a retry is turned away whole.
        assert_eq!(n.tx_submit_q(0, 0, &mut batch), 0);
        assert_eq!(batch, tx_requests(4, 2));
        assert_eq!(batch.capacity(), capacity);
    }

    #[test]
    fn tx_slots_free_after_writeback() {
        let mut m = mem();
        let mut n = Nic::new(NicConfig {
            tx_ring_size: 4,
            ..NicConfig::paper_default()
        });
        n.tx_submit_q(0, 0, &mut tx_requests(0, 4));
        let mut now = 0;
        while let Some(t) = n.tx_dma_advance_q(0, now, &mut m) {
            now = t.max(now + 1);
        }
        // After enough time the writeback lands and all four slots take
        // new requests again.
        let mut batch = tx_requests(4, 5);
        let accepted = n.tx_submit_q(0, simnet_sim::tick::ms(10), &mut batch);
        assert_eq!((accepted, batch.len()), (4, 1));
    }

    #[test]
    fn dca_makes_dma_data_llc_resident() {
        let mut m = mem();
        let mut n = nic();
        n.rx_ring_post(1024);
        n.wire_rx(0, packet(1, 1518));
        pump_rx_q(&mut n, 0, 0, &mut m);
        let got = poll(&mut n, simnet_sim::tick::ms(1), 1);
        let addr = layout::mbuf_addr(got[0].slot);
        let (_, level) = m.core_read(simnet_sim::tick::ms(2), addr, 8);
        assert_eq!(level, simnet_mem::HitLevel::Llc);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut m = mem();
        let mut n = nic();
        n.rx_ring_post(1024);
        n.wire_rx(0, packet(1, 64));
        pump_rx_q(&mut n, 0, 0, &mut m);
        n.reset_stats();
        assert_eq!(n.stats().rx_frames.value(), 0);
        assert_eq!(n.drop_fsm().total_drops(), 0);
    }

    #[test]
    fn pci_identity_reflects_vendor_quirk() {
        // gem5-faithful default: the vendor ID reads back wrong (§III.B).
        let n = nic();
        assert_eq!(n.pci_config().vendor_id(), 0x0000);
        assert_eq!(n.pci_config().device_id(), DEVICE_82540EM);
        // With the quirk disabled, the NIC identifies as an Intel e1000.
        let fixed = Nic::new(NicConfig {
            vendor_id_broken: false,
            ..NicConfig::paper_default()
        });
        assert_eq!(fixed.pci_config().vendor_id(), VENDOR_INTEL);
    }

    // --------------------------------------------------------------
    // Multi-queue behaviour
    // --------------------------------------------------------------

    #[test]
    fn rss_spreads_flows_and_slots_stay_disjoint() {
        let mut m = mem();
        let nq = 4;
        let mut n = Nic::new(NicConfig::paper_default().with_queues(nq));
        n.rx_ring_post(1024);
        for q in 0..nq {
            for i in 0..3u64 {
                assert!(n
                    .wire_rx(0, steered_packet(q as u64 * 10 + i, q, nq))
                    .is_none());
            }
        }
        let mut end = 0;
        for q in 0..nq {
            end = pump_rx_q(&mut n, q, end, &mut m);
        }
        let horizon = end + simnet_sim::tick::ms(1);
        let mut seen = std::collections::HashSet::new();
        for q in 0..nq {
            let mut got = Vec::new();
            n.rx_poll_q_into(q, horizon, 32, &mut got);
            assert_eq!(got.len(), 3, "queue {q} must hold its 3 steered frames");
            for c in &got {
                // Global slots are the queue's ring slice — disjoint by
                // construction, and the queue is recoverable.
                assert_eq!(c.slot / n.config().rx_ring_size, q);
                assert!(seen.insert(c.slot), "slot {} reused across queues", c.slot);
            }
        }
    }

    #[test]
    fn non_udp_traffic_lands_on_queue_zero_only() {
        let mut n = Nic::new(NicConfig::paper_default().with_queues(4));
        n.rx_ring_post(1024);
        for i in 0..8 {
            n.wire_rx(0, packet(i, 256));
        }
        assert_eq!(n.rx_fifo_used_max(), n.rx_fifo_used());
        assert!(n.rx_dma_needs_kick_q(0, 0));
        for q in 1..4 {
            assert!(!n.rx_dma_needs_kick_q(q, 0));
        }
    }

    #[test]
    fn per_queue_fifo_partition_limits_each_queue() {
        let n = Nic::new(NicConfig::paper_default().with_queues(4));
        assert_eq!(
            n.rx_fifo_capacity(),
            NicConfig::paper_default().rx_fifo_bytes
        );
        // One partition is a quarter of the device FIFO.
        assert_eq!(
            n.rxq[0].fifo.capacity(),
            NicConfig::paper_default().rx_fifo_bytes / 4
        );
    }

    #[test]
    fn tx_wire_arbitration_takes_earliest_ready_lowest_queue() {
        let mut m = mem();
        let mut n = Nic::new(NicConfig::paper_default().with_queues(2));
        // Submit to queue 1 first, then queue 0: both DMA at the same
        // ticks, so the tie must break to queue 0... but queue 1's DMA
        // was issued first, so it is ready strictly earlier. Assert the
        // earliest-ready packet wins regardless of queue order.
        n.tx_submit_q(
            1,
            0,
            &mut vec![TxRequest {
                packet: packet(11, 256),
                mbuf: 11,
            }],
        );
        let mut now = 0;
        while let Some(t) = n.tx_dma_advance_q(1, now, &mut m) {
            now = t.max(now + 1);
        }
        n.tx_submit_q(
            0,
            now,
            &mut vec![TxRequest {
                packet: packet(10, 256),
                mbuf: 10,
            }],
        );
        let mut t2 = now;
        while let Some(t) = n.tx_dma_advance_q(0, t2, &mut m) {
            t2 = t.max(t2 + 1);
        }
        let horizon = simnet_sim::tick::ms(10);
        let (_, first) = n.tx_take_wire_packet(horizon).unwrap();
        let (_, second) = n.tx_take_wire_packet(horizon).unwrap();
        assert_eq!(first.id(), 11, "queue 1 finished DMA first");
        assert_eq!(second.id(), 10);
        assert_eq!(n.tx_take_wire_packet(horizon), None);
    }

    #[test]
    fn per_queue_stats_register_only_with_multiple_queues() {
        use simnet_sim::stats::{DumpLevel, StatsRegistry};
        let single = nic();
        let mut reg = StatsRegistry::with_level(DumpLevel::Full);
        single.register_stats(&mut reg);
        let text = reg.render_gem5();
        assert!(!text.contains("rxq0"), "single queue must not add groups");

        let multi = Nic::new(NicConfig::paper_default().with_queues(2));
        let mut reg = StatsRegistry::with_level(DumpLevel::Full);
        multi.register_stats(&mut reg);
        let text = reg.render_gem5();
        for needle in [
            "system.nic.rxq0.rxPackets",
            "system.nic.rxq1.rxBytes",
            "system.nic.txq0.txPackets",
            "system.nic.txq1.txBytes",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
