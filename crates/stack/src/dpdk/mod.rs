//! The DPDK-style userspace stack: EAL, mempool, and the polling-mode
//! run-to-completion loop.

mod eal;
mod mempool;

pub use eal::{Eal, EalConfig, EalError};
pub use mempool::Mempool;

use simnet_cpu::{Core, Op};
use simnet_mem::{layout, MemorySystem};
use simnet_nic::i8254x::{RxCompletion, TxRequest};
use simnet_nic::Nic;
use simnet_sim::trace::{Component, Stage, Tracer};
use simnet_sim::Tick;

use crate::app::{AppAction, PacketApp};
use crate::footprint::FootprintStream;
use crate::{Iteration, NetworkStack, StackStats};

/// Instruction-cost parameters of the DPDK fast path (per §II.A: no
/// syscalls, no copies, polling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpdkCosts {
    /// Instructions per `rx_burst` call (loop + PMD entry).
    pub poll_base: u64,
    /// Instructions per received packet (descriptor parse, mbuf init).
    pub per_rx_packet: u64,
    /// Instructions per transmitted packet (descriptor build).
    pub per_tx_packet: u64,
    /// Instructions per TX tail-register flush.
    pub tx_flush: u64,
    /// Data working-set touches per packet.
    pub ws_loads_per_packet: usize,
    /// Instruction-footprint touches per burst.
    pub ifetch_per_burst: usize,
}

impl Default for DpdkCosts {
    fn default() -> Self {
        Self {
            poll_base: 50,
            per_rx_packet: 120,
            per_tx_packet: 80,
            tx_flush: 30,
            ws_loads_per_packet: 4,
            ifetch_per_burst: 4,
        }
    }
}

/// The run-to-completion DPDK stack ("retrieve RX packets through the
/// PMD RX API, process packets on the same logical core, send pending
/// packets through the PMD TX API", §II.A).
#[derive(Debug)]
pub struct DpdkStack {
    burst: usize,
    costs: DpdkCosts,
    mempool: Mempool,
    /// Whether packet buffers sit in pinned huge pages (§II.A lists huge
    /// pages among DPDK's advantages). With 4 KiB pages (`--no-huge`),
    /// every packet buffer touch risks a TLB walk, modeled as dependent
    /// page-table loads per packet.
    hugepages: bool,
    /// Data working set: mbuf metadata, rings, lcore state. Sized so the
    /// total DPDK footprint lands between 256 KiB and 1 MiB (§VII.C).
    ws: FootprintStream,
    /// Instruction footprint.
    code: FootprintStream,
    /// NIC queues this lcore's loop polls (RSS share). `[0]` is the
    /// single-queue legacy assignment.
    queues: Vec<usize>,
    /// Rejected TX requests tagged with their queue, awaiting retry.
    tx_backlog: Vec<(usize, TxRequest)>,
    ops: Vec<Op>,
    /// Reused RX completion buffer (allocation-free steady state).
    completions: Vec<RxCompletion>,
    /// Reused per-queue TX staging batches.
    tx_batches: Vec<Vec<TxRequest>>,
    tracer: Tracer,
    stats: StackStats,
}

impl DpdkStack {
    /// Creates the stack with paper-calibrated costs and a 32-packet burst.
    pub fn new(seed: u64) -> Self {
        Self::with_costs(DpdkCosts::default(), seed)
    }

    /// Creates a stack instance for worker lcore `lcore`: its mempool,
    /// data working set, and instruction footprint occupy that lcore's
    /// private slice of the address map, so per-core cache behaviour is
    /// honest. `for_lcore(seed, 0)` is exactly `new(seed)`.
    pub fn for_lcore(seed: u64, lcore: usize) -> Self {
        Self::with_costs_for_lcore(DpdkCosts::default(), seed, lcore)
    }

    /// Creates the stack with explicit costs.
    pub fn with_costs(costs: DpdkCosts, seed: u64) -> Self {
        Self::with_costs_for_lcore(costs, seed, 0)
    }

    /// Creates the stack with explicit costs for a specific lcore.
    pub fn with_costs_for_lcore(costs: DpdkCosts, seed: u64, lcore: usize) -> Self {
        let off = lcore as u64 * (64 << 20);
        Self {
            burst: 32,
            costs,
            mempool: Mempool::new(8192 + lcore * 4096, 4096),
            ws: FootprintStream::new(layout::WORKSET_BASE + off, 384 << 10, 0.6, seed ^ 0xD9DA),
            code: FootprintStream::new(
                layout::WORKSET_BASE + (8 << 20) + off,
                192 << 10,
                0.7,
                seed ^ 0xC0DE,
            ),
            hugepages: true,
            queues: vec![0],
            tx_backlog: Vec::new(),
            ops: Vec::new(),
            completions: Vec::new(),
            tx_batches: Vec::new(),
            tracer: Tracer::disabled(),
            stats: StackStats::default(),
        }
    }

    /// Disables huge pages (`--no-huge`): packet-buffer accesses pay TLB
    /// walks.
    pub fn without_hugepages(mut self) -> Self {
        self.hugepages = false;
        self
    }

    /// The RX burst size.
    pub fn burst(&self) -> usize {
        self.burst
    }

    /// Packets waiting for TX ring space.
    pub fn tx_backlog_len(&self) -> usize {
        self.tx_backlog.len()
    }
}

impl NetworkStack for DpdkStack {
    fn name(&self) -> &'static str {
        "dpdk"
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn assign_queues(&mut self, queues: Vec<usize>) {
        assert!(!queues.is_empty(), "an lcore needs at least one queue");
        self.queues = queues;
    }

    fn stats(&self) -> Option<&StackStats> {
        Some(&self.stats)
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn iteration(
        &mut self,
        now: Tick,
        nic: &mut Nic,
        core: &mut Core,
        mem: &mut MemorySystem,
        app: &mut dyn PacketApp,
    ) -> Iteration {
        let it = self.run_iteration(now, nic, core, mem, app);
        self.stats.observe(&it);
        it
    }
}

impl DpdkStack {
    /// One poll-loop pass; the trait's `iteration` wraps this with
    /// counter bookkeeping.
    fn run_iteration(
        &mut self,
        now: Tick,
        nic: &mut Nic,
        core: &mut Core,
        mem: &mut MemorySystem,
        app: &mut dyn PacketApp,
    ) -> Iteration {
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();

        let nq = nic.num_queues();
        let ring = nic.config().rx_ring_size;
        let tx_ring = nic.config().tx_ring_size;
        let total_rx_ring = ring * nq;
        let total_tx_ring = tx_ring * nq;

        // If the TX ring rejected packets earlier, the run-to-completion
        // loop spins on tx_burst before polling RX again — this is the
        // stall that backs pressure up into the RX ring (TxDrops).
        if !self.tx_backlog.is_empty() {
            let backlog = std::mem::take(&mut self.tx_backlog);
            let mut batches: Vec<Vec<TxRequest>> = (0..nq).map(|_| Vec::new()).collect();
            for (q, req) in backlog {
                batches[q].push(req);
            }
            let mut accepted = 0;
            for (q, reqs) in batches.into_iter().enumerate() {
                if reqs.is_empty() {
                    continue;
                }
                let (a, rejected) = nic.tx_submit_q(q, now, reqs);
                accepted += a;
                self.tx_backlog.extend(rejected.into_iter().map(|r| (q, r)));
            }
            ops.push(Op::Compute(self.costs.tx_flush + 40));
            let end = core.execute(now, &ops, mem);
            self.ops = ops;
            return Iteration {
                end,
                rx: 0,
                tx: accepted,
                idle: false,
            };
        }

        // rx_burst: poll the next descriptor's DD bit on the lcore's
        // first queue.
        ops.push(Op::Compute(self.costs.poll_base));
        ops.push(Op::Load(layout::rx_desc_addr(
            self.queues[0] * ring,
            total_rx_ring,
        )));

        let mut completions = std::mem::take(&mut self.completions);
        completions.clear();
        for &q in &self.queues {
            nic.rx_poll_q_into(q, now, self.burst, &mut completions);
        }
        let mut tx_batches = std::mem::take(&mut self.tx_batches);
        tx_batches.resize_with(nq, Vec::new);
        for batch in &mut tx_batches {
            batch.clear();
        }
        let mut tx_cursors = [0usize; 8];
        let mut rx_counts = [0usize; 8];
        let mut tx_total = 0usize;
        let origin_q = self.queues[0];

        // Client-side originations (a software load-generator app on a
        // Drive Node, Fig. 1a) share the TX path with responses; they go
        // out on the lcore's first queue.
        while tx_total < self.burst {
            let Some(packet) = app.poll_tx(now, &mut ops) else {
                break;
            };
            let mbuf = self.mempool.alloc_cyclic();
            simnet_cpu::ops::stores_over(&mut ops, layout::mbuf_addr(mbuf), packet.len() as u64);
            ops.push(Op::Compute(self.costs.per_tx_packet));
            ops.push(Op::Store(layout::tx_desc_addr(
                origin_q * tx_ring + tx_cursors[origin_q],
                total_tx_ring,
            )));
            tx_cursors[origin_q] += 1;
            self.tracer
                .emit(now, packet.id(), Component::App, Stage::AppTx);
            tx_batches[origin_q].push(TxRequest { packet, mbuf });
            tx_total += 1;
        }

        if completions.is_empty() && tx_total == 0 {
            app.on_idle(&mut ops);
            self.code.emit_ifetches(&mut ops, 1);
            let end = core.execute(now, &ops, mem);
            self.ops = ops;
            self.completions = completions;
            self.tx_batches = tx_batches;
            return Iteration {
                end,
                rx: 0,
                tx: 0,
                idle: true,
            };
        }

        self.code
            .emit_ifetches(&mut ops, self.costs.ifetch_per_burst);
        let rx_count = completions.len();
        if rx_count > 0 {
            app.on_burst(rx_count, &mut ops);
        }

        for completion in completions.drain(..) {
            let slot = completion.slot;
            // Replies leave on the queue pair the request arrived on.
            let rxq = slot / ring;
            rx_counts[rxq] += 1;
            self.tracer
                .emit(now, completion.packet.id(), Component::Stack, Stage::SwRx);
            let mbuf_addr = layout::mbuf_addr(slot);
            ops.push(Op::Load(layout::rx_desc_addr(slot, total_rx_ring)));
            ops.push(Op::Compute(self.costs.per_rx_packet));
            self.ws.emit_loads(&mut ops, self.costs.ws_loads_per_packet);
            if !self.hugepages {
                // 4 KiB pages: a two-level TLB walk before touching the
                // buffer (page-table lines live in the working-set region).
                let pte = layout::WORKSET_BASE + (12 << 20) + (completion.slot as u64 % 512) * 64;
                ops.push(Op::DependentLoad(pte));
                ops.push(Op::DependentLoad(pte + (4 << 10)));
                ops.push(Op::Compute(30));
            }
            // First line of the packet (the L2 header) comes to the core.
            ops.push(Op::Load(mbuf_addr));

            self.tracer
                .emit(now, completion.packet.id(), Component::App, Stage::AppRx);
            // The completion moves into the app: a forwarding app owns
            // the pooled buffer uniquely and mutates it in place.
            match app.on_packet(completion, mbuf_addr, &mut ops) {
                AppAction::Forward(packet) => {
                    ops.push(Op::Compute(self.costs.per_tx_packet));
                    ops.push(Op::Store(layout::tx_desc_addr(
                        rxq * tx_ring + tx_cursors[rxq],
                        total_tx_ring,
                    )));
                    tx_cursors[rxq] += 1;
                    self.tracer
                        .emit(now, packet.id(), Component::App, Stage::AppTx);
                    tx_batches[rxq].push(TxRequest { packet, mbuf: slot });
                    tx_total += 1;
                }
                AppAction::Respond(packet) => {
                    let mbuf = self.mempool.alloc_cyclic();
                    // The response bytes are written into the TX mbuf.
                    simnet_cpu::ops::stores_over(
                        &mut ops,
                        layout::mbuf_addr(mbuf),
                        packet.len() as u64,
                    );
                    ops.push(Op::Compute(self.costs.per_tx_packet));
                    ops.push(Op::Store(layout::tx_desc_addr(
                        rxq * tx_ring + tx_cursors[rxq],
                        total_tx_ring,
                    )));
                    tx_cursors[rxq] += 1;
                    self.tracer
                        .emit(now, packet.id(), Component::App, Stage::AppTx);
                    tx_batches[rxq].push(TxRequest { packet, mbuf });
                    tx_total += 1;
                }
                AppAction::Consume => {}
            }
        }

        let tx_count = tx_total;
        if tx_count > 0 {
            ops.push(Op::Compute(self.costs.tx_flush));
        }

        let end = core.execute(now, &ops, mem);
        if tx_count > 0 {
            for (q, batch) in tx_batches.iter_mut().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let (_, rejected) = nic.tx_submit_q(q, end, std::mem::take(batch));
                self.tx_backlog.extend(rejected.into_iter().map(|r| (q, r)));
            }
        }
        // Processed mbufs go back to their RX rings when the loop's tail
        // bump retires.
        for &q in &self.queues {
            nic.rx_ring_post_q_at(q, end, rx_counts[q]);
        }
        self.ops = ops;
        self.completions = completions;
        self.tx_batches = tx_batches;
        Iteration {
            end,
            rx: rx_count,
            tx: tx_count,
            idle: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_cpu::CoreConfig;
    use simnet_mem::MemoryConfig;
    use simnet_net::{MacAddr, Packet, PacketBuilder};
    use simnet_nic::i8254x::RxCompletion;
    use simnet_nic::NicConfig;

    struct Echo;
    impl PacketApp for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn on_packet(
            &mut self,
            completion: RxCompletion,
            _mbuf: simnet_mem::Addr,
            ops: &mut Vec<Op>,
        ) -> AppAction {
            ops.push(Op::Compute(10));
            let mut pkt = completion.packet;
            pkt.macswap();
            AppAction::Forward(pkt)
        }
    }

    fn rig() -> (Nic, Core, MemorySystem, DpdkStack) {
        (
            Nic::new(NicConfig::paper_default()),
            Core::new(CoreConfig::table1_ooo()),
            MemorySystem::new(MemoryConfig::table1_gem5()),
            DpdkStack::new(1),
        )
    }

    fn packet(id: u64) -> Packet {
        PacketBuilder::new()
            .dst(MacAddr::simulated(1))
            .src(MacAddr::simulated(2))
            .frame_len(128)
            .build(id)
    }

    fn deliver(nic: &mut Nic, mem: &mut MemorySystem, count: u64) -> Tick {
        nic.rx_ring_post(1024);
        for i in 0..count {
            assert!(nic.wire_rx(0, packet(i)).is_none());
        }
        let mut now = 0;
        if let Some(t) = nic.rx_dma_start_q(0, now, mem) {
            now = t;
        }
        while let Some(t) = nic.rx_dma_advance_q(0, now, mem) {
            now = t.max(now + 1);
        }
        now
    }

    #[test]
    fn empty_poll_is_cheap_and_idle() {
        let (mut nic, mut core, mut mem, mut stack) = rig();
        let mut app = Echo;
        let it = stack.iteration(0, &mut nic, &mut core, &mut mem, &mut app);
        assert!(it.idle);
        assert_eq!(it.rx, 0);
        // An empty poll costs tens of nanoseconds, not microseconds.
        assert!(it.end < 1_000_000, "empty poll took {}", it.end);
    }

    #[test]
    fn burst_is_received_and_forwarded() {
        let (mut nic, mut core, mut mem, mut stack) = rig();
        let mut app = Echo;
        let ready = deliver(&mut nic, &mut mem, 8);
        let it = stack.iteration(
            ready + simnet_sim::tick::us(10),
            &mut nic,
            &mut core,
            &mut mem,
            &mut app,
        );
        assert!(!it.idle);
        assert_eq!(it.rx, 8);
        assert_eq!(it.tx, 8);
        assert!(nic.tx_dma_needs_kick_q(0));
    }

    #[test]
    fn per_packet_cost_is_paper_scale() {
        // TestPMD-like processing should cost roughly 20-40 ns per packet
        // at 3 GHz — that's what makes 64B packets core-bound around
        // 20 Gbps (§VII.B).
        let (mut nic, mut core, mut mem, mut stack) = rig();
        let mut app = Echo;
        let ready = deliver(&mut nic, &mut mem, 32);
        let start = ready + simnet_sim::tick::us(10);
        let it = stack.iteration(start, &mut nic, &mut core, &mut mem, &mut app);
        let per_packet = (it.end - start) / 32;
        assert!(
            // Cold-cache burst; steady state is ~25-40 ns.
            (5_000..95_000).contains(&per_packet),
            "per-packet cost {per_packet} ps"
        );
    }

    #[test]
    fn tx_backlog_blocks_polling() {
        let (_, mut core, mut mem, mut stack) = rig();
        let mut nic = Nic::new(NicConfig {
            tx_ring_size: 4,
            ..NicConfig::paper_default()
        });
        let mut app = Echo;
        let ready = deliver(&mut nic, &mut mem, 16);
        let it = stack.iteration(
            ready + simnet_sim::tick::us(10),
            &mut nic,
            &mut core,
            &mut mem,
            &mut app,
        );
        assert_eq!(it.rx, 16);
        assert!(stack.tx_backlog_len() > 0, "ring of 4 must reject");
        // The next iteration retries TX instead of polling RX.
        let it2 = stack.iteration(it.end, &mut nic, &mut core, &mut mem, &mut app);
        assert_eq!(it2.rx, 0);
        assert!(!it2.idle);
    }

    #[test]
    fn iteration_counters_accumulate_and_reset() {
        let (mut nic, mut core, mut mem, mut stack) = rig();
        let mut app = Echo;
        stack.iteration(0, &mut nic, &mut core, &mut mem, &mut app);
        let ready = deliver(&mut nic, &mut mem, 4);
        stack.iteration(
            ready + simnet_sim::tick::us(10),
            &mut nic,
            &mut core,
            &mut mem,
            &mut app,
        );
        let s = *stack.stats().expect("dpdk maintains counters");
        assert_eq!(s.iterations, 2);
        assert_eq!(s.idle_iterations, 1);
        assert_eq!(s.rx_packets, 4);
        assert_eq!(s.tx_packets, 4);
        assert!((s.idle_fraction() - 0.5).abs() < 1e-12);
        stack.reset_stats();
        assert_eq!(stack.stats().unwrap().iterations, 0);
    }

    #[test]
    fn polling_stack_has_zero_wakeup_latency() {
        let stack = DpdkStack::new(0);
        assert_eq!(stack.wakeup_latency(), 0);
        assert_eq!(stack.name(), "dpdk");
    }
}
