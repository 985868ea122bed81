//! The Linux-kernel-style network stack.
//!
//! This models what §II.A says the kernel path pays and DPDK avoids:
//! "frequent system calls and context switches ... frequent buffer copies
//! within the kernel software stack and between kernel and userspace
//! buffers ... extended latency associated with interrupt processing."
//! Concretely, relative to [`crate::DpdkStack`]:
//!
//! * an interrupt/softirq entry cost per NAPI cycle and a multi-µs wakeup
//!   latency when idle;
//! * thousands of instructions of stack+syscall work per packet;
//! * a kernel→user copy (loads over the packet data, stores over the
//!   user buffer) — the application sees the *copy*, not the mbuf;
//! * pointer-chasing over kernel objects (skb, socket, fdtable) and a
//!   working set well above 1 MiB (§VII.C's iperf cache sensitivity).

use simnet_cpu::{ops, Core, Op};
use simnet_mem::{layout, Addr, MemorySystem};
use simnet_nic::i8254x::{RxCompletion, TxRequest};
use simnet_nic::Nic;
use simnet_sim::tick::us;
use simnet_sim::trace::{Component, Stage, Tracer};
use simnet_sim::Tick;

use crate::app::{AppAction, PacketApp};
use crate::footprint::FootprintStream;
use crate::{Iteration, NetworkStack, StackStats};

/// Instruction-cost parameters of the kernel path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCosts {
    /// Interrupt + softirq entry instructions per NAPI cycle.
    pub irq_entry: u64,
    /// NAPI poll-loop base instructions per cycle.
    pub napi_poll_base: u64,
    /// Driver + netif + IP/UDP + socket-enqueue instructions per packet.
    pub per_packet_stack: u64,
    /// recv/send syscall instructions per packet.
    pub syscall_per_packet: u64,
    /// Kernel data working-set touches per packet.
    pub ws_loads_per_packet: usize,
    /// Kernel pointer-chase touches per packet (skb → socket → ...).
    pub dependent_loads_per_packet: usize,
    /// Kernel instruction-footprint touches per packet.
    pub ifetch_per_packet: usize,
    /// Interrupt delivery + scheduler wakeup latency when idle.
    pub wakeup_latency: Tick,
    /// Interrupt-throttling interval (ITR): the NIC delays interrupt
    /// delivery by up to this long to coalesce packets — trading receive
    /// latency for fewer interrupt entries.
    pub itr: Tick,
}

impl Default for KernelCosts {
    fn default() -> Self {
        Self {
            irq_entry: 1200,
            napi_poll_base: 400,
            per_packet_stack: 5200,
            syscall_per_packet: 1600,
            ws_loads_per_packet: 32,
            dependent_loads_per_packet: 16,
            ifetch_per_packet: 6,
            wakeup_latency: us(2),
            itr: 0,
        }
    }
}

/// Base of the kernel data working set in the address map.
const KERNEL_WS_BASE: Addr = layout::WORKSET_BASE + (16 << 20);
/// Base of the kernel instruction footprint.
const KERNEL_CODE_BASE: Addr = layout::WORKSET_BASE + (24 << 20);
/// Base of the userspace receive buffer the kernel copies into.
const USER_BUF_BASE: Addr = layout::WORKSET_BASE + (32 << 20);
/// Size of the rotating user buffer window.
const USER_BUF_SIZE: u64 = 128 << 10;
/// First mbuf index used for kernel TX skbs.
const KERNEL_TX_MBUF_BASE: usize = 16_384;
/// Kernel TX skb pool size.
const KERNEL_TX_MBUF_COUNT: usize = 4_096;

/// The interrupt-driven kernel stack.
#[derive(Debug)]
pub struct KernelStack {
    budget: usize,
    costs: KernelCosts,
    ws: FootprintStream,
    code: FootprintStream,
    /// Base of this core's user receive-buffer window.
    user_base: Addr,
    user_cursor: u64,
    /// First mbuf index of this core's TX skb pool.
    tx_mbuf_base: usize,
    tx_mbuf_cursor: usize,
    /// NIC queues whose softirq work lands on this core (the RPS/IRQ
    /// affinity set). `[0]` is the single-queue legacy assignment.
    queues: Vec<usize>,
    /// Rejected TX requests tagged with their queue, awaiting retry.
    tx_backlog: Vec<(usize, TxRequest)>,
    /// Reused op-stream buffer (allocation-free steady state).
    ops: Vec<Op>,
    /// Reused RX completion buffer (the softirq un-batch boundary:
    /// whatever arrived as a wire burst is re-walked packet-at-a-time
    /// here, but into a buffer that never reallocates in steady state).
    completions: Vec<RxCompletion>,
    /// Reused per-queue TX staging batches.
    tx_batches: Vec<Vec<TxRequest>>,
    tracer: Tracer,
    stats: StackStats,
}

impl KernelStack {
    /// Creates the stack with paper-calibrated costs and a NAPI budget of
    /// 64 packets.
    pub fn new(seed: u64) -> Self {
        Self::with_costs(KernelCosts::default(), seed)
    }

    /// Creates a stack instance for worker core `lcore`: kernel working
    /// set, code footprint, user buffer, and TX skb pool occupy that
    /// core's private slice of the address map. `for_lcore(seed, 0)` is
    /// exactly `new(seed)`.
    pub fn for_lcore(seed: u64, lcore: usize) -> Self {
        Self::with_costs_for_lcore(KernelCosts::default(), seed, lcore)
    }

    /// Creates the stack with explicit costs.
    pub fn with_costs(costs: KernelCosts, seed: u64) -> Self {
        Self::with_costs_for_lcore(costs, seed, 0)
    }

    /// Creates the stack with explicit costs for a specific core.
    pub fn with_costs_for_lcore(costs: KernelCosts, seed: u64, lcore: usize) -> Self {
        let off = lcore as u64 * (64 << 20);
        Self {
            budget: 64,
            costs,
            // >1 MiB data + ~1.5 MiB code: the kernel working set that
            // keeps rewarding L2 growth past 1 MiB (Fig. 11c).
            ws: FootprintStream::new(KERNEL_WS_BASE + off, 3 << 20, 0.5, seed ^ 0xFEED),
            code: FootprintStream::new(KERNEL_CODE_BASE + off, 1536 << 10, 0.6, seed ^ 0xBEEF),
            user_base: USER_BUF_BASE + off,
            user_cursor: 0,
            tx_mbuf_base: KERNEL_TX_MBUF_BASE + lcore * KERNEL_TX_MBUF_COUNT,
            tx_mbuf_cursor: 0,
            queues: vec![0],
            tx_backlog: Vec::new(),
            ops: Vec::new(),
            completions: Vec::new(),
            tx_batches: Vec::new(),
            tracer: Tracer::disabled(),
            stats: StackStats::default(),
        }
    }

    /// The NAPI poll budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Sets the interrupt-throttling interval (coalescing).
    pub fn set_itr(&mut self, itr: Tick) {
        self.costs.itr = itr;
    }

    fn user_buf(&mut self, len: u64) -> Addr {
        let addr = self.user_base + self.user_cursor;
        self.user_cursor = (self.user_cursor + len.max(64)) % USER_BUF_SIZE;
        addr
    }

    fn tx_mbuf(&mut self) -> usize {
        let idx = self.tx_mbuf_base + self.tx_mbuf_cursor;
        self.tx_mbuf_cursor = (self.tx_mbuf_cursor + 1) % KERNEL_TX_MBUF_COUNT;
        idx
    }
}

impl NetworkStack for KernelStack {
    fn name(&self) -> &'static str {
        "kernel"
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn wakeup_latency(&self) -> Tick {
        self.costs.wakeup_latency + self.costs.itr
    }

    fn assign_queues(&mut self, queues: Vec<usize>) {
        assert!(!queues.is_empty(), "lcore must service at least one queue");
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

impl KernelStack {
    /// One NAPI/syscall cycle; the trait's `iteration` wraps this with
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

        let ring = nic.config().rx_ring_size;
        let tx_ring = nic.config().tx_ring_size;
        let nq = nic.num_queues();
        let total_tx_ring = tx_ring * nq;

        // Retry any TX the ring rejected before taking new work.
        if !self.tx_backlog.is_empty() {
            let backlog = std::mem::take(&mut self.tx_backlog);
            let mut by_queue: Vec<Vec<TxRequest>> = Vec::new();
            by_queue.resize_with(nq, Vec::new);
            for (q, req) in backlog {
                by_queue[q].push(req);
            }
            let mut accepted = 0;
            for (q, reqs) in by_queue.into_iter().enumerate() {
                if reqs.is_empty() {
                    continue;
                }
                let (took, rejected) = nic.tx_submit_q(q, now, reqs);
                accepted += took;
                self.tx_backlog.extend(rejected.into_iter().map(|r| (q, r)));
            }
            ops.push(Op::Compute(300));
            let end = core.execute(now, &ops, mem);
            self.ops = ops;
            return Iteration {
                end,
                rx: 0,
                tx: accepted,
                idle: false,
            };
        }

        let mut completions = std::mem::take(&mut self.completions);
        completions.clear();
        for &q in &self.queues {
            let remaining = self.budget - completions.len();
            if remaining == 0 {
                break;
            }
            nic.rx_poll_q_into(q, now, remaining, &mut completions);
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

        // Client-side originations (sendmsg syscalls from a client app).
        while tx_total < self.budget {
            let Some(packet) = app.poll_tx(now, &mut ops) else {
                break;
            };
            ops.push(Op::Compute(self.costs.syscall_per_packet));
            let mbuf = self.tx_mbuf();
            ops::stores_over(&mut ops, layout::mbuf_addr(mbuf), packet.len() as u64);
            ops.push(Op::Compute(600)); // driver xmit path
            ops.push(Op::Store(layout::tx_desc_addr(
                origin_q * tx_ring + tx_cursors[origin_q],
                total_tx_ring,
            )));
            tx_cursors[origin_q] += 1;
            tx_total += 1;
            self.tracer
                .emit(now, packet.id(), Component::App, Stage::AppTx);
            tx_batches[origin_q].push(TxRequest { packet, mbuf });
        }

        if completions.is_empty() && tx_total == 0 {
            // Idle: the process sleeps in epoll/read until an interrupt.
            app.on_idle(&mut ops);
            ops.push(Op::Compute(50));
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

        ops.push(Op::Compute(self.costs.irq_entry));
        ops.push(Op::Compute(self.costs.napi_poll_base));
        let rx_count = completions.len();
        if rx_count > 0 {
            app.on_burst(rx_count, &mut ops);
        }

        for completion in completions.drain(..) {
            self.tracer
                .emit(now, completion.packet.id(), Component::Stack, Stage::SwRx);
            let len = completion.packet.len() as u64;
            let mbuf_addr = layout::mbuf_addr(completion.slot);
            let rxq = completion.slot / ring;
            rx_counts[rxq] += 1;

            // Driver + protocol stack.
            ops.push(Op::Compute(self.costs.per_packet_stack));
            self.ws.emit_loads(&mut ops, self.costs.ws_loads_per_packet);
            self.ws
                .emit_dependent_loads(&mut ops, self.costs.dependent_loads_per_packet);
            self.code
                .emit_ifetches(&mut ops, self.costs.ifetch_per_packet);

            // Socket delivery + recv syscall: copy kernel -> user.
            ops.push(Op::Compute(self.costs.syscall_per_packet));
            let user = self.user_buf(len);
            ops::loads_over(&mut ops, mbuf_addr, len);
            ops::stores_over(&mut ops, user, len);

            // The application works on the *user-space copy*.
            self.tracer
                .emit(now, completion.packet.id(), Component::App, Stage::AppRx);
            match app.on_packet(completion, user, &mut ops) {
                AppAction::Consume => {}
                AppAction::Forward(packet) | AppAction::Respond(packet) => {
                    // send syscall: copy user -> skb, then driver TX. The
                    // reply leaves on the queue the request arrived on.
                    ops.push(Op::Compute(self.costs.syscall_per_packet));
                    let mbuf = self.tx_mbuf();
                    let out_len = packet.len() as u64;
                    ops::loads_over(&mut ops, user, out_len.min(len.max(64)));
                    ops::stores_over(&mut ops, layout::mbuf_addr(mbuf), out_len);
                    ops.push(Op::Compute(600)); // driver xmit path
                    ops.push(Op::Store(layout::tx_desc_addr(
                        rxq * tx_ring + tx_cursors[rxq],
                        total_tx_ring,
                    )));
                    tx_cursors[rxq] += 1;
                    tx_total += 1;
                    self.tracer
                        .emit(now, packet.id(), Component::App, Stage::AppTx);
                    tx_batches[rxq].push(TxRequest { packet, mbuf });
                }
            }
        }

        let tx_count = tx_total;
        let end = core.execute(now, &ops, mem);
        self.ops = ops;
        self.completions = completions;
        for (q, batch) in tx_batches.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let (_, rejected) = nic.tx_submit_q(q, end, std::mem::take(batch));
            self.tx_backlog.extend(rejected.into_iter().map(|r| (q, r)));
        }
        for &q in &self.queues {
            nic.rx_ring_post_q_at(q, end, rx_counts[q]);
        }
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

    struct Sink;
    impl PacketApp for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }
        fn on_packet(&mut self, _c: RxCompletion, _buf: Addr, ops: &mut Vec<Op>) -> AppAction {
            ops.push(Op::Compute(50));
            AppAction::Consume
        }
    }

    struct Responder;
    impl PacketApp for Responder {
        fn name(&self) -> &'static str {
            "responder"
        }
        fn on_packet(&mut self, c: RxCompletion, _buf: Addr, _ops: &mut Vec<Op>) -> AppAction {
            let mut pkt = c.packet;
            pkt.macswap();
            AppAction::Respond(pkt)
        }
    }

    fn rig() -> (Nic, Core, MemorySystem, KernelStack) {
        (
            Nic::new(NicConfig::paper_default()),
            Core::new(CoreConfig::table1_ooo()),
            MemorySystem::new(MemoryConfig::table1_gem5()),
            KernelStack::new(1),
        )
    }

    fn deliver(nic: &mut Nic, mem: &mut MemorySystem, count: u64, len: usize) -> Tick {
        nic.rx_ring_post(1024);
        for i in 0..count {
            let pkt: Packet = PacketBuilder::new()
                .dst(MacAddr::simulated(1))
                .frame_len(len)
                .build(i);
            assert!(nic.wire_rx(0, pkt).is_none());
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
    fn kernel_per_packet_cost_is_microsecond_scale() {
        let (mut nic, mut core, mut mem, mut stack) = rig();
        let mut app = Sink;
        let ready = deliver(&mut nic, &mut mem, 32, 1518);
        let start = ready + simnet_sim::tick::us(10);
        let it = stack.iteration(start, &mut nic, &mut core, &mut mem, &mut app);
        assert_eq!(it.rx, 32);
        let per_packet = (it.end - start) / 32;
        // ~0.5–2 µs per packet: the ~10 Gbps kernel ceiling of §II.B.
        assert!(
            (300_000..2_500_000).contains(&per_packet),
            "kernel per-packet cost {per_packet} ps"
        );
    }

    #[test]
    fn kernel_is_far_slower_than_dpdk_per_packet() {
        let (mut nic_k, mut core_k, mut mem_k, mut kernel) = rig();
        let mut sink = Sink;
        let ready = deliver(&mut nic_k, &mut mem_k, 32, 256);
        let it_k = kernel.iteration(
            ready + simnet_sim::tick::us(10),
            &mut nic_k,
            &mut core_k,
            &mut mem_k,
            &mut sink,
        );

        let mut nic_d = Nic::new(NicConfig::paper_default());
        let mut core_d = Core::new(CoreConfig::table1_ooo());
        let mut mem_d = MemorySystem::new(MemoryConfig::table1_gem5());
        let mut dpdk = crate::DpdkStack::new(1);
        let ready_d = deliver(&mut nic_d, &mut mem_d, 32, 256);
        let it_d = dpdk.iteration(
            ready_d + simnet_sim::tick::us(10),
            &mut nic_d,
            &mut core_d,
            &mut mem_d,
            &mut sink,
        );

        let k = it_k.end - (ready + simnet_sim::tick::us(10));
        let d = it_d.end - (ready_d + simnet_sim::tick::us(10));
        assert!(k > d * 5, "kernel {k} should dwarf dpdk {d}");
    }

    #[test]
    fn idle_iteration_reports_idle_and_wakeup_latency() {
        let (mut nic, mut core, mut mem, mut stack) = rig();
        let mut app = Sink;
        let it = stack.iteration(0, &mut nic, &mut core, &mut mem, &mut app);
        assert!(it.idle);
        assert_eq!(stack.wakeup_latency(), us(2));
    }

    #[test]
    fn responses_are_submitted_to_tx() {
        let (mut nic, mut core, mut mem, mut stack) = rig();
        let mut app = Responder;
        let ready = deliver(&mut nic, &mut mem, 4, 256);
        let it = stack.iteration(
            ready + simnet_sim::tick::us(10),
            &mut nic,
            &mut core,
            &mut mem,
            &mut app,
        );
        assert_eq!(it.rx, 4);
        assert_eq!(it.tx, 4);
        assert!(nic.tx_dma_needs_kick_q(0));
    }

    #[test]
    fn user_buffer_rotates_within_window() {
        let mut stack = KernelStack::new(0);
        let first = stack.user_buf(1500);
        let mut last = first;
        for _ in 0..200 {
            last = stack.user_buf(1500);
            assert!((USER_BUF_BASE..USER_BUF_BASE + USER_BUF_SIZE).contains(&last));
        }
        assert_ne!(first, last);
    }
}
