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
use simnet_nic::i8254x::TxRequest;
use simnet_nic::Nic;
use simnet_sim::tick::us;
use simnet_sim::trace::{Component, Stage, Tracer};
use simnet_sim::Tick;

use crate::app::{AppAction, PacketApp};
use crate::footprint::FootprintStream;
use crate::queues::QueuePairs;
use crate::{Iteration, NetworkStack, StackStats};

// Instruction costs of the kernel path.

/// Interrupt + softirq entry instructions per NAPI cycle.
const IRQ_ENTRY: u64 = 1200;
/// NAPI poll-loop base instructions per cycle.
const NAPI_POLL_BASE: u64 = 400;
/// Driver + netif + IP/UDP + socket-enqueue instructions per packet.
const PER_PACKET_STACK: u64 = 5200;
/// recv/send syscall instructions per packet.
const SYSCALL_PER_PACKET: u64 = 1600;
/// Driver transmit-path instructions per sent packet.
const DRIVER_XMIT: u64 = 600;
/// Kernel data working-set touches per packet.
const WS_LOADS_PER_PACKET: usize = 32;
/// Kernel pointer-chase touches per packet (skb → socket → ...).
const DEPENDENT_LOADS_PER_PACKET: usize = 16;
/// Kernel instruction-footprint touches per packet.
const IFETCH_PER_PACKET: usize = 6;
/// Interrupt delivery + scheduler wakeup latency when idle.
const WAKEUP_LATENCY: Tick = us(2);
/// The NAPI poll budget: packets per cycle, over all of a core's queues.
const NAPI_BUDGET: usize = 64;

/// Base of the kernel data working set in the address map.
const KERNEL_WS_BASE: Addr = layout::WORKSET_BASE + (16 << 20);
/// Base of the kernel instruction footprint.
const KERNEL_CODE_BASE: Addr = layout::WORKSET_BASE + (24 << 20);
/// Base of the userspace receive buffer the kernel copies into.
const USER_BUF_BASE: Addr = layout::WORKSET_BASE + (32 << 20);
/// Size of the rotating user buffer window.
const USER_BUF_SIZE: u64 = 128 << 10;
/// First TX skb mbuf of core 0.
const TX_MBUF_BASE: usize = 16_384;

/// The interrupt-driven kernel stack.
#[derive(Debug)]
pub struct KernelStack {
    /// Interrupt-throttling interval (ITR): the NIC delays interrupt
    /// delivery by up to this long to coalesce packets — trading receive
    /// latency for fewer interrupt entries.
    itr: Tick,
    ws: FootprintStream,
    code: FootprintStream,
    /// Base of this core's user receive-buffer window.
    user_base: Addr,
    user_cursor: u64,
    /// The queues whose softirq work lands on this core (the RPS/IRQ
    /// affinity set) and its TX skb mbufs.
    queues: QueuePairs,
    tracer: Tracer,
}

impl KernelStack {
    /// Creates the stack with paper-calibrated costs and a NAPI budget of
    /// 64 packets.
    pub fn new(seed: u64) -> Self {
        Self::for_lcore(seed, 0)
    }

    /// Creates a stack instance for worker core `lcore`: kernel working
    /// set, code footprint, user buffer, and TX skb mbufs occupy that
    /// core's private slice of the address map. `for_lcore(seed, 0)` is
    /// exactly `new(seed)`.
    pub fn for_lcore(seed: u64, lcore: usize) -> Self {
        let off = lcore as u64 * (64 << 20);
        Self {
            itr: 0,
            // >1 MiB data + ~1.5 MiB code: the kernel working set that
            // keeps rewarding L2 growth past 1 MiB (Fig. 11c).
            ws: FootprintStream::new(KERNEL_WS_BASE + off, 3 << 20, 0.5, seed ^ 0xFEED),
            code: FootprintStream::new(KERNEL_CODE_BASE + off, 1536 << 10, 0.6, seed ^ 0xBEEF),
            user_base: USER_BUF_BASE + off,
            user_cursor: 0,
            queues: QueuePairs::new(TX_MBUF_BASE, lcore),
            tracer: Tracer::disabled(),
        }
    }

    /// Sets the interrupt-throttling interval (coalescing).
    pub fn set_itr(&mut self, itr: Tick) {
        self.itr = itr;
    }

    fn user_buf(&mut self, len: u64) -> Addr {
        let addr = self.user_base + self.user_cursor;
        self.user_cursor = (self.user_cursor + len.max(64)) % USER_BUF_SIZE;
        addr
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
        WAKEUP_LATENCY + self.itr
    }

    fn assign_queues(&mut self, queues: Vec<usize>) {
        self.queues.assign(queues);
    }

    fn stats(&self) -> Option<&StackStats> {
        Some(&self.queues.stats)
    }

    fn reset_stats(&mut self) {
        self.queues.stats.reset();
    }

    /// One NAPI/syscall cycle.
    fn iteration(
        &mut self,
        now: Tick,
        nic: &mut Nic,
        core: &mut Core,
        mem: &mut MemorySystem,
        app: &mut dyn PacketApp,
    ) -> Iteration {
        // Retry any TX the ring rejected before taking new work.
        if let Some(it) = self.queues.retry_backlog(now, nic, core, mem, 300) {
            return it;
        }

        // One NAPI budget covers all of the core's queues.
        let (mut ops, mut completions) = self.queues.poll(now, nic, NAPI_BUDGET);

        // Client-side originations (sendmsg syscalls from a client app).
        while self.queues.staged() < NAPI_BUDGET {
            let Some(packet) = app.poll_tx(now, &mut ops) else {
                break;
            };
            ops.push(Op::Compute(SYSCALL_PER_PACKET));
            let mbuf = self.queues.tx_mbuf();
            ops::stores_over(&mut ops, layout::mbuf_addr(mbuf), packet.len() as u64);
            ops.push(Op::Compute(DRIVER_XMIT));
            self.tracer
                .emit(now, packet.id(), Component::App, Stage::AppTx);
            self.queues
                .stage_tx(self.queues.first(), TxRequest { packet, mbuf }, &mut ops);
        }

        if completions.is_empty() && self.queues.staged() == 0 {
            // Idle: the process sleeps in epoll/read until an interrupt.
            app.on_idle(&mut ops);
            ops.push(Op::Compute(50));
            return self.queues.finish(now, nic, core, mem, ops, completions);
        }

        ops.push(Op::Compute(IRQ_ENTRY));
        ops.push(Op::Compute(NAPI_POLL_BASE));
        if !completions.is_empty() {
            app.on_burst(completions.len(), &mut ops);
        }

        for completion in completions.drain(..) {
            self.tracer
                .emit(now, completion.packet.id(), Component::Stack, Stage::SwRx);
            let len = completion.packet.len() as u64;
            let mbuf_addr = layout::mbuf_addr(completion.slot);
            let rxq = self.queues.queue_of(&completion);

            // Driver + protocol stack.
            ops.push(Op::Compute(PER_PACKET_STACK));
            self.ws.emit_loads(&mut ops, WS_LOADS_PER_PACKET);
            self.ws
                .emit_dependent_loads(&mut ops, DEPENDENT_LOADS_PER_PACKET);
            self.code.emit_ifetches(&mut ops, IFETCH_PER_PACKET);

            // Socket delivery + recv syscall: copy kernel -> user.
            ops.push(Op::Compute(SYSCALL_PER_PACKET));
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
                    ops.push(Op::Compute(SYSCALL_PER_PACKET));
                    let mbuf = self.queues.tx_mbuf();
                    let out_len = packet.len() as u64;
                    ops::loads_over(&mut ops, user, out_len.min(len.max(64)));
                    ops::stores_over(&mut ops, layout::mbuf_addr(mbuf), out_len);
                    ops.push(Op::Compute(DRIVER_XMIT));
                    self.tracer
                        .emit(now, packet.id(), Component::App, Stage::AppTx);
                    self.queues
                        .stage_tx(rxq, TxRequest { packet, mbuf }, &mut ops);
                }
            }
        }

        self.queues.finish(now, nic, core, mem, ops, completions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{deliver, frames, rig, Responder, Sink};
    use simnet_net::{MacAddr, PacketBuilder};
    use simnet_nic::NicConfig;

    #[test]
    fn kernel_per_packet_cost_is_microsecond_scale() {
        let (mut nic, mut core, mut mem, mut stack) = rig(KernelStack::new(1));
        let mut app = Sink;
        let ready = deliver(&mut nic, &mut mem, frames(32, 1518));
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
        let (mut nic_k, mut core_k, mut mem_k, mut kernel) = rig(KernelStack::new(1));
        let mut sink = Sink;
        let ready = deliver(&mut nic_k, &mut mem_k, frames(32, 256));
        let it_k = kernel.iteration(
            ready + simnet_sim::tick::us(10),
            &mut nic_k,
            &mut core_k,
            &mut mem_k,
            &mut sink,
        );

        let (mut nic_d, mut core_d, mut mem_d, mut dpdk) = rig(crate::DpdkStack::new(1));
        let ready_d = deliver(&mut nic_d, &mut mem_d, frames(32, 256));
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
        let (mut nic, mut core, mut mem, mut stack) = rig(KernelStack::new(1));
        let mut app = Sink;
        let it = stack.iteration(0, &mut nic, &mut core, &mut mem, &mut app);
        assert!(it.idle);
        assert_eq!(stack.wakeup_latency(), us(2));
    }

    #[test]
    fn responses_are_submitted_to_tx() {
        let (mut nic, mut core, mut mem, mut stack) = rig(KernelStack::new(1));
        let mut app = Responder;
        let ready = deliver(&mut nic, &mut mem, frames(4, 256));
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
    fn tx_backlog_blocks_polling() {
        let (_, mut core, mut mem, mut stack) = rig(KernelStack::new(1));
        let mut nic = Nic::new(NicConfig {
            tx_ring_size: 4,
            ..NicConfig::paper_default()
        });
        let mut app = Responder;
        let ready = deliver(&mut nic, &mut mem, frames(16, 256));
        let it = stack.iteration(
            ready + simnet_sim::tick::us(10),
            &mut nic,
            &mut core,
            &mut mem,
            &mut app,
        );
        assert_eq!(it.rx, 16);
        assert!(stack.queues.backlog_len() > 0, "ring of 4 must reject");
        // The next iteration retries TX instead of polling RX.
        let it2 = stack.iteration(it.end, &mut nic, &mut core, &mut mem, &mut app);
        assert_eq!(it2.rx, 0);
        assert!(!it2.idle);
    }

    /// One NAPI budget covers all of a core's queues: with 40 + 20
    /// frames visible on two queues, a 64-packet cycle takes all 60.
    #[test]
    fn napi_budget_spans_the_cores_queues() {
        let (_, mut core, mut mem, mut stack) = rig(KernelStack::new(1));
        let mut nic = Nic::new(NicConfig::paper_default().with_queues(2));
        stack.assign_queues(vec![0, 1]);
        let (client, server) = ([10, 0, 0, 2], [10, 0, 0, 1]);
        let ports = simnet_net::rss::ports_for_queues(client, server, 9, 2);
        let steered = (0..60u64).map(|i| {
            PacketBuilder::new()
                .dst(MacAddr::simulated(1))
                .udp(client, server, ports[usize::from(i >= 40)], 9)
                .frame_len(256)
                .build(i)
        });
        let ready = deliver(&mut nic, &mut mem, steered);
        let it = stack.iteration(ready + us(10), &mut nic, &mut core, &mut mem, &mut Sink);
        assert_eq!(it.rx, 60);
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
