//! The DPDK-style userspace stack: EAL and the polling-mode
//! run-to-completion loop.

mod eal;

pub use eal::{Eal, EalConfig, EalError};

use simnet_cpu::{Core, Op};
use simnet_mem::{layout, MemorySystem};
use simnet_nic::i8254x::TxRequest;
use simnet_nic::Nic;
use simnet_sim::trace::{Component, Stage, Tracer};
use simnet_sim::Tick;

use crate::app::{AppAction, PacketApp};
use crate::footprint::FootprintStream;
use crate::queues::QueuePairs;
use crate::{Iteration, NetworkStack, StackStats};

// Instruction costs of the DPDK fast path (per §II.A: no syscalls, no
// copies, polling).

/// Instructions per `rx_burst` call (loop + PMD entry).
const POLL_BASE: u64 = 50;
/// Instructions per received packet (descriptor parse, mbuf init).
const PER_RX_PACKET: u64 = 120;
/// Instructions per transmitted packet (descriptor build).
const PER_TX_PACKET: u64 = 80;
/// Instructions per TX tail-register flush.
const TX_FLUSH: u64 = 30;
/// Data working-set touches per packet.
const WS_LOADS_PER_PACKET: usize = 4;
/// Instruction-footprint touches per burst.
const IFETCH_PER_BURST: usize = 4;
/// Packets per `rx_burst`, over all of an lcore's queues.
const BURST: usize = 32;
/// First TX mbuf of lcore 0, above the RX rings' slot-mapped mbufs.
const TX_MBUF_BASE: usize = 8192;

/// The run-to-completion DPDK stack ("retrieve RX packets through the
/// PMD RX API, process packets on the same logical core, send pending
/// packets through the PMD TX API", §II.A).
#[derive(Debug)]
pub struct DpdkStack {
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
    /// The lcore's RX/TX queues and TX mbufs.
    queues: QueuePairs,
    tracer: Tracer,
}

impl DpdkStack {
    /// Creates the stack with paper-calibrated costs and a 32-packet burst.
    pub fn new(seed: u64) -> Self {
        Self::for_lcore(seed, 0)
    }

    /// Creates a stack instance for worker lcore `lcore`: its TX mbufs,
    /// data working set, and instruction footprint occupy that lcore's
    /// private slice of the address map, so per-core cache behaviour is
    /// honest. `for_lcore(seed, 0)` is exactly `new(seed)`.
    pub fn for_lcore(seed: u64, lcore: usize) -> Self {
        let off = lcore as u64 * (64 << 20);
        Self {
            hugepages: true,
            ws: FootprintStream::new(layout::WORKSET_BASE + off, 384 << 10, 0.6, seed ^ 0xD9DA),
            code: FootprintStream::new(
                layout::WORKSET_BASE + (8 << 20) + off,
                192 << 10,
                0.7,
                seed ^ 0xC0DE,
            ),
            queues: QueuePairs::new(TX_MBUF_BASE, lcore),
            tracer: Tracer::disabled(),
        }
    }

    /// Disables huge pages (`--no-huge`): packet-buffer accesses pay TLB
    /// walks.
    pub fn without_hugepages(mut self) -> Self {
        self.hugepages = false;
        self
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
        self.queues.assign(queues);
    }

    fn stats(&self) -> Option<&StackStats> {
        Some(&self.queues.stats)
    }

    fn reset_stats(&mut self) {
        self.queues.stats.reset();
    }

    /// One poll-loop pass.
    fn iteration(
        &mut self,
        now: Tick,
        nic: &mut Nic,
        core: &mut Core,
        mem: &mut MemorySystem,
        app: &mut dyn PacketApp,
    ) -> Iteration {
        // A backlog makes the run-to-completion loop spin on tx_burst
        // before it polls RX again.
        if let Some(it) = self
            .queues
            .retry_backlog(now, nic, core, mem, TX_FLUSH + 40)
        {
            return it;
        }

        let ring = nic.config().rx_ring_size;
        let total_rx_ring = ring * nic.num_queues();
        let (mut ops, mut completions) = self.queues.poll(now, nic, BURST);
        // rx_burst: poll the next descriptor's DD bit on the lcore's
        // first queue.
        ops.push(Op::Compute(POLL_BASE));
        ops.push(Op::Load(layout::rx_desc_addr(
            self.queues.first() * ring,
            total_rx_ring,
        )));

        // Client-side originations (a software load-generator app on a
        // Drive Node, Fig. 1a) share the TX path with responses; they go
        // out on the lcore's first queue.
        while self.queues.staged() < BURST {
            let Some(packet) = app.poll_tx(now, &mut ops) else {
                break;
            };
            let mbuf = self.queues.tx_mbuf();
            simnet_cpu::ops::stores_over(&mut ops, layout::mbuf_addr(mbuf), packet.len() as u64);
            ops.push(Op::Compute(PER_TX_PACKET));
            self.tracer
                .emit(now, packet.id(), Component::App, Stage::AppTx);
            self.queues
                .stage_tx(self.queues.first(), TxRequest { packet, mbuf }, &mut ops);
        }

        if completions.is_empty() && self.queues.staged() == 0 {
            app.on_idle(&mut ops);
            self.code.emit_ifetches(&mut ops, 1);
            return self.queues.finish(now, nic, core, mem, ops, completions);
        }

        self.code.emit_ifetches(&mut ops, IFETCH_PER_BURST);
        if !completions.is_empty() {
            app.on_burst(completions.len(), &mut ops);
        }

        for completion in completions.drain(..) {
            let slot = completion.slot;
            // Replies leave on the queue pair the request arrived on.
            let rxq = self.queues.queue_of(&completion);
            self.tracer
                .emit(now, completion.packet.id(), Component::Stack, Stage::SwRx);
            let mbuf_addr = layout::mbuf_addr(slot);
            ops.push(Op::Load(layout::rx_desc_addr(slot, total_rx_ring)));
            ops.push(Op::Compute(PER_RX_PACKET));
            self.ws.emit_loads(&mut ops, WS_LOADS_PER_PACKET);
            if !self.hugepages {
                // 4 KiB pages: a two-level TLB walk before touching the
                // buffer (page-table lines live in the working-set region).
                let pte = layout::WORKSET_BASE + (12 << 20) + (slot as u64 % 512) * 64;
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
            let (packet, mbuf) = match app.on_packet(completion, mbuf_addr, &mut ops) {
                AppAction::Forward(packet) => (packet, slot),
                AppAction::Respond(packet) => {
                    let mbuf = self.queues.tx_mbuf();
                    // The response bytes are written into the TX mbuf.
                    simnet_cpu::ops::stores_over(
                        &mut ops,
                        layout::mbuf_addr(mbuf),
                        packet.len() as u64,
                    );
                    (packet, mbuf)
                }
                AppAction::Consume => continue,
            };
            ops.push(Op::Compute(PER_TX_PACKET));
            self.tracer
                .emit(now, packet.id(), Component::App, Stage::AppTx);
            self.queues
                .stage_tx(rxq, TxRequest { packet, mbuf }, &mut ops);
        }

        if self.queues.staged() > 0 {
            ops.push(Op::Compute(TX_FLUSH));
        }
        // Processed mbufs go back to their RX rings when the loop's tail
        // bump retires.
        self.queues.finish(now, nic, core, mem, ops, completions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{deliver, frames, rig, Echo};
    use simnet_nic::NicConfig;

    #[test]
    fn empty_poll_is_cheap_and_idle() {
        let (mut nic, mut core, mut mem, mut stack) = rig(DpdkStack::new(1));
        let mut app = Echo;
        let it = stack.iteration(0, &mut nic, &mut core, &mut mem, &mut app);
        assert!(it.idle);
        assert_eq!(it.rx, 0);
        // An empty poll costs tens of nanoseconds, not microseconds.
        assert!(it.end < 1_000_000, "empty poll took {}", it.end);
    }

    #[test]
    fn burst_is_received_and_forwarded() {
        let (mut nic, mut core, mut mem, mut stack) = rig(DpdkStack::new(1));
        let mut app = Echo;
        let ready = deliver(&mut nic, &mut mem, frames(8, 128));
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
        let (mut nic, mut core, mut mem, mut stack) = rig(DpdkStack::new(1));
        let mut app = Echo;
        let ready = deliver(&mut nic, &mut mem, frames(32, 128));
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
        let (_, mut core, mut mem, mut stack) = rig(DpdkStack::new(1));
        let mut nic = Nic::new(NicConfig {
            tx_ring_size: 4,
            ..NicConfig::paper_default()
        });
        let mut app = Echo;
        let ready = deliver(&mut nic, &mut mem, frames(16, 128));
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

    #[test]
    fn iteration_counters_accumulate_and_reset() {
        let (mut nic, mut core, mut mem, mut stack) = rig(DpdkStack::new(1));
        let mut app = Echo;
        stack.iteration(0, &mut nic, &mut core, &mut mem, &mut app);
        let ready = deliver(&mut nic, &mut mem, frames(4, 128));
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
