//! Rigs and toy applications shared by the stacks' unit tests.

use simnet_cpu::{Core, CoreConfig, Op};
use simnet_mem::{Addr, MemoryConfig, MemorySystem};
use simnet_net::{MacAddr, Packet, PacketBuilder};
use simnet_nic::i8254x::RxCompletion;
use simnet_nic::{Nic, NicConfig};
use simnet_sim::Tick;

use crate::{AppAction, PacketApp};

/// A paper-default NIC, a Table I core and memory system, and `stack`.
pub(crate) fn rig<S>(stack: S) -> (Nic, Core, MemorySystem, S) {
    (
        Nic::new(NicConfig::paper_default()),
        Core::new(CoreConfig::table1_ooo()),
        MemorySystem::new(MemoryConfig::table1_gem5()),
        stack,
    )
}

/// `count` raw frames of `len` bytes addressed to the NIC.
pub(crate) fn frames(count: u64, len: usize) -> impl Iterator<Item = Packet> {
    (0..count).map(move |id| {
        PacketBuilder::new()
            .dst(MacAddr::simulated(1))
            .src(MacAddr::simulated(2))
            .frame_len(len)
            .build(id)
    })
}

/// Posts RX descriptors, puts `packets` on the wire at tick 0 and runs
/// each queue's RX DMA in turn until all of them are visible. Returns
/// the tick the last DMA finished.
pub(crate) fn deliver(
    nic: &mut Nic,
    mem: &mut MemorySystem,
    packets: impl IntoIterator<Item = Packet>,
) -> Tick {
    nic.rx_ring_post(1024);
    for packet in packets {
        assert!(nic.wire_rx(0, packet).is_none());
    }
    let mut now = 0;
    for q in 0..nic.num_queues() {
        if let Some(t) = nic.rx_dma_start_q(q, now, mem) {
            now = t;
        }
        while let Some(t) = nic.rx_dma_advance_q(q, now, mem) {
            now = t.max(now + 1);
        }
    }
    now
}

/// Forwards every packet with its MACs swapped (TestPMD's macswap).
pub(crate) struct Echo;

impl PacketApp for Echo {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn on_packet(&mut self, c: RxCompletion, _buf: Addr, ops: &mut Vec<Op>) -> AppAction {
        ops.push(Op::Compute(10));
        let mut pkt = c.packet;
        pkt.macswap();
        AppAction::Forward(pkt)
    }
}

/// Consumes every packet.
pub(crate) struct Sink;

impl PacketApp for Sink {
    fn name(&self) -> &'static str {
        "sink"
    }

    fn on_packet(&mut self, _c: RxCompletion, _buf: Addr, ops: &mut Vec<Op>) -> AppAction {
        ops.push(Op::Compute(50));
        AppAction::Consume
    }
}

/// Answers every packet with a new frame, as a KV server does.
pub(crate) struct Responder;

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
