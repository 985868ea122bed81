//! Property-based invariants of the NIC device model.

use proptest::prelude::*;
use simnet_mem::{MemoryConfig, MemorySystem};
use simnet_net::{MacAddr, Packet, PacketBuilder};
use simnet_nic::i8254x::TxRequest;
use simnet_nic::{Nic, NicConfig};

#[derive(Debug, Clone)]
enum Step {
    /// Deliver a wire frame of this length.
    Rx(u16),
    /// Advance the RX DMA engine.
    PumpRx,
    /// Poll up to this many packets and post the ring back.
    Poll(u8),
    /// Submit this many 256 B frames for TX.
    Tx(u8),
    /// Advance the TX DMA engine and drain wire-ready frames.
    PumpTx,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (64u16..1518).prop_map(Step::Rx),
        2 => Just(Step::PumpRx),
        2 => (1u8..48).prop_map(Step::Poll),
        1 => (1u8..16).prop_map(Step::Tx),
        2 => Just(Step::PumpTx),
    ]
}

fn frame(id: u64, len: usize) -> Packet {
    PacketBuilder::new()
        .dst(MacAddr::simulated(1))
        .src(MacAddr::simulated(9))
        .frame_len(len)
        .build(id)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Packet conservation through the whole device: every frame accepted
    /// from the wire is eventually polled exactly once — none duplicated,
    /// none invented — and drops equal offered minus accepted.
    #[test]
    fn rx_path_conserves_packets(steps in prop::collection::vec(step_strategy(), 1..300)) {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
        let mut nic = Nic::new(NicConfig::paper_default());
        nic.rx_ring_post(1024);

        let mut now = 0u64;
        let mut offered = 0u64;
        let mut polled_ids = std::collections::HashSet::new();
        let mut polled = 0u64;
        let mut submitted_tx = 0u64;
        let mut wired_tx = 0u64;
        let mut next_id = 0u64;

        for step in &steps {
            now += 30_000;
            match *step {
                Step::Rx(len) => {
                    offered += 1;
                    let _ = nic.wire_rx(now, frame(next_id, len as usize));
                    next_id += 1;
                }
                Step::PumpRx => {
                    let mut t = now;
                    if let Some(n) = nic.rx_dma_start_q(0, t, &mut mem) {
                        t = n;
                    }
                    for _ in 0..64 {
                        match nic.rx_dma_advance_q(0, t, &mut mem) {
                            Some(n) => t = n.max(t + 1),
                            None => break,
                        }
                    }
                    now = now.max(t);
                }
                Step::Poll(max) => {
                    let mut got = Vec::new();
                    nic.rx_poll_q_into(0, now, max as usize, &mut got);
                    for c in &got {
                        prop_assert!(
                            polled_ids.insert(c.packet.id()),
                            "duplicate delivery of packet {}",
                            c.packet.id()
                        );
                        prop_assert!(c.visible_at <= now, "polled before visible");
                    }
                    polled += got.len() as u64;
                    nic.rx_ring_post(got.len());
                }
                Step::Tx(count) => {
                    let mut reqs: Vec<TxRequest> = (0..count)
                        .map(|i| TxRequest {
                            packet: frame(1_000_000 + next_id + i as u64, 256),
                            mbuf: 4096 + (i as usize),
                        })
                        .collect();
                    next_id += count as u64;
                    let accepted = nic.tx_submit_q(0, now, &mut reqs);
                    submitted_tx += accepted as u64;
                }
                Step::PumpTx => {
                    let mut t = now;
                    for _ in 0..64 {
                        match nic.tx_dma_advance_q(0, t, &mut mem) {
                            Some(n) => t = n.max(t + 1),
                            None => break,
                        }
                    }
                    while nic.tx_take_wire_packet(u64::MAX / 2).is_some() {
                        wired_tx += 1;
                    }
                    now = now.max(t);
                }
            }
        }

        let accepted = nic.stats().rx_frames.value();
        let dropped = nic.drop_fsm().total_drops();
        prop_assert_eq!(accepted + dropped, offered, "wire accounting");
        prop_assert!(polled <= accepted, "cannot poll more than accepted");
        prop_assert!(wired_tx <= submitted_tx, "cannot transmit more than submitted");
        prop_assert_eq!(nic.stats().tx_frames.value(), wired_tx);
    }

    /// Whatever the interleaving, a fully drained NIC (enough pumping and
    /// polling) delivers *every* accepted packet.
    #[test]
    fn full_drain_delivers_everything(lens in prop::collection::vec(64u16..1518, 1..80)) {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
        let mut nic = Nic::new(NicConfig::paper_default());
        nic.rx_ring_post(1024);
        let mut now = 0;
        for (i, len) in lens.iter().enumerate() {
            now += 200_000; // 200 ns spacing: no overload
            prop_assert!(nic.wire_rx(now, frame(i as u64, *len as usize)).is_none());
            if let Some(t) = nic.rx_dma_start_q(0, now, &mut mem) {
                let mut t = t;
                while let Some(n) = nic.rx_dma_advance_q(0, t, &mut mem) {
                    t = n.max(t + 1);
                }
            }
        }
        // Drain any residue and poll far in the future.
        let mut t = now + 1_000_000;
        while let Some(n) = nic.rx_dma_advance_q(0, t, &mut mem) {
            t = n.max(t + 1);
        }
        let mut got = Vec::new();
        nic.rx_poll_q_into(0, t + 10_000_000, lens.len() + 8, &mut got);
        prop_assert_eq!(got.len(), lens.len(), "all packets delivered");
        // Byte-exact delivery, in arrival order.
        for (i, c) in got.iter().enumerate() {
            prop_assert_eq!(c.packet.id(), i as u64);
            prop_assert_eq!(c.packet.len(), lens[i] as usize);
        }
    }
}
