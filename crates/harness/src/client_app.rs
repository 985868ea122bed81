//! The software load-generator application for dual-mode Drive Nodes.
//!
//! This is what Fig. 1a's "Load-Gen Application" is in our reproduction:
//! an application that originates traffic from *software*, paying
//! instruction costs per packet (including the performance-sampling
//! annotations the paper calls out as a measurement hazard), running on a
//! fully simulated node. Its achievable rate is bounded by its node's
//! core — exactly the client bottleneck Fig. 6 exhibits.

use simnet_cpu::Op;
use simnet_loadgen::EtherLoadGen;
use simnet_mem::Addr;
use simnet_net::Packet;
use simnet_nic::i8254x::RxCompletion;
use simnet_sim::Tick;
use simnet_stack::{AppAction, PacketApp};

/// Instructions per transmitted packet (request build + sampling), a
/// Pktgen-like cost.
const PER_TX_INSTRUCTIONS: u64 = 120;

/// Instructions per received packet (latency bookkeeping).
const PER_RX_INSTRUCTIONS: u64 = 80;

/// A software client wrapping the load-generation machinery.
pub struct SoftwareClient {
    gen: EtherLoadGen,
}

impl SoftwareClient {
    /// Wraps a load generator as a software client with Pktgen-like
    /// per-packet costs.
    pub fn new(gen: EtherLoadGen) -> Self {
        Self { gen }
    }

    /// The wrapped generator (for reports).
    pub fn generator(&self) -> &EtherLoadGen {
        &self.gen
    }
}

impl PacketApp for SoftwareClient {
    fn name(&self) -> &'static str {
        "software-loadgen"
    }

    fn on_packet(&mut self, completion: RxCompletion, _buf: Addr, ops: &mut Vec<Op>) -> AppAction {
        ops.push(Op::Compute(PER_RX_INSTRUCTIONS));
        self.gen.on_rx(completion.visible_at, &completion.packet);
        AppAction::Consume
    }

    fn poll_tx(&mut self, now: Tick, ops: &mut Vec<Op>) -> Option<Packet> {
        let due = self.gen.next_departure(now)?;
        if due > now {
            return None;
        }
        ops.push(Op::Compute(PER_TX_INSTRUCTIONS));
        let frame = self.gen.take(now)?;
        Some(self.gen.build(frame))
    }

    fn next_tx_at(&self, now: Tick) -> Option<Tick> {
        self.gen.next_departure(now)
    }
}

impl std::fmt::Debug for SoftwareClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoftwareClient")
            .field("gen", &self.gen)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_loadgen::{LoadGenMode, SyntheticConfig};
    use simnet_net::MacAddr;
    use simnet_sim::tick::Bandwidth;

    fn client() -> SoftwareClient {
        let cfg = SyntheticConfig::fixed_rate(
            128,
            Bandwidth::gbps(10.0),
            MacAddr::simulated(1),
            MacAddr::simulated(2),
        );
        SoftwareClient::new(EtherLoadGen::new(LoadGenMode::Synthetic(cfg), 11))
    }

    #[test]
    fn emits_packets_at_schedule() {
        let mut c = client();
        let mut ops = Vec::new();
        let due = c.next_tx_at(0).unwrap();
        let pkt = c.poll_tx(due, &mut ops).expect("due packet");
        assert_eq!(pkt.len(), 128);
        assert!(!ops.is_empty(), "client pays instructions per packet");
        // The next departure is in the future and does not fire early.
        let next = c.next_tx_at(due).expect("schedule continues");
        assert!(next > due);
        assert!(c.poll_tx(next - 1, &mut ops).is_none());
    }

    #[test]
    fn rx_feeds_latency_tracking() {
        let mut c = client();
        let mut ops = Vec::new();
        let due = c.next_tx_at(0).unwrap();
        let pkt = c.poll_tx(due, &mut ops).unwrap();
        let completion = RxCompletion {
            visible_at: due + 5_000_000,
            packet: pkt,
            slot: 0,
        };
        assert_eq!(c.on_packet(completion, 0, &mut ops), AppAction::Consume);
        assert_eq!(c.generator().rx_packets(), 1);
        let report = c.generator().report(0, 10_000_000);
        assert_eq!(report.latency.count, 1);
    }
}
