//! The Fig. 4 finite-state machine that classifies packet drops.
//!
//! "A three-bit number represents each state. If the leftmost bit is 1,
//! NIC RX FIFO is full, and we drop packets. If the middle bit is 1, the
//! RX Ring Buffer is full; if the right-most bit is 1, the TX Ring Buffer
//! is full. We transition between states on packet reception" (§VII.A).
//!
//! Attribution when the RX FIFO is full:
//!
//! * **DmaDrop** — RX ring *not* full: descriptors were available but the
//!   DMA engine could not drain the FIFO.
//! * **CoreDrop** — RX ring full, TX ring not full: the core fell behind.
//! * **TxDrop** — TX ring full (which stalled the core, which filled the
//!   RX ring): the transmit path is the root cause.
//!
//! A drop's cause is the trace layer's [`DropClass`], so a classified
//! drop and its trace event name it the same way.

use simnet_sim::stats::Counter;
use simnet_sim::trace::DropClass;

/// One observation of buffer fullness, sampled at a packet RX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferState {
    /// NIC RX FIFO cannot admit the packet.
    pub rx_fifo_full: bool,
    /// No RX descriptors are available to the DMA engine.
    pub rx_ring_full: bool,
    /// The TX ring has no free slots.
    pub tx_ring_full: bool,
}

impl BufferState {
    /// The state's three-bit encoding `{fifo, rx_ring, tx_ring}` as in
    /// Fig. 4 (e.g. `0b110` = FIFO full + RX ring full).
    pub fn bits(&self) -> u8 {
        (u8::from(self.rx_fifo_full) << 2)
            | (u8::from(self.rx_ring_full) << 1)
            | u8::from(self.tx_ring_full)
    }
}

/// The drop-classification FSM with its per-cause counters.
///
/// ```
/// use simnet_nic::DropFsm;
/// use simnet_nic::drop_fsm::BufferState;
/// use simnet_sim::trace::DropClass;
///
/// let mut fsm = DropFsm::new();
/// // FIFO full while descriptors were still available: DMA is at fault.
/// let kind = fsm.on_packet_rx(BufferState {
///     rx_fifo_full: true,
///     rx_ring_full: false,
///     tx_ring_full: false,
/// });
/// assert_eq!(kind, Some(DropClass::Dma));
/// assert_eq!(fsm.dma_drops.value(), 1);
/// ```
#[derive(Debug, Default)]
pub struct DropFsm {
    state: BufferState,
    /// Drops attributed to the DMA engine.
    pub dma_drops: Counter,
    /// Drops attributed to the core.
    pub core_drops: Counter,
    /// Drops attributed to the TX path.
    pub tx_drops: Counter,
    /// Drops caused by injected faults (outside the Fig. 4 taxonomy).
    pub fault_drops: Counter,
    /// Packets accepted (no drop).
    pub accepted: Counter,
}

impl DropFsm {
    /// Creates the FSM in the balanced `0,0,0` state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current state's three-bit encoding.
    pub fn state_bits(&self) -> u8 {
        self.state.bits()
    }

    /// Observes a packet reception with the given buffer fullness;
    /// transitions the FSM and, if the packet drops (RX FIFO full),
    /// classifies and counts the drop.
    pub fn on_packet_rx(&mut self, observed: BufferState) -> Option<DropClass> {
        self.state = observed;
        if !observed.rx_fifo_full {
            self.accepted.inc();
            return None;
        }
        let kind = if !observed.rx_ring_full {
            // 1,0,x — descriptors available, DMA is behind.
            self.dma_drops.inc();
            DropClass::Dma
        } else if !observed.tx_ring_full {
            // 1,1,0 — core is behind.
            self.core_drops.inc();
            DropClass::Core
        } else {
            // 1,1,1 — TX backpressure chain.
            self.tx_drops.inc();
            DropClass::Tx
        };
        Some(kind)
    }

    /// Counts a fault-induced drop. The Fig. 4 state is untouched: fault
    /// drops say nothing about buffer fullness.
    pub fn on_fault_drop(&mut self) -> DropClass {
        self.fault_drops.inc();
        DropClass::Fault
    }

    /// Total drops of all causes, fault-induced included.
    pub fn total_drops(&self) -> u64 {
        self.dma_drops.value()
            + self.core_drops.value()
            + self.tx_drops.value()
            + self.fault_drops.value()
    }

    /// Drop rate over all observed receptions (0.0 when idle).
    pub fn drop_rate(&self) -> f64 {
        let total = self.total_drops() + self.accepted.value();
        if total == 0 {
            0.0
        } else {
            self.total_drops() as f64 / total as f64
        }
    }

    /// Fraction of *congestion* drops attributed to each cause
    /// `(dma, core, tx)`; zeros when nothing dropped. This is one bar of
    /// Fig. 5 — fault drops are excluded so injected faults never skew
    /// the paper's taxonomy.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let total = self.dma_drops.value() + self.core_drops.value() + self.tx_drops.value();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.dma_drops.value() as f64 / total as f64,
            self.core_drops.value() as f64 / total as f64,
            self.tx_drops.value() as f64 / total as f64,
        )
    }

    /// Clears counters; state is kept.
    pub fn reset_stats(&mut self) {
        self.dma_drops.reset();
        self.core_drops.reset();
        self.tx_drops.reset();
        self.fault_drops.reset();
        self.accepted.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(fifo: bool, ring: bool, tx: bool) -> BufferState {
        BufferState {
            rx_fifo_full: fifo,
            rx_ring_full: ring,
            tx_ring_full: tx,
        }
    }

    #[test]
    fn balanced_state_accepts() {
        let mut fsm = DropFsm::new();
        assert_eq!(fsm.on_packet_rx(state(false, false, false)), None);
        assert_eq!(fsm.accepted.value(), 1);
        assert_eq!(fsm.total_drops(), 0);
        assert_eq!(fsm.state_bits(), 0b000);
    }

    #[test]
    fn intermediate_states_do_not_drop() {
        // Blue states of Fig. 4: ring(s) full but FIFO not yet full.
        let mut fsm = DropFsm::new();
        for s in [
            state(false, true, false),
            state(false, false, true),
            state(false, true, true),
        ] {
            assert_eq!(fsm.on_packet_rx(s), None);
        }
        assert_eq!(fsm.total_drops(), 0);
        assert_eq!(fsm.accepted.value(), 3);
    }

    #[test]
    fn dma_drop_when_descriptors_available() {
        let mut fsm = DropFsm::new();
        assert_eq!(
            fsm.on_packet_rx(state(true, false, false)),
            Some(DropClass::Dma)
        );
        // "x is don't care": TX ring full doesn't change DMA attribution.
        assert_eq!(
            fsm.on_packet_rx(state(true, false, true)),
            Some(DropClass::Dma)
        );
        assert_eq!(fsm.dma_drops.value(), 2);
    }

    #[test]
    fn core_drop_when_rx_ring_full() {
        let mut fsm = DropFsm::new();
        assert_eq!(
            fsm.on_packet_rx(state(true, true, false)),
            Some(DropClass::Core)
        );
        assert_eq!(fsm.core_drops.value(), 1);
    }

    #[test]
    fn tx_drop_when_everything_backed_up() {
        let mut fsm = DropFsm::new();
        assert_eq!(
            fsm.on_packet_rx(state(true, true, true)),
            Some(DropClass::Tx)
        );
        assert_eq!(fsm.tx_drops.value(), 1);
        assert_eq!(fsm.state_bits(), 0b111);
    }

    #[test]
    fn recovery_transitions_back_to_intermediate() {
        // "When at a gray-colored state and RxFifo is no longer full, then
        // on the next RX packet, we transition to a proper intermediate
        // state."
        let mut fsm = DropFsm::new();
        fsm.on_packet_rx(state(true, true, false));
        assert_eq!(fsm.state_bits(), 0b110);
        fsm.on_packet_rx(state(false, true, false));
        assert_eq!(fsm.state_bits(), 0b010);
        assert_eq!(fsm.total_drops(), 1);
    }

    #[test]
    fn drop_rate_and_breakdown() {
        let mut fsm = DropFsm::new();
        for _ in 0..6 {
            fsm.on_packet_rx(state(false, false, false));
        }
        fsm.on_packet_rx(state(true, false, false));
        fsm.on_packet_rx(state(true, true, false));
        fsm.on_packet_rx(state(true, true, false));
        fsm.on_packet_rx(state(true, true, true));
        assert_eq!(fsm.total_drops(), 4);
        assert!((fsm.drop_rate() - 0.4).abs() < 1e-12);
        let (dma, core, tx) = fsm.breakdown();
        assert!((dma - 0.25).abs() < 1e-12);
        assert!((core - 0.5).abs() < 1e-12);
        assert!((tx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fault_drops_count_but_keep_state_and_breakdown() {
        let mut fsm = DropFsm::new();
        fsm.on_packet_rx(state(true, false, false));
        assert_eq!(fsm.on_fault_drop(), DropClass::Fault);
        assert_eq!(fsm.fault_drops.value(), 1);
        assert_eq!(fsm.total_drops(), 2, "fault counts toward total");
        assert_eq!(fsm.state_bits(), 0b100, "Fig. 4 state untouched");
        let (dma, core, tx) = fsm.breakdown();
        assert_eq!(
            (dma, core, tx),
            (1.0, 0.0, 0.0),
            "breakdown excludes faults"
        );
        fsm.reset_stats();
        assert_eq!(fsm.fault_drops.value(), 0);
    }

    #[test]
    fn reset_clears_counts_keeps_state() {
        let mut fsm = DropFsm::new();
        fsm.on_packet_rx(state(true, true, true));
        fsm.reset_stats();
        assert_eq!(fsm.total_drops(), 0);
        assert_eq!(fsm.state_bits(), 0b111);
        assert_eq!(fsm.drop_rate(), 0.0);
    }
}
