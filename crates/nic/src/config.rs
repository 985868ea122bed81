//! NIC configuration.

use simnet_net::MacAddr;
use simnet_pci::CompatMode;

/// Parameters of the simulated i8254x-style NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// RX descriptor ring entries (Fig. 13 uses 4096). With multiple
    /// queues, *each* queue gets a ring of this many entries.
    pub rx_ring_size: usize,
    /// RX/TX queue pairs. 1 reproduces the single-ring i8254x exactly;
    /// 2..=8 enables RSS steering across per-queue rings and FIFO
    /// partitions (82574/82599-style multi-queue).
    pub num_queues: usize,
    /// TX descriptor ring entries.
    pub tx_ring_size: usize,
    /// On-chip RX FIFO capacity in bytes.
    pub rx_fifo_bytes: u64,
    /// On-chip TX FIFO capacity in bytes.
    pub tx_fifo_bytes: u64,
    /// Descriptor-cache capacity ("usually 32 to 64 descriptors",
    /// §III.A.3).
    pub desc_cache_size: usize,
    /// Descriptors fetched per replenish DMA.
    pub desc_refill_batch: usize,
    /// Initial RX descriptor writeback threshold — the parameter the paper
    /// adds so PMD operation doesn't degrade to whole-cache batches.
    pub wb_threshold: usize,
    /// The port's MAC address.
    pub mac: MacAddr,
    /// Baseline-gem5 vs extended register semantics.
    pub compat: CompatMode,
    /// Whether the PCI vendor ID reads back wrong (as on gem5, where
    /// "unmodified DPDK cannot fetch the correct vendor ID ... we suspect
    /// this is because some manufacturer-specific information is missing
    /// in the gem5 NIC model", §III.B). Defaults to `true` to match gem5;
    /// DPDK's EAL must then be configured to skip the vendor check.
    pub vendor_id_broken: bool,
}

impl NicConfig {
    /// The configuration used for the paper-style experiments.
    pub fn paper_default() -> Self {
        Self {
            rx_ring_size: 1024,
            num_queues: 1,
            tx_ring_size: 1024,
            rx_fifo_bytes: 192 << 10,
            tx_fifo_bytes: 96 << 10,
            desc_cache_size: 64,
            desc_refill_batch: 32,
            wb_threshold: 4,
            mac: MacAddr::simulated(1),
            compat: CompatMode::Extended,
            vendor_id_broken: true,
        }
    }

    /// Returns this configuration with a different RX ring size.
    pub fn with_rx_ring(mut self, entries: usize) -> Self {
        self.rx_ring_size = entries;
        self
    }

    /// Returns this configuration with a different RX/TX queue count.
    pub fn with_queues(mut self, queues: usize) -> Self {
        self.num_queues = queues;
        self
    }

    /// Returns this configuration with a different writeback threshold.
    pub fn with_wb_threshold(mut self, threshold: usize) -> Self {
        self.wb_threshold = threshold.max(1);
        self
    }

    pub(crate) fn validate(&self) {
        assert!(
            self.rx_ring_size > 0 && self.tx_ring_size > 0,
            "rings must be non-empty"
        );
        assert!(
            self.rx_fifo_bytes > 0 && self.tx_fifo_bytes > 0,
            "FIFOs must be non-empty"
        );
        assert!(
            self.desc_cache_size > 0,
            "descriptor cache must be non-empty"
        );
        assert!(
            self.desc_refill_batch > 0 && self.desc_refill_batch <= self.desc_cache_size,
            "refill batch must fit the descriptor cache"
        );
        assert!(
            self.wb_threshold > 0,
            "writeback threshold must be positive"
        );
        assert!(
            (1..=8).contains(&self.num_queues),
            "queue count must be 1..=8"
        );
        assert!(
            self.num_queues * self.rx_ring_size <= 8192,
            "total RX descriptors must fit the global mbuf index space \
             below the stacks' TX mbufs (8192 buffers)"
        );
        assert!(
            self.rx_fifo_bytes as usize >= self.num_queues
                && self.tx_fifo_bytes as usize >= self.num_queues,
            "per-queue FIFO partitions must be non-empty"
        );
    }
}

impl Default for NicConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        NicConfig::default().validate();
    }

    #[test]
    fn builders_adjust_fields() {
        let cfg = NicConfig::paper_default()
            .with_rx_ring(4096)
            .with_wb_threshold(0);
        assert_eq!(cfg.rx_ring_size, 4096);
        assert_eq!(cfg.wb_threshold, 1); // floored
    }

    #[test]
    fn queue_builder_validates() {
        for n in 1..=8 {
            NicConfig::paper_default().with_queues(n).validate();
        }
    }

    #[test]
    #[should_panic(expected = "queue count")]
    fn queue_count_is_bounded() {
        NicConfig::paper_default().with_queues(9).validate();
    }

    #[test]
    #[should_panic(expected = "global mbuf index space")]
    fn total_descriptors_bounded_by_mbuf_space() {
        NicConfig::paper_default()
            .with_rx_ring(4096)
            .with_queues(4)
            .validate();
    }

    #[test]
    #[should_panic(expected = "refill batch")]
    fn refill_batch_must_fit_cache() {
        let mut cfg = NicConfig::paper_default();
        cfg.desc_refill_batch = cfg.desc_cache_size + 1;
        cfg.validate();
    }
}
