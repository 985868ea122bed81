//! System configuration presets (Table I).

use simnet_cpu::{CoreConfig, CoreKind};
use simnet_mem::cache::CacheConfig;
use simnet_mem::dram::DramConfig;
use simnet_mem::MemoryConfig;
use simnet_nic::NicConfig;
use simnet_sim::tick::{ns, us, Bandwidth, Frequency, Tick};

/// The shape of the network between the clients and the node under test.
///
/// All-scalar and `Copy` on purpose: it rides inside [`SystemConfig`],
/// which sweep drivers copy per measurement point. `clients == 1` is the
/// degenerate two-node/one-link topology — the legacy point-to-point
/// wire, byte-identical to the pre-topology harness. `clients > 1`
/// instantiates an incast fan-in: the load generator's N client ports
/// behind a MAC-forwarding switch whose host-facing trunk carries a
/// bounded congestion queue (see `simnet_net::topo`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoConfig {
    /// The load generator's client ports (1 = degenerate point-to-point).
    pub clients: usize,
    /// Base one-way client↔switch access latency.
    pub client_latency: Tick,
    /// Extra access latency per client index (heterogeneous RTTs):
    /// client *i* sees `client_latency + i × latency_spread`.
    pub latency_spread: Tick,
    /// Switch→host trunk congestion-queue bound in frames (0 = unbounded).
    pub trunk_queue_frames: usize,
    /// One-way switch↔host trunk latency.
    pub trunk_latency: Tick,
    /// Seeded random loss on client uplinks, parts per million.
    pub loss_ppm: u32,
}

impl TopoConfig {
    /// The degenerate topology: one client, one host, one pure wire.
    pub fn point_to_point() -> Self {
        TopoConfig {
            clients: 1,
            client_latency: 0,
            latency_spread: 0,
            trunk_queue_frames: 0,
            trunk_latency: 0,
            loss_ppm: 0,
        }
    }

    /// An incast fan-in of `clients` endpoints behind one switch:
    /// 50 µs access latency (so the end-to-end RTT stays near the
    /// paper's 100 µs wire), a 512-frame trunk congestion queue, and a
    /// 500 ns store-and-forward trunk hop.
    pub fn incast(clients: usize) -> Self {
        assert!(clients >= 1, "incast needs at least one client");
        TopoConfig {
            clients,
            client_latency: us(50),
            latency_spread: 0,
            trunk_queue_frames: 512,
            trunk_latency: ns(500),
            loss_ppm: 0,
        }
    }

    /// Sets the per-client access-latency spread (heterogeneous RTTs).
    pub fn with_latency_spread(mut self, spread: Tick) -> Self {
        self.latency_spread = spread;
        self
    }

    /// Sets the trunk congestion-queue bound (0 = unbounded).
    pub fn with_trunk_queue(mut self, frames: usize) -> Self {
        self.trunk_queue_frames = frames;
        self
    }

    /// Sets seeded uplink loss in parts per million.
    pub fn with_loss_ppm(mut self, ppm: u32) -> Self {
        self.loss_ppm = ppm;
        self
    }

    /// Whether this is the degenerate point-to-point topology.
    pub fn is_point_to_point(&self) -> bool {
        self.clients == 1
    }
}

impl Default for TopoConfig {
    fn default() -> Self {
        TopoConfig::point_to_point()
    }
}

/// A complete node + network configuration.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Preset name (appears in reports).
    pub name: &'static str,
    /// Memory hierarchy.
    pub mem: MemoryConfig,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// NIC parameters.
    pub nic: NicConfig,
    /// Ethernet line rate (Table I: 100 Gbps).
    pub link_bandwidth: Bandwidth,
    /// One-way propagation latency (Table I: 200 µs ping RTT → 100 µs).
    pub link_latency: Tick,
    /// RNG seed for all stochastic components.
    pub seed: u64,
    /// Worker lcores on the node under test (1 = the single-core legacy
    /// configuration; more requires at least as many NIC queues).
    pub num_lcores: usize,
    /// Software-client packet-rate ceiling in packets/second, if the
    /// "client" is a real software load generator rather than hardware —
    /// the altra measurements in Fig. 6 are capped by Pktgen at roughly
    /// 15.6 Mpps (8 Gbps at 64 B, 16 Gbps at 128 B).
    pub client_pps_cap: Option<f64>,
    /// Network topology between the clients and the node under test
    /// (default: the degenerate point-to-point wire).
    pub topo: TopoConfig,
}

impl SystemConfig {
    /// The paper's simulated system (Table I, "gem5" column).
    pub fn gem5() -> Self {
        Self {
            name: "gem5",
            mem: MemoryConfig::table1_gem5(),
            core: CoreConfig::table1_ooo(),
            nic: NicConfig::paper_default(),
            link_bandwidth: Bandwidth::gbps(100.0),
            link_latency: us(100),
            seed: 0x5EED,
            num_lcores: 1,
            client_pps_cap: None,
            topo: TopoConfig::point_to_point(),
        }
    }

    /// A proxy for the real Ampere Altra setup (Table I, right column):
    /// the same microarchitectural shape with a slightly stronger memory
    /// front (DDR4-3200, lower uncore latency) — the paper observes the
    /// real Neoverse N1 modestly outperforming its simulated counterpart
    /// on core-bound workloads — plus the software-client rate ceiling.
    pub fn altra() -> Self {
        let mut mem = MemoryConfig::table1_gem5();
        mem.dram = DramConfig::ddr4_3200(8);
        mem.l2_cycles = 10;
        mem.llc_latency = ns(9);
        Self {
            name: "altra",
            mem,
            core: CoreConfig::table1_ooo(),
            nic: NicConfig::paper_default(),
            link_bandwidth: Bandwidth::gbps(100.0),
            link_latency: us(100),
            seed: 0xA17A,
            num_lcores: 1,
            client_pps_cap: Some(15.6e6),
            topo: TopoConfig::point_to_point(),
        }
    }

    /// Replaces the core clock (Fig. 15, Fig. 19).
    pub fn with_frequency(mut self, freq: Frequency) -> Self {
        self.core.frequency = freq;
        self
    }

    /// Replaces the core kind (Fig. 16).
    pub fn with_core_kind(mut self, kind: CoreKind) -> Self {
        self.core = match kind {
            CoreKind::OutOfOrder => CoreConfig::table1_ooo().with_frequency(self.core.frequency),
            CoreKind::InOrder => {
                let mut c = CoreConfig::in_order();
                c.frequency = self.core.frequency;
                c
            }
        };
        self
    }

    /// Replaces the ROB size (Fig. 17d–f).
    pub fn with_rob(mut self, rob: usize) -> Self {
        self.core = self.core.with_rob(rob);
        self
    }

    /// Replaces both L1 sizes, keeping 4-way associativity (Fig. 10).
    pub fn with_l1_size(mut self, bytes: u64) -> Self {
        self.mem.l1i = CacheConfig::new(bytes, 4);
        self.mem.l1d = CacheConfig::new(bytes, 4);
        self
    }

    /// Replaces the L2 size, keeping 8-way associativity (Fig. 11).
    pub fn with_l2_size(mut self, bytes: u64) -> Self {
        self.mem.l2 = CacheConfig::new(bytes, 8);
        self
    }

    /// Replaces the LLC size (Fig. 12, Fig. 13).
    pub fn with_llc_size(mut self, bytes: u64) -> Self {
        self.mem = self.mem.with_llc_size(bytes);
        self
    }

    /// Enables/disables Direct Cache Access (Fig. 13, Fig. 14, Fig. 17a–c).
    pub fn with_dca(mut self, enabled: bool) -> Self {
        if enabled {
            self.mem.dca_enabled = true;
            self.mem.llc = CacheConfig::with_dca(self.mem.llc.size, 16, 4);
        } else {
            self.mem = self.mem.without_dca();
        }
        self
    }

    /// Replaces the DRAM channel count (Fig. 17a–c).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.mem.dram.channels = channels;
        self
    }

    /// Replaces the RX descriptor ring size (Fig. 13 uses 4096).
    pub fn with_rx_ring(mut self, entries: usize) -> Self {
        self.nic = self.nic.with_rx_ring(entries);
        self
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the NIC RX/TX queue-pair count (multi-queue RSS).
    pub fn with_queues(mut self, queues: usize) -> Self {
        self.nic = self.nic.with_queues(queues);
        self
    }

    /// Replaces the worker-lcore count (the Fig. 6-style cores axis).
    ///
    /// # Panics
    ///
    /// Panics if `lcores` is zero or exceeds the NIC queue count.
    pub fn with_lcores(mut self, lcores: usize) -> Self {
        assert!(lcores > 0, "need at least one lcore");
        assert!(
            lcores <= self.nic.num_queues,
            "{lcores} lcores need at least as many NIC queues (have {})",
            self.nic.num_queues
        );
        self.num_lcores = lcores;
        self
    }

    /// Replaces the network topology (incast fan-ins, heterogeneous RTTs,
    /// lossy uplinks — see [`TopoConfig`]).
    pub fn with_topo(mut self, topo: TopoConfig) -> Self {
        self.topo = topo;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::gem5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gem5_preset_matches_table1() {
        let cfg = SystemConfig::gem5();
        assert_eq!(cfg.mem.l1d.size, 64 << 10);
        assert_eq!(cfg.mem.l1d.assoc, 4);
        assert_eq!(cfg.mem.l2.size, 1 << 20);
        assert_eq!(cfg.mem.l2.assoc, 8);
        assert_eq!(cfg.core.rob, 128);
        assert_eq!(cfg.core.lq, 68);
        assert_eq!(cfg.core.sq, 72);
        assert_eq!(cfg.core.width, 4);
        assert!((cfg.core.frequency.as_ghz() - 3.0).abs() < 1e-9);
        assert!((cfg.link_bandwidth.as_gbps() - 100.0).abs() < 1e-9);
        assert!(cfg.mem.dca_enabled, "Table I: DCA default enabled");
        assert!(cfg.client_pps_cap.is_none(), "hardware load generator");
    }

    #[test]
    fn altra_preset_has_client_ceiling() {
        let cfg = SystemConfig::altra();
        assert!(cfg.client_pps_cap.is_some());
        assert_eq!(cfg.mem.dram.channels, 8);
    }

    #[test]
    fn builders_compose() {
        let cfg = SystemConfig::gem5()
            .with_l1_size(128 << 10)
            .with_l2_size(4 << 20)
            .with_llc_size(32 << 20)
            .with_channels(16)
            .with_rob(512)
            .with_frequency(Frequency::ghz(4.0))
            .with_dca(false);
        assert_eq!(cfg.mem.l1d.size, 128 << 10);
        assert_eq!(cfg.mem.l2.size, 4 << 20);
        assert_eq!(cfg.mem.llc.size, 32 << 20);
        assert_eq!(cfg.mem.dram.channels, 16);
        assert_eq!(cfg.core.rob, 512);
        assert!(!cfg.mem.dca_enabled);
        assert_eq!(cfg.mem.llc.dca_ways, 0);
    }

    #[test]
    fn default_topology_is_degenerate() {
        let cfg = SystemConfig::gem5();
        assert!(cfg.topo.is_point_to_point());
        assert_eq!(cfg.topo, TopoConfig::point_to_point());
    }

    #[test]
    fn topo_builders_compose() {
        let cfg = SystemConfig::gem5().with_topo(
            TopoConfig::incast(8)
                .with_latency_spread(us(10))
                .with_trunk_queue(64)
                .with_loss_ppm(250),
        );
        assert_eq!(cfg.topo.clients, 8);
        assert!(!cfg.topo.is_point_to_point());
        assert_eq!(cfg.topo.latency_spread, us(10));
        assert_eq!(cfg.topo.trunk_queue_frames, 64);
        assert_eq!(cfg.topo.loss_ppm, 250);
        // The whole config stays Copy for the sweep drivers.
        let copied = cfg;
        assert_eq!(copied.topo.clients, cfg.topo.clients);
    }

    #[test]
    fn in_order_switch_keeps_frequency() {
        let cfg = SystemConfig::gem5()
            .with_frequency(Frequency::ghz(2.0))
            .with_core_kind(CoreKind::InOrder);
        assert_eq!(cfg.core.kind, CoreKind::InOrder);
        assert!((cfg.core.frequency.as_ghz() - 2.0).abs() < 1e-9);
    }
}
