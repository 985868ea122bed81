//! The six standard workloads. Each one is open loop on the gem5 preset,
//! warms up for 1 ms of simulated time, and stresses a different layer of
//! the packet path (see `README.md` for why each was chosen).

use simnet_harness::config::TopoConfig;
use simnet_harness::{build_loadgen_sim, AppSpec, Simulation, SystemConfig};
use simnet_loadgen::LoadGenReport;
use simnet_sim::tick::{ms, us, Tick};

/// Simulated warm-up before every measurement window.
pub const WARMUP: Tick = ms(1);

/// One standard workload: an application, its offered load, and the
/// committed model outputs a rep at the default seed must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub spec: AppSpec,
    /// Frame bytes (ignored by the memcached client).
    pub size: usize,
    /// Offered load: Gbps of frame bytes, or kRPS for memcached.
    pub offered: f64,
    /// NIC queues, each served by its own lcore.
    pub queues: usize,
    /// Fleet clients behind the switch (1 = point-to-point wire).
    pub clients: usize,
    /// Simulated measurement window after the warm-up.
    pub measure: Tick,
    /// FNV-1a of the Compat stats dump (minus `host_events`) at the
    /// default seed.
    pub model_hash: u64,
    /// Achieved Gbps (kRPS for memcached) at the default seed. Any seed
    /// must land within [`RATE_TOLERANCE`] of it.
    pub rate: f64,
}

/// Relative band around [`Workload::rate`] that every seed must hit.
pub const RATE_TOLERANCE: f64 = 0.10;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "pmd64_knee",
        spec: AppSpec::TestPmd,
        size: 64,
        offered: 70.0,
        queues: 1,
        clients: 1,
        measure: ms(8),
        model_hash: 0x2b35_9e61_c07e_974c,
        rate: 18.367,
    },
    Workload {
        name: "pmd1518_ceiling",
        spec: AppSpec::TestPmd,
        size: 1518,
        offered: 60.0,
        queues: 1,
        clients: 1,
        measure: ms(60),
        model_hash: 0xe10a_c68c_a4e9_81dd,
        rate: 56.508,
    },
    Workload {
        name: "mc_dpdk_knee",
        spec: AppSpec::MemcachedDpdk,
        size: 0,
        offered: 890.0,
        queues: 1,
        clients: 1,
        measure: ms(120),
        model_hash: 0xa049_9f21_b97a_06da,
        rate: 894.317,
    },
    Workload {
        name: "mc_dpdk_4q",
        spec: AppSpec::MemcachedDpdk,
        size: 0,
        offered: 3_200.0,
        queues: 4,
        clients: 1,
        measure: ms(30),
        model_hash: 0x1538_3c6d_63f2_f237,
        rate: 3_221.367,
    },
    Workload {
        name: "iperf_kernel",
        spec: AppSpec::Iperf,
        size: 1518,
        offered: 10.0,
        queues: 1,
        clients: 1,
        measure: ms(60),
        model_hash: 0x1dd6_9205_1da2_32d8,
        rate: 10.0,
    },
    Workload {
        name: "incast_8c",
        spec: AppSpec::TestPmd,
        size: 1518,
        offered: 120.0,
        queues: 1,
        clients: 8,
        measure: ms(40),
        model_hash: 0x4134_3c97_c2f8_24aa,
        rate: 56.509,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The full assembly: PCI bind, EAL init, ring post, store warm, and
    /// the generator or fleet.
    pub fn build(&self, seed: u64) -> Simulation {
        let mut cfg = SystemConfig::gem5().with_seed(seed);
        if self.queues > 1 {
            cfg = cfg.with_queues(self.queues).with_lcores(self.queues);
        }
        if self.clients > 1 {
            cfg = cfg.with_topo(TopoConfig::incast(self.clients).with_latency_spread(us(10)));
        }
        build_loadgen_sim(&cfg, &self.spec, self.size, self.offered)
    }

    /// Achieved rate in this workload's unit, from a finished rep. The
    /// iperf sink echoes nothing, so it delivers what the NIC accepted.
    pub fn achieved(&self, report: &LoadGenReport, nic_drop_rate: f64) -> f64 {
        match self.spec {
            AppSpec::Iperf => report.offered_gbps * (1.0 - nic_drop_rate),
            spec if spec.uses_rps() => report.achieved_rps / 1e3,
            _ => report.achieved_gbps,
        }
    }

    pub fn rate_unit(&self) -> &'static str {
        if self.spec.uses_rps() {
            "kRPS"
        } else {
            "Gbps"
        }
    }
}
