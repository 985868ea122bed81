//! # simnet
//!
//! A full-system **network-subsystem simulator** with DPDK-style userspace
//! networking, a hardware load-generator model, and a suite of
//! network-intensive benchmarks — a from-scratch Rust reproduction of
//! *"Userspace Networking in gem5"* (ISPASS 2024).
//!
//! The paper extends gem5 so unmodified DPDK applications run against its
//! NIC model, adds an `EtherLoadGen` hardware load generator, and
//! characterizes userspace vs kernel networking across microarchitectural
//! configurations. This workspace rebuilds every layer of that study:
//!
//! * [`sim`] — deterministic discrete-event kernel, statistics, RNG.
//! * [`net`] — packets, Ethernet/IPv4/UDP, PCAP, memcached protocol.
//! * [`mem`] — caches (with DCA way-partitioning), DRAM, I/O buses.
//! * [`pci`] — config space with the paper's §III.A fixes, UIO, devbind.
//! * [`cpu`] — in-order and out-of-order core timing models.
//! * [`nic`] — the i8254x-style NIC with the drop-classification FSM.
//! * [`stack`] — the DPDK and kernel software network stacks.
//! * [`apps`] — TestPMD, TouchFwd, TouchDrop, RXpTX, both memcacheds, iperf.
//! * [`loadgen`] — `EtherLoadGen` (synthetic / trace / memcached-client /
//!   TCP-stream client).
//! * [`harness`] — node assembly, MSB search, and every paper experiment.
//!
//! # Quickstart
//!
//! ```
//! use simnet::harness::{run_point, AppSpec, RunConfig, SystemConfig};
//!
//! // Load a TestPMD forwarder with 5 Gbps of 256-byte frames.
//! let cfg = SystemConfig::gem5();
//! let summary = run_point(&cfg, &AppSpec::TestPmd, 256, 5.0, RunConfig::fast());
//! assert!(summary.drop_rate < 0.01);
//! assert!(summary.achieved_gbps() > 4.0);
//! ```
//!
//! See `examples/` for runnable scenarios and the `repro` binary
//! (`cargo run --release -p simnet-harness --bin repro`) for the full
//! table/figure reproduction.

pub use simnet_apps as apps;
pub use simnet_cpu as cpu;
pub use simnet_harness as harness;
pub use simnet_loadgen as loadgen;
pub use simnet_mem as mem;
pub use simnet_net as net;
pub use simnet_nic as nic;
pub use simnet_pci as pci;
pub use simnet_sim as sim;
pub use simnet_stack as stack;

/// Commonly used items in one import.
pub mod prelude {
    pub use simnet_harness::{
        find_msb, run_point, AppSpec, MsbResult, RunConfig, RunSummary, Simulation, SystemConfig,
    };
    pub use simnet_loadgen::{EtherLoadGen, LoadGenMode, SyntheticConfig, TraceConfig};
    pub use simnet_net::{EtherType, MacAddr, Packet, PacketBuilder};
    pub use simnet_sim::tick::{Bandwidth, Frequency};
    pub use simnet_sim::Tick;
}
