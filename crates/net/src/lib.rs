//! Packet and frame model for `simnet`.
//!
//! Packets in the simulator carry **real bytes**: what `EtherLoadGen`
//! injects, what the NIC DMA-writes into ring buffers, and what the PCAP
//! capture taps record are the same bytes. (A synthetic generator's frame
//! crosses the wire as a descriptor and is built, byte for byte, where
//! the NIC admits it or a tap records it.) This keeps trace capture and
//! replay honest — a trace captured from a simulated run is a valid
//! `.pcap` file readable by wireshark/tcpdump, and real `.pcap` files can be
//! replayed into the simulator.
//!
//! Modules:
//!
//! * [`mac`] — MAC addresses.
//! * [`ethernet`] — Ethernet II framing.
//! * [`ipv4`] / [`udp`] / [`tcp`] — minimal L3/L4 headers, with the
//!   Internet [`checksum`].
//! * [`packet`] — the [`Packet`] buffer and [`PacketBuilder`].
//! * [`pool`] — the DPDK-mempool-style recycled buffer arena backing
//!   [`Packet`] storage.
//! * [`rss`] — the Toeplitz receive-side-scaling hash steering flows to
//!   RX queues.
//! * [`topo`] — directed links carrying latency/bandwidth/queue/loss
//!   policies, plus the MAC-forwarding switch.
//! * [`timestamp`] — the load generator's in-payload timestamps (§IV).
//! * [`pcap`] — PCAP file reading/writing (tcpdump/dpdk-pdump stand-in).
//! * [`proto`] — application protocols (memcached-over-UDP).

pub mod checksum;
pub mod ethernet;
pub mod ipv4;
pub mod mac;
pub mod packet;
pub mod pcap;
pub mod pool;
pub mod proto;
pub mod rss;
pub mod tcp;
pub mod timestamp;
pub mod topo;
pub mod udp;

pub use ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN, MAX_FRAME_LEN, MIN_FRAME_LEN};
pub use mac::MacAddr;
pub use packet::{Packet, PacketBuilder};
