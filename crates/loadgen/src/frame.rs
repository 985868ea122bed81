//! Synthetic frames in flight as descriptors.
//!
//! Pktgen stamps each departure into a per-port template frame. The
//! simulator goes one step further: a frame from the generator in
//! `Synthetic` mode is a pure function of the generator's config, its
//! id and its departure tick, so it travels the wire as a
//! [`Descriptor`] of those two fields. The config fixes the rest: the
//! frame length, and the client port that sent the frame, since
//! departure k is frame id k and leaves from client k mod N. Its bytes
//! are built from the [`FrameSpec`] the config gives its id only where
//! something reads them: when the NIC's RX FIFO admits it, when a
//! capture tap records it, or when a consumer such as the dual-mode
//! software client needs a packet. A frame the NIC drops is never
//! built. Frames whose bytes depend on state at departure (memcached
//! requests, trace replay, TCP, a Drive Node's frames, every echo)
//! travel [`Frame::Built`].

use simnet_net::{rss, timestamp, EtherType, MacAddr, Packet, PacketBuilder, ETHERNET_HEADER_LEN};
use simnet_sim::Tick;

/// What varies between a synthetic generator's frames: the id and the
/// departure tick, two words whatever the frame's length. Everything
/// else is the generator's config (see
/// [`SyntheticConfig::spec`](crate::SyntheticConfig::spec)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// The packet id.
    pub id: u64,
    /// The departure tick, stamped into the payload.
    pub departure: Tick,
}

/// A frame on a wire: built bytes, or the descriptor of a synthetic
/// frame that is built where its bytes are read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A frame whose bytes exist.
    Built(Packet),
    /// A synthetic frame not built yet.
    Described(Descriptor),
}

impl Frame {
    /// The packet id.
    #[inline]
    pub fn id(&self) -> u64 {
        match self {
            Frame::Built(p) => p.id(),
            Frame::Described(d) => d.id,
        }
    }
}

/// A UDP/IPv4 4-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpTuple {
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source UDP port.
    pub src_port: u16,
    /// Destination UDP port.
    pub dst_port: u16,
}

/// Everything a synthetic frame's bytes need beyond its [`Descriptor`]:
/// its length, and its addresses, those of the client port that sent
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// Frame length in bytes.
    pub len: usize,
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// UDP/IPv4 addressing (RSS-hashable); `None` builds a raw
    /// `EtherType::LoadGen` frame, which steers to queue 0.
    pub udp: Option<UdpTuple>,
}

impl FrameSpec {
    /// Builds the frame `d` describes: zero-padded to the spec's length,
    /// with its departure tick stamped at the start of its payload inside
    /// the build, so a UDP checksum covers the stamp. A payload too short
    /// for the stamp gets none.
    ///
    /// # Panics
    ///
    /// Panics if the frame is shorter than its headers.
    pub fn build(&self, d: &Descriptor) -> Packet {
        let mut builder = PacketBuilder::new();
        builder.dst(self.dst).src(self.src).frame_len(self.len);
        let payload_at = match self.udp {
            Some(t) => {
                builder.udp(t.src_ip, t.dst_ip, t.src_port, t.dst_port);
                timestamp::UDP_OFFSET
            }
            None => {
                builder.ethertype(EtherType::LoadGen);
                ETHERNET_HEADER_LEN
            }
        };
        let payload_len = self.len.checked_sub(payload_at).unwrap_or_else(|| {
            panic!(
                "frame_len {} cannot hold {payload_at}B of headers",
                self.len
            )
        });
        builder.build_with(d.id, payload_len, |payload| {
            timestamp::write_timestamp_slice(payload, 0, d.departure);
        })
    }

    /// The RX queue that [`rss::queue_for`] picks for the built frame on
    /// an `nqueues`-queue NIC, without building it.
    #[inline]
    pub fn queue(&self, nqueues: usize) -> usize {
        self.udp.map_or(0, |t| {
            rss::queue_for_tuple(t.src_ip, t.dst_ip, t.src_port, t.dst_port, nqueues)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EtherLoadGen, LoadGenMode, SyntheticConfig};
    use proptest::prelude::*;
    use simnet_net::rss::queue_for;
    use simnet_sim::tick::Bandwidth;

    /// A fan-in's base client MAC index and UDP source port.
    const INCAST_MAC: u32 = 100;
    const INCAST_PORT: u16 = 40_000;

    /// The generator's frame built the eager way, at departure: the
    /// builder, then the stamp (inside the build for a UDP frame).
    fn eager_generator_frame(cfg: &SyntheticConfig, id: u64, departure: Tick) -> Packet {
        let mut builder = PacketBuilder::new();
        builder.dst(cfg.dst).src(cfg.src).frame_len(cfg.frame_len());
        match &cfg.rss {
            Some(t) => {
                let sport = t.src_ports[(id as usize) % t.src_ports.len()];
                builder
                    .udp(t.src_ip, t.dst_ip, sport, t.dst_port)
                    .build_with(id, cfg.frame_len() - timestamp::UDP_OFFSET, |buf| {
                        timestamp::write_timestamp_slice(buf, 0, departure);
                    })
            }
            None => {
                let mut packet = builder.ethertype(EtherType::LoadGen).build(id);
                timestamp::write_timestamp(&mut packet, timestamp::DEFAULT_OFFSET, departure);
                packet
            }
        }
    }

    /// Fan-in client `client`'s frame built the eager way.
    fn eager_fleet_frame(
        server: MacAddr,
        client: usize,
        len: usize,
        id: u64,
        departure: Tick,
    ) -> Packet {
        PacketBuilder::new()
            .dst(server)
            .src(MacAddr::simulated(INCAST_MAC + client as u32))
            .udp([10, 0, 1, client as u8], [10, 0, 0, 1], INCAST_PORT, 9)
            .frame_len(len)
            .build_with(id, len - timestamp::UDP_OFFSET, |buf| {
                timestamp::write_timestamp_slice(buf, 0, departure);
            })
    }

    /// `built` is the eager frame, id and bytes; a UDP frame's checksum
    /// verifies; and the spec steers it where RSS steers the built frame
    /// on 1 to 8 queues.
    fn check(spec: FrameSpec, built: &Packet, eager: &Packet) -> Result<(), TestCaseError> {
        prop_assert_eq!(built.id(), eager.id());
        prop_assert_eq!(built.bytes(), eager.bytes());
        if spec.udp.is_some() {
            prop_assert!(built.udp().is_some(), "the UDP checksum verifies");
        }
        for nq in 1..=8 {
            prop_assert_eq!(spec.queue(nq), queue_for(built, nq), "{} queues", nq);
        }
        Ok(())
    }

    proptest! {
        /// A descriptor from any client of a 1..=250-client generator
        /// builds the frame the eager path built. A lone client sends raw
        /// (64..=1518 B) or RSS (52..=1518 B over arbitrary ports)
        /// frames; client `c` of a fan-in sends the departures whose id
        /// is c mod N, from the incast base MAC and source IPv4 plus `c`.
        #[test]
        fn descriptors_build_the_eager_frame(
            clients in prop_oneof![Just(1usize), 2usize..=250],
            client in 0usize..250,
            rss in any::<bool>(),
            len in 52usize..=1518,
            ports in prop::collection::vec(any::<u16>(), 1..5),
            src in any::<u32>(),
            dport in any::<u16>(),
            id in 0..=u64::MAX - 250,
            departure in any::<u64>(),
        ) {
            let server = MacAddr::simulated(1);
            let client = client % clients;
            // Client `client`'s departure at or below `id`.
            let id = id - id % clients as u64 + client as u64;
            let len = if clients == 1 && !rss { len.max(64) } else { len };
            let (cfg, eager) = if clients == 1 {
                let mut cfg = SyntheticConfig::fixed_rate(
                    len,
                    Bandwidth::gbps(10.0),
                    server,
                    MacAddr::simulated(2),
                );
                if rss {
                    cfg = cfg.with_rss_ports(src.to_be_bytes(), [10, 0, 0, 1], dport, ports);
                }
                let eager = eager_generator_frame(&cfg, id, departure);
                (cfg, eager)
            } else {
                let cfg = SyntheticConfig::fixed_rate(
                    len,
                    Bandwidth::gbps(10.0),
                    server,
                    MacAddr::simulated(INCAST_MAC),
                )
                .with_rss_ports([10, 0, 1, 0], [10, 0, 0, 1], 9, vec![INCAST_PORT])
                .with_clients(clients);
                (cfg, eager_fleet_frame(server, client, len, id, departure))
            };
            let spec = cfg.spec(id);
            let lg = EtherLoadGen::new(LoadGenMode::Synthetic(cfg), 1);
            let built = lg.build(Frame::Described(Descriptor { id, departure }));
            check(spec, &built, &eager)?;
        }
    }
}
