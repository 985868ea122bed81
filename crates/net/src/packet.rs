//! The simulator's packet buffer and a frame builder.

use crate::ethernet::{macswap, EtherType, EthernetHeader, ETHERNET_HEADER_LEN, MAX_FRAME_LEN};
use crate::ipv4::{Ipv4Addr, Ipv4Header, IPV4_HEADER_LEN, PROTO_UDP};
use crate::mac::MacAddr;
use crate::pool::PktBuf;
use crate::udp::{UdpHeader, UDP_HEADER_LEN};

/// A network packet: a unique id plus the raw frame bytes.
///
/// The id survives forwarding (TestPMD sends back the same buffer), which is
/// how `EtherLoadGen` correlates an echoed packet with its transmit record
/// to compute round-trip latency.
///
/// Storage is mempool-backed (see [`crate::pool`]): every frame lives in
/// a recycled class buffer behind a reference-counted [`PktBuf`], so the
/// whole handle is 16 bytes — half the old `Vec<u8>` representation —
/// and events, FIFOs and rings move packets without touching the frame
/// bytes. Cloning bumps a refcount, never allocates, and mutation of a
/// shared frame is clone-on-write.
///
/// ```
/// use simnet_net::{Packet, PacketBuilder, EtherType, MacAddr};
/// let pkt = PacketBuilder::new()
///     .dst(MacAddr::simulated(1))
///     .src(MacAddr::simulated(2))
///     .ethertype(EtherType::LoadGen)
///     .frame_len(64)
///     .build(7);
/// assert_eq!(pkt.len(), 64);
/// assert_eq!(pkt.id(), 7);
/// assert_eq!(pkt.ethernet().unwrap().dst, MacAddr::simulated(1));
/// ```
#[derive(Clone)]
pub struct Packet {
    id: u64,
    buf: PktBuf,
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("id", &self.id)
            .field("data", &self.bytes())
            .finish()
    }
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.bytes() == other.bytes()
    }
}

impl Eq for Packet {}

impl Packet {
    /// Allocates a packet of `len` zeroed bytes from the pool.
    pub fn zeroed(id: u64, len: usize) -> Self {
        Self {
            id,
            buf: PktBuf::alloc_zeroed(len),
        }
    }

    /// Allocates a packet holding a copy of `bytes` — the zero-churn way
    /// to build a frame from existing bytes (one copy straight into a
    /// recycled buffer, no intermediate `Vec`).
    pub fn copy_from_slice(id: u64, bytes: &[u8]) -> Self {
        Self {
            id,
            buf: PktBuf::copy_from(bytes),
        }
    }

    /// The packet's unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the frame is empty (never true for built packets).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frame bytes.
    pub fn bytes(&self) -> &[u8] {
        self.buf.bytes()
    }

    /// Mutable frame bytes. If the storage is shared with another
    /// handle, the bytes are first copied into a fresh buffer
    /// (clone-on-write); a uniquely owned frame mutates in place.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.buf.bytes_mut()
    }

    /// Consumes the packet, returning the frame bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes().to_vec()
    }

    /// Parses the Ethernet header, if the frame is long enough.
    pub fn ethernet(&self) -> Option<EthernetHeader> {
        EthernetHeader::parse(self.bytes())
    }

    /// Swaps source/destination MACs (testpmd `macswap` mode).
    ///
    /// # Panics
    ///
    /// Panics if the frame is shorter than an Ethernet header.
    pub fn macswap(&mut self) {
        macswap(self.bytes_mut());
    }

    /// The L2 payload (bytes after the Ethernet header).
    pub fn l2_payload(&self) -> &[u8] {
        let data = self.bytes();
        if data.len() <= ETHERNET_HEADER_LEN {
            &[]
        } else {
            &data[ETHERNET_HEADER_LEN..]
        }
    }

    /// If this is a UDP-in-IPv4 frame, returns `(ip, udp, udp_payload)`.
    /// Header checksums are verified; `None` on any mismatch.
    pub fn udp(&self) -> Option<(Ipv4Header, UdpHeader, &[u8])> {
        let eth = self.ethernet()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let l3 = self.l2_payload();
        let ip = Ipv4Header::parse(l3)?;
        if ip.protocol != PROTO_UDP {
            return None;
        }
        let l4 = l3.get(IPV4_HEADER_LEN..ip.total_len as usize)?;
        let udp = UdpHeader::parse(l4)?;
        let payload = l4.get(UDP_HEADER_LEN..udp.length as usize)?;
        if !UdpHeader::verify(ip.src, ip.dst, &l4[..UDP_HEADER_LEN], payload) {
            return None;
        }
        Some((ip, udp, payload))
    }
}

/// Builds Ethernet (optionally UDP-in-IPv4) frames.
///
/// A non-consuming builder: configure, then [`PacketBuilder::build`] as many
/// packets as needed (each with its own id).
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    dst: MacAddr,
    src: MacAddr,
    ethertype: EtherType,
    udp: Option<UdpConfig>,
    payload: Vec<u8>,
    frame_len: Option<usize>,
}

#[derive(Debug, Clone)]
struct UdpConfig {
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
}

impl Default for PacketBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketBuilder {
    /// Creates a builder for a plain-Ethernet frame between zero addresses.
    pub fn new() -> Self {
        Self {
            dst: MacAddr::ZERO,
            src: MacAddr::ZERO,
            ethertype: EtherType::LoadGen,
            udp: None,
            payload: Vec::new(),
            frame_len: None,
        }
    }

    /// Sets the destination MAC.
    pub fn dst(&mut self, dst: MacAddr) -> &mut Self {
        self.dst = dst;
        self
    }

    /// Sets the source MAC.
    pub fn src(&mut self, src: MacAddr) -> &mut Self {
        self.src = src;
        self
    }

    /// Sets the EtherType (ignored if [`PacketBuilder::udp`] is used).
    pub fn ethertype(&mut self, ethertype: EtherType) -> &mut Self {
        self.ethertype = ethertype;
        self
    }

    /// Encapsulates the payload in UDP-in-IPv4.
    pub fn udp(
        &mut self,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
    ) -> &mut Self {
        self.udp = Some(UdpConfig {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
        });
        self
    }

    /// Sets the application payload.
    pub fn payload(&mut self, payload: &[u8]) -> &mut Self {
        self.payload = payload.to_vec();
        self
    }

    /// Pads (with zeros) so the finished frame is exactly `len` bytes.
    /// The payload grows to fit; headers are unchanged.
    ///
    /// # Panics
    ///
    /// `build` panics if `len` is smaller than headers + payload or larger
    /// than [`MAX_FRAME_LEN`].
    pub fn frame_len(&mut self, len: usize) -> &mut Self {
        self.frame_len = Some(len);
        self
    }

    /// Builds a packet with the given id.
    ///
    /// # Panics
    ///
    /// Panics if a requested `frame_len` cannot hold the headers and
    /// payload, or exceeds [`MAX_FRAME_LEN`].
    pub fn build(&self, id: u64) -> Packet {
        self.build_with(id, self.payload.len(), |buf| {
            buf.copy_from_slice(&self.payload);
        })
    }

    /// Builds a packet whose payload is written in place by `fill`
    /// (called with the zeroed `payload_len`-byte payload region), so the
    /// caller encodes straight into pooled storage with no staging
    /// buffer. Any payload set via [`PacketBuilder::payload`] is ignored.
    ///
    /// # Panics
    ///
    /// Panics if a requested `frame_len` cannot hold the headers plus
    /// `payload_len`, or exceeds [`MAX_FRAME_LEN`].
    pub fn build_with(&self, id: u64, payload_len: usize, fill: impl FnOnce(&mut [u8])) -> Packet {
        let header_len = ETHERNET_HEADER_LEN
            + if self.udp.is_some() {
                IPV4_HEADER_LEN + UDP_HEADER_LEN
            } else {
                0
            };
        let natural = header_len + payload_len;
        let total = self.frame_len.unwrap_or(natural);
        assert!(
            total >= natural,
            "frame_len {total} cannot hold {header_len}B headers + {payload_len}B payload"
        );
        assert!(total <= MAX_FRAME_LEN, "frame_len {total} exceeds 1518");

        // Straight into pooled storage: building a frame costs no heap
        // allocation on the hot path.
        let mut packet = Packet::zeroed(id, total);
        let data = packet.bytes_mut();
        let ethertype = if self.udp.is_some() {
            EtherType::Ipv4
        } else {
            self.ethertype
        };
        EthernetHeader {
            dst: self.dst,
            src: self.src,
            ethertype,
        }
        .write(data);

        if let Some(udp) = &self.udp {
            // Padding counts as UDP payload so parsers see consistent lengths.
            let udp_payload_len = total - ETHERNET_HEADER_LEN - IPV4_HEADER_LEN - UDP_HEADER_LEN;
            let ip = Ipv4Header::new(
                udp.src_ip,
                udp.dst_ip,
                PROTO_UDP,
                UDP_HEADER_LEN + udp_payload_len,
            );
            ip.write(&mut data[ETHERNET_HEADER_LEN..]);
            let l4_start = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
            let payload_start = l4_start + UDP_HEADER_LEN;
            fill(&mut data[payload_start..payload_start + payload_len]);
            let header = UdpHeader::new(udp.src_port, udp.dst_port, udp_payload_len);
            // Two-phase: write payload first, then checksum over it.
            let (head, tail) = data.split_at_mut(payload_start);
            header.write(
                &mut head[l4_start..],
                Some((udp.src_ip, udp.dst_ip, &tail[..udp_payload_len])),
            );
        } else {
            fill(&mut data[ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + payload_len]);
        }
        packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_ethernet_build() {
        let pkt = PacketBuilder::new()
            .dst(MacAddr::simulated(1))
            .src(MacAddr::simulated(2))
            .payload(b"abc")
            .frame_len(64)
            .build(1);
        assert_eq!(pkt.len(), 64);
        assert_eq!(&pkt.l2_payload()[..3], b"abc");
        assert!(pkt.l2_payload()[3..].iter().all(|&b| b == 0));
        assert_eq!(pkt.ethernet().unwrap().ethertype, EtherType::LoadGen);
    }

    #[test]
    fn udp_build_parses_and_verifies() {
        let pkt = PacketBuilder::new()
            .dst(MacAddr::simulated(1))
            .src(MacAddr::simulated(2))
            .udp([10, 0, 0, 1], [10, 0, 0, 2], 4000, 11211)
            .payload(b"get key0")
            .build(9);
        let (ip, udp, payload) = pkt.udp().expect("parses as UDP");
        assert_eq!(ip.src, [10, 0, 0, 1]);
        assert_eq!(udp.dst_port, 11211);
        assert_eq!(payload, b"get key0");
    }

    #[test]
    fn udp_padding_is_checksummed() {
        let pkt = PacketBuilder::new()
            .udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2)
            .payload(b"x")
            .frame_len(64)
            .build(0);
        let (_, udp, payload) = pkt.udp().expect("verifies");
        assert_eq!(udp.payload_len(), 64 - 14 - 20 - 8);
        assert_eq!(payload[0], b'x');
    }

    #[test]
    fn corrupting_udp_frame_fails_parse() {
        let mut pkt = PacketBuilder::new()
            .udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2)
            .payload(b"hello")
            .build(0);
        let last = pkt.len() - 1;
        pkt.bytes_mut()[last] ^= 0xff;
        assert!(pkt.udp().is_none());
    }

    #[test]
    fn non_udp_frame_returns_none() {
        let pkt = PacketBuilder::new().frame_len(64).build(0);
        assert!(pkt.udp().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn frame_len_too_small_panics() {
        PacketBuilder::new()
            .payload(&[0; 100])
            .frame_len(64)
            .build(0);
    }

    #[test]
    #[should_panic(expected = "exceeds 1518")]
    fn frame_len_too_large_panics() {
        PacketBuilder::new().frame_len(1519).build(0);
    }

    #[test]
    fn ids_are_preserved() {
        let builder = PacketBuilder::new();
        assert_eq!(builder.build(5).id(), 5);
        assert_eq!(builder.build(6).id(), 6);
    }

    #[test]
    fn macswap_round_trip() {
        let mut pkt = PacketBuilder::new()
            .dst(MacAddr::simulated(1))
            .src(MacAddr::simulated(2))
            .frame_len(64)
            .build(0);
        pkt.macswap();
        assert_eq!(pkt.ethernet().unwrap().src, MacAddr::simulated(1));
    }
}
