//! Synthetic traffic: fixed-size Ethernet frames at a configured rate and
//! inter-arrival distribution, from one client port or several.

use simnet_net::{timestamp, MacAddr, MAX_FRAME_LEN};
use simnet_sim::random::{Distribution, SimRng};
use simnet_sim::tick::{Bandwidth, Tick};

use crate::frame::{Descriptor, FrameSpec, UdpTuple};

/// RSS-hashable addressing for synthetic frames: a UDP/IPv4 4-tuple per
/// frame instead of the raw `EtherType::LoadGen` shell. The source port
/// round-robins over `src_ports` by packet id, so a port list from
/// `simnet_net::rss::ports_for_queues` spreads the stream across every
/// RX queue of a multi-queue NIC (raw frames carry no tuple and pin to
/// queue 0).
#[derive(Debug, Clone)]
pub struct RssTuples {
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Destination UDP port.
    pub dst_port: u16,
    /// Source ports cycled by packet id (must be non-empty).
    pub src_ports: Vec<u16>,
}

/// Synthetic-mode parameters: everything a synthetic frame's bytes
/// derive from beside its id and departure tick.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Frame length in bytes (the paper's 64…1518 B sweep).
    frame_len: usize,
    /// Inter-departure distribution, in ticks.
    pub interarrival: Distribution,
    /// Destination MAC (the NIC under test).
    pub dst: MacAddr,
    /// Source MAC of client port 0; client `c` sends from this plus `c`.
    pub src: MacAddr,
    /// When set, frames carry this UDP/IPv4 tuple (RSS-hashable) and the
    /// timestamp moves into the UDP payload, written before the checksum.
    pub rss: Option<RssTuples>,
    /// Client ports (1 = the paper's single port).
    clients: usize,
}

impl SyntheticConfig {
    /// `frame_len`-byte frames, at most [`MAX_FRAME_LEN`], from one port.
    fn new(frame_len: usize, interarrival: Distribution, dst: MacAddr, src: MacAddr) -> Self {
        assert!(
            frame_len <= MAX_FRAME_LEN,
            "frame_len {frame_len} exceeds {MAX_FRAME_LEN}"
        );
        Self {
            frame_len,
            interarrival,
            dst,
            src,
            rss: None,
            clients: 1,
        }
    }

    /// Constant-rate traffic achieving `rate` of frame-byte goodput.
    ///
    /// # Panics
    ///
    /// Panics if `frame_len` exceeds [`MAX_FRAME_LEN`].
    pub fn fixed_rate(frame_len: usize, rate: Bandwidth, dst: MacAddr, src: MacAddr) -> Self {
        let interval = rate.bytes_to_ticks(frame_len as u64) as f64;
        Self::new(frame_len, Distribution::Fixed(interval), dst, src)
    }

    /// Poisson arrivals at the same average rate.
    ///
    /// # Panics
    ///
    /// Panics if `frame_len` exceeds [`MAX_FRAME_LEN`].
    pub fn poisson(frame_len: usize, rate: Bandwidth, dst: MacAddr, src: MacAddr) -> Self {
        let mean = rate.bytes_to_ticks(frame_len as u64) as f64;
        Self::new(frame_len, Distribution::Exponential { mean }, dst, src)
    }

    /// Switches frames to RSS-hashable UDP tuples: source ports cycle
    /// over `src_ports` by packet id, and the departure timestamp moves
    /// to the UDP payload (frame offset 42), under the UDP checksum.
    ///
    /// # Panics
    ///
    /// Panics on an empty port list or a frame too short to carry the
    /// headers plus the in-payload timestamp.
    pub fn with_rss_ports(
        mut self,
        src_ip: [u8; 4],
        dst_ip: [u8; 4],
        dst_port: u16,
        src_ports: Vec<u16>,
    ) -> Self {
        assert!(!src_ports.is_empty(), "need at least one source port");
        assert!(
            self.frame_len >= timestamp::UDP_OFFSET + timestamp::TIMESTAMP_LEN,
            "frame_len {} cannot hold UDP headers + timestamp",
            self.frame_len
        );
        self.rss = Some(RssTuples {
            src_ip,
            dst_ip,
            dst_port,
            src_ports,
        });
        self
    }

    /// Gives the generator `clients` client ports: departure k (frame id
    /// k) leaves from client k mod `clients`, whose frames carry the base
    /// source MAC and IPv4 address plus k mod `clients`. One client is
    /// the paper's single port.
    ///
    /// # Panics
    ///
    /// Panics outside 1..=250 clients (their source addresses share one
    /// /24), and on more than one client unless
    /// [`SyntheticConfig::with_rss_ports`] gave the frames their UDP
    /// headers.
    pub fn with_clients(mut self, clients: usize) -> Self {
        assert!(
            (1..=250).contains(&clients),
            "client source IPs live in one /24 (got {clients})"
        );
        assert!(
            clients == 1 || self.rss.is_some(),
            "client ports send UDP frames that hold the headers and the stamp"
        );
        self.clients = clients;
        self
    }

    /// Frame length in bytes.
    #[inline]
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Number of client ports.
    #[inline]
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// The client port that sends frame `id`: `id` mod the client count.
    #[inline]
    pub fn client(&self, id: u64) -> usize {
        match self.clients {
            1 => 0,
            n => (id % n as u64) as usize,
        }
    }

    /// The mean offered load in gigabits per second of frame bytes.
    pub fn offered_gbps(&self) -> f64 {
        let mean = self.interarrival.mean();
        if mean <= 0.0 {
            return f64::INFINITY;
        }
        (self.frame_len as f64 * 8.0) / (mean / simnet_sim::tick::S as f64) / 1e9
    }

    /// Takes the departure of frame `id` at `now`: its descriptor, and the
    /// interval to the next departure drawn from `rng`.
    pub(crate) fn take(&self, id: u64, now: Tick, rng: &mut SimRng) -> (Descriptor, Tick) {
        let interval = self.interarrival.sample(rng).round() as Tick;
        (Descriptor { id, departure: now }, interval.max(1))
    }

    /// The spec of frame `id`: the configured length, the source MAC and
    /// IPv4 address of the client that sends it (the base ones plus
    /// [`SyntheticConfig::client`]), and a source port cycling over the
    /// RSS ports.
    #[inline]
    pub fn spec(&self, id: u64) -> FrameSpec {
        let client = self.client(id) as u32;
        FrameSpec {
            len: self.frame_len,
            dst: self.dst,
            src: self.src.offset(client),
            udp: self.rss.as_ref().map(|t| UdpTuple {
                src_ip: u32::from_be_bytes(t.src_ip)
                    .wrapping_add(client)
                    .to_be_bytes(),
                dst_ip: t.dst_ip,
                src_port: t.src_ports[(id as usize) % t.src_ports.len()],
                dst_port: t.dst_port,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_net::EtherType;

    #[test]
    fn fixed_rate_interval_matches_rate() {
        let cfg = SyntheticConfig::fixed_rate(
            1518,
            Bandwidth::gbps(100.0),
            MacAddr::simulated(1),
            MacAddr::simulated(2),
        );
        // 1518 B at 100 Gbps = 121.44 ns.
        assert_eq!(cfg.interarrival, Distribution::Fixed(121_440.0));
        assert!((cfg.offered_gbps() - 100.0).abs() < 0.1);
    }

    /// A frame over 1518 B is rejected where its config is built, not at
    /// its first departure.
    #[test]
    #[should_panic(expected = "frame_len 1519 exceeds 1518")]
    fn oversized_frames_are_rejected_when_built() {
        let (dst, src) = (MacAddr::simulated(1), MacAddr::simulated(2));
        SyntheticConfig::fixed_rate(1519, Bandwidth::gbps(10.0), dst, src);
    }

    #[test]
    fn take_describes_frames_the_spec_builds() {
        let cfg = SyntheticConfig::fixed_rate(
            256,
            Bandwidth::gbps(10.0),
            MacAddr::simulated(1),
            MacAddr::simulated(2),
        );
        let mut rng = SimRng::seed_from(1);
        let (d, interval) = cfg.take(9, 0, &mut rng);
        assert_eq!((d.id, d.departure), (9, 0));
        let pkt = cfg.spec(d.id).build(&d);
        assert_eq!(pkt.len(), 256);
        assert_eq!(pkt.id(), 9);
        assert_eq!(pkt.ethernet().unwrap().dst, MacAddr::simulated(1));
        // Client 0 sends from the base source MAC.
        assert_eq!(pkt.ethernet().unwrap().src, MacAddr::simulated(2));
        assert_eq!(pkt.ethernet().unwrap().ethertype, EtherType::LoadGen);
        assert_eq!(
            timestamp::read_timestamp(&pkt, timestamp::DEFAULT_OFFSET),
            Some(0)
        );
        assert!(interval > 0);
    }

    #[test]
    fn poisson_intervals_vary() {
        let cfg = SyntheticConfig::poisson(
            128,
            Bandwidth::gbps(10.0),
            MacAddr::simulated(1),
            MacAddr::simulated(2),
        );
        let mut rng = SimRng::seed_from(2);
        let (_, a) = cfg.take(0, 0, &mut rng);
        let (_, b) = cfg.take(1, 0, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn rss_frames_carry_valid_udp_tuples_and_stamps() {
        let ports = vec![40_000u16, 40_001, 40_002];
        let cfg = SyntheticConfig::fixed_rate(
            256,
            Bandwidth::gbps(10.0),
            MacAddr::simulated(1),
            MacAddr::simulated(2),
        )
        .with_rss_ports([10, 0, 0, 2], [10, 0, 0, 1], 9, ports.clone());
        let mut rng = SimRng::seed_from(1);
        for id in 0..6u64 {
            let (d, _) = cfg.take(id, 123_456, &mut rng);
            let pkt = cfg.spec(id).build(&d);
            let (_, udp, _) = pkt.udp().expect("checksum must verify");
            assert_eq!(udp.src_port, ports[(id as usize) % ports.len()]);
            assert_eq!(udp.dst_port, 9);
            assert_eq!(
                timestamp::read_timestamp(&pkt, timestamp::UDP_OFFSET),
                Some(123_456)
            );
        }
    }

    #[test]
    fn rss_frames_spread_across_queues() {
        use simnet_net::rss::ports_for_queues;
        let nq = 4;
        let ports = ports_for_queues([10, 0, 0, 2], [10, 0, 0, 1], 9, nq);
        let cfg = SyntheticConfig::fixed_rate(
            128,
            Bandwidth::gbps(10.0),
            MacAddr::simulated(1),
            MacAddr::simulated(2),
        )
        .with_rss_ports([10, 0, 0, 2], [10, 0, 0, 1], 9, ports);
        let queues: Vec<usize> = (0..8u64).map(|id| cfg.spec(id).queue(nq)).collect();
        assert_eq!(&queues[..4], &[0, 1, 2, 3], "ports_for_queues round-robin");
        assert_eq!(&queues[4..], &[0, 1, 2, 3]);
    }
}
