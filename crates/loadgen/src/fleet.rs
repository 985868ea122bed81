//! A fleet of synthetic client endpoints driven from compact per-client
//! state.
//!
//! Incast runs put N clients behind a switch. Materializing N
//! full [`EtherLoadGen`](crate::EtherLoadGen) objects would cost N RNGs,
//! N sample sets, and N outstanding maps for what is structurally one
//! workload; the fleet instead keeps **one** builder and **one** latency
//! aggregate, plus one word of state per client (its next departure
//! tick). Client *i*'s identity is derived, not stored:
//! MAC `simulated(CLIENT_MAC_BASE + i)`, source IP `10.0.1.i`, and
//! source port [`FLEET_PORT_BASE`].
//!
//! Frames are RSS-hashable UDP tuples with the departure timestamp in
//! the payload (written pre-checksum, see `simnet_net::timestamp`), so a
//! multi-queue server NIC spreads the fleet across its RX queues and
//! echoes carry the RTT back. They depart as [`Descriptor`]s, built from
//! [`ClientFleet::spec`] only where their bytes are read.

use simnet_net::{timestamp, MacAddr, Packet};
use simnet_sim::stats::{Counter, SampleSet, StatsRegistry};
use simnet_sim::tick::{Bandwidth, Tick};
use simnet_sim::trace::{Component, Stage, Tracer};

use crate::frame::{Descriptor, FrameSpec, Source, UdpTuple};
use crate::report::LoadGenReport;

/// First `MacAddr::simulated` index used for fleet clients (the server
/// and the legacy single loadgen use low indices).
pub const CLIENT_MAC_BASE: u32 = 100;

/// Every client's UDP source port.
pub const FLEET_PORT_BASE: u16 = 40_000;

/// A fleet of synthetic clients sharing one builder.
pub struct ClientFleet {
    clients: usize,
    frame_len: usize,
    /// Per-client fixed inter-departure (aggregate interval × clients).
    interval: Tick,
    server: MacAddr,
    dst_ip: [u8; 4],
    dst_port: u16,
    /// Compact per-client state: the next departure tick per client.
    next_departure: Vec<Tick>,
    next_id: u64,
    tx_packets: Counter,
    tx_bytes: Counter,
    rx_packets: Counter,
    rx_bytes: Counter,
    latency: SampleSet,
    tracer: Tracer,
}

impl ClientFleet {
    /// A fleet of `clients` endpoints together offering `aggregate`
    /// frame-byte goodput of `frame_len`-byte frames at `server`.
    /// Departures are fixed-rate per client and phase-staggered so the
    /// aggregate stream is evenly spaced — client *i*'s first frame
    /// leaves at `i × aggregate_interval`.
    pub fn fixed_rate(
        clients: usize,
        frame_len: usize,
        aggregate: Bandwidth,
        server: MacAddr,
    ) -> Self {
        assert!(clients >= 1, "a fleet needs at least one client");
        assert!(
            clients <= 250,
            "client source IPs live in one /24 (got {clients})"
        );
        assert!(
            frame_len >= timestamp::UDP_OFFSET + timestamp::TIMESTAMP_LEN,
            "frame_len {frame_len} cannot hold UDP headers + timestamp"
        );
        let agg_interval = aggregate.bytes_to_ticks(frame_len as u64).max(1);
        let interval = agg_interval * clients as Tick;
        ClientFleet {
            clients,
            frame_len,
            interval,
            server,
            dst_ip: [10, 0, 0, 1],
            dst_port: 9, // discard/echo
            next_departure: (0..clients as Tick).map(|i| i * agg_interval).collect(),
            next_id: 0,
            tx_packets: Counter::new(),
            tx_bytes: Counter::new(),
            rx_packets: Counter::new(),
            rx_bytes: Counter::new(),
            latency: SampleSet::with_capacity(1 << 18),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a packet-lifecycle tracer (injections + echo receipts).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of client endpoints.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Client `i`'s MAC address (derived, not stored).
    pub fn client_mac(&self, client: usize) -> MacAddr {
        debug_assert!(client < self.clients);
        MacAddr::simulated(CLIENT_MAC_BASE + client as u32)
    }

    /// The tick at which client `client`'s next frame wants to depart.
    pub fn next_departure(&self, client: usize) -> Tick {
        self.next_departure[client]
    }

    /// Takes client `client`'s departure at `now`: assigns its id,
    /// advances that client's departure clock by the per-client interval,
    /// and counts and traces the injection. Build the frame with
    /// [`ClientFleet::build`].
    pub fn take(&mut self, client: usize, now: Tick) -> Descriptor {
        let frame = Descriptor::new(
            self.next_id,
            now,
            self.frame_len,
            client as u8,
            Source::Fleet,
        );
        self.next_id += 1;
        self.next_departure[client] = now + self.interval;
        self.tx_packets.inc();
        self.tx_bytes.add(self.frame_len as u64);
        self.tracer.emit(
            now,
            frame.id,
            Component::LoadGen,
            Stage::Inject {
                len: self.frame_len as u32,
            },
        );
        frame
    }

    /// The spec of a frame the fleet described: client *c* sends from
    /// its own MAC and source IP `10.0.1.c`.
    #[inline]
    pub fn spec(&self, d: &Descriptor) -> FrameSpec {
        FrameSpec {
            dst: self.server,
            src: self.client_mac(usize::from(d.client)),
            udp: Some(UdpTuple {
                src_ip: [10, 0, 1, d.client],
                dst_ip: self.dst_ip,
                src_port: FLEET_PORT_BASE,
                dst_port: self.dst_port,
            }),
        }
    }

    /// The bytes of a frame the fleet described, exactly as if it had
    /// been built at departure.
    pub fn build(&self, d: &Descriptor) -> Packet {
        self.spec(d).build(d)
    }

    /// Delivers an echo back to its client; measures RTT from the
    /// in-payload timestamp.
    pub fn on_rx(&mut self, now: Tick, packet: &Packet) {
        self.tracer
            .emit(now, packet.id(), Component::LoadGen, Stage::EchoRx);
        self.rx_packets.inc();
        self.rx_bytes.add(packet.len() as u64);
        if let Some(sent) = timestamp::read_timestamp(packet, timestamp::UDP_OFFSET) {
            let rtt = now.saturating_sub(sent) as f64;
            self.latency.record(rtt);
        }
    }

    /// Frames transmitted across the fleet.
    pub fn tx_packets(&self) -> u64 {
        self.tx_packets.value()
    }

    /// Echoes received across the fleet.
    pub fn rx_packets(&self) -> u64 {
        self.rx_packets.value()
    }

    /// The fleet-aggregate statistics report over `[start, end]`.
    pub fn report(&self, start: Tick, end: Tick) -> LoadGenReport {
        LoadGenReport::compute(
            self.tx_packets.value(),
            self.tx_bytes.value(),
            self.rx_packets.value(),
            self.rx_bytes.value(),
            self.latency.summary(),
            start,
            end,
        )
    }

    /// Registers the `loadgen.*` section (the same shape the single
    /// generator reports, plus the fleet size).
    pub fn register_stats(&self, now: Tick, reg: &mut StatsRegistry) {
        let report = self.report(0, now);
        let summary = &report.latency;
        reg.scoped("loadgen", |reg| {
            reg.scalar("clients", self.clients as u64, "fleet client endpoints");
            reg.scalar("txPackets", report.tx_packets, "packets injected");
            reg.scalar("rxPackets", report.rx_packets, "packets echoed back");
            reg.float("rtt.mean_ns", summary.mean / 1e3, "mean round-trip (ns)");
            reg.float("rtt.p99_ns", summary.p99 / 1e3, "p99 round-trip (ns)");
            if reg.full() {
                reg.scalar("txBytes", report.tx_bytes, "bytes injected");
                reg.scalar("rxBytes", report.rx_bytes, "bytes echoed back");
                reg.scalar("rtt.samples", summary.count, "RTT samples recorded");
                reg.float(
                    "rtt.median_ns",
                    summary.median / 1e3,
                    "median round-trip (ns)",
                );
                reg.float("rtt.p90_ns", summary.p90 / 1e3, "p90 round-trip (ns)");
                reg.float("dropRate", report.drop_rate, "unreturned / injected");
            }
        });
    }

    /// Clears statistics (post-warm-up reset); departure clocks persist.
    pub fn reset_stats(&mut self) {
        self.tx_packets.reset();
        self.tx_bytes.reset();
        self.rx_packets.reset();
        self.rx_bytes.reset();
        self.latency.reset();
    }
}

impl std::fmt::Debug for ClientFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientFleet")
            .field("clients", &self.clients)
            .field("tx", &self.tx_packets.value())
            .field("rx", &self.rx_packets.value())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(clients: usize) -> ClientFleet {
        ClientFleet::fixed_rate(clients, 256, Bandwidth::gbps(10.0), MacAddr::simulated(1))
    }

    #[test]
    fn departures_are_phase_staggered() {
        let f = fleet(4);
        // 256 B at 10 Gbps = 204.8 ns aggregate interval.
        let agg = Bandwidth::gbps(10.0).bytes_to_ticks(256);
        for c in 0..4 {
            assert_eq!(f.next_departure(c), agg * c as Tick);
        }
    }

    #[test]
    fn per_client_interval_preserves_aggregate_rate() {
        let mut f = fleet(4);
        let t0 = f.next_departure(2);
        f.take(2, t0);
        let agg = Bandwidth::gbps(10.0).bytes_to_ticks(256);
        assert_eq!(f.next_departure(2) - t0, agg * 4);
    }

    #[test]
    fn frames_carry_client_identity_and_stamp() {
        let mut f = fleet(8);
        let d = f.take(5, 1_000);
        assert_eq!((d.client, d.source), (5, Source::Fleet));
        let pkt = f.build(&d);
        let eth = pkt.ethernet().unwrap();
        assert_eq!(eth.src, MacAddr::simulated(CLIENT_MAC_BASE + 5));
        assert_eq!(eth.dst, MacAddr::simulated(1));
        let (ip, udp, _) = pkt.udp().expect("checksum must verify");
        assert_eq!(ip.src, [10, 0, 1, 5]);
        assert_eq!(udp.src_port, FLEET_PORT_BASE);
        assert_eq!(
            timestamp::read_timestamp(&pkt, timestamp::UDP_OFFSET),
            Some(1_000)
        );
    }

    #[test]
    fn rtt_measured_through_on_rx() {
        let mut f = fleet(2);
        let d = f.take(0, 1_000_000);
        let pkt = f.build(&d);
        f.on_rx(6_000_000, &pkt);
        let report = f.report(0, 10_000_000);
        assert_eq!(report.latency.count, 1);
        assert_eq!(report.latency.mean, 5_000_000.0);
    }

    #[test]
    fn distinct_clients_spread_across_queues() {
        // Distinct per-client source IPs hash to different queues — the
        // incast fleet exercises a multi-queue NIC without port games.
        let mut f = fleet(16);
        let mut seen = std::collections::HashSet::new();
        for c in 0..16 {
            let t = f.next_departure(c);
            let d = f.take(c, t);
            seen.insert(f.spec(&d).queue(4));
        }
        assert!(
            seen.len() >= 3,
            "16 source IPs hit ≥3 of 4 queues: {seen:?}"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let run = || {
            let mut f = fleet(4);
            let mut ids = Vec::new();
            for i in 0..64 {
                let c = i % 4;
                let t = f.next_departure(c);
                let d = f.take(c, t);
                let pkt = f.build(&d);
                let (_, udp, _) = pkt.udp().unwrap();
                ids.push((pkt.id(), udp.src_port, t));
            }
            ids
        };
        assert_eq!(run(), run());
    }

    /// The staggered grid departs clients in strict round-robin, so the
    /// k-th frame of client c is the (k × clients + c)-th departure.
    #[test]
    fn ids_follow_take_order() {
        let mut f = fleet(4);
        for round in 0..16u64 {
            for c in 0..4 {
                let t = f.next_departure(c);
                assert_eq!(f.take(c, t).id, round * 4 + c as u64);
            }
        }
    }

    #[test]
    fn reset_preserves_departure_clocks() {
        let mut f = fleet(2);
        let t = f.next_departure(0);
        f.take(0, t);
        let next = f.next_departure(0);
        f.reset_stats();
        assert_eq!(f.tx_packets(), 0);
        assert_eq!(f.next_departure(0), next);
    }
}
