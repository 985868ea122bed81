//! `EtherLoadGen` — the hardware load-generator simulation model (§IV).
//!
//! "The hardware load generator model can generate packets at arbitrary
//! rates, sizes, and traffic patterns ... has a single Ethernet port and
//! can directly connect to the NIC port of a simulated node." It replaces
//! the Drive Node of dual-mode simulations (Fig. 1b), so measurements are
//! free of client-side queuing and the client can never be the bottleneck
//! (the Fig. 6 artifact of the software Pktgen client).
//!
//! The generator has one port per client. Point-to-point, it is the
//! paper's single port, client 0. An incast fan-in gives a `Synthetic`
//! generator N client ports behind a switch
//! ([`EtherLoadGen::with_clients`]): departure k leaves from client
//! k mod N, whose frames carry the base source MAC and IPv4 address plus
//! k mod N, and one set of counters and RTT samples covers every client.
//!
//! Modes:
//!
//! * [`synthetic`] — fixed/Poisson inter-arrival Ethernet frames of a
//!   configured size, timestamped in-payload for RTT measurement. They
//!   travel the wire as [`frame`] descriptors, built only where their
//!   bytes are read.
//! * [`trace`] — PCAP replay with destination-MAC rewrite, honoring the
//!   trace's timestamps or overriding the rate.
//! * [`memcached_client`] — GET/SET request generation with Zipfian
//!   key/value lengths and a request-id → departure-time map for
//!   per-request latency (§VI.A).
//!
//! The generator reports mean, median, standard deviation and tail
//! latency, a forwarding-latency histogram, and the drop percentage; the
//! [`ramp`] module implements the "bandwidth test mode that gradually
//! increases the bandwidth to find the maximum sustainable bandwidth".

pub mod frame;
pub mod memcached_client;
pub mod ramp;
pub mod report;
pub mod synthetic;
pub mod tcp_client;
pub mod trace;

pub use frame::{Descriptor, Frame, FrameSpec, UdpTuple};
pub use memcached_client::MemcachedClientConfig;
pub use ramp::{find_knee, RatePoint, MSB_DROP_THRESHOLD};
pub use report::LoadGenReport;
pub use synthetic::{RssTuples, SyntheticConfig};
pub use tcp_client::TcpClientConfig;
pub use trace::TraceConfig;

use simnet_net::{timestamp, MacAddr, Packet};
use simnet_sim::random::SimRng;
use simnet_sim::stats::{Counter, SampleSet};
use simnet_sim::tick::Tick;
use simnet_sim::trace::{Component, Stage, Tracer};

/// What kind of traffic the generator produces.
#[derive(Debug, Clone)]
pub enum LoadGenMode {
    /// Synthetic fixed-size Ethernet frames.
    Synthetic(SyntheticConfig),
    /// PCAP trace replay.
    Trace(TraceConfig),
    /// Memcached GET/SET client.
    Memcached(MemcachedClientConfig),
    /// TCP bulk-stream client (the paper's future-work extension: a TCP
    /// state machine inside the load generator).
    Tcp(TcpClientConfig),
}

/// The load generator.
pub struct EtherLoadGen {
    mode: LoadGenMode,
    rng: SimRng,
    next_id: u64,
    next_departure: Option<Tick>,
    /// Client ports (1 = the paper's single port).
    clients: usize,
    /// The client port the next synthetic departure leaves from.
    next_client: usize,
    /// Open-loop by default; `Some(w)` bounds outstanding packets
    /// (closed-loop client, §IV referencing open vs. closed clients).
    window: Option<usize>,
    tx_packets: Counter,
    tx_bytes: Counter,
    rx_packets: Counter,
    rx_bytes: Counter,
    latency: SampleSet,
    outstanding: usize,
    tracer: Tracer,
}

impl EtherLoadGen {
    /// Creates a generator in the given mode, seeded for determinism.
    pub fn new(mode: LoadGenMode, seed: u64) -> Self {
        Self {
            mode,
            rng: SimRng::seed_from(seed),
            next_id: 0,
            next_departure: Some(0),
            clients: 1,
            next_client: 0,
            window: None,
            tx_packets: Counter::new(),
            tx_bytes: Counter::new(),
            rx_packets: Counter::new(),
            rx_bytes: Counter::new(),
            latency: SampleSet::with_capacity(1 << 18),
            outstanding: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Gives the generator `clients` client ports: departure k leaves from
    /// client k mod `clients`, whose frames carry the base source MAC and
    /// IPv4 address plus k mod `clients`. One client is the paper's
    /// single port.
    ///
    /// # Panics
    ///
    /// Panics outside 1..=250 clients (their source addresses share one
    /// /24), and on more than one client unless the generator sends
    /// synthetic UDP frames that hold the headers and the stamp.
    pub fn with_clients(mut self, clients: usize) -> Self {
        assert!(
            (1..=250).contains(&clients),
            "client source IPs live in one /24 (got {clients})"
        );
        if clients > 1 {
            let LoadGenMode::Synthetic(cfg) = &self.mode else {
                panic!("only synthetic mode has client ports");
            };
            assert!(
                cfg.rss.is_some()
                    && cfg.frame_len >= timestamp::UDP_OFFSET + timestamp::TIMESTAMP_LEN,
                "client ports send UDP frames that hold the headers and the stamp"
            );
        }
        self.clients = clients;
        self
    }

    /// Number of client ports.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Client `client`'s source MAC, or `None` outside synthetic mode.
    pub fn client_mac(&self, client: usize) -> Option<MacAddr> {
        match &self.mode {
            LoadGenMode::Synthetic(cfg) => Some(cfg.src.offset(client as u32)),
            _ => None,
        }
    }

    /// Attaches a packet-lifecycle tracer; the generator reports
    /// injections and echo receipts.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Bounds the number of in-flight packets (closed-loop client).
    pub fn set_closed_loop(&mut self, window: usize) {
        self.window = Some(window.max(1));
    }

    /// The tick at which the next packet wants to depart, or `None` if
    /// generation is finished or blocked on the closed-loop window.
    pub fn next_departure(&self, now: Tick) -> Option<Tick> {
        if self.window.is_some_and(|w| self.outstanding >= w) {
            return None; // unblocked by a future on_rx
        }
        match &self.mode {
            // TCP paces itself: window occupancy and RTO deadlines.
            LoadGenMode::Tcp(cfg) => cfg.next_departure(now),
            _ => self.next_departure.map(|t| t.max(now)),
        }
    }

    /// Takes the departure due at `now`: assigns its id and client port,
    /// draws the next departure, and counts and traces the injection. A
    /// synthetic frame departs as a [`Descriptor`], built where its bytes
    /// are read (see [`EtherLoadGen::build`]); every other mode's frame
    /// depends on state at departure and departs built. Call only
    /// at/after the tick returned by [`EtherLoadGen::next_departure`].
    pub fn take(&mut self, now: Tick) -> Option<Frame> {
        self.next_departure(now)?;
        let id = self.next_id;
        self.next_id += 1;

        let (frame, interval) = match &mut self.mode {
            LoadGenMode::Synthetic(cfg) => {
                let client = self.next_client;
                self.next_client = if client + 1 == self.clients {
                    0
                } else {
                    client + 1
                };
                let (d, interval) = cfg.take(id, client as u8, now, &mut self.rng);
                (Frame::Described(d), Some(interval))
            }
            LoadGenMode::Trace(cfg) => {
                let (packet, interval) = cfg.build(id, now)?;
                (Frame::Built(packet), interval)
            }
            LoadGenMode::Memcached(cfg) => {
                let (packet, interval) = cfg.build(id, now, &mut self.rng);
                (Frame::Built(packet), interval)
            }
            LoadGenMode::Tcp(cfg) => (Frame::Built(cfg.build(id, now)?), None),
        };

        if !matches!(self.mode, LoadGenMode::Tcp(_)) {
            self.next_departure = interval.map(|dt| now + dt);
        }
        let len = frame.len();
        self.tx_packets.inc();
        self.tx_bytes.add(len as u64);
        self.outstanding += 1;
        self.tracer.emit(
            now,
            frame.id(),
            Component::LoadGen,
            Stage::Inject { len: len as u32 },
        );
        Some(frame)
    }

    /// The spec that builds a frame this generator described, or `None`
    /// outside synthetic mode, which describes none.
    #[inline]
    pub fn spec(&self, d: &Descriptor) -> Option<FrameSpec> {
        match &self.mode {
            LoadGenMode::Synthetic(cfg) => Some(cfg.spec(d.id, d.client)),
            _ => None,
        }
    }

    /// The bytes of a frame this generator took: a described frame comes
    /// out exactly as if it had been built at departure.
    ///
    /// # Panics
    ///
    /// Panics on a descriptor outside synthetic mode.
    pub fn build(&self, frame: Frame) -> Packet {
        match frame {
            Frame::Built(packet) => packet,
            Frame::Described(d) => self
                .spec(&d)
                .expect("only synthetic mode describes frames")
                .build(&d),
        }
    }

    /// Delivers a packet returning from the node under test; measures RTT.
    pub fn on_rx(&mut self, now: Tick, packet: &Packet) {
        self.tracer
            .emit(now, packet.id(), Component::LoadGen, Stage::EchoRx);
        self.rx_packets.inc();
        self.rx_bytes.add(packet.len() as u64);
        self.outstanding = self.outstanding.saturating_sub(1);

        let rtt = match &mut self.mode {
            // A synthetic frame carries its departure tick at the start
            // of its payload, past the UDP headers when it has them.
            LoadGenMode::Synthetic(cfg) => {
                let at = match cfg.rss {
                    Some(_) => timestamp::UDP_OFFSET,
                    None => timestamp::DEFAULT_OFFSET,
                };
                timestamp::read_timestamp(packet, at).map(|sent| now.saturating_sub(sent))
            }
            LoadGenMode::Memcached(cfg) => cfg.match_response(now, packet),
            LoadGenMode::Trace(_) => None,
            LoadGenMode::Tcp(cfg) => cfg.on_rx(now, packet),
        };
        if let Some(rtt) = rtt {
            self.latency.record(rtt as f64);
        }
    }

    /// Whether a closed-loop sender may have been unblocked by the last
    /// receive (the node should re-query [`EtherLoadGen::next_departure`]).
    pub fn unblocked(&self) -> bool {
        // TCP's window opens on any ACK; closed-loop synthetic clients on
        // any echo.
        matches!(self.mode, LoadGenMode::Tcp(_))
            || self.window.is_some_and(|w| self.outstanding < w)
    }

    /// The TCP client state, when in TCP mode (goodput/retransmission
    /// counters).
    pub fn tcp(&self) -> Option<&TcpClientConfig> {
        match &self.mode {
            LoadGenMode::Tcp(cfg) => Some(cfg),
            _ => None,
        }
    }

    /// The memcached client state, when in memcached mode (GET hit/miss
    /// and SET counters).
    pub fn memcached(&self) -> Option<&MemcachedClientConfig> {
        match &self.mode {
            LoadGenMode::Memcached(cfg) => Some(cfg),
            _ => None,
        }
    }

    /// Packets transmitted.
    pub fn tx_packets(&self) -> u64 {
        self.tx_packets.value()
    }

    /// Packets received back.
    pub fn rx_packets(&self) -> u64 {
        self.rx_packets.value()
    }

    /// The forwarding-latency histogram: the retained RTT samples in
    /// `bins` equal bins over their own [min, max], as `(lo, hi, count)`.
    pub fn rtt_histogram(&self, bins: usize) -> Vec<(f64, f64, u64)> {
        self.latency.histogram(bins)
    }

    /// Builds the statistics report over the window `[start, end]`.
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

    /// Registers the `loadgen.*` statistics section. `now` bounds the
    /// measurement window for the rate/drop computation.
    pub fn register_stats(&self, now: Tick, reg: &mut simnet_sim::stats::StatsRegistry) {
        let report = self.report(0, now);
        let summary = &report.latency;
        reg.scoped("loadgen", |reg| {
            if self.clients > 1 {
                reg.scalar("clients", self.clients as u64, "fleet client endpoints");
            }
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

    /// Clears statistics (post-warm-up reset); generation state persists.
    pub fn reset_stats(&mut self) {
        self.tx_packets.reset();
        self.tx_bytes.reset();
        self.rx_packets.reset();
        self.rx_bytes.reset();
        self.latency.reset();
        if let LoadGenMode::Memcached(cfg) = &mut self.mode {
            cfg.reset_stats();
        }
        if let LoadGenMode::Tcp(cfg) = &mut self.mode {
            cfg.acked_bytes.reset();
            cfg.retransmissions.reset();
            cfg.timeouts.reset();
        }
    }
}

impl std::fmt::Debug for EtherLoadGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EtherLoadGen")
            .field("tx", &self.tx_packets.value())
            .field("rx", &self.rx_packets.value())
            .field("outstanding", &self.outstanding)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_net::MacAddr;
    use simnet_sim::tick::Bandwidth;

    fn synthetic_gen(gbps: f64, size: usize) -> EtherLoadGen {
        let cfg = SyntheticConfig::fixed_rate(
            size,
            Bandwidth::gbps(gbps),
            MacAddr::simulated(1),
            MacAddr::simulated(99),
        );
        EtherLoadGen::new(LoadGenMode::Synthetic(cfg), 7)
    }

    /// A fan-in of `clients` ports from the incast base: MAC index 100,
    /// source IPv4 10.0.1.0, UDP source port 40000; 256 B at 10 Gbps.
    fn fan_in(clients: usize) -> EtherLoadGen {
        let cfg = SyntheticConfig::fixed_rate(
            256,
            Bandwidth::gbps(10.0),
            MacAddr::simulated(1),
            MacAddr::simulated(100),
        )
        .with_rss_ports([10, 0, 1, 0], [10, 0, 0, 1], 9, vec![40_000]);
        EtherLoadGen::new(LoadGenMode::Synthetic(cfg), 7).with_clients(clients)
    }

    /// Takes the first departure due at or after `now`: its tick and its
    /// descriptor.
    fn depart(lg: &mut EtherLoadGen, now: Tick) -> (Tick, Descriptor) {
        let t = lg.next_departure(now).unwrap();
        match lg.take(t) {
            Some(Frame::Described(d)) => (t, d),
            other => panic!("synthetic frames depart described: {other:?}"),
        }
    }

    #[test]
    fn fixed_rate_departures_are_evenly_spaced() {
        let mut lg = synthetic_gen(10.0, 1000);
        let t0 = lg.next_departure(0).unwrap();
        lg.take(t0).unwrap();
        let t1 = lg.next_departure(t0).unwrap();
        lg.take(t1).unwrap();
        let t2 = lg.next_departure(t1).unwrap();
        // 1000B at 10 Gbps -> 800 ns between departures.
        assert_eq!(t1 - t0, 800_000);
        assert_eq!(t2 - t1, 800_000);
    }

    #[test]
    fn rtt_is_measured_from_embedded_timestamp() {
        let mut lg = synthetic_gen(10.0, 256);
        let frame = lg.take(1_000_000).unwrap();
        assert!(
            matches!(frame, Frame::Described(_)),
            "synthetic frames depart described"
        );
        let pkt = lg.build(frame);
        // Echo comes back 5 µs later.
        lg.on_rx(6_000_000, &pkt);
        let report = lg.report(0, 10_000_000);
        assert_eq!(report.latency.count, 1);
        assert_eq!(report.latency.mean, 5_000_000.0);
    }

    #[test]
    fn drop_percentage_reflects_unreturned_packets() {
        let mut lg = synthetic_gen(10.0, 256);
        let mut packets = Vec::new();
        let mut now = 0;
        for _ in 0..10 {
            now = lg.next_departure(now).unwrap();
            let frame = lg.take(now).unwrap();
            packets.push(lg.build(frame));
        }
        for pkt in &packets[..7] {
            lg.on_rx(now + 1000, pkt);
        }
        let report = lg.report(0, now + 2000);
        assert!((report.drop_rate - 0.3).abs() < 1e-12);
    }

    #[test]
    fn closed_loop_blocks_at_window() {
        let mut lg = synthetic_gen(100.0, 64);
        lg.set_closed_loop(2);
        let t0 = lg.next_departure(0).unwrap();
        let a = lg.take(t0).unwrap();
        let a = lg.build(a);
        let t1 = lg.next_departure(t0).unwrap();
        lg.take(t1).unwrap();
        assert_eq!(lg.next_departure(t1), None, "window of 2 is full");
        assert!(!lg.unblocked());
        lg.on_rx(t1 + 100, &a);
        assert!(lg.unblocked());
        assert!(lg.next_departure(t1 + 100).is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let cfg = SyntheticConfig::poisson(
                128,
                Bandwidth::gbps(20.0),
                MacAddr::simulated(1),
                MacAddr::simulated(2),
            );
            let mut lg = EtherLoadGen::new(LoadGenMode::Synthetic(cfg), 42);
            let mut times = Vec::new();
            let mut now = 0;
            for _ in 0..50 {
                now = lg.next_departure(now).unwrap();
                lg.take(now).unwrap();
                times.push(now);
            }
            times
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn register_stats_reports_packets_and_rtt() {
        use simnet_sim::stats::{DumpLevel, StatValue, StatsRegistry};

        let mut lg = synthetic_gen(10.0, 256);
        let frame = lg.take(1_000_000).unwrap();
        let pkt = lg.build(frame);
        lg.on_rx(6_000_000, &pkt); // 5 µs RTT

        let mut reg = StatsRegistry::new();
        lg.register_stats(10_000_000, &mut reg);
        assert!(reg.get("loadgen.clients").is_none(), "one client");
        assert_eq!(reg.get("loadgen.txPackets"), Some(&StatValue::Scalar(1)));
        assert_eq!(reg.get("loadgen.rxPackets"), Some(&StatValue::Scalar(1)));
        assert_eq!(
            reg.get("loadgen.rtt.mean_ns"),
            Some(&StatValue::Float(5_000.0))
        );
        assert!(reg.get("loadgen.dropRate").is_none(), "full-only stat");

        let mut full = StatsRegistry::with_level(DumpLevel::Full);
        lg.register_stats(10_000_000, &mut full);
        assert_eq!(reg.get("loadgen.txPackets"), Some(&StatValue::Scalar(1)));
        assert_eq!(full.get("loadgen.dropRate"), Some(&StatValue::Float(0.0)));

        let mut fan_in_reg = StatsRegistry::new();
        fan_in(8).register_stats(0, &mut fan_in_reg);
        let first = &fan_in_reg.entries()[0];
        assert_eq!(
            (first.path.as_str(), &first.value),
            ("loadgen.clients", &StatValue::Scalar(8))
        );
    }

    #[test]
    fn reset_stats_preserves_schedule() {
        let mut lg = fan_in(2);
        let (t0, _) = depart(&mut lg, 0);
        let next = lg.next_departure(t0);
        lg.reset_stats();
        assert_eq!(lg.tx_packets(), 0);
        assert_eq!(lg.next_departure(t0), next);
        assert_eq!(depart(&mut lg, t0).1.client, 1, "the client rotation too");
    }

    /// The client ports form one evenly spaced chain: departure k leaves
    /// at k × the aggregate interval, from client k mod N, as id k.
    #[test]
    fn client_ports_share_one_evenly_spaced_chain() {
        let mut lg = fan_in(4);
        // 256 B at 10 Gbps = 204.8 ns between departures of the fan-in.
        let agg = Bandwidth::gbps(10.0).bytes_to_ticks(256);
        let mut now = 0;
        for k in 0..64u64 {
            let (t, d) = depart(&mut lg, now);
            assert_eq!((t, d.id, d.client), (k * agg, k, (k % 4) as u8));
            now = t;
        }
    }

    #[test]
    fn frames_carry_client_identity_and_stamp() {
        let mut lg = fan_in(8);
        let (mut now, mut d) = depart(&mut lg, 0);
        for _ in 0..5 {
            (now, d) = depart(&mut lg, now);
        }
        assert_eq!(d.client, 5);
        let pkt = lg.build(Frame::Described(d));
        let eth = pkt.ethernet().unwrap();
        assert_eq!(eth.src, MacAddr::simulated(105));
        assert_eq!(lg.client_mac(5), Some(eth.src));
        assert_eq!(eth.dst, MacAddr::simulated(1));
        let (ip, udp, _) = pkt.udp().expect("checksum must verify");
        assert_eq!(ip.src, [10, 0, 1, 5]);
        assert_eq!(udp.src_port, 40_000);
        assert_eq!(
            timestamp::read_timestamp(&pkt, timestamp::UDP_OFFSET),
            Some(now)
        );
    }

    #[test]
    fn distinct_clients_spread_across_queues() {
        // Distinct per-client source IPs hash to different queues: a
        // fan-in exercises a multi-queue NIC without port games.
        let mut lg = fan_in(16);
        let mut seen = std::collections::HashSet::new();
        let mut now = 0;
        for _ in 0..16 {
            let (t, d) = depart(&mut lg, now);
            seen.insert(lg.spec(&d).unwrap().queue(4));
            now = t;
        }
        assert!(
            seen.len() >= 3,
            "16 source IPs hit ≥3 of 4 queues: {seen:?}"
        );
    }

    #[test]
    fn rtt_measured_through_on_rx_on_every_client() {
        let mut lg = fan_in(2);
        let (t0, a) = depart(&mut lg, 0);
        let (t1, b) = depart(&mut lg, t0);
        assert_eq!((a.client, b.client), (0, 1));
        let b = lg.build(Frame::Described(b));
        lg.on_rx(t1 + 5_000_000, &b);
        let report = lg.report(0, 10_000_000);
        assert_eq!(report.latency.count, 1);
        assert_eq!(report.latency.mean, 5_000_000.0);
    }

    #[test]
    fn client_ports_replay_deterministically() {
        let run = || {
            let mut lg = fan_in(4);
            let mut now = 0;
            let mut frames = Vec::new();
            for _ in 0..64 {
                let (t, d) = depart(&mut lg, now);
                frames.push((t, lg.build(Frame::Described(d)).bytes().to_vec()));
                now = t;
            }
            frames
        };
        assert_eq!(run(), run());
    }
}
