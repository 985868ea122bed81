//! Memcached client mode: GET/SET request generation with per-request
//! latency tracking.
//!
//! §VI.A: the client "generates key and value sizes using a Zipfian
//! distribution ... min = 10, max = 100, and skew = 0.5", with an 80%
//! GET ratio, and "the hardware EtherLoadGen model tracks a map of
//! outstanding requests using the request ID field in the Memcached
//! request packet."

use simnet_net::ethernet::ETHERNET_HEADER_LEN;
use simnet_net::ipv4::IPV4_HEADER_LEN;
use simnet_net::proto::memcached::{
    decode_response_datagram, encode_request_datagram_into, nth_key_into, request_datagram_len,
    Request, Response, NTH_KEY_LEN,
};
use simnet_net::udp::UDP_HEADER_LEN;
use simnet_net::{MacAddr, Packet, PacketBuilder, MIN_FRAME_LEN};
use simnet_sim::random::{Distribution, SimRng, Zipf};
use simnet_sim::stats::Counter;
use simnet_sim::tick::{Tick, S};

use crate::{CLIENT_IP, SERVER_IP};

/// The memcached server's UDP port.
pub const MEMCACHED_PORT: u16 = 11_211;

/// The source port of every request when none steers by shard.
const SRC_PORT: u16 = 40_000;

/// Sentinel for a free slot in the outstanding-request table (no real
/// send timestamp can reach it).
const NO_REQUEST: Tick = Tick::MAX;

/// Memcached client-mode parameters and state.
#[derive(Debug, Clone)]
pub struct MemcachedClientConfig {
    /// Request inter-arrival distribution (ticks).
    pub interarrival: Distribution,
    /// Fraction of GET requests (the paper uses 0.8).
    pub get_ratio: f64,
    /// Number of distinct keys (the paper warms 5000).
    pub key_space: u64,
    /// Value-length distribution for SETs.
    pub lengths: Zipf,
    /// Server (node-under-test) MAC.
    pub server_mac: MacAddr,
    /// Client MAC.
    pub client_mac: MacAddr,
    /// Per-key source ports steering each request onto the RSS queue
    /// that owns the key's shard (index = `key_shard(key, len)`). `None`
    /// sends every request from the single legacy source port.
    pub shard_ports: Option<Vec<u16>>,
    /// Send timestamps of outstanding requests, indexed by request id
    /// (a flat array beats a hash map in the per-request hot path;
    /// [`NO_REQUEST`] marks free slots).
    outstanding: Vec<Tick>,
    outstanding_count: usize,
    /// Reusable SET-value staging buffer (steady-state allocation-free).
    value_scratch: Vec<u8>,
    /// GET hits observed.
    pub hits: Counter,
    /// GET misses observed.
    pub misses: Counter,
    /// SET acknowledgements observed.
    pub stored: Counter,
    /// Responses that matched no outstanding request id.
    pub unmatched: Counter,
}

impl MemcachedClientConfig {
    /// A paper-style client: `rps` requests/second, 80% GET, 5000 keys,
    /// Zipf(10, 100, 0.5) lengths.
    pub fn paper_client(rps: f64, server_mac: MacAddr, client_mac: MacAddr) -> Self {
        assert!(rps > 0.0, "request rate must be positive");
        Self {
            interarrival: Distribution::Exponential {
                mean: S as f64 / rps,
            },
            get_ratio: 0.8,
            key_space: 5_000,
            lengths: Zipf::paper_lengths(),
            server_mac,
            client_mac,
            shard_ports: None,
            outstanding: vec![NO_REQUEST; 1 << 16],
            outstanding_count: 0,
            value_scratch: Vec::new(),
            hits: Counter::new(),
            misses: Counter::new(),
            stored: Counter::new(),
            unmatched: Counter::new(),
        }
    }

    /// The mean offered load in requests per second.
    pub fn offered_rps(&self) -> f64 {
        S as f64 / self.interarrival.mean()
    }

    /// Outstanding (unanswered) requests.
    pub fn outstanding_len(&self) -> usize {
        self.outstanding_count
    }

    pub(crate) fn build(&mut self, id: u64, now: Tick, rng: &mut SimRng) -> (Packet, Option<Tick>) {
        let request_id = (id % u64::from(u16::MAX) + 1) as u16;
        // Key on the stack, SET value in a reused scratch buffer, and the
        // datagram encoded straight into the pooled frame: a request
        // costs no heap allocation.
        let mut key = [0u8; NTH_KEY_LEN];
        nth_key_into(
            rng.uniform_u64(0, self.key_space.saturating_sub(1)),
            &mut key,
        );
        let request = if rng.chance(self.get_ratio) {
            Request::Get { key: &key }
        } else {
            let len = self.lengths.sample(rng) as usize;
            self.value_scratch.clear();
            self.value_scratch.resize(len, 0xA5);
            Request::Set {
                key: &key,
                value: &self.value_scratch,
            }
        };
        let datagram_len = request_datagram_len(&request);
        let natural = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + datagram_len;
        let src_port = match &self.shard_ports {
            Some(ports) => ports[simnet_net::rss::key_shard(&key, ports.len())],
            None => SRC_PORT,
        };
        let packet = PacketBuilder::new()
            .dst(self.server_mac)
            .src(self.client_mac)
            .udp(CLIENT_IP, SERVER_IP, src_port, MEMCACHED_PORT)
            .frame_len(natural.max(MIN_FRAME_LEN))
            .build_with(id, datagram_len, |buf| {
                encode_request_datagram_into(buf, request_id, &request);
            });
        if self.outstanding[request_id as usize] == NO_REQUEST {
            self.outstanding_count += 1;
        }
        self.outstanding[request_id as usize] = now;
        let interval = self.interarrival.sample(rng).round() as Tick;
        (packet, Some(interval.max(1)))
    }

    /// Matches a response to its request; returns the round-trip time.
    pub(crate) fn match_response(&mut self, now: Tick, packet: &Packet) -> Option<Tick> {
        let (_, _, payload) = packet.udp()?;
        let Ok((header, response)) = decode_response_datagram(payload) else {
            self.unmatched.inc();
            return None;
        };
        match response {
            Response::Hit { .. } => self.hits.inc(),
            Response::Miss => self.misses.inc(),
            Response::Stored => self.stored.inc(),
        }
        let slot = &mut self.outstanding[header.request_id as usize];
        if *slot == NO_REQUEST {
            self.unmatched.inc();
            return None;
        }
        let sent = *slot;
        *slot = NO_REQUEST;
        self.outstanding_count -= 1;
        Some(now.saturating_sub(sent))
    }

    pub(crate) fn reset_stats(&mut self) {
        self.hits.reset();
        self.misses.reset();
        self.stored.reset();
        self.unmatched.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_net::proto::memcached::{encode_response_datagram_into, response_datagram_len};

    fn client() -> MemcachedClientConfig {
        MemcachedClientConfig::paper_client(100_000.0, MacAddr::simulated(1), MacAddr::simulated(2))
    }

    #[test]
    fn offered_rps_round_trips() {
        let c = client();
        assert!((c.offered_rps() - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn requests_are_valid_memcached_datagrams() {
        let mut c = client();
        let mut rng = SimRng::seed_from(3);
        let (pkt, interval) = c.build(0, 1_000, &mut rng);
        assert!(interval.unwrap() > 0);
        let (_, udp, payload) = pkt.udp().expect("valid UDP frame");
        assert_eq!(udp.dst_port, MEMCACHED_PORT);
        let (hdr, req) = simnet_net::proto::memcached::decode_request_datagram(payload).unwrap();
        assert_eq!(hdr.request_id, 1);
        assert!(req.key().starts_with(b"key:"));
        assert_eq!(c.outstanding_len(), 1);
    }

    #[test]
    fn get_set_mix_approximates_ratio() {
        let mut c = client();
        let mut rng = SimRng::seed_from(4);
        let mut gets = 0;
        for i in 0..1000 {
            let (pkt, _) = c.build(i, 0, &mut rng);
            let (_, _, payload) = pkt.udp().unwrap();
            let (_, req) = simnet_net::proto::memcached::decode_request_datagram(payload).unwrap();
            if matches!(req, Request::Get { .. }) {
                gets += 1;
            }
        }
        assert!((700..900).contains(&gets), "gets={gets}");
    }

    #[test]
    fn response_matching_computes_rtt() {
        let mut c = client();
        let mut rng = SimRng::seed_from(5);
        let (request, _) = c.build(0, 10_000, &mut rng);
        let (ip, udp, _) = request.udp().unwrap();
        // Fake the server's reply.
        let mut datagram = vec![0u8; response_datagram_len(&Response::Stored)];
        encode_response_datagram_into(&mut datagram, 1, &Response::Stored);
        let reply = PacketBuilder::new()
            .dst(MacAddr::simulated(2))
            .src(MacAddr::simulated(1))
            .udp(ip.dst, ip.src, udp.dst_port, udp.src_port)
            .payload(&datagram)
            .frame_len(64)
            .build(0);
        let rtt = c.match_response(60_000, &reply);
        assert_eq!(rtt, Some(50_000));
        assert_eq!(c.stored.value(), 1);
        assert_eq!(c.outstanding_len(), 0);
        // A duplicate reply is unmatched.
        assert_eq!(c.match_response(70_000, &reply), None);
        assert_eq!(c.unmatched.value(), 1);
    }
}
