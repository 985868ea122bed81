//! The two memcached servers: MemcachedDPDK and MemcachedKernel.
//!
//! "MemcachedDPDK is a simple in-memory key-value store implemented on top
//! of DPDK ... MemcachedKernel is an in-memory key-value store implemented
//! using the memcached library and Linux POSIX APIs" (§V). Both parse the
//! memcached-over-UDP protocol, execute against the same [`KvStore`], and
//! respond; the kernel variant additionally pays an event-loop dispatch
//! cost (libevent) on top of the kernel stack's own syscall/copy costs.

use simnet_cpu::{ops, Op};
use simnet_mem::Addr;
use simnet_net::ethernet::ETHERNET_HEADER_LEN;
use simnet_net::ipv4::IPV4_HEADER_LEN;
use simnet_net::proto::memcached::{
    decode_request_datagram, encode_response_datagram_into, response_datagram_len, Request,
    Response,
};
use simnet_net::udp::UDP_HEADER_LEN;
use simnet_net::{Packet, PacketBuilder};
use simnet_nic::i8254x::RxCompletion;
use simnet_sim::stats::Counter;
use simnet_stack::footprint::FootprintStream;
use simnet_stack::{AppAction, PacketApp};

use crate::kvstore::KvStore;

/// Base of the memcached application's instruction footprint.
const APP_CODE_BASE: simnet_mem::Addr = simnet_mem::layout::WORKSET_BASE + (48 << 20);
/// Base of the memcached application's connection/state footprint.
const APP_STATE_BASE: simnet_mem::Addr = simnet_mem::layout::WORKSET_BASE + (56 << 20);

/// Shared server logic.
#[derive(Debug)]
struct Server {
    store: KvStore,
    /// Application-level instructions per request beyond the KV work
    /// (command parsing, item bookkeeping, stats, response assembly —
    /// real memcached spends tens of thousands of instructions per
    /// request).
    dispatch_instructions: u64,
    /// Application code footprint (drives the Fig. 10/11 L1/L2
    /// sensitivity of the memcached series).
    code: FootprintStream,
    /// Connection/item metadata footprint.
    state: FootprintStream,
    responses: Counter,
    parse_errors: Counter,
}

impl Server {
    fn handle(
        &mut self,
        completion: RxCompletion,
        buf_addr: Addr,
        ops_out: &mut Vec<Op>,
    ) -> AppAction {
        let Some((ip, udp, payload)) = completion.packet.udp() else {
            self.parse_errors.inc();
            return AppAction::Consume;
        };
        let Ok((header, request)) = decode_request_datagram(payload) else {
            self.parse_errors.inc();
            return AppAction::Consume;
        };

        // Parse + dispatch: the request bytes come to the core, the
        // event/dispatch code is fetched, connection state is walked.
        ops_out.push(Op::Compute(self.dispatch_instructions));
        self.code.emit_ifetches(ops_out, 18);
        self.state.emit_loads(ops_out, 16);
        ops::loads_over(ops_out, buf_addr, completion.packet.len() as u64);

        // The response borrows a hit's value straight out of the store:
        // no copy until the bytes land in the reply frame.
        let response = match request {
            Request::Get { key } => match self.store.get(key, ops_out) {
                Some(value) => Response::Hit { value },
                None => Response::Miss,
            },
            Request::Set { key, value } => {
                self.store.set(key, value, ops_out);
                Response::Stored
            }
        };

        // Encode the response directly into the (pooled) reply frame.
        ops_out.push(Op::Compute(120));
        let datagram_len = response_datagram_len(&response);
        let eth = completion
            .packet
            .ethernet()
            .expect("udp() implies a valid ethernet header");
        let natural = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + datagram_len;
        let reply: Packet = PacketBuilder::new()
            .dst(eth.src)
            .src(eth.dst)
            .udp(ip.dst, ip.src, udp.dst_port, udp.src_port)
            .frame_len(natural.max(simnet_net::MIN_FRAME_LEN))
            .build_with(completion.packet.id(), datagram_len, |buf| {
                encode_response_datagram_into(buf, header.request_id, &response);
            });
        self.responses.inc();
        AppAction::Respond(reply)
    }
}

/// Memcached on the DPDK stack.
#[derive(Debug)]
pub struct MemcachedDpdk {
    server: Server,
}

impl MemcachedDpdk {
    /// Creates the server around a warmed (or empty) store.
    pub fn new(store: KvStore) -> Self {
        Self::for_lcore(store, 0)
    }

    /// Creates a per-lcore server shard: code and connection-state
    /// footprints land in that lcore's private slice of the address map.
    /// `for_lcore(store, 0)` is exactly `new(store)`.
    pub fn for_lcore(store: KvStore, lcore: usize) -> Self {
        let off = lcore as u64 * (64 << 20);
        Self {
            server: Server {
                store,
                dispatch_instructions: 10_000,
                code: FootprintStream::new(APP_CODE_BASE + off, 768 << 10, 0.7, 0xD9D1),
                state: FootprintStream::new(APP_STATE_BASE + off, 1 << 20, 0.5, 0xD9D2),
                responses: Counter::new(),
                parse_errors: Counter::new(),
            },
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &KvStore {
        &self.server.store
    }

    /// Responses sent.
    pub fn responses(&self) -> u64 {
        self.server.responses.value()
    }

    /// Requests that failed to parse.
    pub fn parse_errors(&self) -> u64 {
        self.server.parse_errors.value()
    }
}

impl PacketApp for MemcachedDpdk {
    fn name(&self) -> &'static str {
        "memcached-dpdk"
    }

    fn on_packet(
        &mut self,
        completion: RxCompletion,
        buf_addr: Addr,
        ops: &mut Vec<Op>,
    ) -> AppAction {
        self.server.handle(completion, buf_addr, ops)
    }
}

/// Memcached on the kernel stack (the `memcached` binary with libevent).
#[derive(Debug)]
pub struct MemcachedKernel {
    server: Server,
}

impl MemcachedKernel {
    /// Creates the server around a warmed (or empty) store.
    pub fn new(store: KvStore) -> Self {
        Self::for_lcore(store, 0)
    }

    /// Creates a per-lcore server shard (worker-thread memcached): code
    /// and connection-state footprints land in that lcore's private
    /// slice of the address map. `for_lcore(store, 0)` is `new(store)`.
    pub fn for_lcore(store: KvStore, lcore: usize) -> Self {
        let off = lcore as u64 * (64 << 20);
        Self {
            server: Server {
                store,
                // libevent dispatch, connection bookkeeping, per-thread
                // stats, slab accounting: the full memcached binary.
                dispatch_instructions: 18_000,
                code: FootprintStream::new(APP_CODE_BASE + off, 1536 << 10, 0.6, 0xD9D3),
                state: FootprintStream::new(APP_STATE_BASE + off, 2 << 20, 0.5, 0xD9D4),
                responses: Counter::new(),
                parse_errors: Counter::new(),
            },
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &KvStore {
        &self.server.store
    }

    /// Responses sent.
    pub fn responses(&self) -> u64 {
        self.server.responses.value()
    }
}

impl PacketApp for MemcachedKernel {
    fn name(&self) -> &'static str {
        "memcached-kernel"
    }

    fn on_packet(
        &mut self,
        completion: RxCompletion,
        buf_addr: Addr,
        ops: &mut Vec<Op>,
    ) -> AppAction {
        self.server.handle(completion, buf_addr, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_net::proto::memcached::{
        decode_response_datagram, encode_request_datagram, nth_key,
    };
    use simnet_net::MacAddr;
    use simnet_sim::random::{SimRng, Zipf};

    fn warm_store() -> KvStore {
        let mut store = KvStore::new(4096);
        store.warm(
            100,
            &Zipf::paper_lengths(),
            &mut SimRng::seed_from(9),
            |_| true,
        );
        store
    }

    fn request_packet(request_id: u16, request: &Request) -> RxCompletion {
        let datagram = encode_request_datagram(request_id, request);
        RxCompletion {
            visible_at: 0,
            packet: PacketBuilder::new()
                .dst(MacAddr::simulated(1))
                .src(MacAddr::simulated(2))
                .udp([10, 0, 0, 2], [10, 0, 0, 1], 40_000, 11_211)
                .payload(&datagram)
                .frame_len(128)
                .build(77),
            slot: 0,
        }
    }

    #[test]
    fn get_hit_produces_addressed_reply() {
        let mut app = MemcachedDpdk::new(warm_store());
        let completion = request_packet(42, &Request::Get { key: &nth_key(5) });
        let mut ops = Vec::new();
        let AppAction::Respond(reply) = app.on_packet(completion, 0x5000_0000, &mut ops) else {
            panic!("server must respond");
        };
        // Reply goes back to the requester with swapped addressing.
        let eth = reply.ethernet().unwrap();
        assert_eq!(eth.dst, MacAddr::simulated(2));
        assert_eq!(eth.src, MacAddr::simulated(1));
        let (ip, udp, payload) = reply.udp().expect("valid reply frame");
        assert_eq!(ip.dst, [10, 0, 0, 2]);
        assert_eq!(udp.dst_port, 40_000);
        let (hdr, response) = decode_response_datagram(payload).unwrap();
        assert_eq!(hdr.request_id, 42);
        assert!(matches!(response, Response::Hit { .. }));
        assert_eq!(app.responses(), 1);
    }

    #[test]
    fn get_missing_key_is_a_miss() {
        let mut app = MemcachedDpdk::new(warm_store());
        let completion = request_packet(1, &Request::Get { key: b"not-a-key" });
        let mut ops = Vec::new();
        let AppAction::Respond(reply) = app.on_packet(completion, 0, &mut ops) else {
            panic!("respond");
        };
        let (_, _, payload) = reply.udp().unwrap();
        let (_, response) = decode_response_datagram(payload).unwrap();
        assert_eq!(response, Response::Miss);
    }

    #[test]
    fn set_stores_and_acknowledges() {
        let mut app = MemcachedDpdk::new(KvStore::new(64));
        let completion = request_packet(
            2,
            &Request::Set {
                key: b"new",
                value: &[9; 40],
            },
        );
        let mut ops = Vec::new();
        let AppAction::Respond(reply) = app.on_packet(completion, 0, &mut ops) else {
            panic!("respond");
        };
        let (_, _, payload) = reply.udp().unwrap();
        let (_, response) = decode_response_datagram(payload).unwrap();
        assert_eq!(response, Response::Stored);
        assert_eq!(app.store().len(), 1);
    }

    #[test]
    fn garbage_is_consumed_not_answered() {
        let mut app = MemcachedDpdk::new(KvStore::new(64));
        let completion = RxCompletion {
            visible_at: 0,
            packet: PacketBuilder::new().frame_len(64).build(0),
            slot: 0,
        };
        let mut ops = Vec::new();
        assert_eq!(app.on_packet(completion, 0, &mut ops), AppAction::Consume);
        assert_eq!(app.parse_errors(), 1);
    }

    #[test]
    fn kernel_variant_costs_more_dispatch() {
        let mut dpdk = MemcachedDpdk::new(warm_store());
        let mut kernel = MemcachedKernel::new(warm_store());
        let completion = request_packet(3, &Request::Get { key: &nth_key(1) });
        let mut a = Vec::new();
        let mut b = Vec::new();
        dpdk.on_packet(completion.clone(), 0, &mut a);
        kernel.on_packet(completion, 0, &mut b);
        let instr = |ops: &[Op]| ops.iter().map(Op::instructions).sum::<u64>();
        assert!(instr(&b) > instr(&a) + 5000);
        assert_eq!(kernel.responses(), 1);
    }
}
