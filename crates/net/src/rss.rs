//! Receive-side scaling: the Toeplitz flow hash steering packets to RX
//! queues.
//!
//! Multi-queue NICs (82574/82599 and everything since) spread incoming
//! flows across RX rings by hashing the IP/port 4-tuple with a Toeplitz
//! hash keyed by a 40-byte secret, then indexing a queue by `hash %
//! nqueues`. DPDK's testpmd and the kernel's RPS both build on the same
//! primitive. We use the well-known *symmetric* key (0x6d5a repeated),
//! which makes the hash invariant under (src ↔ dst) exchange so both
//! directions of a flow land on the same queue — the property real
//! middleboxes rely on, and the property our tests lock down.
//!
//! Non-IP/UDP frames (ARP, the synthetic load generator's raw frames)
//! carry no 4-tuple and always steer to queue 0, exactly like a real
//! NIC's default-queue fallback.

use crate::packet::Packet;

/// Length of the RSS secret key in bytes (the 82599's key size).
pub const RSS_KEY_LEN: usize = 40;

/// The symmetric Toeplitz key: `0x6d5a` repeated. Because the key is
/// periodic with a 16-bit period, sliding the hash window by any
/// multiple of 16 bits leaves it unchanged, which makes the hash
/// symmetric under swapping the 32-bit IP pair and the 16-bit port pair.
pub const SYMMETRIC_KEY: [u8; RSS_KEY_LEN] = {
    let mut key = [0u8; RSS_KEY_LEN];
    let mut i = 0;
    while i < RSS_KEY_LEN {
        key[i] = if i % 2 == 0 { 0x6d } else { 0x5a };
        i += 1;
    }
    key
};

/// The raw Toeplitz hash of `data` under `key`.
///
/// Bit-serial reference implementation: for every set bit `i` of the
/// input, XOR in the 32-bit window of the key starting at bit `i`.
pub fn toeplitz(key: &[u8; RSS_KEY_LEN], data: &[u8]) -> u32 {
    assert!(
        data.len() * 8 + 32 <= RSS_KEY_LEN * 8,
        "input of {} bytes exhausts the {RSS_KEY_LEN}-byte key",
        data.len()
    );
    let mut hash: u32 = 0;
    let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    for (i, &byte) in data.iter().enumerate() {
        for bit in 0..8 {
            if byte & (0x80 >> bit) != 0 {
                hash ^= window;
            }
            // Slide the window one bit left, pulling in key bit 32+i*8+bit.
            let pos = 32 + i * 8 + bit;
            let next = (key[pos / 8] >> (7 - pos % 8)) & 1;
            window = (window << 1) | u32::from(next);
        }
    }
    hash
}

/// Hashes the UDP/IPv4 4-tuple in the canonical RSS input layout:
/// source IP, destination IP, source port, destination port.
pub fn hash_tuple(src_ip: [u8; 4], dst_ip: [u8; 4], src_port: u16, dst_port: u16) -> u32 {
    let mut input = [0u8; 12];
    input[0..4].copy_from_slice(&src_ip);
    input[4..8].copy_from_slice(&dst_ip);
    input[8..10].copy_from_slice(&src_port.to_be_bytes());
    input[10..12].copy_from_slice(&dst_port.to_be_bytes());
    toeplitz(&SYMMETRIC_KEY, &input)
}

/// The RX queue for `packet` on a NIC with `nqueues` queues.
///
/// Frames without a parseable IPv4/UDP 4-tuple steer to queue 0 (the
/// hardware default queue); with one queue everything does.
pub fn queue_for(packet: &Packet, nqueues: usize) -> usize {
    if nqueues <= 1 {
        return 0;
    }
    match packet.udp() {
        Some((ip, udp, _)) => queue_for_tuple(ip.src, ip.dst, udp.src_port, udp.dst_port, nqueues),
        None => 0,
    }
}

/// The RX queue of a UDP/IPv4 frame with this 4-tuple on a NIC with
/// `nqueues` queues: what [`queue_for`] returns for any such frame whose
/// checksums verify, without building it.
#[inline]
pub fn queue_for_tuple(
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    src_port: u16,
    dst_port: u16,
    nqueues: usize,
) -> usize {
    if nqueues <= 1 {
        return 0;
    }
    (hash_tuple(src_ip, dst_ip, src_port, dst_port) as usize) % nqueues
}

/// FNV-1a shard index for an application key — the store-sharding
/// counterpart of [`queue_for`]: memcached shards its keyspace with this
/// and the client picks a source port (via [`ports_for_queues`]) that
/// RSS-steers each shard's requests to the owning queue.
pub fn key_shard(key: &[u8], shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The first port the per-queue source-port search considers.
pub const PORT_SEARCH_START: u16 = 40_000;

/// The smallest client source port in `PORT_SEARCH_START..=u16::MAX`
/// whose 4-tuple RSS-hashes to queue `q` on an `nqueues`-queue NIC, or
/// `None` when no port in the ephemeral range steers there. The search
/// range is inclusive of `u16::MAX`: 65535 is a legal source port and a
/// legal candidate.
pub fn port_for_queue(
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    dst_port: u16,
    nqueues: usize,
    q: usize,
) -> Option<u16> {
    (PORT_SEARCH_START..=u16::MAX)
        .find(|&p| queue_for_tuple(src_ip, dst_ip, p, dst_port, nqueues) == q)
}

/// For each queue index `q` in `0..nqueues`, the smallest client source
/// port ≥ 40000 whose 4-tuple RSS-hashes to `q`. Deterministic, so the
/// client and any replay agree on the steering without negotiation.
///
/// # Panics
///
/// Panics if some queue is unreachable from the searched port range
/// (cannot happen for `nqueues ≤ 8` with the symmetric key).
pub fn ports_for_queues(
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    dst_port: u16,
    nqueues: usize,
) -> Vec<u16> {
    (0..nqueues)
        .map(|q| {
            port_for_queue(src_ip, dst_ip, dst_port, nqueues, q)
                .expect("every queue is reachable from the port range")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MacAddr, PacketBuilder};
    use proptest::prelude::*;

    #[test]
    fn known_window_slides_across_key_period() {
        // One set bit at offset k*16 XORs in the same window for all k:
        // the key is 16-bit periodic, so single-bit inputs 16 bits apart
        // hash identically.
        let one_high = toeplitz(&SYMMETRIC_KEY, &[0x80, 0, 0, 0]);
        let shifted = toeplitz(&SYMMETRIC_KEY, &[0, 0, 0x80, 0, 0, 0]);
        assert_eq!(one_high, shifted);
        assert_ne!(one_high, 0);
    }

    #[test]
    fn symmetric_key_makes_hash_direction_invariant() {
        let fwd = hash_tuple([10, 0, 0, 2], [10, 0, 0, 1], 40_017, 11_211);
        let rev = hash_tuple([10, 0, 0, 1], [10, 0, 0, 2], 11_211, 40_017);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn non_udp_frames_steer_to_queue_zero() {
        let raw = PacketBuilder::new()
            .dst(MacAddr::simulated(1))
            .src(MacAddr::simulated(2))
            .frame_len(64)
            .build(0);
        for n in 1..=8 {
            assert_eq!(queue_for(&raw, n), 0);
        }
    }

    #[test]
    fn single_queue_short_circuits() {
        let udp = PacketBuilder::new()
            .dst(MacAddr::simulated(1))
            .src(MacAddr::simulated(2))
            .udp([10, 0, 0, 2], [10, 0, 0, 1], 40_000, 11_211)
            .frame_len(64)
            .build(0);
        assert_eq!(queue_for(&udp, 1), 0);
    }

    #[test]
    fn ports_for_queues_steer_where_promised() {
        for n in [2usize, 3, 4, 5, 7, 8] {
            let ports = ports_for_queues([10, 0, 0, 2], [10, 0, 0, 1], 11_211, n);
            assert_eq!(ports.len(), n);
            for (q, &p) in ports.iter().enumerate() {
                let pkt = PacketBuilder::new()
                    .dst(MacAddr::simulated(1))
                    .src(MacAddr::simulated(2))
                    .udp([10, 0, 0, 2], [10, 0, 0, 1], p, 11_211)
                    .frame_len(64)
                    .build(0);
                assert_eq!(queue_for(&pkt, n), q, "port {p} must steer to queue {q}");
            }
        }
    }

    #[test]
    fn port_search_range_includes_the_top_port() {
        // Regression: the search once ran over `40_000..u16::MAX`, which
        // silently excluded port 65535. Find a queue count where 65535 is
        // the *only* ephemeral port steering to its queue; the search
        // must then return exactly 65535 — with the exclusive bound it
        // returned `None` instead.
        let (src, dst, dport) = ([10, 0, 0, 2], [10, 0, 0, 1], 11_211);
        let mut witnessed = false;
        for shift in 17..=24u32 {
            let n = 1usize << shift;
            let q = (hash_tuple(src, dst, u16::MAX, dport) as usize) % n;
            let collides = (PORT_SEARCH_START..u16::MAX)
                .any(|p| (hash_tuple(src, dst, p, dport) as usize) % n == q);
            if !collides {
                assert_eq!(
                    port_for_queue(src, dst, dport, n, q),
                    Some(u16::MAX),
                    "queue {q} of {n} is reachable only via port 65535"
                );
                witnessed = true;
                break;
            }
        }
        assert!(
            witnessed,
            "no queue count isolated port 65535; widen the shift range"
        );
    }

    #[test]
    fn flow_spread_is_roughly_uniform() {
        // Chi-square goodness of fit over a synthetic flow population:
        // 4096 distinct source ports against 4 queues. With a healthy
        // hash the statistic is ~χ²(3); we allow a generous margin but
        // reject gross skew (a broken hash concentrates everything).
        for n in [2usize, 4, 6, 8] {
            let flows = 4096u32;
            let mut counts = vec![0u32; n];
            for f in 0..flows {
                let port = 1024 + (f % 60_000) as u16;
                let ip = [10, 0, (f / 60_000) as u8, 2];
                let h = hash_tuple(ip, [10, 0, 0, 1], port, 11_211);
                counts[(h as usize) % n] += 1;
            }
            let expect = f64::from(flows) / n as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| {
                    let d = f64::from(c) - expect;
                    d * d / expect
                })
                .sum();
            assert!(
                chi2 < 4.0 * n as f64,
                "queue spread too skewed for n={n}: counts={counts:?} chi2={chi2:.1}"
            );
            assert!(counts.iter().all(|&c| c > 0), "empty queue for n={n}");
        }
    }

    #[test]
    fn key_shard_is_stable_and_bounded() {
        for n in 1..=8 {
            for i in 0..64u64 {
                let key = crate::proto::memcached::nth_key(i);
                let s = key_shard(&key, n);
                assert!(s < n);
                assert_eq!(s, key_shard(&key, n), "shard must be deterministic");
            }
        }
    }

    proptest! {
        /// hash(src→dst) == hash(dst→src) for arbitrary tuples.
        #[test]
        fn hash_is_symmetric(
            a in any::<u32>(),
            b in any::<u32>(),
            pa in any::<u16>(),
            pb in any::<u16>(),
        ) {
            let (a, b) = (a.to_be_bytes(), b.to_be_bytes());
            prop_assert_eq!(hash_tuple(a, b, pa, pb), hash_tuple(b, a, pb, pa));
        }

        /// Queue indices stay in bounds for any queue count, including
        /// non-powers-of-two, for any parseable frame.
        #[test]
        fn queue_index_in_bounds(
            n in 1usize..=8,
            src in any::<u32>(),
            sport in any::<u16>(),
        ) {
            let pkt = PacketBuilder::new()
                .dst(MacAddr::simulated(1))
                .src(MacAddr::simulated(2))
                .udp(src.to_be_bytes(), [10, 0, 0, 1], sport, 11_211)
                .frame_len(64)
                .build(0);
            prop_assert!(queue_for(&pkt, n) < n);
        }

        /// Steering depends only on the 4-tuple: re-encoding the frame
        /// with a different payload, id, or length must not move the flow.
        #[test]
        fn steering_survives_reencode(
            n in 2usize..=8,
            sport in any::<u16>(),
            len in 64usize..1200,
            fill in any::<u8>(),
        ) {
            let a = PacketBuilder::new()
                .dst(MacAddr::simulated(1))
                .src(MacAddr::simulated(2))
                .udp([10, 0, 0, 2], [10, 0, 0, 1], sport, 11_211)
                .frame_len(64)
                .build(1);
            let payload = vec![fill; 16];
            let b = PacketBuilder::new()
                .dst(MacAddr::simulated(3))
                .src(MacAddr::simulated(4))
                .udp([10, 0, 0, 2], [10, 0, 0, 1], sport, 11_211)
                .payload(&payload)
                .frame_len(len)
                .build(2);
            prop_assert_eq!(queue_for(&a, n), queue_for(&b, n));
        }
    }
}
