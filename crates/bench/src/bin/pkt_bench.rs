//! Packet-pool benchmark: pooled [`Packet`] (mempool + COW handles) vs
//! a deep-copy `Vec<u8>` packet — the representation the hot path used
//! before the mempool — emitting/checking the committed
//! `BENCH_pkt_pool.json`. Flags and the check rule are the
//! `simnet-bench` driver's.
//!
//! The workloads mirror the simulator's real per-packet life cycle: an
//! allocate-touch-free churn (loadgen builds, NIC consumes), a clone
//! fan-out (the per-hop `completion.packet.clone()` the mempool
//! removed), and the full RX→app→TX forwarding trip with a MAC swap.

use std::hint::black_box;
use std::process::ExitCode;

use simnet_bench::{scaled, Scenario, Suite};
use simnet_net::Packet;

/// The pre-mempool packet: id + owned bytes, deep-copied on clone. This
/// is byte-for-byte what `simnet-net::Packet` stored before the pool.
#[derive(Clone)]
struct VecPacket {
    id: u64,
    data: Vec<u8>,
}

impl VecPacket {
    fn zeroed(id: u64, len: usize) -> Self {
        Self {
            id,
            data: vec![0u8; len],
        }
    }

    fn macswap(&mut self) {
        for i in 0..6 {
            self.data.swap(i, 6 + i);
        }
    }
}

/// Allocate-touch-free churn: the loadgen/NIC edge of the pipeline.
/// Every iteration allocates a frame, stamps a header word, reads the
/// tail, and drops it. Pooled allocation recycles one freelist slot;
/// the Vec baseline round-trips the allocator every time.
fn alloc_touch_free_pooled(n: u64, len: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        let mut p = Packet::zeroed(i, len);
        black_box(p.bytes_mut())[0] = i as u8;
        acc = acc.wrapping_add(u64::from(black_box(p.bytes())[len - 1]) ^ p.id());
    }
    acc
}

fn alloc_touch_free_vec(n: u64, len: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        let mut p = VecPacket::zeroed(i, len);
        black_box(&mut p.data)[0] = i as u8;
        acc = acc.wrapping_add(u64::from(black_box(&p.data)[len - 1]) ^ p.id);
    }
    acc
}

/// Clone fan-out: one live frame handed to `n` observers that only
/// read — the exact shape of the per-hop `completion.packet.clone()`
/// the zero-copy handoff removed. Pooled clones bump a refcount; Vec
/// clones memcpy the full frame.
fn clone_fanout_pooled(n: u64, len: usize) -> u64 {
    let source = Packet::zeroed(1, len);
    let mut acc = 0u64;
    for i in 0..n {
        let c = black_box(source.clone());
        acc = acc.wrapping_add(u64::from(c.bytes()[(i as usize) % len]));
    }
    acc
}

fn clone_fanout_vec(n: u64, len: usize) -> u64 {
    let source = VecPacket::zeroed(1, len);
    let mut acc = 0u64;
    for i in 0..n {
        let c = black_box(source.clone());
        acc = acc.wrapping_add(u64::from(c.data[(i as usize) % len]));
    }
    acc
}

/// The full forwarding trip. Pooled semantics: the frame moves by value
/// through RX completion → app → TX request, and the app's MAC swap
/// mutates the unique buffer in place. Vec semantics (the old code):
/// RX clones into the completion, the app clones again for the TX
/// request, and the swap runs on the second copy.
fn forward_trip_pooled(n: u64, len: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        let mut rx = Packet::zeroed(i, len); // DMA writeback
        black_box(rx.bytes_mut())[12] = 0x08; // ethertype stamp
        let mut owned = black_box(rx); // by-value handoff to the app
        owned.macswap();
        acc = acc.wrapping_add(u64::from(black_box(owned.bytes())[6])); // TX consumes
    }
    acc
}

fn forward_trip_vec(n: u64, len: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        let mut wire = VecPacket::zeroed(i, len); // DMA writeback
        black_box(&mut wire.data)[12] = 0x08;
        let rx = black_box(wire.clone()); // completion kept a copy
        let mut tx = black_box(rx.clone()); // app forwarded a copy
        tx.macswap();
        acc = acc.wrapping_add(u64::from(black_box(&tx.data)[6]));
    }
    acc
}

fn run_scenarios(scale: f64, out: &mut Vec<Scenario>) {
    let n = scaled(1_000_000, scale);
    // Allocation churn on full-size frames.
    Scenario::time(
        out,
        "alloc_touch_free_1518",
        n,
        || alloc_touch_free_pooled(n, 1518),
        || alloc_touch_free_vec(n, 1518),
    );
    // Allocation churn on mid-size frames (the 512 B class), where
    // allocator traffic rather than frame zeroing dominates the
    // per-packet cost.
    Scenario::time(
        out,
        "alloc_touch_free_256",
        n,
        || alloc_touch_free_pooled(n, 256),
        || alloc_touch_free_vec(n, 256),
    );
    // Clone fan-out on full-size frames (the removed per-hop deep
    // copy).
    Scenario::time(
        out,
        "clone_fanout_1518",
        n,
        || clone_fanout_pooled(n, 1518),
        || clone_fanout_vec(n, 1518),
    );
    // The full RX→app→TX trip, by-value vs clone-per-hop.
    Scenario::time(
        out,
        "forward_trip_1518",
        n,
        || forward_trip_pooled(n, 1518),
        || forward_trip_vec(n, 1518),
    );
    // Minimum-size frames through the smallest (128 B) class — the
    // dominant workload of the paper's 64 B sweeps.
    Scenario::time(
        out,
        "alloc_touch_free_64",
        n,
        || alloc_touch_free_pooled(n, 64),
        || alloc_touch_free_vec(n, 64),
    );
}

fn main() -> ExitCode {
    Suite {
        title: "packet-pool bench",
        schema: "bench-pkt-pool-v1",
        keys: ["pooled_ns_per_pkt", "vec_ns_per_pkt"],
        sides: ["pooled", "vec"],
        unit: "ns/pkt",
    }
    .main(run_scenarios)
}
