//! Property tests for the packet mempool (`simnet-net::pool`): recycled
//! buffers must be indistinguishable from fresh allocations, handles
//! must never alias each other's visible bytes, and every buffer lent to
//! the simulation must come back — even when fault injection corrupts
//! writebacks or wedges the RX FIFO mid-run.

use proptest::prelude::*;
use simnet::harness::config::TopoConfig;
use simnet::harness::summary::run_phases;
use simnet::harness::{build_loadgen_sim, AppSpec, RunConfig, SystemConfig};
use simnet::net::pool;
use simnet::net::{Packet, MAX_FRAME_LEN};
use simnet::sim::fault::{FaultInjector, FaultPlan};
use simnet::sim::tick::us;

/// A reference model of packet semantics: plain owned bytes. The pooled
/// implementation must be observationally identical to this.
#[derive(Clone, PartialEq, Debug)]
struct ModelPacket {
    id: u64,
    data: Vec<u8>,
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// No aliasing between live handles: mutating one clone of a packet
    /// never changes the bytes another handle sees, for frame lengths
    /// across every class boundary.
    #[test]
    fn clones_never_alias(
        len in prop_oneof![Just(1usize), Just(63), Just(64), Just(65),
                           Just(128), Just(129), Just(512), Just(1024), Just(1518)],
        fill in 0u8..=255,
        poke in 0u8..=255,
        offset_frac in 0.0f64..1.0,
    ) {
        let mut original = Packet::zeroed(7, len);
        original.bytes_mut().fill(fill);
        let snapshot = original.bytes().to_vec();

        let mut mutant = original.clone();
        let bystander = original.clone();
        let offset = ((len - 1) as f64 * offset_frac) as usize;
        mutant.bytes_mut()[offset] = poke;

        prop_assert_eq!(original.bytes(), &snapshot[..], "original untouched");
        prop_assert_eq!(bystander.bytes(), &snapshot[..], "sibling untouched");
        prop_assert_eq!(mutant.bytes()[offset], poke);
        prop_assert_eq!(mutant.len(), len);
    }

    /// Recycle correctness: buffers cycled through the freelist behave
    /// exactly like the never-recycled reference model — a dirty
    /// previous tenant can never show through, and interleaved live
    /// handles keep their own bytes.
    #[test]
    fn recycled_buffers_match_the_model(
        rounds in 1usize..6,
        lens in proptest::collection::vec(1usize..=MAX_FRAME_LEN, 1..12),
    ) {
        for round in 0..rounds {
            let mut live = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                let id = (round * 100 + i) as u64;
                let fill = (id % 251) as u8;
                let model = ModelPacket { id, data: vec![fill; len] };
                let mut pooled = Packet::zeroed(id, len);
                pooled.bytes_mut().fill(fill);
                live.push((model, pooled));
            }
            // Every pooled packet matches its model while all are live...
            for (model, pooled) in &live {
                prop_assert_eq!(pooled.id(), model.id);
                prop_assert_eq!(pooled.bytes(), &model.data[..]);
            }
            // ...and fresh zeroed allocations after the drop stay zero.
            drop(live);
            let check = Packet::zeroed(0, *lens.first().unwrap());
            prop_assert!(check.bytes().iter().all(|&b| b == 0),
                "recycled buffer leaked a previous tenant's bytes");
        }
    }

    /// Freelist reuse is LIFO: the most recently dropped buffer of a
    /// class is handed out first (DPDK's cache-hot recycling order).
    #[test]
    fn freelist_reuse_is_lifo(len in 65usize..=1518, count in 2usize..8) {
        let handles: Vec<Packet> = (0..count).map(|i| Packet::zeroed(i as u64, len)).collect();
        let ptrs: Vec<*const u8> = handles.iter().map(|p| p.bytes().as_ptr()).collect();
        drop(handles);
        // Hold each repop alive so the pops walk the freelist instead of
        // bouncing the same top-of-stack buffer.
        let mut repopped = Vec::new();
        for expect in ptrs.iter().rev() {
            let fresh = Packet::zeroed(0, len);
            prop_assert_eq!(fresh.bytes().as_ptr(), *expect, "LIFO order violated");
            repopped.push(fresh);
        }
    }
}

/// Runs a faulted loadgen-mode point and returns the pool ledger after
/// the simulation (and every packet it held) has been dropped.
fn faulted_ledger(plan: &str, size: usize, gbps: f64) -> pool::PoolStats {
    let mut sim = build_loadgen_sim(&SystemConfig::gem5(), &AppSpec::TestPmd, size, gbps);
    if !plan.is_empty() {
        let plan = FaultPlan::parse(plan).expect("valid plan");
        sim.install_faults(FaultInjector::new(plan, 11));
    }
    run_phases(
        &mut sim,
        RunConfig {
            warmup: us(100),
            measure: us(400),
        },
    );
    drop(sim);
    pool::stats()
}

/// Like [`faulted_ledger`], but assembled at an arbitrary
/// `(nqueues, lcores)` point: packets now ride per-queue FIFOs, global
/// mbuf slots, and worker-lcore TX batches before returning to the pool.
fn faulted_ledger_mq(
    nq: usize,
    lcores: usize,
    plan: &str,
    size: usize,
    gbps: f64,
) -> pool::PoolStats {
    let cfg = SystemConfig::gem5().with_queues(nq).with_lcores(lcores);
    let mut sim = simnet::harness::build_loadgen_sim(&cfg, &AppSpec::TestPmd, size, gbps);
    if !plan.is_empty() {
        let plan = FaultPlan::parse(plan).expect("valid plan");
        sim.install_faults(FaultInjector::new(plan, 11));
    }
    run_phases(
        &mut sim,
        RunConfig {
            warmup: us(100),
            measure: us(400),
        },
    );
    drop(sim);
    pool::stats()
}

/// Leak conservation: every buffer the pool lent out comes back once the
/// simulation drops, even when `nic.wb_corrupt` discards frames on the
/// writeback path or `nic.fifo_stuck` wedges the RX FIFO — the fault
/// paths must not strand (or double-free) packet buffers.
#[test]
fn fault_plans_conserve_the_buffer_ledger() {
    for plan in [
        "nic.wb_corrupt=12%",
        "nic.fifo_stuck=15us@50us",
        "nic.wb_corrupt=8%;nic.fifo_stuck=10us@40us;link.ber=2e-5",
    ] {
        for size in [256usize, 1518] {
            let stats = faulted_ledger(plan, size, 45.0);
            assert_eq!(
                stats.live(),
                0,
                "plan {plan} size {size} stranded buffers: {stats:?}"
            );
            // The warm-up boundary zeroes the counters while warm-up-era
            // buffers are still live, so post-reset every measured alloc
            // recycles, plus the warm-up stragglers: recycles >= allocs.
            assert!(
                stats.total_recycles() >= stats.total_allocs(),
                "alloc/recycle books must balance for {plan}: {stats:?}"
            );
            assert!(
                stats.total_allocs() > 0,
                "a {size}B run must exercise the pool"
            );
        }
    }
}

/// Burst-path leak conservation: packets abandoned half-drained in the
/// NIC FIFOs when the run ends, and packets corrupted or dropped
/// mid-flight while `dma.burst` stretches the DMA path, must still
/// return to the pool — and the final ledger must be identical when the
/// same faulted point is replayed.
#[test]
fn faulted_burst_path_conserves_the_buffer_ledger() {
    for plan in [
        "",
        "nic.wb_corrupt=10%;link.ber=3e-5",
        "nic.fifo_stuck=15us@50us;dma.burst=+500ns/2us@20us",
    ] {
        let reference = faulted_ledger(plan, 512, 45.0);
        assert_eq!(
            reference.live(),
            0,
            "plan {plan}: reference run stranded buffers: {reference:?}"
        );
        assert!(
            reference.total_allocs() > 0,
            "plan {plan}: a 512B run must exercise the pool"
        );
        let replay = faulted_ledger(plan, 512, 45.0);
        assert_eq!(
            replay.live(),
            0,
            "plan {plan}: replay stranded buffers: {replay:?}"
        );
        assert_eq!(
            (replay.total_allocs(), replay.total_recycles()),
            (reference.total_allocs(), reference.total_recycles()),
            "plan {plan}: the alloc/recycle books must be replay-deterministic"
        );
    }
}

/// Multi-queue leak conservation: frames now land in per-queue FIFOs,
/// carry global (queue-offset) mbuf slot indices, and are retired by
/// whichever worker lcore owns the queue — every one of those hand-offs
/// must still return its buffer to the pool, clean and faulted alike,
/// including frames abandoned mid-queue when the run ends.
#[test]
fn multi_queue_fault_plans_conserve_the_buffer_ledger() {
    for (nq, lcores) in [(2usize, 2usize), (4, 2), (4, 4)] {
        for plan in [
            "",
            "nic.wb_corrupt=12%",
            "nic.wb_corrupt=8%;nic.fifo_stuck=10us@40us;link.ber=2e-5",
        ] {
            let stats = faulted_ledger_mq(nq, lcores, plan, 512, 45.0);
            assert_eq!(
                stats.live(),
                0,
                "{nq}q/{lcores}l plan {plan} stranded buffers: {stats:?}"
            );
            assert!(
                stats.total_recycles() >= stats.total_allocs(),
                "{nq}q/{lcores}l alloc/recycle books must balance for {plan}: {stats:?}"
            );
            assert!(
                stats.total_allocs() > 0,
                "a {nq}q/{lcores}l run must exercise the pool"
            );
        }
    }
}

/// The clean-run ledger also balances (a control for the faulted cases),
/// and recycling actually happens: a bounded in-flight population served
/// far more allocations than its high-water mark.
#[test]
fn clean_run_recycles_instead_of_growing() {
    let stats = faulted_ledger("", 1518, 45.0);
    assert_eq!(stats.live(), 0, "clean run stranded buffers: {stats:?}");
    assert_eq!(stats.heap_fallback, 0, "clean run must not hit the heap");
    assert!(
        stats.total_allocs() > stats.high_water,
        "a bounded in-flight population must serve more allocations than \
         its peak: allocs={} hwm={}",
        stats.total_allocs(),
        stats.high_water
    );
}

/// Only frames the NIC admits hold pool buffers. A synthetic frame
/// travels the wire as a descriptor and is built when the RX FIFO admits
/// it, and TestPMD forwards that buffer in place, so the window's class
/// allocations equal `system.nic.rxPackets`. Neither the 64 B knee,
/// where about three frames in four drop in the NIC, nor an 8-client
/// incast whose 512-frame trunk tail-drops, falls back to the heap.
#[test]
fn only_admitted_frames_hold_pool_buffers() {
    let knee = SystemConfig::gem5();
    let incast = SystemConfig::gem5().with_topo(TopoConfig::incast(8).with_trunk_queue(512));
    for (cfg, size, gbps) in [(knee, 64, 70.0), (incast, 1518, 120.0)] {
        let mut sim = build_loadgen_sim(&cfg, &AppSpec::TestPmd, size, gbps);
        let summary = run_phases(&mut sim, RunConfig::fast());
        let stats = pool::stats();
        let admitted = sim.nodes[0].nic.stats().rx_frames.value();
        assert!(
            summary.report.tx_packets > admitted,
            "{size} B: the load must overrun the path ({} sent, {admitted} admitted)",
            summary.report.tx_packets
        );
        assert_eq!(stats.heap_fallback, 0, "{size} B hit the heap: {stats:?}");
        assert_eq!(
            stats.total_allocs(),
            admitted,
            "{size} B: one buffer per admitted frame: {stats:?}"
        );
    }
}

/// Exhausting a class's budget falls back to the heap instead of
/// panicking or recycling live buffers, and the fallback handles remain
/// fully functional.
#[test]
fn exhausted_class_falls_back_to_heap() {
    pool::set_class_limit(2, 4);
    let baseline = pool::stats();
    let mut held: Vec<Packet> = (0..12).map(|i| Packet::zeroed(i, 1500)).collect();
    let after = pool::stats();
    assert!(
        after.heap_fallback >= baseline.heap_fallback + 8,
        "allocations beyond the class budget must fall back to the heap"
    );
    // Fallback handles behave like pooled ones: COW, equality, bytes.
    let copy = held[11].clone();
    held[11].bytes_mut()[0] = 0xEE;
    assert_eq!(copy.bytes()[0], 0, "COW must protect the shared fallback");
    drop(held);
    drop(copy);
    assert_eq!(pool::stats().live(), baseline.live(), "fallbacks all freed");
    pool::set_class_limit(2, usize::MAX);
}
