//! Microbenchmarks of the simulator's hot paths.

use criterion::{criterion_group, criterion_main, Criterion};
use simnet_cpu::{Core, CoreConfig, Op};
use simnet_mem::{
    AccessClass, Cache, CacheConfig, DramConfig, DramController, MemoryConfig, MemorySystem,
};
use simnet_net::{MacAddr, PacketBuilder};
use simnet_nic::{Nic, NicConfig};
use simnet_sim::event::BinaryHeapQueue;
use simnet_sim::trace::Tracer;
use simnet_sim::EventQueue;

fn bench_event_queue(c: &mut Criterion) {
    // Ladder queue (the production `EventQueue`) against the retained
    // `BinaryHeapQueue` reference on the same workload. For the full
    // scenario matrix and the committed baseline see
    // `src/bin/queue_bench.rs` / BENCH_event_queue.json.
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(i * 7 % 997, i);
            }
            let mut sum = 0u64;
            while let Some(e) = q.pop() {
                sum = sum.wrapping_add(e.payload);
            }
            sum
        })
    });
    c.bench_function("event_queue_push_pop_1k_heap_ref", |b| {
        b.iter(|| {
            let mut q = BinaryHeapQueue::new();
            for i in 0..1000u64 {
                q.schedule(i * 7 % 997, i);
            }
            let mut sum = 0u64;
            while let Some(e) = q.pop() {
                sum = sum.wrapping_add(e.payload);
            }
            sum
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_lookup_fill_stream", |b| {
        let mut cache = Cache::new("bench", CacheConfig::new(1 << 20, 8));
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x1D872B41);
            let addr = (i ^ (i >> 13)) & 0xFF_FFFF;
            if cache.lookup(addr, AccessClass::Core, false).is_none() {
                cache.fill(addr, AccessClass::Core, false);
            }
        })
    });
}

fn bench_dram(c: &mut Criterion) {
    c.bench_function("dram_streaming_access", |b| {
        let mut dram = DramController::new(DramConfig::ddr4_2400(2));
        let mut now = 0;
        let mut addr = 0u64;
        b.iter(|| {
            addr += 64;
            now = dram.access(now, addr, addr.is_multiple_of(128));
            now
        })
    });
}

fn bench_memory_system(c: &mut Criterion) {
    c.bench_function("memory_system_dma_write_1518", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
        let mut now = 0;
        let mut slot = 0usize;
        b.iter(|| {
            slot = (slot + 1) % 1024;
            let done = mem.dma_write(now, simnet_mem::layout::mbuf_addr(slot), 1518);
            now = done.max(now);
            done
        })
    });
}

fn bench_core(c: &mut Criterion) {
    c.bench_function("ooo_core_mixed_ops", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
        let mut core = Core::new(CoreConfig::table1_ooo());
        let ops: Vec<Op> = (0..64u64)
            .flat_map(|i| [Op::Compute(50), Op::Load(0x4000_0000 + i * 320)])
            .collect();
        let mut now = 0;
        b.iter(|| {
            now = core.execute(now, &ops, &mut mem);
            now
        })
    });
}

fn bench_packet_build(c: &mut Criterion) {
    c.bench_function("packet_builder_udp", |b| {
        let mut builder = PacketBuilder::new();
        builder
            .dst(MacAddr::simulated(1))
            .src(MacAddr::simulated(2))
            .udp([10, 0, 0, 1], [10, 0, 0, 2], 4000, 11211)
            .payload(&[7u8; 100])
            .frame_len(256);
        let mut id = 0;
        b.iter(|| {
            id += 1;
            builder.build(id)
        })
    });
}

fn rx_loop(
    nic: &mut Nic,
    mem: &mut MemorySystem,
    builder: &mut PacketBuilder,
    now: &mut u64,
    id: &mut u64,
) -> u64 {
    *id += 1;
    *now += 30_000;
    let _ = nic.wire_rx(*now, builder.build(*id));
    if let Some(t) = nic.rx_dma_start(*now, mem) {
        *now = (*now).max(t);
    }
    while let Some(t) = nic.rx_dma_advance(*now, mem) {
        *now = (*now).max(t);
    }
    let polled = nic.rx_poll(*now, 32);
    nic.rx_ring_post(polled.len());
    *now
}

/// The NIC RX hot path with tracing disabled (the default — one `Option`
/// null-check per emit site) versus enabled. The disabled variant is the
/// cost every ordinary run pays for the trace layer existing at all.
fn bench_nic_trace_overhead(c: &mut Criterion) {
    let mut builder = PacketBuilder::new();
    builder
        .dst(MacAddr::simulated(1))
        .src(MacAddr::simulated(9))
        .frame_len(1518);

    c.bench_function("nic_rx_path_trace_disabled", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
        let mut nic = Nic::new(NicConfig::paper_default());
        nic.rx_ring_post(1024);
        let (mut now, mut id) = (0u64, 0u64);
        b.iter(|| rx_loop(&mut nic, &mut mem, &mut builder, &mut now, &mut id))
    });
    c.bench_function("nic_rx_path_trace_enabled", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
        let mut nic = Nic::new(NicConfig::paper_default());
        // A small ring in drop-oldest mode: steady-state cost, no growth.
        nic.set_tracer(Tracer::enabled(4096));
        nic.rx_ring_post(1024);
        let (mut now, mut id) = (0u64, 0u64);
        b.iter(|| rx_loop(&mut nic, &mut mem, &mut builder, &mut now, &mut id))
    });
}

/// The NIC RX hot path with no fault plan installed (the default — one
/// `Option` null-check per query site) versus an active plan. The
/// disabled variant must stay within noise of `nic_rx_path_trace_disabled`
/// above: fault injection is zero-cost when unused.
fn bench_nic_fault_overhead(c: &mut Criterion) {
    use simnet_sim::fault::{FaultInjector, FaultPlan};

    let mut builder = PacketBuilder::new();
    builder
        .dst(MacAddr::simulated(1))
        .src(MacAddr::simulated(9))
        .frame_len(1518);

    c.bench_function("nic_rx_path_faults_disabled", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
        let mut nic = Nic::new(NicConfig::paper_default());
        nic.set_fault_injector(FaultInjector::disabled());
        nic.rx_ring_post(1024);
        let (mut now, mut id) = (0u64, 0u64);
        b.iter(|| rx_loop(&mut nic, &mut mem, &mut builder, &mut now, &mut id))
    });
    c.bench_function("nic_rx_path_faults_enabled", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
        let mut nic = Nic::new(NicConfig::paper_default());
        // A low-intensity plan: per-frame RNG draws without drowning the
        // path in actual drops.
        let plan = FaultPlan::parse("link.ber=1e-9;dma.burst=+500ns/1us@100us").unwrap();
        nic.set_fault_injector(FaultInjector::new(plan, 42));
        nic.rx_ring_post(1024);
        let (mut now, mut id) = (0u64, 0u64);
        b.iter(|| rx_loop(&mut nic, &mut mem, &mut builder, &mut now, &mut id))
    });
}

criterion_group! {
    name = components;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue, bench_cache, bench_dram, bench_memory_system,
              bench_core, bench_packet_build, bench_nic_trace_overhead,
              bench_nic_fault_overhead
}
criterion_main!(components);
