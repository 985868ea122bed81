//! Property-based invariants of the memory hierarchy.

use proptest::prelude::*;
use simnet_mem::{layout, MemoryConfig, MemorySystem, CACHE_LINE};

/// A random access script: mixes core reads/writes/fetches with DMA
/// writes/reads over a handful of address regions, and switches which
/// core's private caches the core accesses use.
#[derive(Debug, Clone)]
enum Step {
    CoreRead(u64),
    CoreWrite(u64),
    Ifetch(u64),
    DmaWrite(usize, u16),
    DmaWriteControl(usize, u16),
    DmaRead(usize, u16),
    /// Taken modulo the core count.
    SetActiveCore(usize),
}

/// Packet buffers the DMA steps write and read, and some core reads
/// touch: 64 slots hold ~3× the small config's DCA partition.
const SLOTS: usize = 64;

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..1 << 22).prop_map(|off| Step::CoreRead(layout::WORKSET_BASE + off)),
        // Packet data a DMA write may have stashed, or may overwrite next.
        ((0..SLOTS), (0u64..1518))
            .prop_map(|(slot, off)| Step::CoreRead(layout::mbuf_addr(slot) + off)),
        (0u64..1 << 22).prop_map(|off| Step::CoreWrite(layout::HEAP_BASE + off)),
        // A small region every core writes, so lines have several sharers.
        (0u64..1 << 14).prop_map(|off| Step::CoreWrite(layout::HEAP_BASE + off)),
        (0u64..1 << 20).prop_map(|off| Step::Ifetch(layout::WORKSET_BASE + (8 << 20) + off)),
        ((0..SLOTS), (60u16..1518)).prop_map(|(slot, len)| Step::DmaWrite(slot, len)),
        ((0..SLOTS), (16u16..64)).prop_map(|(slot, len)| Step::DmaWriteControl(slot, len)),
        ((0..SLOTS), (60u16..1518)).prop_map(|(slot, len)| Step::DmaRead(slot, len)),
        (0usize..4).prop_map(Step::SetActiveCore),
    ]
}

fn small_config() -> MemoryConfig {
    // Tiny caches so evictions and back-invalidations fire constantly.
    let mut cfg = MemoryConfig::table1_gem5();
    cfg.l1i = simnet_mem::cache::CacheConfig::new(8 << 10, 2);
    cfg.l1d = simnet_mem::cache::CacheConfig::new(8 << 10, 2);
    cfg.l2 = simnet_mem::cache::CacheConfig::new(32 << 10, 4);
    cfg.llc = simnet_mem::cache::CacheConfig::with_dca(128 << 10, 8, 2);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The inclusive-hierarchy invariant, and the snoop filter's (every
    /// private line has its core's bit in its LLC way's mask), survive
    /// arbitrary interleavings of core traffic on 1–4 cores, DMA writes
    /// with DCA on or off, and coherence invalidations. Checked after every
    /// step.
    #[test]
    fn hierarchy_stays_inclusive(
        cores in 1usize..=4,
        dca in any::<bool>(),
        steps in prop::collection::vec(step_strategy(), 1..400),
    ) {
        let cfg = if dca { small_config() } else { small_config().without_dca() };
        let mut mem = MemorySystem::new(cfg);
        mem.set_num_cores(cores);
        let mut now = 0u64;
        for (i, step) in steps.iter().enumerate() {
            now += 10_000;
            match *step {
                Step::CoreRead(a) => { mem.core_read(now, a, 8); }
                Step::CoreWrite(a) => { mem.core_write(now, a, 8); }
                Step::Ifetch(a) => { mem.instr_fetch(now, a); }
                Step::DmaWrite(slot, len) => {
                    mem.dma_write(now, layout::mbuf_addr(slot), len as u64);
                }
                Step::DmaWriteControl(slot, len) => {
                    mem.dma_write_control(now, layout::mbuf_addr(slot), len as u64);
                }
                Step::DmaRead(slot, len) => {
                    mem.dma_read(now, layout::mbuf_addr(slot), len as u64);
                }
                Step::SetActiveCore(c) => mem.set_active_core(c % cores),
            }
            mem.verify_inclusion()
                .map_err(|e| TestCaseError::fail(format!("step {i} ({step:?}): {e}")))?;
        }
    }

    /// Completion times are monotone: an access issued later never
    /// completes before an identical access issued earlier (per path).
    #[test]
    fn dma_completions_are_monotone(
        lens in prop::collection::vec(60u64..1518, 1..64),
    ) {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
        let mut now = 0u64;
        let mut last_done = 0u64;
        for (i, len) in lens.iter().enumerate() {
            now += 50_000;
            let done = mem.dma_write(now, layout::mbuf_addr(i % 1024), *len);
            prop_assert!(done >= now, "completion precedes issue");
            prop_assert!(done >= last_done, "bus order violated");
            last_done = done;
        }
    }

    /// Core access latency is always at least the L1 hit latency and the
    /// same line read twice in a row hits the L1.
    #[test]
    fn repeat_reads_hit_l1(addr in (0u64..1 << 30).prop_map(|a| layout::HEAP_BASE + a)) {
        let mut mem = MemorySystem::new(MemoryConfig::table1_gem5());
        let (first, _) = mem.core_read(0, addr, 8);
        let (second, level) = mem.core_read(first, addr, 8);
        prop_assert!(second <= first);
        prop_assert_eq!(level, simnet_mem::HitLevel::L1);
        prop_assert!(second >= 600, "at least ~2 cycles at 3 GHz: {}", second);
    }
}

#[test]
#[should_panic(expected = "limit of 8")]
fn more_cores_than_the_snoop_filter_holds_panics() {
    MemorySystem::new(small_config()).set_num_cores(9);
}

#[test]
fn dca_partition_bounds_dma_occupancy() {
    // DMA fills can never occupy more than dca_ways/assoc of the LLC.
    let mut mem = MemorySystem::new(small_config()); // 128 KiB LLC, 2/8 DCA
    for slot in 0..4096 {
        mem.dma_write(slot as u64 * 1000, layout::mbuf_addr(slot % 2048), 1518);
    }
    // Count resident mbuf-region lines in the LLC via probing.
    let resident = (0..2048 * 32)
        .filter(|i| {
            let addr = layout::MBUF_BASE + *i as u64 * CACHE_LINE;
            mem.core_read(u64::MAX / 2 + *i as u64 * 1000, addr, 8).1 == simnet_mem::HitLevel::Llc
        })
        .count();
    // The DCA partition is 2/8 x 128 KiB = 32 KiB = 512 lines; probing
    // promotes lines into core ways, so allow slack, but the bound must
    // be far below "whole LLC".
    assert!(
        resident <= 1024,
        "DMA data must stay within the DCA partition: {resident} lines"
    );
}
