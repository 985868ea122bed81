//! Differential test of the packed-tag [`Cache`] against
//! [`ReferenceCache`], the original one-record-per-way layout. Both run
//! the same random op streams on tiny geometries, with and without DCA
//! partitions, and must agree after every op on return values, all seven
//! statistics counters, occupancy and contents, including across the LRU
//! clock's wrap.

use proptest::prelude::*;
use simnet_mem::cache::reference::ReferenceCache;
use simnet_mem::cache::{AccessClass, Cache, CacheConfig, CacheStats};
use simnet_mem::{Addr, CACHE_LINE};

/// An address, drawn before the geometry is known: `line` is folded onto
/// twice the cache's lines, so streams revisit lines and evict them.
#[derive(Debug, Clone, Copy)]
struct Target {
    line: u64,
    offset: u64,
    /// Just below the top of the address space instead of at its bottom
    /// (where line 0 lives).
    high: bool,
}

impl Target {
    fn addr(self, cfg: CacheConfig) -> Addr {
        let span = 2 * cfg.size / CACHE_LINE;
        let base = if self.high {
            u64::MAX - (1 << 20) + 1
        } else {
            0
        };
        base + (self.line % span) * CACHE_LINE + self.offset
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(Target, AccessClass, bool),
    Fill(Target, AccessClass, bool),
    Invalidate(Target),
    Probe(Target),
}

/// 1–8 sets of 1–16 ways; with `dca`, a partition of 1..assoc DCA ways.
fn geometry() -> impl Strategy<Value = CacheConfig> {
    (0u32..=3, 1usize..=16, any::<bool>(), any::<usize>()).prop_map(
        |(set_log, assoc, dca, pick)| {
            let size = (1u64 << set_log) * assoc as u64 * CACHE_LINE;
            let dca_ways = if dca && assoc > 1 {
                1 + pick % (assoc - 1)
            } else {
                0
            };
            CacheConfig::with_dca(size, assoc, dca_ways)
        },
    )
}

/// The LRU clock's start: 0, or close enough to `u32::MAX` that a stream
/// crosses the wrap.
fn clock() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), (u32::MAX - 200)..=u32::MAX]
}

fn class() -> impl Strategy<Value = AccessClass> {
    prop_oneof![Just(AccessClass::Core), Just(AccessClass::Dma)]
}

fn target() -> impl Strategy<Value = Target> {
    (0u64..256, 0..CACHE_LINE, any::<bool>()).prop_map(|(line, offset, high)| Target {
        line,
        offset,
        high,
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (target(), class(), any::<bool>()).prop_map(|(t, c, w)| Op::Lookup(t, c, w)),
        3 => (target(), class(), any::<bool>()).prop_map(|(t, c, d)| Op::Fill(t, c, d)),
        1 => target().prop_map(Op::Invalidate),
        1 => target().prop_map(Op::Probe),
    ]
}

fn counters(s: &CacheStats) -> [u64; 7] {
    [
        s.core_hits.value(),
        s.core_misses.value(),
        s.dma_hits.value(),
        s.dma_misses.value(),
        s.evictions.value(),
        s.writebacks.value(),
        s.invalidations.value(),
    ]
}

/// Runs `ops` on both models and fails at the first divergence.
fn run_both(cfg: CacheConfig, clock: u32, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut new = Cache::new("new", cfg);
    let mut old = ReferenceCache::new("reference", cfg);
    new.set_lru_clock(clock);
    old.set_lru_clock(clock);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Lookup(t, c, w) => {
                let a = t.addr(cfg);
                let way = new.lookup(a, c, w);
                prop_assert_eq!(way.is_some(), old.lookup(a, c, w), "op {}: {:?}", i, op);
                prop_assert_eq!(way, new.probe(a), "op {}: hit way", i);
            }
            Op::Fill(t, c, d) => {
                let a = t.addr(cfg);
                let fill = new.fill(a, c, d);
                prop_assert_eq!(fill.evicted, old.fill(a, c, d), "op {}: {:?}", i, op);
                prop_assert_eq!(Some(fill.way), new.probe(a), "op {}: filled way", i);
            }
            Op::Invalidate(t) => {
                let a = t.addr(cfg);
                prop_assert_eq!(new.invalidate(a), old.invalidate(a), "op {}: {:?}", i, op);
            }
            Op::Probe(t) => {
                let a = t.addr(cfg);
                prop_assert_eq!(new.probe(a).is_some(), old.probe(a), "op {}: {:?}", i, op);
            }
        }
        prop_assert_eq!(
            counters(new.stats()),
            counters(old.stats()),
            "op {}: {:?}",
            i,
            op
        );
        prop_assert_eq!(new.occupancy(), old.occupancy(), "op {}: occupancy", i);
        let mut lines_new = new.resident_lines();
        let mut lines_old = old.resident_lines();
        lines_new.sort_unstable();
        lines_old.sort_unstable();
        prop_assert_eq!(lines_new, lines_old, "op {}: contents", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every op of a random stream agrees with the reference model.
    #[test]
    fn cache_matches_reference(
        cfg in geometry(),
        clock in clock(),
        ops in prop::collection::vec(op(), 1..400),
    ) {
        run_both(cfg, clock, &ops)?;
    }
}

/// A fixed stream across the wrap: after it every stamp but one is 0, so
/// the next victims are decided by the first-of-equals rule.
#[test]
fn lru_wrap_matches_reference() {
    let cfg = CacheConfig::with_dca(8 * CACHE_LINE, 4, 1);
    // Even lines are in set 0 of this 2-set cache.
    let set0 = |i: u64| Target {
        line: 2 * i,
        offset: 0,
        high: false,
    };
    let mut ops = Vec::new();
    for i in 0..4 {
        ops.push(Op::Fill(set0(i), AccessClass::Core, i % 2 == 0));
    }
    ops.push(Op::Fill(set0(4), AccessClass::Dma, true));
    for i in 5..12 {
        ops.push(Op::Fill(set0(i), AccessClass::Core, false));
        ops.push(Op::Lookup(set0(i - 5), AccessClass::Core, true));
    }
    run_both(cfg, u32::MAX - 3, &ops).unwrap();
}
