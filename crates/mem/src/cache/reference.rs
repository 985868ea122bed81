//! The reference cache model: the original [`super::Cache`], one 16-byte
//! record per way holding tag, valid and dirty bits and LRU stamp.
//!
//! [`ReferenceCache`] is not used by the simulator. It is the oracle of the
//! differential test (`crates/mem/tests/cache_model.rs`), which runs it
//! beside [`super::Cache`] on random op streams and requires identical
//! hits, victims, writebacks, statistics and contents.

use super::{AccessClass, CacheConfig, CacheStats, Eviction};
use crate::{line_base, Addr, CACHE_LINE};

#[derive(Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Higher = more recently used.
    lru: u32,
}

/// A set-associative, write-back, write-allocate cache tag array: the
/// straightforward model [`super::Cache`] must agree with.
pub struct ReferenceCache {
    name: &'static str,
    cfg: CacheConfig,
    sets: Vec<Line>,
    lru_clock: u32,
    stats: CacheStats,
}

impl ReferenceCache {
    /// Creates an empty cache.
    pub fn new(name: &'static str, cfg: CacheConfig) -> Self {
        cfg.validate();
        Self {
            name,
            cfg,
            sets: vec![Line::default(); cfg.sets() * cfg.assoc],
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Sets the LRU clock, so that a test can reach its wrap without
    /// four billion accesses.
    #[doc(hidden)]
    pub fn set_lru_clock(&mut self, clock: u32) {
        self.lru_clock = clock;
    }

    #[inline]
    fn set_index(&self, addr: Addr) -> usize {
        ((addr / CACHE_LINE) as usize) & (self.cfg.sets() - 1)
    }

    #[inline]
    fn set_range(&self, addr: Addr) -> std::ops::Range<usize> {
        let set = self.set_index(addr);
        let base = set * self.cfg.assoc;
        base..base + self.cfg.assoc
    }

    fn touch_lru(&mut self, idx: usize) {
        self.lru_clock = self.lru_clock.wrapping_add(1);
        // On wrap, age everything to keep relative order sane.
        if self.lru_clock == 0 {
            for line in &mut self.sets {
                line.lru = 0;
            }
            self.lru_clock = 1;
        }
        self.sets[idx].lru = self.lru_clock;
    }

    /// Looks up `addr`; on hit updates LRU (and the dirty bit if `write`)
    /// and records a hit. On miss records a miss. Returns whether it hit.
    pub fn lookup(&mut self, addr: Addr, class: AccessClass, write: bool) -> bool {
        let tag = line_base(addr);
        let range = self.set_range(addr);
        for idx in range {
            if self.sets[idx].valid && self.sets[idx].tag == tag {
                self.touch_lru(idx);
                if write {
                    self.sets[idx].dirty = true;
                }
                self.stats.record_hit(class);
                return true;
            }
        }
        self.stats.record_miss(class);
        false
    }

    /// Checks residency without updating LRU or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        let tag = line_base(addr);
        self.set_range(addr)
            .any(|idx| self.sets[idx].valid && self.sets[idx].tag == tag)
    }

    /// Inserts the line for `addr`, choosing a victim from the partition
    /// belonging to `class`. Returns what was displaced.
    ///
    /// If the line is already present this just updates LRU/dirty state.
    pub fn fill(&mut self, addr: Addr, class: AccessClass, dirty: bool) -> Eviction {
        let tag = line_base(addr);
        let range = self.set_range(addr);

        // Already present (e.g. raced by an earlier fill on this path).
        for idx in range.clone() {
            if self.sets[idx].valid && self.sets[idx].tag == tag {
                self.touch_lru(idx);
                if dirty {
                    self.sets[idx].dirty = true;
                }
                return Eviction::None;
            }
        }

        // Partition: with dca_ways = d, ways [0, d) belong to DMA fills and
        // ways [d, assoc) to core fills. Unpartitioned caches use the whole
        // set for both classes.
        let base = range.start;
        let (lo, hi) = if self.cfg.dca_ways == 0 {
            (0, self.cfg.assoc)
        } else {
            match class {
                AccessClass::Dma => (0, self.cfg.dca_ways),
                AccessClass::Core => (self.cfg.dca_ways, self.cfg.assoc),
            }
        };

        // Prefer an invalid way in the partition.
        let mut victim = None;
        for way in lo..hi {
            let idx = base + way;
            if !self.sets[idx].valid {
                victim = Some(idx);
                break;
            }
        }
        // Otherwise the LRU way in the partition.
        let victim = victim.unwrap_or_else(|| {
            (lo..hi)
                .map(|way| base + way)
                .min_by_key(|&idx| self.sets[idx].lru)
                .expect("partition is non-empty")
        });

        let evicted = if self.sets[victim].valid {
            self.stats.evictions.inc();
            if self.sets[victim].dirty {
                self.stats.writebacks.inc();
                Eviction::Dirty(self.sets[victim].tag)
            } else {
                Eviction::Clean(self.sets[victim].tag)
            }
        } else {
            Eviction::None
        };

        self.sets[victim] = Line {
            tag,
            valid: true,
            dirty,
            lru: 0,
        };
        self.touch_lru(victim);
        evicted
    }

    /// Removes the line for `addr` if present. Returns whether the removed
    /// line was dirty (the caller owns the writeback).
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let tag = line_base(addr);
        let range = self.set_range(addr);
        for idx in range {
            if self.sets[idx].valid && self.sets[idx].tag == tag {
                let dirty = self.sets[idx].dirty;
                self.sets[idx] = Line::default();
                self.stats.invalidations.inc();
                return Some(dirty);
            }
        }
        None
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().filter(|l| l.valid).count()
    }

    /// Addresses of all resident lines.
    pub fn resident_lines(&self) -> Vec<Addr> {
        self.sets
            .iter()
            .filter(|l| l.valid)
            .map(|l| l.tag)
            .collect()
    }
}

impl std::fmt::Debug for ReferenceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceCache")
            .field("name", &self.name)
            .field("size", &self.cfg.size)
            .field("assoc", &self.cfg.assoc)
            .field("dca_ways", &self.cfg.dca_ways)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}
