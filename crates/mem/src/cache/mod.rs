//! Set-associative write-back caches with optional DCA way partitioning.

pub mod reference;
mod stats;

pub use stats::CacheStats;

use crate::{line_base, Addr, CACHE_LINE};

/// Who is accessing the cache. DCA-partitioned caches choose the victim way
/// from the matching partition (§III.A.4: "partitioning LLC ways between
/// DCA ways and core ways").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// CPU load/store/fetch path.
    Core,
    /// NIC DMA path (cache stashing).
    Dma,
}

/// Cache geometry and partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Ways reserved for DMA (DCA) fills; 0 disables partitioning and DMA
    /// fills use the whole set.
    pub dca_ways: usize,
}

impl CacheConfig {
    /// Creates an unpartitioned configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (size/associativity/set-count).
    pub fn new(size: u64, assoc: usize) -> Self {
        let cfg = Self {
            size,
            assoc,
            dca_ways: 0,
        };
        cfg.validate();
        cfg
    }

    /// Creates a DCA-partitioned configuration (`dca_ways` of `assoc`).
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry or if `dca_ways >= assoc`.
    pub fn with_dca(size: u64, assoc: usize, dca_ways: usize) -> Self {
        let cfg = Self {
            size,
            assoc,
            dca_ways,
        };
        cfg.validate();
        cfg
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size / CACHE_LINE) as usize / self.assoc
    }

    fn validate(&self) {
        assert!(self.assoc > 0, "associativity must be positive");
        assert!(
            self.size.is_multiple_of(CACHE_LINE * self.assoc as u64) && self.size > 0,
            "cache size {} must be a positive multiple of line * assoc",
            self.size
        );
        let sets = self.sets();
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        assert!(
            self.dca_ways < self.assoc,
            "dca_ways {} must leave at least one core way of {}",
            self.dca_ways,
            self.assoc
        );
    }
}

/// What a fill displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// An invalid way was used; nothing displaced.
    None,
    /// A clean line was displaced (silent drop).
    Clean(Addr),
    /// A dirty line was displaced and must be written back.
    Dirty(Addr),
}

impl Eviction {
    /// The displaced line's address, if any.
    pub fn addr(&self) -> Option<Addr> {
        match *self {
            Eviction::None => None,
            Eviction::Clean(a) | Eviction::Dirty(a) => Some(a),
        }
    }
}

/// Where [`Cache::fill`] put its line, and what it displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    /// The way now holding the line (see [`Cache::lookup`]).
    pub way: usize,
    /// What the fill displaced; [`Eviction::None`] also when the line was
    /// already present.
    pub evicted: Eviction,
}

/// Tag-word bit: the way holds a line.
const VALID: u64 = 1;
/// Tag-word bit: the line is dirty.
const DIRTY: u64 = 2;

/// A set-associative, write-back, write-allocate cache tag array.
///
/// This models *contents and replacement*, not timing — latencies live in
/// [`crate::system::MemorySystem`], which also wires evictions into
/// writebacks and inclusive back-invalidations.
///
/// Each way is one tag word, the line address with `VALID` and `DIRTY`
/// in its free low bits (0 is an invalid way), and the LRU stamps live in a
/// parallel array, so a set's tags are contiguous. A way is named by its
/// index in the whole array, `set * assoc + way`; it holds its line until
/// the line is evicted or invalidated, so callers can keep per-line side
/// state indexed by it. [`reference::ReferenceCache`] is the original
/// layout, kept as the oracle these decisions must match.
///
/// ```
/// use simnet_mem::{AccessClass, Cache, CacheConfig};
/// let mut c = Cache::new("l1d", CacheConfig::new(32 * 1024, 4));
/// assert_eq!(c.lookup(0x1000, AccessClass::Core, false), None);
/// let way = c.fill(0x1000, AccessClass::Core, false).way;
/// assert_eq!(c.lookup(0x1000, AccessClass::Core, false), Some(way));
/// ```
pub struct Cache {
    name: &'static str,
    cfg: CacheConfig,
    /// `cfg.sets() - 1`.
    set_mask: usize,
    /// One word per way, set by set.
    tags: Vec<u64>,
    /// LRU stamps, parallel to `tags`. Higher = more recently used.
    stamps: Vec<u32>,
    lru_clock: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(name: &'static str, cfg: CacheConfig) -> Self {
        cfg.validate();
        let ways = cfg.sets() * cfg.assoc;
        Self {
            name,
            cfg,
            set_mask: cfg.sets() - 1,
            tags: vec![0; ways],
            stamps: vec![0; ways],
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's name (for stats dumps).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears statistics (post-warm-up reset); contents are kept.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Sets the LRU clock, so that a test can reach its wrap without
    /// four billion accesses.
    #[doc(hidden)]
    pub fn set_lru_clock(&mut self, clock: u32) {
        self.lru_clock = clock;
    }

    /// The index of the first way of `addr`'s set.
    #[inline]
    fn set_base(&self, addr: Addr) -> usize {
        (((addr / CACHE_LINE) as usize) & self.set_mask) * self.cfg.assoc
    }

    /// The way of `addr`'s set holding `want` (a line address with
    /// [`VALID`]), if any.
    #[inline]
    fn find(&self, base: usize, want: u64) -> Option<usize> {
        self.tags[base..base + self.cfg.assoc]
            .iter()
            .position(|&t| t & !DIRTY == want)
            .map(|way| base + way)
    }

    fn touch_lru(&mut self, idx: usize) {
        self.lru_clock = self.lru_clock.wrapping_add(1);
        // On wrap, age everything to keep relative order sane.
        if self.lru_clock == 0 {
            self.stamps.fill(0);
            self.lru_clock = 1;
        }
        self.stamps[idx] = self.lru_clock;
    }

    /// Looks up `addr`; on hit updates LRU (and the dirty bit if `write`)
    /// and records a hit. On miss records a miss. Returns the way that hit.
    pub fn lookup(&mut self, addr: Addr, class: AccessClass, write: bool) -> Option<usize> {
        let hit = self.find(self.set_base(addr), line_base(addr) | VALID);
        match hit {
            Some(idx) => {
                self.touch_lru(idx);
                if write {
                    self.tags[idx] |= DIRTY;
                }
                self.stats.record_hit(class);
            }
            None => self.stats.record_miss(class),
        }
        hit
    }

    /// The way holding `addr`, without updating LRU or statistics.
    pub fn probe(&self, addr: Addr) -> Option<usize> {
        self.find(self.set_base(addr), line_base(addr) | VALID)
    }

    /// Inserts the line for `addr`, choosing a victim from the partition
    /// belonging to `class`: its first invalid way, else its least recently
    /// used way (the first of equals). Returns the way and what was
    /// displaced.
    ///
    /// If the line is already present anywhere in the set, this just
    /// updates LRU/dirty state.
    pub fn fill(&mut self, addr: Addr, class: AccessClass, dirty: bool) -> Fill {
        let want = line_base(addr) | VALID;
        let base = self.set_base(addr);

        // Already present (e.g. raced by an earlier fill on this path).
        if let Some(idx) = self.find(base, want) {
            self.touch_lru(idx);
            if dirty {
                self.tags[idx] |= DIRTY;
            }
            return Fill {
                way: idx,
                evicted: Eviction::None,
            };
        }

        // Partition: with dca_ways = d, ways [0, d) belong to DMA fills and
        // ways [d, assoc) to core fills. Unpartitioned caches use the whole
        // set for both classes.
        let assoc = self.cfg.assoc;
        let part = match (self.cfg.dca_ways, class) {
            (0, _) => base..base + assoc,
            (d, AccessClass::Dma) => base..base + d,
            (d, AccessClass::Core) => base + d..base + assoc,
        };
        // Prefer an invalid way in the partition, else its LRU way.
        let idx = match self.tags[part.clone()].iter().position(|&t| t == 0) {
            Some(way) => part.start + way,
            None => part
                .min_by_key(|&idx| self.stamps[idx])
                .expect("partition is non-empty"),
        };

        let old = self.tags[idx];
        let evicted = if old == 0 {
            Eviction::None
        } else {
            self.stats.evictions.inc();
            let line = old & !(CACHE_LINE - 1);
            if old & DIRTY != 0 {
                self.stats.writebacks.inc();
                Eviction::Dirty(line)
            } else {
                Eviction::Clean(line)
            }
        };
        self.tags[idx] = want | if dirty { DIRTY } else { 0 };
        self.touch_lru(idx);
        Fill { way: idx, evicted }
    }

    /// Removes the line for `addr` if present. Returns whether the removed
    /// line was dirty (the caller owns the writeback).
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let idx = self.find(self.set_base(addr), line_base(addr) | VALID)?;
        let dirty = self.tags[idx] & DIRTY != 0;
        self.tags[idx] = 0;
        self.stats.invalidations.inc();
        Some(dirty)
    }

    /// Number of currently valid lines (test/diagnostic aid).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Addresses of all resident lines (diagnostic aid for invariant
    /// checks, e.g. hierarchy inclusion).
    pub fn resident_lines(&self) -> Vec<Addr> {
        self.tags
            .iter()
            .filter(|&&t| t != 0)
            .map(|&t| t & !(CACHE_LINE - 1))
            .collect()
    }
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("name", &self.name)
            .field("size", &self.cfg.size)
            .field("assoc", &self.cfg.assoc)
            .field("dca_ways", &self.cfg.dca_ways)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new("tiny", CacheConfig::new(512, 2))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(c.lookup(0x40, AccessClass::Core, false).is_none());
        c.fill(0x40, AccessClass::Core, false);
        assert!(c.lookup(0x40, AccessClass::Core, false).is_some());
        assert_eq!(c.stats().core_hits.value(), 1);
        assert_eq!(c.stats().core_misses.value(), 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny();
        c.fill(0x80, AccessClass::Core, false);
        assert!(c.lookup(0x81, AccessClass::Core, false).is_some());
        assert!(c.lookup(0xBF, AccessClass::Core, false).is_some());
        assert!(c.lookup(0xC0, AccessClass::Core, false).is_none());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines 0x000, 0x100, 0x200, ... (4 sets * 64B stride).
        c.fill(0x000, AccessClass::Core, false);
        c.fill(0x100, AccessClass::Core, false);
        // Touch 0x000 so 0x100 is LRU.
        c.lookup(0x000, AccessClass::Core, false);
        let ev = c.fill(0x200, AccessClass::Core, false).evicted;
        assert_eq!(ev, Eviction::Clean(0x100));
        assert!(c.probe(0x000).is_some());
        assert!(c.probe(0x100).is_none());
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0x000, AccessClass::Core, true);
        c.fill(0x100, AccessClass::Core, false);
        c.lookup(0x100, AccessClass::Core, false);
        let ev = c.fill(0x200, AccessClass::Core, false).evicted;
        assert_eq!(ev, Eviction::Dirty(0x000));
        assert_eq!(c.stats().writebacks.value(), 1);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny();
        c.fill(0x000, AccessClass::Core, false);
        c.lookup(0x000, AccessClass::Core, true);
        c.fill(0x100, AccessClass::Core, false);
        c.lookup(0x100, AccessClass::Core, false);
        // Force eviction of 0x000 (LRU after 0x100 was touched later).
        c.lookup(0x100, AccessClass::Core, false);
        let ev = c.fill(0x200, AccessClass::Core, false).evicted;
        assert_eq!(ev, Eviction::Dirty(0x000));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x40, AccessClass::Core, true);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert_eq!(c.invalidate(0x40), None);
        assert!(c.probe(0x40).is_none());
    }

    #[test]
    fn refill_existing_line_does_not_evict() {
        let mut c = tiny();
        c.fill(0x40, AccessClass::Core, false);
        assert_eq!(
            c.fill(0x40, AccessClass::Core, true).evicted,
            Eviction::None
        );
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn dca_partition_isolates_core_from_dma() {
        // 2 sets x 4 ways, 1 DCA way.
        let mut c = Cache::new("llc", CacheConfig::with_dca(512, 4, 1));
        // Fill the core partition of set 0 (3 ways): lines 0, 0x80, 0x100.
        c.fill(0x000, AccessClass::Core, false);
        c.fill(0x080, AccessClass::Core, false);
        c.fill(0x100, AccessClass::Core, false);
        // DMA fills go to the single DCA way and never evict core lines.
        for i in 0..16 {
            c.fill(0x1000 + i * 0x80, AccessClass::Dma, true);
        }
        assert!(c.probe(0x000).is_some());
        assert!(c.probe(0x080).is_some());
        assert!(c.probe(0x100).is_some());
        // Only the most recent DMA line of set 0 survives in the DCA way.
        assert!(c.probe(0x1000 + 15 * 0x80).is_some());
        assert!(c.probe(0x1000).is_none());
    }

    #[test]
    fn dma_thrash_in_small_partition_is_the_dma_leak() {
        // The Fig. 13 mechanism: DMA writes exceeding the DCA partition
        // evict each other, so later core reads miss.
        let mut c = Cache::new("llc", CacheConfig::with_dca(4096, 4, 1));
        let lines = 64; // 4 KiB of packet data, partition holds 16 lines
        for i in 0..lines {
            c.fill(0x10000 + i * CACHE_LINE, AccessClass::Dma, true);
        }
        let resident = (0..lines)
            .filter(|i| c.probe(0x10000 + i * CACHE_LINE).is_some())
            .count();
        assert_eq!(resident, 16, "only one DCA way per set survives");
    }

    #[test]
    fn unpartitioned_dma_uses_whole_set() {
        let mut c = tiny();
        c.fill(0x000, AccessClass::Core, false);
        c.fill(0x100, AccessClass::Dma, true);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for i in 0..1000u64 {
            c.fill(i * CACHE_LINE, AccessClass::Core, i % 3 == 0);
        }
        assert!(c.occupancy() <= 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        Cache::new("bad", CacheConfig::new(3 * 64 * 2, 2));
    }

    #[test]
    #[should_panic(expected = "dca_ways")]
    fn rejects_full_dca_partition() {
        CacheConfig::with_dca(512, 2, 2);
    }
}
