//! Memory hierarchy models for `simnet`.
//!
//! The paper's microarchitectural sensitivity studies (Figs. 10–14, 17)
//! hinge on the memory system: cache working-set effects, Direct Cache
//! Access (DCA / ARM cache stashing) way-partitioning, DRAM row-buffer
//! locality across channel counts, and the I/O bus the NIC DMA engine rides
//! on. This crate models all of them *structurally* — real tags, real LRU
//! state, real per-channel row buffers — so those sensitivities emerge from
//! simulation rather than being curve-fit.
//!
//! * [`cache`] — set-associative write-back caches with optional DCA way
//!   partitions, one packed tag word per way. [`cache::reference`] keeps
//!   the original layout as the oracle of a differential test.
//! * [`dram`] — multi-channel DRAM with open-page row-buffer policy.
//! * [`bus`] — a bandwidth/occupancy resource (the PCIe stand-in).
//! * [`system`] — [`MemorySystem`]: the wired L1I/L1D/L2/LLC/DRAM hierarchy
//!   with core-side and DMA-side access ports, and an LLC snoop filter.
//! * [`layout`] — the simulated physical address map (rings, mbuf pool,
//!   working-set regions).

pub mod bus;
pub mod cache;
pub mod dram;
pub mod layout;
pub mod system;

pub use bus::Bus;
pub use cache::{AccessClass, Cache, CacheConfig};
pub use dram::{DramConfig, DramController};
pub use system::{HitLevel, MemoryConfig, MemorySystem};

/// A simulated physical address.
pub type Addr = u64;

/// Cache line size in bytes (fixed, as in the paper's configurations).
pub const CACHE_LINE: u64 = 64;

/// Rounds `addr` down to its cache-line base.
#[inline]
pub fn line_base(addr: Addr) -> Addr {
    addr & !(CACHE_LINE - 1)
}

/// Number of cache lines touched by `[addr, addr + size)`.
///
/// ```
/// use simnet_mem::lines_touched;
/// assert_eq!(lines_touched(0, 64), 1);
/// assert_eq!(lines_touched(60, 8), 2); // straddles a boundary
/// assert_eq!(lines_touched(0, 0), 0);
/// ```
#[inline]
pub fn lines_touched(addr: Addr, size: u64) -> u64 {
    if size == 0 {
        return 0;
    }
    let first = line_base(addr);
    let last = line_base(addr + size - 1);
    (last - first) / CACHE_LINE + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_base_masks_low_bits() {
        assert_eq!(line_base(0), 0);
        assert_eq!(line_base(63), 0);
        assert_eq!(line_base(64), 64);
        assert_eq!(line_base(0x1234), 0x1200);
    }

    #[test]
    fn lines_touched_counts_straddles() {
        assert_eq!(lines_touched(0, 1), 1);
        assert_eq!(lines_touched(0, 65), 2);
        assert_eq!(lines_touched(63, 2), 2);
        assert_eq!(lines_touched(64, 128), 2);
        assert_eq!(lines_touched(0, 1518), 24);
    }
}
