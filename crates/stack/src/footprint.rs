//! Working-set footprint streams.
//!
//! The cache-size sensitivities of Figs. 10–12 come from the *working
//! sets* of the two stacks: "DPDK working set size is larger than 256KiB
//! and smaller than 1MiB ... Kernel stack working set size is larger than
//! 1MiB" (§VII.C). A [`FootprintStream`] models a stack's instruction and
//! data footprint as deterministic pseudo-random touches over a region of
//! the configured size; whether those touches hit or miss is then decided
//! by the real cache hierarchy.

use simnet_cpu::Op;
use simnet_mem::{Addr, CACHE_LINE};
use simnet_sim::random::SimRng;

/// A deterministic stream of line touches over a fixed region.
#[derive(Debug, Clone)]
pub struct FootprintStream {
    base: Addr,
    lines: u64,
    rng: SimRng,
    hot_fraction: f64,
}

impl FootprintStream {
    /// Creates a stream over `[base, base + size)`.
    ///
    /// `hot_fraction` of touches go to the first eighth of the region
    /// (code/data locality); the rest spread over the whole region.
    ///
    /// # Panics
    ///
    /// Panics if `size` is smaller than one cache line.
    pub fn new(base: Addr, size: u64, hot_fraction: f64, seed: u64) -> Self {
        assert!(size >= CACHE_LINE, "footprint must hold at least one line");
        Self {
            base,
            lines: size / CACHE_LINE,
            rng: SimRng::seed_from(seed),
            hot_fraction: hot_fraction.clamp(0.0, 1.0),
        }
    }

    fn next_addr(&mut self) -> Addr {
        let hot = self.rng.chance(self.hot_fraction);
        let span = if hot {
            (self.lines / 8).max(1)
        } else {
            self.lines
        };
        self.base + self.rng.uniform_u64(0, span - 1) * CACHE_LINE
    }

    /// Emits `n` data-load touches.
    pub fn emit_loads(&mut self, ops: &mut Vec<Op>, n: usize) {
        for _ in 0..n {
            let addr = self.next_addr();
            ops.push(Op::Load(addr));
        }
    }

    /// Emits `n` pointer-chasing touches (serialize on the core).
    pub fn emit_dependent_loads(&mut self, ops: &mut Vec<Op>, n: usize) {
        for _ in 0..n {
            let addr = self.next_addr();
            ops.push(Op::DependentLoad(addr));
        }
    }

    /// Emits `n` instruction-fetch touches.
    pub fn emit_ifetches(&mut self, ops: &mut Vec<Op>, n: usize) {
        for _ in 0..n {
            let addr = self.next_addr();
            ops.push(Op::Ifetch(addr));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_stay_in_region() {
        let mut fs = FootprintStream::new(0x1000_0000, 1 << 20, 0.5, 1);
        let mut ops = Vec::new();
        fs.emit_loads(&mut ops, 1000);
        for op in &ops {
            let Op::Load(a) = op else {
                panic!("loads only")
            };
            assert!((0x1000_0000..0x1010_0000).contains(a));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut fs = FootprintStream::new(0, 1 << 16, 0.3, 42);
            let mut ops = Vec::new();
            fs.emit_loads(&mut ops, 64);
            ops
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hot_fraction_concentrates_touches() {
        let mut fs = FootprintStream::new(0, 1 << 20, 0.9, 7);
        let mut ops = Vec::new();
        fs.emit_loads(&mut ops, 10_000);
        let hot_limit = (1u64 << 20) / 8;
        let hot = ops
            .iter()
            .filter(|op| matches!(op, Op::Load(a) if *a < hot_limit))
            .count();
        assert!(hot > 8_000, "hot touches: {hot}");
    }

    #[test]
    fn emits_all_op_kinds() {
        let mut fs = FootprintStream::new(0, 1 << 16, 0.0, 3);
        let mut ops = Vec::new();
        fs.emit_dependent_loads(&mut ops, 2);
        fs.emit_ifetches(&mut ops, 2);
        assert!(matches!(ops[0], Op::DependentLoad(_)));
        assert!(matches!(ops[2], Op::Ifetch(_)));
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn tiny_region_rejected() {
        FootprintStream::new(0, 32, 0.0, 0);
    }
}
