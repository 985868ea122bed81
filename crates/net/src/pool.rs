//! A DPDK-mempool-style packet buffer arena.
//!
//! DPDK never `malloc`s a packet: mbufs come from per-core mempools —
//! fixed-size buffers carved from slabs, recycled through a LIFO free
//! list so the buffer most recently freed (and hottest in cache) is the
//! next one handed out. This module gives the simulator's own packet
//! path the same discipline. [`PktBuf`] is a reference-counted handle
//! over one pooled buffer; cloning a handle bumps a refcount instead of
//! copying bytes, and mutation is clone-on-write, so a frame that is
//! merely *carried* (wire → FIFO → DMA → completion → app → TX) is never
//! duplicated.
//!
//! Three fixed buffer classes cover every legal Ethernet frame
//! (`MAX_FRAME_LEN` = 1518): 128 B, 512 B and 2048 B. Every frame is
//! pooled — there is deliberately no inline-in-the-handle small-frame
//! variant, because packets ride inside event payloads and NIC FIFOs by
//! value, and fattening every event to embed a 64-byte frame costs more
//! across the event queue than the pool round-trip it saves. When a
//! class's buffer budget is exhausted the allocator falls back to a
//! plain heap buffer (and counts it), so the pool can never deadlock
//! the simulation.
//!
//! The pool is **thread-local**. Packets never cross threads (the
//! experiment harness parallelizes over whole simulations, not packets),
//! so each worker thread owns an independent pool and no allocation ever
//! takes a lock. Determinism is unaffected by recycling: a buffer's
//! visible bytes are fully initialized on allocation, and no simulated
//! behaviour observes pool state.

use std::cell::RefCell;
use std::rc::Rc;

/// Number of fixed buffer classes.
pub const NUM_CLASSES: usize = 3;

/// Capacity of each buffer class in bytes. 2048 matches DPDK's default
/// mbuf data-room size and holds any `MAX_FRAME_LEN` frame.
pub const CLASS_CAPS: [usize; NUM_CLASSES] = [128, 512, 2048];

/// Per-class buffer budget before the allocator falls back to the heap.
/// 16 Ki buffers of the largest class is 32 MiB. Only frames the NIC has
/// admitted hold buffers: a synthetic frame rides the wire as a
/// descriptor and is built when the RX FIFO admits it. So the budget
/// holds the FIFO, ring and echo population even of a 64 B overload:
/// `repro --frame 64 --trace-gbps 70` peaks at 7,628 buffers of the
/// 128 B class and never falls back.
const DEFAULT_CLASS_LIMIT: usize = 16_384;

/// Class marker for heap-fallback buffers (never recycled).
const HEAP_CLASS: u8 = u8::MAX;

/// Counters and gauges for the thread-local pool, snapshotted by
/// [`stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Pooled buffers currently held by live handles.
    pub in_use: u64,
    /// Highest `in_use` observed since the last [`reset_stats`].
    pub high_water: u64,
    /// Allocations served from each class (freelist hit or fresh carve).
    pub class_allocs: [u64; NUM_CLASSES],
    /// Buffers returned to each class's freelist.
    pub class_recycles: [u64; NUM_CLASSES],
    /// Allocations that fell back to a plain heap buffer because the
    /// class budget was exhausted (or the request exceeded every class).
    pub heap_fallback: u64,
    /// Heap-fallback buffers currently held by live handles.
    pub heap_live: u64,
}

impl PoolStats {
    /// Total allocations served by the pool (all classes).
    pub fn total_allocs(&self) -> u64 {
        self.class_allocs.iter().sum()
    }

    /// Total buffers recycled back to freelists (all classes).
    pub fn total_recycles(&self) -> u64 {
        self.class_recycles.iter().sum()
    }

    /// Live buffers of any kind — the leak-conservation ledger. Zero
    /// once every packet handle has been dropped.
    pub fn live(&self) -> u64 {
        self.in_use + self.heap_live
    }
}

struct ClassPool {
    cap: usize,
    free: Vec<Rc<RawBuf>>,
    /// Buffers carved for this class (recycled or outstanding).
    total: usize,
    limit: usize,
    allocs: u64,
    recycles: u64,
}

impl ClassPool {
    const fn new(cap: usize) -> Self {
        Self {
            cap,
            free: Vec::new(),
            total: 0,
            limit: DEFAULT_CLASS_LIMIT,
            allocs: 0,
            recycles: 0,
        }
    }
}

struct Pool {
    classes: [ClassPool; NUM_CLASSES],
    in_use: u64,
    high_water: u64,
    heap_fallback: u64,
    heap_live: u64,
}

impl Pool {
    const fn new() -> Self {
        Self {
            classes: [
                ClassPool::new(CLASS_CAPS[0]),
                ClassPool::new(CLASS_CAPS[1]),
                ClassPool::new(CLASS_CAPS[2]),
            ],
            in_use: 0,
            high_water: 0,
            heap_fallback: 0,
            heap_live: 0,
        }
    }
}

thread_local! {
    // `const`-initialized: no lazy-init branch on the per-packet path.
    static POOL: RefCell<Pool> = const { RefCell::new(Pool::new()) };
}

/// The smallest class whose capacity holds `len`, if any.
fn class_for(len: usize) -> Option<usize> {
    CLASS_CAPS.iter().position(|&cap| len <= cap)
}

/// Snapshot of the calling thread's pool statistics.
pub fn stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        let mut s = PoolStats {
            in_use: p.in_use,
            high_water: p.high_water,
            heap_fallback: p.heap_fallback,
            heap_live: p.heap_live,
            ..PoolStats::default()
        };
        for (i, c) in p.classes.iter().enumerate() {
            s.class_allocs[i] = c.allocs;
            s.class_recycles[i] = c.recycles;
        }
        s
    })
}

/// Zeroes the alloc/recycle/fallback counters and re-baselines the
/// high-water mark to the current occupancy. Live gauges (`in_use`,
/// `heap_live`) are unaffected — they track outstanding handles, not
/// history. Called at simulation start and at the warm-up reset so the
/// registered `system.mempool.*` stats describe one run.
pub fn reset_stats() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.high_water = p.in_use;
        p.heap_fallback = 0;
        for c in &mut p.classes {
            c.allocs = 0;
            c.recycles = 0;
        }
    });
}

/// Overrides a class's buffer budget on the calling thread (tests use a
/// tiny budget to exercise the heap fallback without gigabytes of
/// allocation).
///
/// # Panics
///
/// Panics if `class` is out of range.
pub fn set_class_limit(class: usize, limit: usize) {
    POOL.with(|p| p.borrow_mut().classes[class].limit = limit);
}

/// The storage behind one handle: either a pooled class buffer (the
/// whole refcounted allocation is returned to its freelist when the last
/// handle drops) or a heap-fallback buffer (simply freed).
struct RawBuf {
    class: u8,
    len: u32,
    data: Box<[u8]>,
}

/// A reference-counted, clone-on-write handle over one pooled (or
/// heap-fallback) packet buffer. Clones share the bytes; the first
/// mutation of a shared handle copies them into a fresh buffer.
///
/// The `Option` is a drop-time artifact: it is `Some` for every live
/// handle and taken exactly once, in [`Drop`], so the *entire* `Rc`
/// allocation (count word included) can be recycled through the
/// freelist. Recycling only the byte storage would leave a fresh
/// refcount-box allocation on every packet — the malloc round-trip the
/// pool exists to remove.
pub struct PktBuf {
    inner: Option<Rc<RawBuf>>,
}

impl Clone for PktBuf {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl Drop for PktBuf {
    fn drop(&mut self) {
        let Some(rc) = self.inner.take() else { return };
        if Rc::strong_count(&rc) == 1 {
            recycle(rc);
        }
    }
}

impl std::fmt::Debug for PktBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PktBuf")
            .field("len", &self.len())
            .field("refs", &self.ref_count())
            .finish()
    }
}

/// Returns the last handle's buffer to its class freelist (or frees a
/// heap fallback) and settles the ledger. A buffer dropped while the
/// thread tears its pool down is simply freed.
fn recycle(rc: Rc<RawBuf>) {
    let _ = POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        if rc.class == HEAP_CLASS {
            p.heap_live -= 1;
        } else {
            p.in_use -= 1;
            let c = &mut p.classes[rc.class as usize];
            c.recycles += 1;
            c.free.push(rc);
        }
    });
}

/// Pops a unique buffer sized for `len` without initializing its
/// contents. Callers must fill `[..len]` before the bytes become
/// visible.
fn alloc_raw(len: usize) -> Rc<RawBuf> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if let Some(class) = class_for(len) {
            let c = &mut p.classes[class];
            let rc = match c.free.pop() {
                Some(mut rc) => {
                    let raw = Rc::get_mut(&mut rc).expect("freelist buffers are unreferenced");
                    raw.len = len as u32;
                    rc
                }
                None if c.total < c.limit => {
                    c.total += 1;
                    Rc::new(RawBuf {
                        class: class as u8,
                        len: len as u32,
                        data: vec![0u8; c.cap].into_boxed_slice(),
                    })
                }
                None => {
                    p.heap_fallback += 1;
                    p.heap_live += 1;
                    return Rc::new(RawBuf {
                        class: HEAP_CLASS,
                        len: len as u32,
                        data: vec![0u8; len].into_boxed_slice(),
                    });
                }
            };
            let c = &mut p.classes[class];
            c.allocs += 1;
            p.in_use += 1;
            p.high_water = p.high_water.max(p.in_use);
            rc
        } else {
            p.heap_fallback += 1;
            p.heap_live += 1;
            Rc::new(RawBuf {
                class: HEAP_CLASS,
                len: len as u32,
                data: vec![0u8; len].into_boxed_slice(),
            })
        }
    })
}

impl PktBuf {
    /// Allocates a buffer of `len` zeroed bytes.
    pub fn alloc_zeroed(len: usize) -> Self {
        let mut rc = alloc_raw(len);
        let raw = Rc::get_mut(&mut rc).expect("fresh allocation is unique");
        raw.data[..len].fill(0);
        Self { inner: Some(rc) }
    }

    /// Allocates a buffer holding a copy of `bytes`.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut rc = alloc_raw(bytes.len());
        let raw = Rc::get_mut(&mut rc).expect("fresh allocation is unique");
        raw.data[..bytes.len()].copy_from_slice(bytes);
        Self { inner: Some(rc) }
    }

    fn rc(&self) -> &Rc<RawBuf> {
        self.inner.as_ref().expect("handle is live until dropped")
    }

    /// Visible length in bytes.
    pub fn len(&self) -> usize {
        self.rc().len as usize
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.rc().len == 0
    }

    /// The buffer's bytes.
    pub fn bytes(&self) -> &[u8] {
        let raw = self.rc();
        &raw.data[..raw.len as usize]
    }

    /// Mutable bytes; copies into a fresh buffer first if the handle is
    /// shared (clone-on-write).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        if Rc::strong_count(self.rc()) != 1 {
            let copy = Self::copy_from(self.bytes());
            *self = copy;
        }
        let rc = self.inner.as_mut().expect("handle is live until dropped");
        let raw = Rc::get_mut(rc).expect("handle is unique after COW");
        let len = raw.len as usize;
        &mut raw.data[..len]
    }

    /// Number of handles sharing this buffer.
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(self.rc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_every_frame_size() {
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(128), Some(0));
        assert_eq!(class_for(129), Some(1));
        assert_eq!(class_for(512), Some(1));
        assert_eq!(class_for(513), Some(2));
        assert_eq!(class_for(crate::MAX_FRAME_LEN), Some(2));
        assert_eq!(class_for(2049), None);
    }

    #[test]
    fn alloc_is_zeroed_even_after_dirty_recycle() {
        let mut a = PktBuf::alloc_zeroed(200);
        a.bytes_mut().fill(0xAB);
        drop(a);
        let b = PktBuf::alloc_zeroed(200);
        assert!(b.bytes().iter().all(|&x| x == 0));
    }

    #[test]
    fn freelist_reuse_is_lifo() {
        let a = PktBuf::alloc_zeroed(1000);
        let b = PktBuf::alloc_zeroed(1000);
        let a_ptr = a.bytes().as_ptr();
        let b_ptr = b.bytes().as_ptr();
        drop(a);
        drop(b);
        // b was freed last, so it is reused first; a comes after.
        let c = PktBuf::alloc_zeroed(1000);
        let d = PktBuf::alloc_zeroed(1000);
        assert_eq!(c.bytes().as_ptr(), b_ptr);
        assert_eq!(d.bytes().as_ptr(), a_ptr);
    }

    #[test]
    fn clone_shares_and_cow_unshares() {
        let mut a = PktBuf::copy_from(&[7u8; 300]);
        let b = a.clone();
        assert_eq!(a.bytes().as_ptr(), b.bytes().as_ptr());
        assert_eq!(a.ref_count(), 2);
        a.bytes_mut()[0] = 9;
        assert_ne!(a.bytes().as_ptr(), b.bytes().as_ptr());
        assert_eq!(a.bytes()[0], 9);
        assert_eq!(b.bytes()[0], 7, "the shared copy is untouched");
        assert_eq!(b.ref_count(), 1);
    }

    #[test]
    fn unique_handle_mutates_in_place() {
        let mut a = PktBuf::copy_from(&[1u8; 64]);
        let ptr = a.bytes().as_ptr();
        a.bytes_mut()[0] = 2;
        assert_eq!(a.bytes().as_ptr(), ptr, "no copy when unique");
    }

    #[test]
    fn stats_track_the_ledger() {
        reset_stats();
        let base = stats();
        let a = PktBuf::alloc_zeroed(100);
        let b = PktBuf::alloc_zeroed(1500);
        let snap = stats();
        assert_eq!(snap.in_use, base.in_use + 2);
        assert!(snap.high_water >= snap.in_use);
        assert_eq!(snap.class_allocs[0], base.class_allocs[0] + 1);
        assert_eq!(snap.class_allocs[2], base.class_allocs[2] + 1);
        drop(a);
        drop(b);
        let end = stats();
        assert_eq!(end.in_use, base.in_use);
        assert_eq!(end.total_recycles(), base.total_recycles() + 2);
    }

    #[test]
    fn exhausted_class_falls_back_to_heap() {
        // An oversized class index would panic; use class 1 with a tiny
        // budget so the third allocation must fall back.
        set_class_limit(1, 2);
        let _a = PktBuf::alloc_zeroed(400);
        let _b = PktBuf::alloc_zeroed(400);
        let before = stats();
        let c = PktBuf::alloc_zeroed(400);
        let after = stats();
        assert_eq!(after.heap_fallback, before.heap_fallback + 1);
        assert_eq!(after.heap_live, before.heap_live + 1);
        assert_eq!(c.len(), 400);
        drop(c);
        assert_eq!(stats().heap_live, before.heap_live);
        set_class_limit(1, usize::MAX);
    }

    #[test]
    fn oversized_request_uses_heap() {
        let before = stats();
        let big = PktBuf::alloc_zeroed(4096);
        assert_eq!(big.len(), 4096);
        assert_eq!(stats().heap_fallback, before.heap_fallback + 1);
    }

    #[test]
    fn reset_rebaselines_high_water_keeps_gauges() {
        let a = PktBuf::alloc_zeroed(100);
        let _spike = (0..8)
            .map(|_| PktBuf::alloc_zeroed(100))
            .collect::<Vec<_>>();
        drop(a);
        reset_stats();
        let s = stats();
        assert_eq!(s.high_water, s.in_use);
        assert_eq!(s.total_allocs(), 0);
        assert_eq!(s.heap_fallback, 0);
    }
}
