//! The two-level "ladder" pending-event set.
//!
//! gem5 replaced its global event heap with bucketed same-tick event
//! lists because, at scale, the heap's per-event `O(log n)` sift
//! dominates host time. [`LadderQueue`] applies the same idea to the
//! simnet kernel with two levels:
//!
//! * **Near-future window** — a circular array of `num_buckets` buckets,
//!   each covering a `2^bucket_shift`-tick span. `schedule` into the
//!   window is an `O(1)` `Vec::push`; the bucket is sorted **once per
//!   cohort** when the clock reaches it (not re-heapified per event).
//! * **Overflow heap** — events beyond the window (timers, RTOs,
//!   sampling probes) go to an ordinary binary heap and are pulled into
//!   the window as it slides forward.
//!
//! An **occupancy bitmap** (one bit per bucket) lets the cursor jump
//! straight to the next non-empty bucket: at realistic event densities
//! (one pending event every several spans) the ring is mostly empty,
//! and walking it bucket by bucket would cost more than the heap it
//! replaces.
//!
//! Draining works through a `drain` buffer: when the clock enters a
//! non-empty bucket, the whole bucket is sorted descending by
//! `(tick, priority, seq)` and popped from the back, so a same-tick
//! cohort costs one sort amortized over all its events. Events scheduled
//! *into the active cohort* (the common `schedule(now, …)` kick pattern)
//! are placed by binary search, preserving the exact total order the
//! [`super::EventQueue`] API promises.
//!
//! # Determinism
//!
//! The observable order is the strict total order `(tick, priority,
//! seq)` — identical to the reference [`super::BinaryHeapQueue`], which
//! differential tests (`crates/sim/tests/event_queue_model.rs`) verify
//! over arbitrary interleavings. Because `seq` is unique, sorting needs
//! no stability and bucket membership cannot affect the order.
//!
//! # Window invariant
//!
//! `window_start` (the tick at the base of the cursor bucket) only
//! advances inside [`LadderQueue::pop`], immediately before an event at
//! or beyond the new position is returned — so `window_start <=
//! align(now)` holds at every public-call boundary, and a later
//! `schedule(tick >= now)` can never land before the window. Lookups
//! ([`LadderQueue::peek_key`]) never mutate.

use std::collections::BinaryHeap;

use super::Priority;
use crate::tick::Tick;

/// Default bucket span: `2^15` ticks = 32.8 ns. Hot per-packet events
/// (link, DMA, software iterations) land within a few spans of `now`;
/// at knee-rate densities a span batches only a handful of ticks, so
/// cohort sorts stay tiny.
pub(super) const DEFAULT_BUCKET_SHIFT: u32 = 15;

/// Default bucket count (must be a power of two): with the default span
/// the window covers ~134 µs of simulated future, so 10 µs probes,
/// 100 µs sampling timers, and sparse kernel-stack/memcached event gaps
/// all stay in the O(1) ring — only genuinely slow timers (millisecond
/// RTOs) take the overflow-heap detour.
pub(super) const DEFAULT_NUM_BUCKETS: usize = 4096;

/// The strict total-order key: `(tick, priority, seq)`.
pub(super) type Key = (Tick, Priority, u64);

/// One pending event, with its full ordering key.
pub(super) struct Entry<E> {
    pub(super) tick: Tick,
    pub(super) priority: Priority,
    pub(super) seq: u64,
    pub(super) payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> Key {
        (self.tick, self.priority, self.seq)
    }
}

/// Overflow-heap wrapper: min-heap order over the entry key.
struct OverflowEntry<E>(Entry<E>);

impl<E> PartialEq for OverflowEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<E> Eq for OverflowEntry<E> {}
impl<E> PartialOrd for OverflowEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for OverflowEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other.0.key().cmp(&self.0.key())
    }
}

/// Sentinel for "no slot" in the arena's intrusive lists.
const NIL: u32 = u32::MAX;

/// An arena slot: one ring event plus the next slot in its bucket's
/// list (or in the freelist while vacant).
struct Node<E> {
    /// `None` while the slot sits on the freelist.
    entry: Option<Entry<E>>,
    next: u32,
}

/// The two-level ladder structure. Pure ordering container: the clock,
/// sequence numbering and statistics live in [`super::EventQueue`].
pub(super) struct LadderQueue<E> {
    /// The near-future ring; bucket `i` heads an arena list of ticks `t`
    /// with `(t >> bucket_shift) & mask == i` inside the current window.
    /// Storing all ring events in one arena (instead of a `Vec` per
    /// bucket) keeps the hot path in a few cache lines: the LIFO
    /// freelist hands the most-recently-vacated — still cache-warm —
    /// slot to each insert, and avoids thousands of scattered per-bucket
    /// allocations.
    heads: Box<[u32]>,
    /// Backing storage for every ring event.
    arena: Vec<Node<E>>,
    /// Head of the vacant-slot list threaded through `arena`.
    free_head: u32,
    /// The active cohort, sorted descending by key (pop from the back).
    /// While non-empty it *is* the cursor bucket, whose ring list stays
    /// empty until the drain is exhausted.
    drain: Vec<Entry<E>>,
    /// Far-future events (tick >= `window_start + window_span`).
    overflow: BinaryHeap<OverflowEntry<E>>,
    /// One bit per bucket, set iff the bucket is non-empty. At realistic
    /// event densities (one event every several spans) most buckets are
    /// empty, so the cursor jumps to the next occupied bucket with a few
    /// word scans instead of probing empty buckets one by one.
    occupancy: Box<[u64]>,
    /// Second bitmap level: bit `w` set iff `occupancy[w] != 0`.
    /// Maintained only while the ring fits 64 words (the default 4096
    /// buckets exactly); it turns a sparse-ring cursor jump into two
    /// word probes instead of a scan over all occupancy words.
    occ_summary: u64,
    /// Memo of the last ring lookup: `(key, bucket distance from the
    /// cursor)`. [`Self::peek_key`] fills it and the peek-then-pop
    /// pattern (`pop_until` does this for every event) consumes it, so
    /// the ring is searched once per event, not twice. Any mutation
    /// invalidates it.
    peek_hint: std::cell::Cell<Option<(Key, usize)>>,
    /// Events currently stored in the ring (excludes drain + overflow).
    ring_len: usize,
    /// Tick at the base of the cursor bucket; multiple of the span.
    window_start: Tick,
    /// Ring index of the window's first bucket (`== idx(window_start)`).
    cursor: usize,
    bucket_shift: u32,
    /// `num_buckets - 1` (power-of-two bucket count).
    mask: usize,
}

impl<E> LadderQueue<E> {
    pub(super) fn new() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_SHIFT, DEFAULT_NUM_BUCKETS)
    }

    /// Creates a ladder with `num_buckets` buckets of `2^bucket_shift`
    /// ticks each. `num_buckets` must be a power of two.
    pub(super) fn with_geometry(bucket_shift: u32, num_buckets: usize) -> Self {
        assert!(
            num_buckets.is_power_of_two() && num_buckets >= 2,
            "bucket count must be a power of two >= 2, got {num_buckets}"
        );
        assert!(
            bucket_shift < 48,
            "bucket span 2^{bucket_shift} is past any plausible horizon"
        );
        Self {
            heads: vec![NIL; num_buckets].into_boxed_slice(),
            arena: Vec::new(),
            free_head: NIL,
            drain: Vec::new(),
            overflow: BinaryHeap::new(),
            occupancy: vec![0u64; num_buckets.div_ceil(64)].into_boxed_slice(),
            occ_summary: 0,
            peek_hint: std::cell::Cell::new(None),
            ring_len: 0,
            window_start: 0,
            cursor: 0,
            bucket_shift,
            mask: num_buckets - 1,
        }
    }

    #[inline]
    fn idx(&self, tick: Tick) -> usize {
        (tick >> self.bucket_shift) as usize & self.mask
    }

    /// Ticks covered by the whole window.
    #[inline]
    fn window_span(&self) -> Tick {
        ((self.mask as Tick + 1) << self.bucket_shift) as Tick
    }

    /// Whether `tick` falls inside the current window. Computed as a
    /// delta from `window_start` so the window stays well-defined even
    /// when it abuts the `u64::MAX` tick horizon (where an end-tick
    /// comparison would overflow and strand horizon events in overflow).
    #[inline]
    fn in_window(&self, tick: Tick) -> bool {
        debug_assert!(tick >= self.window_start);
        tick - self.window_start < self.window_span()
    }

    #[inline]
    fn align(&self, tick: Tick) -> Tick {
        (tick >> self.bucket_shift) << self.bucket_shift
    }

    #[inline]
    fn set_occupied(&mut self, b: usize) {
        let w = b >> 6;
        self.occupancy[w] |= 1u64 << (b & 63);
        if w < 64 {
            self.occ_summary |= 1u64 << w;
        }
    }

    #[inline]
    fn clear_occupied(&mut self, b: usize) {
        let w = b >> 6;
        self.occupancy[w] &= !(1u64 << (b & 63));
        if w < 64 && self.occupancy[w] == 0 {
            self.occ_summary &= !(1u64 << w);
        }
    }

    /// Circular distance (in buckets) from `from` to the nearest
    /// occupied bucket at or after it — 0 if `from` itself is occupied.
    /// The caller guarantees `ring_len > 0`. Within a word the lowest
    /// set bit is the nearest forward bucket, so each probe is one mask
    /// plus `trailing_zeros`; the summary level finds the right word in
    /// one more probe when the ring fits 64 words.
    fn occupied_distance(&self, from: usize) -> usize {
        let words = self.occupancy.len();
        let w0 = from >> 6;
        // First word: only bits at or above `from` lie ahead of it.
        let first = self.occupancy[w0] & (!0u64 << (from & 63));
        if first != 0 {
            let b = ((w0 << 6) | first.trailing_zeros() as usize) & self.mask;
            return b.wrapping_sub(from) & self.mask;
        }
        let w = if words <= 64 {
            // Words strictly after `w0`, then wrap to the lowest
            // non-empty word (which may be `w0` itself: its bits below
            // `from` are the farthest-forward candidates, and its bits
            // at or above `from` were just ruled out).
            let after = if w0 + 1 < 64 {
                self.occ_summary & (!0u64 << (w0 + 1))
            } else {
                0
            };
            let hit = if after != 0 { after } else { self.occ_summary };
            debug_assert!(hit != 0, "ring_len > 0 but occupancy summary empty");
            hit.trailing_zeros() as usize
        } else {
            // Oversized ring (only reachable via custom geometry): walk
            // the words circularly.
            let mut w = if w0 + 1 == words { 0 } else { w0 + 1 };
            let mut probes = 0usize;
            while self.occupancy[w] == 0 {
                w = if w + 1 == words { 0 } else { w + 1 };
                probes += 1;
                assert!(probes <= words, "ring_len > 0 but no occupied bucket");
            }
            w
        };
        let b = ((w << 6) | self.occupancy[w].trailing_zeros() as usize) & self.mask;
        b.wrapping_sub(from) & self.mask
    }

    pub(super) fn len(&self) -> usize {
        self.ring_len + self.drain.len() + self.overflow.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an event. The caller guarantees `tick >= now >=
    /// window_start` and a unique `seq`.
    #[inline]
    pub(super) fn insert(&mut self, entry: Entry<E>) {
        self.peek_hint.set(None);
        if !self.in_window(entry.tick) {
            self.overflow.push(OverflowEntry(entry));
            return;
        }
        let b = self.idx(entry.tick);
        if b == self.cursor && !self.drain.is_empty() {
            // Scheduling into the active cohort (e.g. a DMA kick at the
            // current tick): place it so the descending order holds.
            let key = entry.key();
            let pos = self.drain.partition_point(|e| e.key() > key);
            self.drain.insert(pos, entry);
        } else {
            self.insert_ring(b, entry);
        }
    }

    /// Links `entry` into bucket `b`'s arena list, preferring the
    /// most-recently-vacated (cache-warm) slot.
    fn insert_ring(&mut self, b: usize, entry: Entry<E>) {
        let slot = if self.free_head != NIL {
            let s = self.free_head;
            let node = &mut self.arena[s as usize];
            self.free_head = node.next;
            node.entry = Some(entry);
            node.next = self.heads[b];
            s
        } else {
            assert!(self.arena.len() < NIL as usize, "event arena exhausted");
            self.arena.push(Node {
                entry: Some(entry),
                next: self.heads[b],
            });
            (self.arena.len() - 1) as u32
        };
        self.heads[b] = slot;
        self.set_occupied(b);
        self.ring_len += 1;
    }

    /// The `(tick, priority, seq)` key of the next event, without
    /// mutating the window. O(1) while draining; otherwise a scan from
    /// the cursor to the first non-empty bucket.
    #[inline]
    pub(super) fn peek_key(&self) -> Option<Key> {
        if let Some(e) = self.drain.last() {
            return Some(e.key());
        }
        if self.ring_len > 0 {
            if let Some((key, _)) = self.peek_hint.get() {
                return Some(key);
            }
            // Ring events sit in consecutive spans from the cursor, so
            // the first occupied bucket holds the global minimum; the
            // bucket's list is unordered.
            let d = self.occupied_distance(self.cursor);
            let mut s = self.heads[(self.cursor + d) & self.mask];
            let mut min: Option<Key> = None;
            while s != NIL {
                let node = &self.arena[s as usize];
                let key = node
                    .entry
                    .as_ref()
                    .expect("linked slot holds an entry")
                    .key();
                if min.is_none_or(|m| key < m) {
                    min = Some(key);
                }
                s = node.next;
            }
            let key = min.expect("occupied bucket has a non-empty list");
            self.peek_hint.set(Some((key, d)));
            return Some(key);
        }
        self.overflow.peek().map(|e| e.0.key())
    }

    /// Tick of the next pending event, if any.
    pub(super) fn peek_tick(&self) -> Option<Tick> {
        self.peek_key().map(|(t, _, _)| t)
    }

    /// Removes and returns the next event in `(tick, priority, seq)`
    /// order.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<Entry<E>> {
        loop {
            if let Some(e) = self.drain.pop() {
                self.peek_hint.set(None);
                return Some(e);
            }
            if self.ring_len > 0 {
                // Jump the window to the next occupied bucket in one
                // step. Skipped spans lie inside the current window, and
                // every overflow event is at or beyond the window's end
                // (it was out-of-window at insert time and the window
                // only moves forward), so nothing in overflow can sort
                // before the bucket we land on; one pull afterwards
                // restores the window invariant.
                let d = match self.peek_hint.take() {
                    // A hint is only set with the drain empty and no
                    // mutation since, so its distance is still exact.
                    Some((_, d)) => d,
                    None => self.occupied_distance(self.cursor),
                };
                if d > 0 {
                    self.cursor = (self.cursor + d) & self.mask;
                    self.window_start += (d as Tick) << self.bucket_shift;
                    self.pull_overflow();
                }
                self.start_cohort();
            } else if self.overflow.is_empty() {
                return None;
            } else {
                // Ring empty: jump the window straight to the earliest
                // far-future event instead of sliding bucket by bucket.
                let first = self.overflow.peek().expect("checked non-empty").0.tick;
                self.window_start = self.align(first);
                self.cursor = self.idx(self.window_start);
                self.pull_overflow();
                debug_assert!(self.heads[self.cursor] != NIL);
                self.start_cohort();
            }
        }
    }

    /// Moves the cursor bucket's list into the drain buffer (returning
    /// its slots to the freelist) and sorts it once, descending, so the
    /// cohort pops from the back in key order.
    fn start_cohort(&mut self) {
        debug_assert!(self.drain.is_empty());
        let mut s = self.heads[self.cursor];
        self.heads[self.cursor] = NIL;
        while s != NIL {
            let node = &mut self.arena[s as usize];
            let entry = node.entry.take().expect("linked slot holds an entry");
            let next = node.next;
            node.next = self.free_head;
            self.free_head = s;
            self.drain.push(entry);
            s = next;
        }
        self.clear_occupied(self.cursor);
        self.ring_len -= self.drain.len();
        // Keys are unique (seq tie-break), so unstable sorting cannot
        // reorder equal elements.
        self.drain
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
    }

    /// Pulls far-future events that now fall inside the window into
    /// their ring buckets.
    fn pull_overflow(&mut self) {
        while self
            .overflow
            .peek()
            .is_some_and(|e| self.in_window(e.0.tick))
        {
            let OverflowEntry(entry) = self.overflow.pop().expect("peeked non-empty");
            let b = self.idx(entry.tick);
            self.insert_ring(b, entry);
        }
    }

    /// Discards all pending events and re-bases the (now empty) window
    /// at `now`, so future inserts at `tick >= now` land correctly.
    pub(super) fn clear(&mut self, now: Tick) {
        self.peek_hint.set(None);
        self.drain.clear();
        if self.ring_len > 0 {
            self.heads.fill(NIL);
            self.occupancy.fill(0);
            self.occ_summary = 0;
            self.ring_len = 0;
        }
        self.arena.clear();
        self.free_head = NIL;
        self.overflow.clear();
        self.window_start = self.align(now);
        self.cursor = self.idx(self.window_start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tick: Tick, prio: i16, seq: u64) -> Entry<u64> {
        Entry {
            tick,
            priority: Priority(prio),
            seq,
            payload: seq,
        }
    }

    /// A tiny 4-bucket, 2-tick-span ladder forces window wraps and
    /// overflow pulls with single-digit ticks.
    fn tiny() -> LadderQueue<u64> {
        LadderQueue::with_geometry(1, 4)
    }

    #[test]
    fn pops_across_window_wraps() {
        let mut q = tiny();
        // Window covers ticks [0, 8); these span several revolutions.
        for (i, t) in [0u64, 3, 7, 8, 9, 15, 16, 100].iter().enumerate() {
            q.insert(entry(*t, 0, i as u64));
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e.tick);
        }
        assert_eq!(got, vec![0, 3, 7, 8, 9, 15, 16, 100]);
    }

    #[test]
    fn jump_skips_empty_spans() {
        let mut q = tiny();
        q.insert(entry(1_000_000, 0, 0));
        assert_eq!(q.peek_tick(), Some(1_000_000));
        let e = q.pop().expect("one event");
        assert_eq!(e.tick, 1_000_000);
        // The window landed on the event's span.
        assert_eq!(q.window_start, 1_000_000);
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_pull_preserves_order_on_slide() {
        let mut q = tiny();
        // tick 2 in-window; tick 9 overflows (window [0,8)).
        q.insert(entry(9, 0, 0));
        q.insert(entry(2, 0, 1));
        assert_eq!(q.overflow.len(), 1);
        assert_eq!(q.pop().unwrap().tick, 2);
        assert_eq!(q.pop().unwrap().tick, 9);
        assert!(q.is_empty());
    }

    #[test]
    fn active_cohort_accepts_preempting_insert() {
        let mut q = tiny();
        q.insert(entry(4, 10, 0));
        q.insert(entry(4, 10, 1));
        assert_eq!(q.pop().unwrap().seq, 0);
        // Mid-cohort, a lower-priority-value event arrives at the same
        // tick (the DMA-kick pattern): it must pop before seq 1.
        q.insert(entry(4, -20, 2));
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 1);
    }

    #[test]
    fn clear_mid_window_rebases() {
        let mut q = tiny();
        for t in [2u64, 5, 11, 300] {
            q.insert(entry(t, 0, t));
        }
        assert_eq!(q.pop().unwrap().tick, 2);
        q.clear(2);
        assert!(q.is_empty());
        assert_eq!(q.peek_tick(), None);
        // Post-clear inserts at and after the clear point still order.
        q.insert(entry(2, 0, 40));
        q.insert(entry(1_000, 0, 41));
        assert_eq!(q.pop().unwrap().tick, 2);
        assert_eq!(q.pop().unwrap().tick, 1_000);
    }

    #[test]
    fn sparse_ring_jumps_across_bitmap_words() {
        // 128 buckets of 2 ticks = 2 occupancy words; events straddle
        // the word boundary and wrap around the ring.
        let mut q = LadderQueue::with_geometry(1, 128);
        for t in [2u64, 120, 130, 200, 256] {
            q.insert(entry(t, 0, t));
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e.tick);
        }
        assert_eq!(got, vec![2, 120, 130, 200, 256]);
    }

    #[test]
    fn bitmap_tracks_emptied_and_refilled_buckets() {
        let mut q = tiny();
        q.insert(entry(4, 0, 0));
        assert_eq!(q.pop().unwrap().tick, 4); // empties bucket 2

        // Refill the same bucket on the next window revolution.
        q.insert(entry(12, 0, 1));
        assert_eq!(q.peek_tick(), Some(12));
        assert_eq!(q.pop().unwrap().tick, 12);
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_counts_all_levels() {
        let mut q = tiny();
        q.insert(entry(0, 0, 0)); // ring
        q.insert(entry(100, 0, 1)); // overflow
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
