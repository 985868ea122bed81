//! The original single-`BinaryHeap` event queue, kept as a reference
//! model.
//!
//! [`BinaryHeapQueue`] is the pre-ladder implementation of the event
//! queue: one global max-heap over inverted `(tick, priority, seq)` keys.
//! It is correct and simple but re-heapifies on every push and pop, which
//! made `EventQueue::pop`/`schedule` the hottest simulator path (the gem5
//! project moved away from a global heap for the same reason).
//!
//! It survives for two jobs:
//!
//! * **Differential testing** — the ladder queue must agree with this
//!   model on every observable (pop order, `now`, `len`, `peek_tick`)
//!   over arbitrary schedule/pop interleavings; see
//!   `crates/sim/tests/event_queue_model.rs`.
//! * **Benchmark baseline** — `simnet-bench` measures the ladder's
//!   speedup against this implementation (`BENCH_event_queue.json`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::{Event, Priority};
use crate::tick::Tick;

pub(super) struct HeapEntry<E> {
    pub(super) tick: Tick,
    pub(super) priority: Priority,
    pub(super) seq: u64,
    pub(super) payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.priority == other.priority && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        (other.tick, other.priority, other.seq).cmp(&(self.tick, self.priority, self.seq))
    }
}

/// The reference event queue: a single binary heap over all pending
/// events. Semantically identical to [`super::EventQueue`] (same total
/// order, same panics, same counters) but asymptotically slower on the
/// hot path.
#[derive(Default)]
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    now: Tick,
    next_seq: u64,
    scheduled: u64,
    executed: u64,
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue at tick 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0,
            next_seq: 0,
            scheduled: 0,
            executed: 0,
        }
    }

    /// Current simulated time: the tick of the most recently popped event.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events scheduled since creation.
    pub fn scheduled_count(&self) -> u64 {
        self.scheduled
    }

    /// Total events executed (popped) since creation.
    pub fn executed_count(&self) -> u64 {
        self.executed
    }

    /// Schedules `payload` at `tick` with [`Priority::NORMAL`].
    ///
    /// # Panics
    ///
    /// Panics if `tick` is before [`BinaryHeapQueue::now`].
    pub fn schedule(&mut self, tick: Tick, payload: E) {
        self.schedule_with_priority(tick, Priority::NORMAL, payload);
    }

    /// Schedules `payload` `delta` ticks after the current time.
    ///
    /// # Panics
    ///
    /// Panics if `now + delta` overflows the `u64` tick horizon.
    pub fn schedule_in(&mut self, delta: Tick, payload: E) {
        let tick = self.now.checked_add(delta).unwrap_or_else(|| {
            panic!(
                "scheduling past the tick horizon: now {} + delta {delta} overflows u64",
                self.now
            )
        });
        self.schedule(tick, payload);
    }

    /// Schedules `payload` at `tick` with an explicit priority.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is before [`BinaryHeapQueue::now`].
    pub fn schedule_with_priority(&mut self, tick: Tick, priority: Priority, payload: E) {
        assert!(
            tick >= self.now,
            "scheduling into the past: tick {tick} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.heap.push(HeapEntry {
            tick,
            priority,
            seq,
            payload,
        });
    }

    /// Tick of the next pending event, if any.
    pub fn peek_tick(&self) -> Option<Tick> {
        self.heap.peek().map(|e| e.tick)
    }

    /// Pops the next event and advances the clock to its tick.
    pub fn pop(&mut self) -> Option<Event<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.tick >= self.now);
        self.now = entry.tick;
        self.executed += 1;
        Some(Event {
            tick: entry.tick,
            priority: entry.priority,
            seq: entry.seq,
            payload: entry.payload,
        })
    }

    /// Pops the next event only if it fires at or before `limit`.
    pub fn pop_until(&mut self, limit: Tick) -> Option<Event<E>> {
        match self.peek_tick() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// Discards all pending events without advancing time.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> std::fmt::Debug for BinaryHeapQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinaryHeapQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("scheduled", &self.scheduled)
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_model_pops_in_key_order() {
        let mut q = BinaryHeapQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule_with_priority(10, Priority::LINK, "a-link");
        assert_eq!(q.pop().unwrap().payload, "a-link");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
        assert_eq!(q.now(), 30);
    }

    #[test]
    #[should_panic(expected = "tick horizon")]
    fn reference_model_rejects_tick_overflow() {
        let mut q = BinaryHeapQueue::new();
        q.schedule(100, ());
        q.pop();
        q.schedule_in(u64::MAX, ());
    }
}
