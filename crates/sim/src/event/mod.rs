//! A deterministic pending-event set.
//!
//! [`EventQueue`] orders events by `(tick, priority, insertion sequence)`.
//! Ties at the same tick are broken first by [`Priority`] (lower value runs
//! first, mirroring gem5's event priorities) and then by insertion order, so
//! simulations are reproducible regardless of allocator or hash-map state.
//!
//! The implementation is a gem5-style two-level ladder (`ladder`): a
//! bucketed near-future window drained cohort-at-a-time plus an overflow
//! heap for far-future timers. The original single-`BinaryHeap` queue
//! survives as [`BinaryHeapQueue`] (`heap`) — the reference model for
//! differential tests and the baseline for `BENCH_event_queue.json`.

mod heap;
mod ladder;

pub use heap::BinaryHeapQueue;

use crate::tick::Tick;
use ladder::LadderQueue;

/// Scheduling priority for events that share a tick. Lower runs first.
///
/// The default priority is [`Priority::NORMAL`]. The named levels mirror the
/// ordering needs of the NIC/CPU models: link delivery happens before DMA
/// completion, which happens before software progress at the same tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub i16);

impl Priority {
    /// Runs before everything else at a tick (e.g. statistics resets).
    pub const MINIMUM: Priority = Priority(i16::MIN);
    /// Wire/link events: packet delivery onto a device.
    pub const LINK: Priority = Priority(-30);
    /// DMA transaction completion.
    pub const DMA: Priority = Priority(-20);
    /// Device-internal bookkeeping (descriptor writeback, interrupts).
    pub const DEVICE: Priority = Priority(-10);
    /// Ordinary events.
    pub const NORMAL: Priority = Priority(0);
    /// Software progress (core run-loop iterations).
    pub const CPU: Priority = Priority(10);
    /// Runs after everything else at a tick (e.g. sampling probes).
    pub const MAXIMUM: Priority = Priority(i16::MAX);
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

/// A scheduled event: when it fires, at what priority, and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<E> {
    /// Tick at which the event fires.
    pub tick: Tick,
    /// Tie-break priority within the tick.
    pub priority: Priority,
    /// Monotonic insertion sequence number (final tie-break).
    pub seq: u64,
    /// The caller-defined payload.
    pub payload: E,
}

/// A deterministic discrete-event queue.
///
/// The queue tracks the current simulated time: popping an event advances
/// [`EventQueue::now`] to that event's tick. Scheduling into the past is a
/// bug and panics, as is scheduling past the `u64` tick horizon.
///
/// Internally this is a two-level ladder (near-future bucket ring +
/// far-future overflow heap; see `ladder`); the observable behaviour is
/// the strict `(tick, priority, seq)` total order.
///
/// # Example
///
/// ```
/// use simnet_sim::{EventQueue, Priority, tick};
///
/// let mut q = EventQueue::new();
/// q.schedule_with_priority(tick::ns(2), Priority::CPU, "cpu");
/// q.schedule_with_priority(tick::ns(2), Priority::LINK, "link");
/// // Same tick: the link event runs first.
/// assert_eq!(q.pop().unwrap().payload, "link");
/// assert_eq!(q.pop().unwrap().payload, "cpu");
/// assert_eq!(q.now(), tick::ns(2));
/// ```
pub struct EventQueue<E> {
    ladder: LadderQueue<E>,
    now: Tick,
    next_seq: u64,
    scheduled: u64,
    executed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at tick 0 with the default ladder geometry
    /// (2048 buckets of 4.096 ns — an ~8.4 µs near-future window).
    pub fn new() -> Self {
        Self::from_ladder(LadderQueue::new())
    }

    /// Creates an empty queue with an explicit ladder geometry:
    /// `num_buckets` buckets (a power of two) of `2^bucket_shift` ticks
    /// each. Smaller geometries are mainly useful for stress-testing
    /// window wraps; the defaults fit the simulator's event-horizon mix.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is not a power of two >= 2.
    pub fn with_geometry(bucket_shift: u32, num_buckets: usize) -> Self {
        Self::from_ladder(LadderQueue::with_geometry(bucket_shift, num_buckets))
    }

    fn from_ladder(ladder: LadderQueue<E>) -> Self {
        Self {
            ladder,
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
        self.ladder.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.ladder.is_empty()
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
    /// Panics if `tick` is before [`EventQueue::now`].
    #[inline]
    pub fn schedule(&mut self, tick: Tick, payload: E) {
        self.schedule_with_priority(tick, Priority::NORMAL, payload);
    }

    /// Schedules `payload` `delta` ticks after the current time.
    ///
    /// # Panics
    ///
    /// Panics if `now + delta` overflows the `u64` tick horizon. (A
    /// saturating add would silently pin the event at `u64::MAX` and
    /// wedge the simulation at the time horizon; overflowing here is a
    /// caller bug and fails loudly, like scheduling into the past.)
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
    /// Panics if `tick` is before [`EventQueue::now`].
    #[inline]
    pub fn schedule_with_priority(&mut self, tick: Tick, priority: Priority, payload: E) {
        assert!(
            tick >= self.now,
            "scheduling into the past: tick {tick} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.ladder.insert(ladder::Entry {
            tick,
            priority,
            seq,
            payload,
        });
    }

    /// Tick of the next pending event, if any.
    #[inline]
    pub fn peek_tick(&self) -> Option<Tick> {
        self.ladder.peek_tick()
    }

    /// Pops the next event and advances the clock to its tick.
    #[inline]
    pub fn pop(&mut self) -> Option<Event<E>> {
        let entry = self.ladder.pop()?;
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
    #[inline]
    pub fn pop_until(&mut self, limit: Tick) -> Option<Event<E>> {
        match self.peek_tick() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// Discards all pending events without advancing time.
    pub fn clear(&mut self) {
        self.ladder.clear(self.now);
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.ladder.len())
            .field("scheduled", &self.scheduled)
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tick;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_tick_fifo_within_priority() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().payload, i);
        }
    }

    #[test]
    fn priority_breaks_ties() {
        let mut q = EventQueue::new();
        q.schedule_with_priority(5, Priority::CPU, "cpu");
        q.schedule_with_priority(5, Priority::LINK, "link");
        q.schedule_with_priority(5, Priority::DMA, "dma");
        assert_eq!(q.pop().unwrap().payload, "link");
        assert_eq!(q.pop().unwrap().payload, "dma");
        assert_eq!(q.pop().unwrap().payload, "cpu");
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(tick::ns(4), ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), tick::ns(4));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(100, 1);
        q.pop();
        q.schedule_in(50, 2);
        let e = q.pop().unwrap();
        assert_eq!(e.tick, 150);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.pop();
        q.schedule(50, ());
    }

    #[test]
    #[should_panic(expected = "scheduling past the tick horizon")]
    fn rejects_tick_overflow_instead_of_saturating() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.pop();
        // A saturating add would clamp this to u64::MAX and silently
        // wedge the run at the horizon; it must panic instead.
        q.schedule_in(u64::MAX, ());
    }

    #[test]
    fn schedule_in_accepts_the_exact_horizon() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.pop();
        q.schedule_in(u64::MAX - 100, ());
        assert_eq!(q.pop().unwrap().tick, u64::MAX);
    }

    #[test]
    fn pop_until_respects_limit() {
        let mut q = EventQueue::new();
        q.schedule(10, "early");
        q.schedule(100, "late");
        assert_eq!(q.pop_until(50).unwrap().payload, "early");
        assert!(q.pop_until(50).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(100).unwrap().payload, "late");
    }

    #[test]
    fn counts_track_activity() {
        let mut q = EventQueue::new();
        q.schedule(1, ());
        q.schedule(2, ());
        q.pop();
        assert_eq!(q.scheduled_count(), 2);
        assert_eq!(q.executed_count(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_overflow_boundary() {
        // Default window is ~8.4 µs; schedule well past it.
        let mut q = EventQueue::new();
        q.schedule(tick::us(100), "sample");
        q.schedule(tick::ns(5), "hot");
        q.schedule(tick::us(10), "probe");
        assert_eq!(q.peek_tick(), Some(tick::ns(5)));
        assert_eq!(q.pop().unwrap().payload, "hot");
        assert_eq!(q.pop().unwrap().payload, "probe");
        assert_eq!(q.pop().unwrap().payload, "sample");
        assert_eq!(q.now(), tick::us(100));
    }

    #[test]
    fn clear_mid_window_then_reschedule() {
        let mut q = EventQueue::with_geometry(2, 8);
        for t in [1u64, 9, 40, 5_000] {
            q.schedule(t, t);
        }
        assert_eq!(q.pop().unwrap().tick, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), 1);
        q.schedule(3, 3);
        q.schedule(10_000, 10_000);
        assert_eq!(q.pop().unwrap().tick, 3);
        assert_eq!(q.pop().unwrap().tick, 10_000);
        assert!(q.pop().is_none());
    }

    #[test]
    fn tiny_geometry_matches_default_order() {
        let ticks = [7u64, 7, 0, 3, 129, 64, 7, 1_000_000, 12, 12];
        let mut tiny = EventQueue::with_geometry(1, 2);
        let mut def = EventQueue::new();
        for (i, t) in ticks.iter().enumerate() {
            tiny.schedule_with_priority(*t, Priority((i % 3) as i16 - 1), i);
            def.schedule_with_priority(*t, Priority((i % 3) as i16 - 1), i);
        }
        loop {
            let (a, b) = (tiny.pop(), def.pop());
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        (x.tick, x.priority, x.seq, x.payload),
                        (y.tick, y.priority, y.seq, y.payload)
                    );
                }
                (None, None) => break,
                _ => panic!("queues diverged: {a:?} vs {b:?}"),
            }
        }
    }
}
