//! Differential property tests: the ladder-based [`EventQueue`] against
//! the original [`BinaryHeapQueue`] reference model.
//!
//! The two implementations must agree on **every observable** — pop
//! order (tick, priority, seq, payload), `now`, `len`, `peek_tick`, and
//! the scheduled/executed counters — over arbitrary interleavings of
//! scheduling and popping, including same-tick floods, the
//! `Priority::MINIMUM`/`MAXIMUM` sentinels, bounded `pop_until` sweeps,
//! and deltas that cross the ladder's near-future window into the
//! overflow heap (and trigger window jumps back out of it).

use proptest::prelude::*;
use simnet_sim::event::BinaryHeapQueue;
use simnet_sim::{EventQueue, Priority};

/// One step of an interleaved workload, in relative time so every
/// generated sequence is valid (`schedule` never targets the past).
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + dt` with priority `prio`.
    Schedule { dt: u64, prio: i16 },
    /// Pop up to `n` events unconditionally.
    Pop { n: usize },
    /// Drain events up to `now + dt` via `pop_until`.
    PopUntil { dt: u64 },
    /// Discard everything pending (mid-window `clear`).
    Clear,
}

fn arb_priority() -> impl Strategy<Value = i16> {
    prop_oneof![
        Just(i16::MIN),
        Just(i16::MAX),
        Just(0i16),
        Just(-30i16),
        Just(10i16),
        any::<i16>(),
    ]
}

/// Deltas spanning all three ladder regimes: the active cohort (0),
/// nearby buckets, and past the ~134 µs default window (4096 buckets of
/// 2^15 ticks), forcing overflow inserts, pulls, and empty-ring jumps.
fn arb_dt() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => Just(0u64),                    // same-tick flood / cohort insert
        4 => 1u64..5_000,                   // same and adjacent buckets
        2 => 5_000u64..2_000_000,           // across the window ring
        2 => 140_000_000u64..2_000_000_000, // overflow heap + window jump
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (arb_dt(), arb_priority()).prop_map(|(dt, prio)| Op::Schedule { dt, prio }),
        3 => (1usize..8).prop_map(|n| Op::Pop { n }),
        2 => arb_dt().prop_map(|dt| Op::PopUntil { dt }),
        1 => Just(Op::Clear),
    ]
}

/// Asserts every cheap observable matches between the two queues.
fn assert_observables(
    q: &EventQueue<usize>,
    r: &BinaryHeapQueue<usize>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(q.len(), r.len(), "len diverged");
    prop_assert_eq!(q.is_empty(), r.is_empty());
    prop_assert_eq!(q.now(), r.now(), "clock diverged");
    prop_assert_eq!(q.peek_tick(), r.peek_tick(), "peek_tick diverged");
    prop_assert_eq!(q.scheduled_count(), r.scheduled_count());
    prop_assert_eq!(q.executed_count(), r.executed_count());
    Ok(())
}

/// Pops from both queues and asserts the events are identical.
fn assert_same_pop(
    a: Option<simnet_sim::Event<usize>>,
    b: Option<simnet_sim::Event<usize>>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (None, None) => Ok(()),
        (Some(x), Some(y)) => {
            prop_assert_eq!(
                (x.tick, x.priority, x.seq, x.payload),
                (y.tick, y.priority, y.seq, y.payload),
                "pop order diverged"
            );
            Ok(())
        }
        (a, b) => {
            prop_assert!(false, "one queue popped, the other did not: {a:?} vs {b:?}");
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    /// The ladder agrees with the heap reference on arbitrary
    /// schedule/pop/pop_until/clear interleavings.
    #[test]
    fn ladder_equals_binary_heap_reference(
        ops in prop::collection::vec(arb_op(), 1..120)
    ) {
        let mut q = EventQueue::new();
        let mut r = BinaryHeapQueue::new();
        let mut label = 0usize;
        for op in &ops {
            match op {
                Op::Schedule { dt, prio } => {
                    let tick = q.now().saturating_add(*dt);
                    q.schedule_with_priority(tick, Priority(*prio), label);
                    r.schedule_with_priority(tick, Priority(*prio), label);
                    label += 1;
                }
                Op::Pop { n } => {
                    for _ in 0..*n {
                        assert_same_pop(q.pop(), r.pop())?;
                    }
                }
                Op::PopUntil { dt } => {
                    let limit = q.now().saturating_add(*dt);
                    loop {
                        let (a, b) = (q.pop_until(limit), r.pop_until(limit));
                        let done = a.is_none();
                        assert_same_pop(a, b)?;
                        if done {
                            break;
                        }
                    }
                }
                Op::Clear => {
                    q.clear();
                    r.clear();
                }
            }
            assert_observables(&q, &r)?;
        }
        // Drain: full order must still agree.
        loop {
            let (a, b) = (q.pop(), r.pop());
            let done = a.is_none();
            assert_same_pop(a, b)?;
            assert_observables(&q, &r)?;
            if done {
                break;
            }
        }
    }

    /// A same-tick flood (hundreds of events on one tick, mixed
    /// priorities including both sentinels) drains in identical order —
    /// the cohort-sort path against the heap's per-pop sift.
    #[test]
    fn same_tick_flood_matches_reference(
        tick in 0u64..50_000_000,
        prios in prop::collection::vec(arb_priority(), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut r = BinaryHeapQueue::new();
        for (i, prio) in prios.iter().enumerate() {
            q.schedule_with_priority(tick, Priority(*prio), i);
            r.schedule_with_priority(tick, Priority(*prio), i);
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            let done = a.is_none();
            assert_same_pop(a, b)?;
            if done {
                break;
            }
        }
    }

    /// Mid-drain cohort insertion: while a same-tick cohort is being
    /// popped, new events landing on that same tick (any priority —
    /// the DMA-kick pattern) must interleave exactly like the reference.
    #[test]
    fn mid_cohort_insertion_matches_reference(
        initial in prop::collection::vec(arb_priority(), 2..40),
        injected in prop::collection::vec(arb_priority(), 1..40),
        tick in 0u64..1_000_000
    ) {
        let mut q = EventQueue::new();
        let mut r = BinaryHeapQueue::new();
        let mut label = 0usize;
        for prio in &initial {
            q.schedule_with_priority(tick, Priority(*prio), label);
            r.schedule_with_priority(tick, Priority(*prio), label);
            label += 1;
        }
        // Pop one event to activate the cohort, then inject the rest at
        // the same tick, then drain.
        assert_same_pop(q.pop(), r.pop())?;
        for prio in &injected {
            q.schedule_with_priority(tick, Priority(*prio), label);
            r.schedule_with_priority(tick, Priority(*prio), label);
            label += 1;
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            let done = a.is_none();
            assert_same_pop(a, b)?;
            if done {
                break;
            }
        }
    }

    /// Tiny ladder geometries (2–8 buckets, 2–4 tick spans) wrap the
    /// window ring constantly and must still agree with the reference.
    #[test]
    fn tiny_geometries_match_reference(
        shift in 1u32..3,
        buckets_pow in 1u32..4,
        entries in prop::collection::vec((0u64..400, arb_priority()), 0..150)
    ) {
        let mut q = EventQueue::with_geometry(shift, 1usize << buckets_pow);
        let mut r = BinaryHeapQueue::new();
        for (i, (tick, prio)) in entries.iter().enumerate() {
            q.schedule_with_priority(*tick, Priority(*prio), i);
            r.schedule_with_priority(*tick, Priority(*prio), i);
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            let done = a.is_none();
            assert_same_pop(a, b)?;
            if done {
                break;
            }
        }
    }
}

/// `clear()` while the window is mid-drain (active cohort, ring content,
/// and overflow all populated) resets to an empty-but-usable queue.
#[test]
fn clear_mid_window_resets_cleanly() {
    let mut q = EventQueue::new();
    let mut r = BinaryHeapQueue::new();
    for (i, t) in [100u64, 100, 100, 5_000, 2_000_000, 200_000_000]
        .iter()
        .enumerate()
    {
        q.schedule_with_priority(*t, Priority((i as i16) - 2), i);
        r.schedule_with_priority(*t, Priority((i as i16) - 2), i);
    }
    // Activate the tick-100 cohort, leaving two of its events pending.
    assert_eq!(q.pop().unwrap().tick, 100);
    r.pop();
    q.clear();
    r.clear();
    assert!(q.is_empty());
    assert_eq!(q.len(), r.len());
    assert_eq!(q.now(), r.now());
    assert_eq!(q.peek_tick(), None);
    // The cleared queue keeps working, from `now` out past the window.
    q.schedule(100, 7);
    q.schedule(300_000_000, 8);
    r.schedule(100, 7);
    r.schedule(300_000_000, 8);
    for _ in 0..2 {
        let (a, b) = (q.pop().unwrap(), r.pop().unwrap());
        assert_eq!((a.tick, a.seq, a.payload), (b.tick, b.seq, b.payload));
    }
    assert!(q.pop().is_none());
}
