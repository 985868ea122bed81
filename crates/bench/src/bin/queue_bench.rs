//! Event-queue benchmark: ladder [`EventQueue`] vs the
//! [`BinaryHeapQueue`] reference, emitting/checking the committed
//! `BENCH_event_queue.json`. Flags and the check rule are the
//! `simnet-bench` driver's.
//!
//! The workloads mirror the simulator's real event mix (see
//! `PROFILE_KINDS` in `simnet-harness`): a deep steady-state pending set
//! with near-future churn, same-tick multi-priority cohorts, and
//! far-future timers crossing the ladder's overflow boundary.

use std::process::ExitCode;

use simnet_bench::{scaled, Scenario, Suite};
use simnet_sim::event::BinaryHeapQueue;
use simnet_sim::{EventQueue, Priority, Tick};

/// The queue surface both implementations share, for generic workloads.
trait Queue {
    fn schedule_with_priority(&mut self, tick: Tick, priority: Priority, payload: u64);
    fn pop_key(&mut self) -> Option<(Tick, i16, u64)>;
    fn now(&self) -> Tick;
}

impl Queue for EventQueue<u64> {
    fn schedule_with_priority(&mut self, tick: Tick, priority: Priority, payload: u64) {
        EventQueue::schedule_with_priority(self, tick, priority, payload);
    }
    fn pop_key(&mut self) -> Option<(Tick, i16, u64)> {
        self.pop().map(|e| (e.tick, e.priority.0, e.payload))
    }
    fn now(&self) -> Tick {
        EventQueue::now(self)
    }
}

impl Queue for BinaryHeapQueue<u64> {
    fn schedule_with_priority(&mut self, tick: Tick, priority: Priority, payload: u64) {
        BinaryHeapQueue::schedule_with_priority(self, tick, priority, payload);
    }
    fn pop_key(&mut self) -> Option<(Tick, i16, u64)> {
        self.pop().map(|e| (e.tick, e.priority.0, e.payload))
    }
    fn now(&self) -> Tick {
        BinaryHeapQueue::now(self)
    }
}

/// Deterministic xorshift; the workloads must be identical across
/// implementations and runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Priorities in the simulator's real mix.
const PRIORITIES: &[Priority] = &[
    Priority::LINK,
    Priority::DMA,
    Priority::DEVICE,
    Priority::NORMAL,
    Priority::CPU,
];

/// Bulk load `n` events over a ~4 µs horizon (the span the simulator's
/// pending set actually occupies), then drain everything.
fn bulk_push_pop<Q: Queue>(q: &mut Q, n: u64) -> u64 {
    let mut rng = Rng(0x9E3779B97F4A7C15);
    for i in 0..n {
        let tick = rng.next() % 4_000_000; // within 4 µs
        let prio = PRIORITIES[(rng.next() % PRIORITIES.len() as u64) as usize];
        q.schedule_with_priority(tick, prio, i);
    }
    let mut acc = 0u64;
    while let Some((t, _, p)) = q.pop_key() {
        acc = acc.wrapping_add(t ^ p);
    }
    acc
}

/// Steady-state churn: `depth` pending events; each step pops one and
/// schedules a near-future successor, with a same-tick kick every 4th
/// step and a far-future timer every 64th — the simulator's pattern.
fn steady_churn<Q: Queue>(q: &mut Q, depth: u64, steps: u64) -> u64 {
    let mut rng = Rng(0xD1B54A32D192ED03);
    let mut label = 0u64;
    for _ in 0..depth {
        let tick = rng.next() % 2_000_000; // 2 µs spread
        let prio = PRIORITIES[(rng.next() % PRIORITIES.len() as u64) as usize];
        q.schedule_with_priority(tick, prio, label);
        label += 1;
    }
    let mut acc = 0u64;
    for step in 0..steps {
        let Some((t, _, p)) = q.pop_key() else { break };
        acc = acc.wrapping_add(t ^ p);
        let now = q.now();
        let (delta, prio) = if step % 64 == 63 {
            (100_000_000, Priority::MAXIMUM) // 100 µs sampling timer
        } else if step % 4 == 3 {
            (0, Priority::DMA) // same-tick DMA kick
        } else {
            (
                rng.next() % 200_000, // within 200 ns
                PRIORITIES[(rng.next() % PRIORITIES.len() as u64) as usize],
            )
        };
        q.schedule_with_priority(now + delta, prio, label);
        label += 1;
    }
    acc
}

/// Shallow sparse churn: the `repro` sweep's dominant regime — a handful
/// of pending events with 0.1–10 µs gaps (memcached timers, low-rate
/// iperf points), where a binary heap is nearly free because it is tiny
/// and L1-resident.
fn shallow_sparse<Q: Queue>(q: &mut Q, steps: u64) -> u64 {
    let mut rng = Rng(0x2545F4914F6CDD1D);
    let mut label = 0u64;
    for _ in 0..6 {
        q.schedule_with_priority(rng.next() % 2_000_000, Priority::NORMAL, label);
        label += 1;
    }
    let mut acc = 0u64;
    for step in 0..steps {
        let Some((t, _, p)) = q.pop_key() else { break };
        acc = acc.wrapping_add(t ^ p);
        let now = q.now();
        let delta = if step % 32 == 31 {
            100_000_000 // 100 µs sampling timer -> overflow
        } else {
            100_000 + rng.next() % 10_000_000 // 0.1-10 µs gap
        };
        q.schedule_with_priority(
            now + delta,
            PRIORITIES[(rng.next() % PRIORITIES.len() as u64) as usize],
            label,
        );
        label += 1;
    }
    acc
}

/// Same-tick cohorts: `cohorts` ticks, each flooded with `width` events
/// at mixed priorities, drained tick by tick.
fn cohort_flood<Q: Queue>(q: &mut Q, cohorts: u64, width: u64) -> u64 {
    let mut rng = Rng(0xA0761D6478BD642F);
    let mut label = 0u64;
    for c in 0..cohorts {
        let tick = c * 512; // one cohort every 512 ps
        for _ in 0..width {
            let prio = PRIORITIES[(rng.next() % PRIORITIES.len() as u64) as usize];
            q.schedule_with_priority(tick, prio, label);
            label += 1;
        }
    }
    let mut acc = 0u64;
    while let Some((t, _, p)) = q.pop_key() {
        acc = acc.wrapping_add(t ^ p);
    }
    acc
}

fn run_scenarios(scale: f64, out: &mut Vec<Scenario>) {
    let (n, depth, steps) = (scaled(65_536, scale), 8_192, scaled(400_000, scale));
    let (cohorts, width) = (scaled(8_192, scale), 8);
    Scenario::time(
        out,
        "bulk_push_pop_64k",
        2 * n,
        || bulk_push_pop(&mut EventQueue::new(), n),
        || bulk_push_pop(&mut BinaryHeapQueue::new(), n),
    );
    // Steady-state churn at simulator-realistic depth.
    Scenario::time(
        out,
        "steady_churn_8k",
        2 * steps,
        || steady_churn(&mut EventQueue::new(), depth, steps),
        || steady_churn(&mut BinaryHeapQueue::new(), depth, steps),
    );
    // Shallow sparse churn (the heap's best case).
    Scenario::time(
        out,
        "shallow_sparse_6",
        2 * steps,
        || shallow_sparse(&mut EventQueue::new(), steps),
        || shallow_sparse(&mut BinaryHeapQueue::new(), steps),
    );
    Scenario::time(
        out,
        "same_tick_cohorts_8x",
        2 * cohorts * width,
        || cohort_flood(&mut EventQueue::new(), cohorts, width),
        || cohort_flood(&mut BinaryHeapQueue::new(), cohorts, width),
    );
}

fn main() -> ExitCode {
    Suite {
        title: "event-queue bench",
        schema: "bench-event-queue-v1",
        keys: ["ladder_ns_per_event", "heap_ns_per_event"],
        sides: ["ladder", "heap"],
        unit: "ns/ev",
    }
    .main(run_scenarios)
}
