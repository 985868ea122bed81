//! Deterministic discrete-event simulation kernel for `simnet`.
//!
//! This crate is the substrate every other `simnet` crate builds on. It
//! provides:
//!
//! * [`Tick`] — the global simulated time base (1 tick = 1 picosecond, the
//!   same resolution gem5 uses), plus conversion helpers in [`tick`].
//! * [`EventQueue`] — a deterministic, stable-ordered pending-event set
//!   generic over the event payload type. Implemented as a gem5-style
//!   two-level ladder (bucketed near-future window + far-future overflow
//!   heap) that drains same-tick cohorts with one sort instead of
//!   re-heapifying per event; the original heap survives as
//!   [`event::BinaryHeapQueue`], the differential-test reference model.
//! * [`stats`] — gem5-style statistics: counters and sample sets with
//!   exact quantiles.
//! * [`random`] — seeded pseudo-random distributions (fixed, uniform,
//!   exponential, Zipfian) used by load generators and workloads.
//! * [`trace`] — the packet-lifecycle tracing layer: a ring-buffered
//!   [`Tracer`] handle components clone, canonical text/JSON
//!   serialization, and a stable 64-bit trace hash for golden-file
//!   comparison. Disabled by default; a disabled tracer costs one
//!   null-check per emit.
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   (its own RNG streams, independent of the workload RNG) queried by
//!   components through a cloneable [`FaultInjector`] handle. Disabled by
//!   default with the same null-check discipline as the tracer.
//!
//! # Determinism
//!
//! Two runs with identical configurations and seeds produce identical event
//! orderings and therefore identical statistics. The event queue breaks
//! same-tick ties by (priority, insertion sequence), never by allocation
//! order or hash iteration.
//!
//! # Example
//!
//! ```
//! use simnet_sim::{EventQueue, tick};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Hello, World }
//!
//! let mut q = EventQueue::new();
//! q.schedule(tick::ns(5), Ev::World);
//! q.schedule(tick::ns(1), Ev::Hello);
//! assert_eq!(q.pop().map(|e| e.payload), Some(Ev::Hello));
//! assert_eq!(q.pop().map(|e| e.payload), Some(Ev::World));
//! ```

pub mod event;
pub mod fault;
pub mod random;
pub mod stats;
pub mod tick;
pub mod trace;

pub use event::{Event, EventQueue, Priority};
pub use fault::{FaultCounts, FaultInjector, FaultKind, FaultPlan};
pub use tick::Tick;
pub use trace::{Component, DropClass, Stage, TraceEvent, Tracer};
