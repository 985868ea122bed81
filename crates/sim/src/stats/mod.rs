//! gem5-style simulation statistics.
//!
//! Components record into these structures while the simulation runs; the
//! harness reads them out at the end (or resets them after warm-up, the way
//! gem5 resets stats after `m5 resetstats`).
//!
//! * [`Counter`] — a monotonically increasing event count.
//! * [`SampleSet`] — a bounded sample store with exact quantiles, used for
//!   the load generator's per-packet round-trip latency report
//!   (mean, median, standard deviation, tails, histogram — §IV).
//! * [`StatsRegistry`] — the gem5-20.0-style hierarchical registry:
//!   components register named stats under dotted paths with descriptions
//!   and dumps are *generated* from the registry.
//! * [`TimeSeries`] — interval-sampled stat rows with ndjson/CSV
//!   serialization (the `--stats-out` artifact).
//! * [`Profiler`] — per-event-kind host-time attribution for the
//!   simulator's own event loop (`--profile`).

mod counter;
mod profile;
mod registry;
mod samples;
mod timeseries;

pub use counter::Counter;
pub use profile::Profiler;
pub use registry::{DumpLevel, StatEntry, StatValue, StatsRegistry};
pub use samples::{LatencySummary, SampleSet};
pub use timeseries::{ColumnKind, ColumnSpec, SampleValue, TimeSeries};
