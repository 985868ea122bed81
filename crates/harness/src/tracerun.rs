//! Observed single-point runs: [`run_point`](crate::run_point) with the
//! observability layers attached.
//!
//! [`run_observed`] switches on packet-lifecycle tracing
//! (`simnet_sim::trace`), the interval time-series sampler and the
//! simulator self-profiler independently via [`ObserveOpts`]. Each rides
//! the exact same simulation assembly as a bare run — same seeds, same
//! event order — so all observation is passive: a run with every layer
//! enabled measures the same summary as a bare run. A traced run differs
//! only in that every component holds a clone of the
//! [`Tracer`](simnet_sim::trace::Tracer) handle and appends lifecycle
//! events to the shared ring buffer.
//!
//! Fault-injection runs set [`ObserveOpts::faults`]: the injector is
//! installed before the first event fires, so the faulted event stream is
//! as deterministic as a clean one.

use simnet_sim::fault::{FaultCounts, FaultInjector};
use simnet_sim::stats::{Profiler, TimeSeries};
use simnet_sim::trace::TraceEvent;
use simnet_sim::Tick;

use crate::config::SystemConfig;
use crate::msb::{AppSpec, RunConfig};
use crate::summary::{run_phases, RunSummary};

/// Which observability layers to attach to a [`run_observed`] point.
#[derive(Debug, Clone)]
pub struct ObserveOpts {
    /// Packet-lifecycle tracing: `Some((capacity, mask))` enables it,
    /// keeping up to `capacity` events from the components in `mask`
    /// (see [`simnet_sim::trace::parse_filter`]).
    pub trace: Option<(usize, u32)>,
    /// Fault injector to install before the run starts
    /// ([`FaultInjector::disabled`] for a clean run).
    pub faults: FaultInjector,
    /// Interval time-series sampling period in ticks; `None` = off.
    pub stats_interval: Option<Tick>,
    /// Attach the self-profiler to the event loop.
    pub profile: bool,
}

impl Default for ObserveOpts {
    fn default() -> Self {
        ObserveOpts {
            trace: None,
            faults: FaultInjector::disabled(),
            stats_interval: None,
            profile: false,
        }
    }
}

/// An observed measurement point: the ordinary summary plus whatever
/// observability layers [`ObserveOpts`] switched on.
#[derive(Debug)]
pub struct ObservedRun {
    /// Lifecycle events in emission order (empty unless tracing was on).
    pub events: Vec<TraceEvent>,
    /// Events evicted from the trace ring (0 = `events` is complete).
    pub evicted: u64,
    /// The ordinary measurement summary (drop counters, throughput, …).
    pub summary: RunSummary,
    /// Per-site fault counters (all zero when no plan was installed).
    pub fault_counts: FaultCounts,
    /// The interval time series, when sampling was on. Rows cover the
    /// measurement window only (warm-up rows are discarded at the stats
    /// reset) and end with a final partial-interval row.
    pub timeseries: Option<TimeSeries>,
    /// The event-loop profile, when profiling was on.
    pub profile: Option<Profiler>,
}

/// Runs one loadgen-mode measurement point exactly like
/// [`run_point`](crate::run_point) with the observability layers selected
/// by `opts` attached before the first simulated event.
pub fn run_observed(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
    rc: RunConfig,
    opts: ObserveOpts,
) -> ObservedRun {
    let offered = crate::msb::clamp_offered(cfg, spec, size, offered);
    let mut sim = crate::msb::build_loadgen_sim(cfg, spec, size, offered);
    sim.install_faults(opts.faults);
    if let Some((capacity, mask)) = opts.trace {
        sim.enable_trace(capacity, mask);
    }
    if let Some(interval) = opts.stats_interval {
        sim.enable_interval_stats(interval);
    }
    if opts.profile {
        sim.enable_profiler();
    }
    let summary = run_phases(&mut sim, rc);
    sim.finalize_interval_stats();
    let evicted = sim.tracer().evicted();
    let events = sim.take_trace();
    let fault_counts = sim.fault_injector().counts();
    let timeseries = sim.take_timeseries();
    let profile = sim.take_profile();
    ObservedRun {
        events,
        evicted,
        summary,
        fault_counts,
        timeseries,
        profile,
    }
}
