//! Traced single-point runs: [`run_point`](crate::run_point) with the
//! packet-lifecycle trace layer (`simnet_sim::trace`) attached.
//!
//! The trace rides the exact same simulation assembly as an untraced run
//! — same seeds, same event order — so the measured summary of a traced
//! run is identical to the untraced one. The only difference is that
//! every component holds a clone of the [`Tracer`] handle and appends
//! lifecycle events to the shared ring buffer.
//!
//! Fault-injection runs use [`TraceOpts::faults`]: the injector is
//! installed before the first event fires, so the faulted event stream is
//! as deterministic as a clean one.
//!
//! [`run_observed`] generalizes the traced run to the full observability
//! layer: packet tracing, the interval time-series sampler, and the
//! simulator self-profiler can each be switched on independently via
//! [`ObserveOpts`]. All observation is passive — a run with every layer
//! enabled measures the same summary as a bare run.

use simnet_sim::fault::{FaultCounts, FaultInjector};
use simnet_sim::stats::{Profiler, TimeSeries};
use simnet_sim::trace::{canonical_text, trace_hash, Component, TraceEvent};
use simnet_sim::Tick;

use crate::config::SystemConfig;
use crate::msb::{AppSpec, RunConfig};
use crate::summary::{run_phases, RunSummary};

/// Default trace ring capacity: large enough to hold every event of a
/// short (`RunConfig::fast`) run without eviction.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Knobs for a traced run beyond the measurement point itself.
#[derive(Debug, Clone)]
pub struct TraceOpts {
    /// Trace ring capacity (events kept before eviction).
    pub capacity: usize,
    /// Component filter mask (see [`simnet_sim::trace::parse_filter`]).
    pub mask: u32,
    /// Fault injector to install before the run starts. Use
    /// [`FaultInjector::disabled`] for a clean run.
    pub faults: FaultInjector,
}

impl Default for TraceOpts {
    fn default() -> Self {
        TraceOpts {
            capacity: DEFAULT_TRACE_CAPACITY,
            mask: Component::ALL_MASK,
            faults: FaultInjector::disabled(),
        }
    }
}

/// A traced measurement point: the events plus the ordinary summary.
#[derive(Debug)]
pub struct TracedRun {
    /// Lifecycle events in emission order (the canonical order).
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring because the capacity was exceeded
    /// (0 means `events` is the complete trace).
    pub evicted: u64,
    /// The ordinary measurement summary (drop counters, throughput, …).
    pub summary: RunSummary,
    /// Per-site fault counters (all zero when no plan was installed).
    pub fault_counts: FaultCounts,
}

impl TracedRun {
    /// The canonical text serialization of the trace.
    pub fn canonical_text(&self) -> String {
        canonical_text(&self.events)
    }

    /// The stable 64-bit hash of the canonical trace.
    pub fn hash(&self) -> u64 {
        trace_hash(&self.events)
    }
}

/// Which observability layers to attach to a [`run_observed`] point.
#[derive(Debug, Clone)]
pub struct ObserveOpts {
    /// Packet-lifecycle tracing: `Some((capacity, mask))` enables it.
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
    let summary = run_phases(&mut sim, rc.phases);
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

/// Runs one loadgen-mode measurement point exactly like
/// [`run_point`](crate::run_point), but with tracing enabled for the
/// components selected by `opts.mask` and `opts.faults` installed before
/// the first simulated event.
pub fn run_traced_with(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
    rc: RunConfig,
    opts: TraceOpts,
) -> TracedRun {
    let run = run_observed(
        cfg,
        spec,
        size,
        offered,
        rc,
        ObserveOpts {
            trace: Some((opts.capacity, opts.mask)),
            faults: opts.faults,
            ..Default::default()
        },
    );
    TracedRun {
        events: run.events,
        evicted: run.evicted,
        summary: run.summary,
        fault_counts: run.fault_counts,
    }
}

/// Fault-free traced run (the PR-1 entry point, kept for callers that do
/// not inject faults).
pub fn run_traced(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
    rc: RunConfig,
    capacity: usize,
    mask: u32,
) -> TracedRun {
    run_traced_with(
        cfg,
        spec,
        size,
        offered,
        rc,
        TraceOpts {
            capacity,
            mask,
            ..Default::default()
        },
    )
}

/// Convenience wrapper: trace everything with the default capacity.
pub fn run_traced_all(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
    rc: RunConfig,
) -> TracedRun {
    run_traced_with(cfg, spec, size, offered, rc, TraceOpts::default())
}
