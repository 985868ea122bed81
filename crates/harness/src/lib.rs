//! The `simnet` experiment harness.
//!
//! This crate assembles complete simulated nodes — NIC + PCI + memory
//! hierarchy + core + software stack + application — connects them to a
//! hardware load generator (Fig. 1b) or to each other (dual-mode,
//! Fig. 1a), runs warm-up/measurement phases, and implements every
//! experiment in the paper's evaluation (§VII) as a reproducible function.
//!
//! * [`config`] — Table I system presets (`gem5` simulated, `altra` real
//!   system proxy) and the knobs every figure sweeps.
//! * [`sim`] — the event-driven [`sim::Simulation`] node assembly.
//! * [`client_app`] — the software load-generator application used by the
//!   Drive Node in dual-mode runs.
//! * [`msb`] — maximum-sustainable-bandwidth search and per-point runs.
//! * [`table`] — plain-text/CSV result rendering.
//! * [`tracerun`] — single-point runs with the packet-lifecycle trace
//!   layer attached (`--trace` in the `repro` binary).
//! * [`experiments`] — one module per paper table/figure.

pub mod client_app;
pub mod config;
pub mod experiments;
pub mod msb;
pub mod sim;
pub mod stats_dump;
pub mod summary;
pub mod table;
pub mod tracerun;

pub use client_app::SoftwareClient;
pub use config::SystemConfig;
pub use msb::{
    build_dual_sim, build_loadgen_sim, find_msb, run_point, AppSpec, MsbResult, RunConfig,
};
pub use sim::Simulation;
pub use stats_dump::{build_registry, stats_text, stats_text_all};
pub use summary::RunSummary;
pub use tracerun::{
    run_observed, run_traced, run_traced_all, run_traced_with, ObserveOpts, ObservedRun, TraceOpts,
    TracedRun,
};
