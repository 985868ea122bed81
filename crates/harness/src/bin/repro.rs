//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--out DIR] [all|table1|fig5|fig6|fig7|fig8|fig9|fig10|
//!                              fig11|fig12|fig13|fig14|fig15|fig16|fig17|
//!                              fig18|fig19|fig20|headline|fault-matrix]
//! repro [--trace PATH] [--trace-filter COMPONENTS] [--trace-gbps G]
//!       [--stats-out FILE] [--stats-interval US] [--profile]
//!       [--faults PLAN] [--fault-seed N] [--frame BYTES]
//!       [--nqueues N] [--lcores N] [--topo CLIENTS]
//! ```
//!
//! Results print as tables and are written as CSVs under `--out`
//! (default `results/`). Every argument is checked first: an unknown
//! flag or experiment name exits 1 before any experiment runs. When the
//! reader of stdout goes away (`repro ... | head`), `repro` stops
//! quietly with exit 0; any other failed write to stdout exits 1 with
//! one line on stderr.
//!
//! Any of `--trace`, `--stats-out`, or `--profile` switches the binary to
//! single-point mode: one short, deliberately overloaded TestPMD run with
//! the selected observability layers attached. It takes no experiment
//! names.
//!
//! * `--trace PATH` writes the packet-lifecycle trace to `PATH` —
//!   canonical text, or JSON when `PATH` ends in `.json`. `--trace-filter`
//!   limits it to a comma-separated component list
//!   (`loadgen,link,nic,pci,mem,stack,app,sim`).
//! * `--stats-out FILE` samples counters and queue gauges every
//!   `--stats-interval` simulated microseconds (default 100) and writes
//!   the time series to `FILE` — ndjson, or CSV when `FILE` ends in
//!   `.csv`.
//! * `--profile` attaches the simulator self-profiler and prints the
//!   per-event-kind host-time table after the run.
//!
//! `--frame BYTES` picks the frame size of the single-point run (64 to
//! 1518, default 1518; `--frame 64` reproduces the small-frame knee).
//!
//! `--nqueues N` gives the single-point run N RSS queue pairs and
//! `--lcores N` that many worker cores polling them (N ≤ nqueues); the
//! experiment `mq-sweep` sweeps the full cores × queues grid. At
//! `--nqueues 1 --lcores 1` (the default) the run is byte-identical to
//! the legacy single-ring path.
//!
//! `--topo CLIENTS` replaces the point-to-point wire with an incast
//! topology: the generator's CLIENTS client ports behind a MAC switch
//! whose trunk feeds the host NIC. `--topo 1` (the default) keeps the
//! legacy wire; the experiment `topo-sweep` sweeps the fan-in axis.
//!
//! `--faults PLAN` installs a deterministic fault plan for the run
//! (grammar: `link.ber=1e-7;pci.stall=200ns@10%;dma.burst=+500ns/1us`; see
//! `simnet_sim::fault::FaultPlan`). `--fault-seed N` picks the fault RNG
//! seed (default 42); the workload RNG is untouched either way.

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use simnet_harness::config::TopoConfig;
use simnet_harness::experiments::{self, ablations, Effort, ExperimentOutput};
use simnet_harness::{run_observed, AppSpec, ObserveOpts, RunConfig, SystemConfig};
use simnet_net::{MAX_FRAME_LEN, MIN_FRAME_LEN};
use simnet_sim::fault::FaultInjector;
use simnet_sim::fault::FaultPlan;
use simnet_sim::tick;
use simnet_sim::trace::{self, Component, Stage};

/// One experiment `repro` can run: its name and its entry point.
type Experiment = (&'static str, fn(Effort) -> ExperimentOutput);

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", |_| experiments::table1::run()),
    ("fig5", experiments::fig05::run),
    ("fig6", experiments::curves::fig06),
    ("fig7", experiments::curves::fig07),
    ("fig8", experiments::curves::fig08),
    ("fig9", experiments::curves::fig09),
    ("fig10", experiments::cache::fig10),
    ("fig11", experiments::cache::fig11),
    ("fig12", experiments::cache::fig12),
    ("fig13", experiments::dca::fig13),
    ("fig14", experiments::dca::fig14),
    ("fig15", experiments::core_sens::fig15),
    ("fig16", experiments::core_sens::fig16),
    ("fig17", experiments::core_sens::fig17),
    ("fig18", experiments::memcached::fig18),
    ("fig19", experiments::memcached::fig19),
    ("fig20", experiments::speedup::run),
    ("headline", experiments::headline::run),
    ("ablation-wb", ablations::writeback_threshold),
    ("ablation-dca-ways", ablations::dca_ways),
    ("ablation-open-closed", ablations::open_vs_closed),
    ("ablation-hugepages", ablations::hugepages),
    ("ablation-itr", ablations::interrupt_coalescing),
    ("tcp", experiments::tcp_ext::run),
    ("latency-hist", experiments::latency_hist::run),
    ("fault-matrix", experiments::fault_matrix::run),
    ("mq-sweep", experiments::mq_sweep::run),
    ("topo-sweep", experiments::topo_sweep::run),
];

/// The experiment names joined by `sep`.
fn experiment_names(sep: &str) -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    names.join(sep)
}

/// The single-point observed run: which layers `--trace`, `--stats-out`
/// and `--profile` selected.
struct PointMode {
    trace_path: Option<PathBuf>,
    trace_mask: u32,
    stats_path: Option<PathBuf>,
    stats_interval_us: u64,
    profile: bool,
    frame: usize,
    nqueues: usize,
    lcores: usize,
    topo: usize,
}

fn write_file(path: &PathBuf, contents: &str) -> Result<(), ExitCode> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                return Err(ExitCode::FAILURE);
            }
        }
    }
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

/// Runs one observed TestPMD point and writes the requested outputs.
fn run_point_mode(
    mode: &PointMode,
    offered_gbps: f64,
    faults: FaultInjector,
    out: &mut impl Write,
) -> io::Result<ExitCode> {
    let mut cfg = SystemConfig::gem5()
        .with_queues(mode.nqueues)
        .with_lcores(mode.lcores);
    if mode.topo > 1 {
        cfg = cfg.with_topo(TopoConfig::incast(mode.topo));
    }
    let spec = AppSpec::TestPmd;
    let rc = RunConfig::fast();
    let faulted = faults.is_enabled();
    if faulted {
        writeln!(
            out,
            "fault plan: {} (seed {})",
            faults.plan().map(|p| p.to_string()).unwrap_or_default(),
            faults.seed().unwrap_or(0)
        )?;
    }
    writeln!(
        out,
        "observing {} @ {offered_gbps:.1} Gbps ({} B frames, fast phases)",
        spec.label(),
        mode.frame
    )?;
    if mode.nqueues != 1 || mode.lcores != 1 {
        writeln!(
            out,
            "multi-queue: {} RX/TX queue pairs, {} worker lcores",
            mode.nqueues, mode.lcores
        )?;
    }
    if mode.topo > 1 {
        writeln!(
            out,
            "topology: {} clients -> switch -> host (incast fan-in)",
            mode.topo
        )?;
    }
    let opts = ObserveOpts {
        trace: mode.trace_path.as_ref().map(|_| (1 << 22, mode.trace_mask)),
        faults,
        stats_interval: mode
            .stats_path
            .as_ref()
            .map(|_| tick::us(mode.stats_interval_us.max(1))),
        profile: mode.profile,
    };
    let run = run_observed(&cfg, &spec, mode.frame, offered_gbps, rc, opts);

    if let Some(path) = &mode.trace_path {
        // The FSM counters reset at the end of warm-up; compare only
        // trace drops inside the measurement window so the cross-check is
        // exact.
        let (mut dma, mut core, mut tx, mut fault) = (0u64, 0u64, 0u64, 0u64);
        // Packet-conservation ledger over the whole run (warm-up included
        // — the trace is attached from t=0).
        let (mut injected, mut delivered, mut dropped) = (0u64, 0u64, 0u64);
        for ev in &run.events {
            match ev.stage {
                Stage::Inject { .. } => injected += 1,
                Stage::EchoRx => delivered += 1,
                Stage::Drop { class, .. } => {
                    dropped += 1;
                    if ev.tick > rc.phases.warmup {
                        match class {
                            trace::DropClass::Dma => dma += 1,
                            trace::DropClass::Core => core += 1,
                            trace::DropClass::Tx => tx += 1,
                            trace::DropClass::Fault => fault += 1,
                        }
                    }
                }
                _ => {}
            }
        }

        let serialized = if path.extension().is_some_and(|e| e == "json") {
            trace::json(&run.events)
        } else {
            trace::canonical_text(&run.events)
        };
        if let Err(code) = write_file(path, &serialized) {
            return Ok(code);
        }
        writeln!(
            out,
            "wrote {} events to {} (evicted {}, hash {:016x})",
            run.events.len(),
            path.display(),
            run.evicted,
            trace::trace_hash(&run.events)
        )?;
        writeln!(
            out,
            "trace drops (measure window): dma={dma} core={core} tx={tx} fault={fault}; \
             fsm counters: dma={} core={} tx={} fault={}",
            run.summary.drop_counts.0,
            run.summary.drop_counts.1,
            run.summary.drop_counts.2,
            run.summary.fault_drops
        )?;
        let in_flight = injected.saturating_sub(delivered + dropped);
        writeln!(
            out,
            "conservation: injected={injected} delivered={delivered} dropped={dropped} \
             in_flight={in_flight}"
        )?;
    }

    if let Some(path) = &mode.stats_path {
        let ts = run.timeseries.as_ref().expect("sampling was enabled");
        let serialized = if path.extension().is_some_and(|e| e == "csv") {
            ts.to_csv()
        } else {
            ts.to_ndjson()
        };
        if let Err(code) = write_file(path, &serialized) {
            return Ok(code);
        }
        writeln!(
            out,
            "wrote {} interval samples ({} µs apart) to {}",
            ts.len(),
            mode.stats_interval_us,
            path.display()
        )?;
        // Drop onset: the first interval losing packets to a behind DMA
        // engine, and the FIFO fill level on the way there.
        let drop_dma = ts.int_column("drop_dma");
        let fifo_frac = ts.float_column("fifo_frac");
        let t_us = ts.float_column("t_us");
        match drop_dma.iter().position(|&d| d > 0) {
            Some(i) => {
                let peak_before = fifo_frac[..i].iter().copied().fold(0.0f64, f64::max);
                writeln!(
                    out,
                    "drop onset: first class=dma drop interval at t={:.0} µs \
                     (FIFO peaked at {:.0}% of capacity before onset)",
                    t_us[i],
                    peak_before * 100.0
                )?;
            }
            None => writeln!(
                out,
                "drop onset: no DMA-behind drops in the measurement window"
            )?,
        }
    }

    if faulted {
        let fc = &run.fault_counts;
        writeln!(
            out,
            "fault counts: link_ber={} fifo_stuck={} wb_delay={} wb_corrupt={} \
             pci_stall={} master_clear={} dma_burst={} dca_miss={} total={}",
            fc.link_bit_errors,
            fc.fifo_stuck_hits,
            fc.wb_delays,
            fc.wb_corrupts,
            fc.pci_stalls,
            fc.master_clear_blocks,
            fc.dma_bursts,
            fc.dca_forced_misses,
            fc.total()
        )?;
    }
    writeln!(
        out,
        "achieved {:.2} Gbps, drop rate {:.4}",
        run.summary.achieved_gbps(),
        run.summary.drop_rate
    )?;
    if let Some(profile) = &run.profile {
        writeln!(out, "\n{}", profile.render())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut out = io::stdout().lock();
    match run(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        // A reader that stopped early (`repro ... | head`) wants no more.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Checks the arguments, then runs what they ask for, printing to `out`.
fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let mut effort = Effort::Full;
    let mut out_dir = PathBuf::from("results");
    let mut targets: Vec<&Experiment> = Vec::new();
    let mut all = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut trace_mask = Component::ALL_MASK;
    let mut trace_gbps = 60.0;
    let mut stats_path: Option<PathBuf> = None;
    let mut stats_interval_us = 100u64;
    let mut profile = false;
    let mut fault_plan: Option<FaultPlan> = None;
    let mut fault_seed = 42u64;
    let mut frame = 1518usize;
    let mut nqueues = 1usize;
    let mut lcores = 1usize;
    let mut topo = 1usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => effort = Effort::Quick,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--trace" => match args.next() {
                Some(p) => trace_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace requires a file path");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--trace-filter" => match args.next().as_deref().map(trace::parse_filter) {
                Some(Ok(mask)) => trace_mask = mask,
                Some(Err(e)) => {
                    eprintln!("--trace-filter: {e}");
                    return Ok(ExitCode::FAILURE);
                }
                None => {
                    eprintln!("--trace-filter requires a component list");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--trace-gbps" => match args.next().and_then(|g| g.parse::<f64>().ok()) {
                Some(g) if g.is_finite() && g > 0.0 => trace_gbps = g,
                _ => {
                    eprintln!("--trace-gbps requires a finite rate above 0 (Gbps)");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--stats-out" => match args.next() {
                Some(p) => stats_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--stats-out requires a file path");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--stats-interval" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(us) if us > 0 => stats_interval_us = us,
                _ => {
                    eprintln!("--stats-interval requires a positive integer (microseconds)");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--profile" => profile = true,
            "--frame" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if (MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&n) => frame = n,
                _ => {
                    eprintln!(
                        "--frame requires a frame size in bytes \
                         ({MIN_FRAME_LEN}..={MAX_FRAME_LEN})"
                    );
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--nqueues" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if (1..=8).contains(&n) => nqueues = n,
                _ => {
                    eprintln!("--nqueues requires a queue-pair count (1..=8)");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--lcores" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if (1..=8).contains(&n) => lcores = n,
                _ => {
                    eprintln!("--lcores requires a worker-core count (1..=8)");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--topo" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if (1..=64).contains(&n) => topo = n,
                _ => {
                    eprintln!("--topo requires a client fan-in count (1..=64)");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--faults" => match args.next().as_deref().map(FaultPlan::parse) {
                Some(Ok(plan)) => fault_plan = Some(plan),
                Some(Err(e)) => {
                    eprintln!("--faults: {e}");
                    return Ok(ExitCode::FAILURE);
                }
                None => {
                    eprintln!("--faults requires a plan (e.g. 'link.ber=1e-6')");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--fault-seed" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(s) => fault_seed = s,
                None => {
                    eprintln!("--fault-seed requires an integer");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--help" | "-h" => {
                writeln!(
                    out,
                    "usage: repro [--quick] [--out DIR] [all|{}]\n\
                     \x20      repro [--trace PATH] [--trace-filter COMPONENTS] [--trace-gbps G]\n\
                     \x20            [--stats-out FILE] [--stats-interval US] [--profile]\n\
                     \x20            [--faults PLAN] [--fault-seed N] [--frame BYTES]\n\
                     \x20            [--nqueues N] [--lcores N] [--topo CLIENTS]",
                    experiment_names("|")
                )?;
                return Ok(ExitCode::SUCCESS);
            }
            "all" => all = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?}; see repro --help");
                return Ok(ExitCode::FAILURE);
            }
            name => match EXPERIMENTS.iter().find(|&&(known, _)| known == name) {
                Some(experiment) => targets.push(experiment),
                None => {
                    eprintln!(
                        "unknown experiment {name:?}; known: all, {}",
                        experiment_names(", ")
                    );
                    return Ok(ExitCode::FAILURE);
                }
            },
        }
    }

    let faults = match fault_plan {
        Some(plan) => FaultInjector::new(plan, fault_seed),
        None => FaultInjector::disabled(),
    };
    if lcores > nqueues {
        eprintln!("--lcores {lcores} needs at least as many --nqueues (have {nqueues})");
        return Ok(ExitCode::FAILURE);
    }
    if topo > 1 && nqueues != 1 {
        eprintln!("--topo incast runs drive a single-queue NIC (drop --nqueues)");
        return Ok(ExitCode::FAILURE);
    }
    if trace_path.is_some() || stats_path.is_some() || profile {
        if all || !targets.is_empty() {
            eprintln!(
                "experiments do not run in single-point mode (--trace/--stats-out/--profile)"
            );
            return Ok(ExitCode::FAILURE);
        }
        let mode = PointMode {
            trace_path,
            trace_mask,
            stats_path,
            stats_interval_us,
            profile,
            frame,
            nqueues,
            lcores,
            topo,
        };
        return run_point_mode(&mode, trace_gbps, faults, out);
    }
    if nqueues != 1 || lcores != 1 {
        eprintln!("--nqueues/--lcores only apply to single-point runs (see mq-sweep)");
        return Ok(ExitCode::FAILURE);
    }
    if topo != 1 {
        eprintln!("--topo only applies to single-point runs (see topo-sweep)");
        return Ok(ExitCode::FAILURE);
    }
    if faults.is_enabled() {
        eprintln!("--faults/--fault-seed only apply to single-point runs");
        return Ok(ExitCode::FAILURE);
    }
    if targets.is_empty() || all {
        targets = EXPERIMENTS.iter().collect();
    }

    for (name, run) in targets {
        let started = std::time::Instant::now();
        writeln!(out, "\n########## {name} ##########")?;
        run(effort).emit(out, &out_dir)?;
        writeln!(
            out,
            "[{name} done in {:.1}s]",
            started.elapsed().as_secs_f64()
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
