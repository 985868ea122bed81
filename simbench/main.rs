//! `simbench`: the host cost of a simulated packet on six standard
//! workloads, end to end and split by layer.
//!
//! ```text
//! simbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload` every workload runs, reps interleaved
//! round-robin. Each workload gets `--seconds` of reps (at least
//! [`MIN_ROUNDS`]). Every rep simulates the same work, slice for slice,
//! so host time is each slice at its fastest, summed over the window,
//! and scaled to a reference host speed. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` adds a traced rep per round and
//! reports the per-layer metrics. Every metric prints as
//! `workload metric value unit`, and the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Every rep must
//! reproduce the workload's model hash; any mismatch or panic is a failed
//! op and makes the exit code 1. See `README.md`.

mod layers;
mod measure;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use simnet_harness::{stats_text, Simulation};
use simnet_sim::tick::US;
use workloads::{Workload, RATE_TOLERANCE, WARMUP, WORKLOADS};

use layers::Metric;
use measure::{calibrate, model_hash, quartiles, thread_cpu_ns, REFERENCE_CALIBRATION_NS};

const DEFAULT_SEED: u64 = 0x5EED;
/// Assemblies timed per round for `setup_s`. Spreading them over the
/// run keeps one burst of host interference from covering them all. The
/// first two after a rep run on caches the rep evicted; with eight, the
/// median falls among the warm ones.
const SETUP_BUILDS_PER_ROUND: usize = 8;
/// Rounds run even when `--seconds` has already elapsed.
const MIN_ROUNDS: usize = 3;
/// Equal slices of simulated time in each measurement window. Bursts of
/// host interference last 0.3–1 s, longer than a slice, so a burst spoils
/// a few slices of one rep and the other reps cover them.
const SLICES: u64 = 16;

/// The end-to-end metrics, `--trace 0`: name and unit.
const E2E: [(&str, &str); 4] = [
    ("host_ns_per_pkt", "ns"),
    ("sim_us_per_host_s", "us/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

const USAGE: &str = "usage: simbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one rep and report this process's peak RSS.
    rss_child: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        rss_child: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--rss-child" {
            a.rss_child = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?;
                a.workloads = vec![*w];
            }
            "--seed" => a.seed = parse_seed(&value).ok_or(format!("bad seed {value}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// The model outputs of a rep; the hash covers them.
#[derive(Debug, Clone, Copy)]
struct Outputs {
    achieved: f64,
    nic_drop_rate: f64,
    gen_drop_rate: f64,
    rtt_p50_us: f64,
    rtt_p99_us: f64,
    rtt_max_us: f64,
}

/// One rep's measurements.
struct Rep {
    hash: u64,
    outputs: Outputs,
    /// Packets the generator sent in the measurement window.
    pkts: u64,
    /// CPU ns of the warm-up, then of each of the [`SLICES`] slices of the
    /// measurement window.
    cpu_ns: Vec<u64>,
    /// Wall ns of the measurement window.
    wall_ns: u64,
    /// Per-layer metrics (traced reps only).
    layers: Vec<Metric>,
}

/// Packets the generator or fleet has sent since the last stats reset.
fn sent(sim: &Simulation) -> Result<u64, String> {
    sim.loadgen
        .as_ref()
        .map(|lg| lg.tx_packets())
        .or_else(|| sim.fleet().map(|f| f.tx_packets()))
        .ok_or_else(|| "the workload has no traffic generator".to_string())
}

/// Builds `w`, warms it up, and measures one window in [`SLICES`]
/// slices. A traced rep swaps in the layer timing wrappers first and
/// profiles the measurement window.
fn run_rep(w: &Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let mut sim = w.build(seed);
    let spans = traced.then(|| layers::wrap(&mut sim));
    let t0 = thread_cpu_ns();
    sim.run_until(WARMUP);
    let mut cpu_ns = vec![thread_cpu_ns() - t0];
    sim.reset_stats();
    if let Some(spans) = &spans {
        sim.enable_profiler();
        layers::reset(spans);
    }

    let end = WARMUP + w.measure;
    let wall0 = Instant::now();
    for k in 1..=SLICES {
        let t0 = thread_cpu_ns();
        sim.run_until(WARMUP + w.measure * k / SLICES);
        cpu_ns.push(thread_cpu_ns() - t0);
    }
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    let pkts = sent(&sim)?;
    if pkts == 0 {
        return Err("the generator sent nothing".to_string());
    }

    let layers = match (&spans, sim.profile()) {
        (Some(spans), Some(profile)) => {
            let mut m = layers::time_metrics(profile, &spans.borrow(), pkts)?;
            m.extend(layers::count_metrics(&sim, pkts));
            m
        }
        _ => Vec::new(),
    };
    let report = sim
        .loadgen
        .as_ref()
        .map(|lg| lg.report(WARMUP, end))
        .or_else(|| sim.fleet().map(|f| f.report(WARMUP, end)))
        .expect("`sent` found the generator");
    let lat = &report.latency;
    let nic_drop_rate = sim.nodes[0].nic.drop_fsm().drop_rate();
    Ok(Rep {
        hash: model_hash(&stats_text(&sim, 0)),
        outputs: Outputs {
            achieved: w.achieved(&report, nic_drop_rate),
            nic_drop_rate,
            gen_drop_rate: report.drop_rate,
            rtt_p50_us: lat.median / US as f64,
            rtt_p99_us: lat.p99 / US as f64,
            rtt_max_us: lat.max / US as f64,
        },
        pkts,
        cpu_ns,
        wall_ns,
        layers,
    })
}

/// Everything gathered for one workload.
struct Acc {
    w: Workload,
    seed: u64,
    attempted: u64,
    failed: u64,
    /// The hash every rep must reproduce: the committed one at the
    /// default seed, otherwise the first rep's.
    expected_hash: Option<u64>,
    outputs: Option<Outputs>,
    /// Packets per measurement window, the same in every rep.
    pkts: u64,
    /// [`Rep::cpu_ns`] of each untraced rep, and of each traced rep.
    cpu_ns: Vec<Vec<u64>>,
    traced_cpu_ns: Vec<Vec<u64>>,
    wall_ns: Vec<u64>,
    setup_s: Vec<f64>,
    peak_rss_mb: Option<f64>,
    layers: Vec<Vec<Metric>>,
    /// CPU ns of [`calibrate`], once per round.
    calibration_ns: Vec<u64>,
}

impl Acc {
    fn new(w: Workload, seed: u64) -> Self {
        Self {
            w,
            seed,
            attempted: 0,
            failed: 0,
            expected_hash: (seed == DEFAULT_SEED).then_some(w.model_hash),
            outputs: None,
            pkts: 0,
            cpu_ns: Vec::new(),
            traced_cpu_ns: Vec::new(),
            wall_ns: Vec::new(),
            setup_s: Vec::new(),
            peak_rss_mb: None,
            layers: Vec::new(),
            calibration_ns: Vec::new(),
        }
    }

    /// The factor that takes this run's host times to the reference host
    /// speed: the reference calibration time over the fastest one here.
    fn speed_scale(&self) -> f64 {
        match self.calibration_ns.iter().min() {
            Some(&fastest) => REFERENCE_CALIBRATION_NS / fastest as f64,
            None => 1.0,
        }
    }

    /// Host ns per packet of a rep's measured `cpu_ns`, at the reference
    /// speed.
    fn host_ns_per_pkt(&self, cpu_ns: &[u64]) -> f64 {
        let window: u64 = cpu_ns[1..].iter().sum();
        window as f64 / self.pkts as f64 * self.speed_scale()
    }

    /// Simulated µs per host CPU s of a rep's measured `cpu_ns`, warm-up
    /// included, at the reference speed.
    fn sim_us_per_host_s(&self, cpu_ns: &[u64]) -> f64 {
        let sim_us = (WARMUP + self.w.measure) as f64 / US as f64;
        let host_s = cpu_ns.iter().sum::<u64>() as f64 / 1e9;
        sim_us / host_s / self.speed_scale()
    }

    /// Runs one op, counting a panic or an error as a failed op.
    fn attempt<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome =
            catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|_| Err("panicked".to_string()));
        self.record(what, outcome)
    }

    fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        outcome
            .map_err(|e| {
                self.failed += 1;
                eprintln!("simbench: {} {what} failed: {e}", self.w.name);
            })
            .ok()
    }

    /// Checks a rep's model outputs: the hash, and the achieved rate
    /// within [`RATE_TOLERANCE`] of the committed one.
    fn check(&mut self, hash: u64, outputs: Option<Outputs>) -> Result<(), String> {
        let expected = *self.expected_hash.get_or_insert(hash);
        if hash != expected {
            return Err(format!(
                "model hash {hash:#018x} differs from {expected:#018x}"
            ));
        }
        if let Some(o) = outputs {
            let band = RATE_TOLERANCE * self.w.rate;
            if (o.achieved - self.w.rate).abs() > band {
                return Err(format!(
                    "achieved {:.3} {} is outside {:.3} ± {band:.3}",
                    o.achieved,
                    self.w.rate_unit(),
                    self.w.rate
                ));
            }
            self.outputs = Some(o);
        }
        Ok(())
    }

    fn rep(&mut self, traced: bool) {
        let (w, seed) = (self.w, self.seed);
        let what = if traced { "traced rep" } else { "rep" };
        let Some(rep) = self.attempt(what, || run_rep(&w, seed, traced)) else {
            return;
        };
        let checked = self.check(rep.hash, Some(rep.outputs));
        if self.record(what, checked).is_none() {
            return;
        }
        self.pkts = rep.pkts;
        if traced {
            self.traced_cpu_ns.push(rep.cpu_ns);
            self.layers.push(rep.layers);
        } else {
            self.cpu_ns.push(rep.cpu_ns);
            self.wall_ns.push(rep.wall_ns);
        }
    }

    /// CPU time of [`SETUP_BUILDS_PER_ROUND`] full assemblies, one
    /// sample each.
    fn time_setup(&mut self) {
        let (w, seed) = (self.w, self.seed);
        let samples = self.attempt("setup", || {
            Ok((0..SETUP_BUILDS_PER_ROUND)
                .map(|_| {
                    let t0 = thread_cpu_ns();
                    let sim = w.build(seed);
                    let s = (thread_cpu_ns() - t0) as f64 / 1e9;
                    drop(sim);
                    s
                })
                .collect::<Vec<_>>())
        });
        self.setup_s.extend(samples.into_iter().flatten());
    }

    /// Peak RSS of a child process that runs one rep.
    fn measure_rss(&mut self) {
        let (name, seed) = (self.w.name, self.seed);
        let Some((mb, hash)) = self.attempt("rss child", || rss_child(name, seed)) else {
            return;
        };
        let checked = self.check(hash, None);
        if self.record("rss child", checked).is_some() {
            self.peak_rss_mb = Some(mb);
        }
    }

    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs reps of every workload round-robin until `seconds` per workload
/// have passed, and at least [`MIN_ROUNDS`] rounds. Each round of a
/// workload starts by timing the calibration kernel. An untraced round
/// also times set-up; a traced round adds a traced rep instead.
fn run_rounds(accs: &mut [Acc], seconds: f64, traced: bool) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * accs.len() as f64);
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        for acc in accs.iter_mut() {
            acc.calibration_ns.push(calibrate());
            if !traced {
                acc.time_setup();
            }
            acc.rep(false);
            if traced {
                acc.rep(true);
            }
        }
        round += 1;
    }
}

/// Re-runs this binary as `--rss-child` and parses its `rss_mb hash`
/// report line.
fn rss_child(workload: &str, seed: u64) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--rss-child", "--workload", workload, "--seed"])
        .arg(seed.to_string())
        .output()
        .map_err(|e| format!("cannot spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut fields = stdout.split_whitespace();
    let mb = fields.next().and_then(|v| v.parse().ok());
    let hash = fields.next().and_then(|v| u64::from_str_radix(v, 16).ok());
    mb.zip(hash)
        .ok_or(format!("unparsable child report {stdout:?}"))
}

/// One summarised metric of one workload.
struct Line {
    workload: &'static str,
    name: &'static str,
    unit: &'static str,
    /// The reported value.
    value: f64,
    /// The per-rep (or per-build) samples behind it, printed as median,
    /// quartiles and count.
    samples: Vec<f64>,
}

impl Line {
    fn new(
        acc: &Acc,
        (name, unit): (&'static str, &'static str),
        value: f64,
        samples: Vec<f64>,
    ) -> Self {
        Self {
            workload: acc.w.name,
            name,
            unit,
            value,
            samples,
        }
    }
}

fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// Each segment of a rep at its fastest over `reps`. Every rep does the
/// same work segment for segment (the model hash checks it), and other
/// tenants of the host only ever add time, so the fastest copy of a
/// segment is its undisturbed cost. Together they cover the whole rep.
///
/// # Panics
///
/// Panics if `reps` is empty.
fn fastest_segments(reps: &[Vec<u64>]) -> Vec<u64> {
    (0..reps[0].len())
        .map(|k| reps.iter().map(|r| r[k]).min().expect("at least one rep"))
        .collect()
}

/// The end-to-end metrics of one workload, in [`E2E`] order, with host
/// times at the reference host speed. A metric without samples (every
/// op failed) is left out.
fn e2e_lines(acc: &Acc) -> Vec<Line> {
    let mut lines = Vec::new();
    if !acc.cpu_ns.is_empty() {
        let fastest = fastest_segments(&acc.cpu_ns);
        let per_rep = |f: fn(&Acc, &[u64]) -> f64| acc.cpu_ns.iter().map(|r| f(acc, r)).collect();
        lines.push(Line::new(
            acc,
            E2E[0],
            acc.host_ns_per_pkt(&fastest),
            per_rep(Acc::host_ns_per_pkt),
        ));
        lines.push(Line::new(
            acc,
            E2E[1],
            acc.sim_us_per_host_s(&fastest),
            per_rep(Acc::sim_us_per_host_s),
        ));
    }
    if !acc.setup_s.is_empty() {
        let setup: Vec<f64> = acc.setup_s.iter().map(|s| s * acc.speed_scale()).collect();
        lines.push(Line::new(acc, E2E[2], median(&setup), setup));
    }
    if let Some(mb) = acc.peak_rss_mb {
        lines.push(Line::new(acc, E2E[3], mb, vec![mb]));
    }
    lines
}

/// The per-layer metrics of one workload: the median over traced reps,
/// with host times (unit `ns`) at the reference host speed, plus the
/// tracing overhead against the untraced reps.
fn layer_lines(acc: &Acc) -> Vec<Line> {
    let Some(first) = acc.layers.first() else {
        return Vec::new();
    };
    let scale = acc.speed_scale();
    let mut lines: Vec<Line> = first
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            let by = if unit == "ns" { scale } else { 1.0 };
            let samples: Vec<f64> = acc.layers.iter().map(|m| m[i].2 * by).collect();
            Line::new(acc, (name, unit), median(&samples), samples)
        })
        .collect();
    if !acc.cpu_ns.is_empty() && !acc.traced_cpu_ns.is_empty() {
        let overhead = acc.host_ns_per_pkt(&fastest_segments(&acc.traced_cpu_ns))
            / acc.host_ns_per_pkt(&fastest_segments(&acc.cpu_ns));
        lines.push(Line::new(
            acc,
            ("trace.overhead", "ratio"),
            overhead,
            vec![overhead],
        ));
    }
    lines
}

/// Human-readable lines beside the gated metrics: the host speed and
/// unscaled times, wall clock, failures and the model outputs.
fn print_info(acc: &Acc) {
    let name = acc.w.name;
    let ms: Vec<f64> = acc
        .calibration_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    if let Some(fastest) = ms.iter().copied().reduce(f64::min) {
        println!(
            "{name} calibration_ms {fastest:.3} ms median={:.3} n={} (reference {} ms; scale {:.4})",
            median(&ms),
            ms.len(),
            REFERENCE_CALIBRATION_NS / 1e6,
            acc.speed_scale()
        );
    }
    if !acc.cpu_ns.is_empty() {
        let unscaled = acc.host_ns_per_pkt(&fastest_segments(&acc.cpu_ns)) / acc.speed_scale();
        println!("{name} unscaled_host_ns_per_pkt {unscaled:.1} ns (not gated)");
    }
    let wall: Vec<f64> = acc
        .wall_ns
        .iter()
        .map(|&ns| ns as f64 / acc.pkts as f64)
        .collect();
    if let Some(fastest) = wall.iter().copied().reduce(f64::min) {
        println!(
            "{name} wall_ns_per_pkt {fastest:.1} ns median={:.1} n={} (fastest rep; not gated)",
            median(&wall),
            wall.len()
        );
    }
    println!(
        "{name} fail_ratio {} ratio ({} of {} ops)",
        acc.fail_ratio(),
        acc.failed,
        acc.attempted
    );
    if let Some(hash) = acc.expected_hash {
        println!("{name} model_hash {hash:#018x} hash (seed {:#x})", acc.seed);
    }
    if let Some(o) = acc.outputs {
        let unit = acc.w.rate_unit();
        println!("{name} achieved {:.3} {unit}", o.achieved);
        println!("{name} nic_drop_rate {:.4} ratio", o.nic_drop_rate);
        println!("{name} gen_drop_rate {:.4} ratio", o.gen_drop_rate);
        println!(
            "{name} rtt_us p50={:.2} p99={:.2} max={:.2} us",
            o.rtt_p50_us, o.rtt_p99_us, o.rtt_max_us
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.rss_child {
        return child_main(&args);
    }

    let mut accs: Vec<Acc> = args
        .workloads
        .iter()
        .map(|&w| Acc::new(w, args.seed))
        .collect();
    run_rounds(&mut accs, args.seconds, args.trace);
    if !args.trace {
        accs.iter_mut().for_each(Acc::measure_rss);
    }

    let mut lines = Vec::new();
    for acc in &accs {
        let mut ls = if args.trace {
            layer_lines(acc)
        } else {
            e2e_lines(acc)
        };
        for l in &ls {
            let (q1, med, q3) = quartiles(&l.samples);
            println!(
                "{} {} {} {} median={med} q1={q1} q3={q3} n={}",
                l.workload,
                l.name,
                l.value,
                l.unit,
                l.samples.len()
            );
        }
        print_info(acc);
        lines.append(&mut ls);
    }

    let attempted: u64 = accs.iter().map(|a| a.attempted).sum();
    let failed: u64 = accs.iter().map(|a| a.failed).sum();
    let all_metrics = accs.iter().all(|a| {
        if args.trace {
            !a.layers.is_empty() && !a.cpu_ns.is_empty()
        } else {
            e2e_lines(a).len() == E2E.len()
        }
    });
    let finite = lines.iter().all(|l| l.value.is_finite());
    let correct = failed == 0 && all_metrics && finite;
    println!(
        "{}",
        result_json(&lines, accs.len() > 1, correct, attempted, failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--rss-child`: one untraced rep, then `peak_rss_mb model_hash`.
fn child_main(args: &Args) -> ExitCode {
    let [w] = args.workloads[..] else {
        eprintln!("simbench: --rss-child needs one --workload");
        return ExitCode::from(2);
    };
    match run_rep(&w, args.seed, false).and_then(|rep| Ok((measure::peak_rss_mb()?, rep.hash))) {
        Ok((mb, hash)) => {
            println!("{mb} {hash:x}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {} rss child: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// The result line. With several workloads each metric name gets its
/// workload as a prefix.
fn result_json(
    lines: &[Line],
    prefixed: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = lines
        .iter()
        .map(|l| {
            let value = if l.value.is_finite() { l.value } else { 0.0 };
            let name = if prefixed {
                format!("{}.{}", l.workload, l.name)
            } else {
                l.name.to_string()
            };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                l.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_sim::tick::us;

    /// A workload cut to a 160 µs measurement window.
    fn tiny(w: Workload) -> Workload {
        Workload {
            measure: us(160),
            ..w
        }
    }

    #[test]
    fn timing_wrappers_and_profiler_are_passive() {
        for w in WORKLOADS.map(tiny) {
            let plain = run_rep(&w, DEFAULT_SEED, false).expect("untraced rep");
            let traced = run_rep(&w, DEFAULT_SEED, true).expect("traced rep");
            assert_eq!(
                plain.hash, traced.hash,
                "{}: tracing changed the model",
                w.name
            );
            assert!(!traced.layers.is_empty() && plain.layers.is_empty());
        }
    }

    #[test]
    fn every_emitted_name_and_unit_is_well_formed() {
        let is_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let is_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let rep = run_rep(&tiny(WORKLOADS[0]), DEFAULT_SEED, true).expect("traced rep");
        let metrics = E2E
            .into_iter()
            .chain(rep.layers.iter().map(|&(name, unit, _)| (name, unit)))
            .chain([("trace.overhead", "ratio")]);
        for (name, unit) in metrics {
            assert!(is_unit(unit), "unit {unit:?} of {name}");
            for w in &WORKLOADS {
                let prefixed = format!("{}.{name}", w.name);
                assert!(is_name(name) && is_name(&prefixed), "{prefixed:?}");
            }
        }
    }

    #[test]
    fn a_wrong_expected_hash_fails_the_rep() {
        let w = tiny(WORKLOADS[0]);
        let rep = run_rep(&w, DEFAULT_SEED, false).expect("rep");
        let good = Workload {
            model_hash: rep.hash,
            rate: rep.outputs.achieved,
            ..w
        };
        let mut acc = Acc::new(good, DEFAULT_SEED);
        acc.rep(false);
        assert_eq!(acc.fail_ratio(), 0.0);
        assert_eq!(acc.cpu_ns.len(), 1);

        let corrupted = Workload {
            model_hash: rep.hash ^ 1,
            ..good
        };
        let mut acc = Acc::new(corrupted, DEFAULT_SEED);
        acc.rep(false);
        assert!(acc.fail_ratio() > 0.0);
        assert!(e2e_lines(&acc).is_empty(), "a failed rep reports no sample");
    }

    #[test]
    fn host_times_scale_to_the_reference_speed() {
        let mut acc = Acc::new(WORKLOADS[0], DEFAULT_SEED);
        // The fastest calibration took twice the reference: a slow host.
        let reference = REFERENCE_CALIBRATION_NS as u64;
        acc.calibration_ns = vec![4 * reference, 2 * reference];
        // Warm-up, then the window's slices; each slice's fastest copy
        // is in a different rep: 100 + 300 ns for 4 packets.
        acc.cpu_ns = vec![vec![5_000, 100, 900], vec![9_000, 700, 300]];
        acc.pkts = 4;
        acc.setup_s = vec![0.5];
        acc.peak_rss_mb = Some(3.0);
        // Times measured at half the reference speed count half.
        let lines = e2e_lines(&acc);
        assert_eq!(lines[0].value, 400.0 / 4.0 * 0.5);
        assert_eq!(lines[0].samples, [125.0, 125.0]);
        let sim_us = (WARMUP + acc.w.measure) as f64 / US as f64;
        assert_eq!(lines[1].value, sim_us / 5.4e-6 / 0.5);
        assert_eq!((lines[2].value, lines[3].value), (0.25, 3.0));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let acc = Acc::new(WORKLOADS[0], DEFAULT_SEED);
        let lines = vec![Line::new(&acc, E2E[0], 2.5, vec![5.0, 3.0])];
        assert_eq!(
            result_json(&lines, false, true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"host_ns_per_pkt\": {\"value\": 2.5, \"unit\": \"ns\"}}}"
        );
        assert!(result_json(&lines, true, true, 3, 0).contains("\"pmd64_knee.host_ns_per_pkt\""));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload incast_8c --seed 42 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workloads.len(), 1);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 3.0, true));
        assert_eq!(parse("--seed 0x5EED").expect("hex").seed, DEFAULT_SEED);
        assert_eq!(
            parse("").expect("defaults").workloads.len(),
            WORKLOADS.len()
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--frob 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
