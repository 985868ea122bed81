//! The driver shared by the mechanism microbenches: `queue_bench` (the
//! ladder event queue against its binary-heap reference) and `pkt_bench`
//! (the packet pool against plain `Vec` buffers).
//!
//! Each bench times one mechanism against the representation it replaced
//! over a list of [`Scenario`]s, and writes and checks a committed JSON
//! baseline. Every bench takes the same flags:
//!
//! * `--scale F` multiplies iteration counts (CI smoke uses 0.2).
//! * `--out FILE` writes the measured JSON.
//! * `--check BASELINE` compares each baseline scenario's *speedup ratio*
//!   with the measured one and exits non-zero if any fell more than
//!   `--max-regress` percent (default 20) below it, or was not measured.
//!   Ratios, not absolute nanoseconds, so the check is meaningful across
//!   host machines.
//!
//! The whole-run benchmark is simbench (`BENCHMARK.json`); these benches
//! time no end-to-end run.

use std::process::ExitCode;
use std::time::Instant;

/// What distinguishes one bench's output from another's.
#[derive(Debug)]
pub struct Suite {
    /// Heading of the printed table, e.g. `"event-queue bench"`.
    pub title: &'static str,
    /// The JSON `schema` value, e.g. `"bench-event-queue-v1"`.
    pub schema: &'static str,
    /// The JSON keys of the mechanism's and the reference's timings.
    pub keys: [&'static str; 2],
    /// Printed labels of the mechanism and the reference, e.g. `["ladder", "heap"]`.
    pub sides: [&'static str; 2],
    /// Printed unit of one timing, e.g. `"ns/ev"`.
    pub unit: &'static str,
}

/// One measured scenario: median ns per unit of work of the mechanism
/// (`ns[0]`) and of the reference (`ns[1]`).
#[derive(Debug)]
pub struct Scenario {
    /// The name the baseline file keys it by.
    pub name: &'static str,
    /// Median ns per unit of work, mechanism then reference.
    pub ns: [f64; 2],
}

impl Scenario {
    /// Times `mechanism` and `reference`, each doing `units` units of
    /// work per call, over 9 interleaved repetitions after one warm-up
    /// call each, and appends the median of each side to `out`.
    /// Interleaving means ambient host noise hits both sides alike,
    /// keeping the *ratio* stable; the median discards stray slow reps.
    /// Each call's checksum is black-boxed so the work is not optimized
    /// away.
    ///
    /// Inlined, so each workload compiles into its closure with its
    /// constants, the code the committed baselines were measured on; and
    /// appending one scenario at a time keeps the heap layout each ran
    /// on, which sets the cache-line offsets of the buffers it times.
    #[inline]
    pub fn time(
        out: &mut Vec<Scenario>,
        name: &'static str,
        units: u64,
        mut mechanism: impl FnMut() -> u64,
        mut reference: impl FnMut() -> u64,
    ) {
        let mut sink = mechanism().wrapping_add(reference());
        let mut reps = [Vec::with_capacity(9), Vec::with_capacity(9)];
        for _ in 0..9 {
            let start = Instant::now();
            sink = sink.wrapping_add(mechanism());
            reps[0].push(start.elapsed().as_nanos() as f64 / units as f64);
            let start = Instant::now();
            sink = sink.wrapping_add(reference());
            reps[1].push(start.elapsed().as_nanos() as f64 / units as f64);
        }
        std::hint::black_box(sink);
        out.push(Self {
            name,
            ns: reps.map(|mut r| median(&mut r)),
        });
    }

    /// How many times faster the mechanism is than the reference.
    pub fn speedup(&self) -> f64 {
        self.ns[1] / self.ns[0]
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// `n` scaled by `--scale`, at least 1. Inlined so the workloads see
/// that their counts are non-zero, as in the code the baselines measured.
#[inline]
pub fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// Checks every baseline scenario against `measured`, one report line
/// each: `Ok` if its speedup is at least the baseline's divided by
/// `1 + max_regress / 100`, `Err` if below that floor or not measured.
pub fn check(
    measured: &[Scenario],
    baseline: &[(String, f64)],
    max_regress: f64,
) -> Vec<Result<String, String>> {
    baseline
        .iter()
        .map(|(name, base)| {
            let Some(sc) = measured.iter().find(|s| s.name == name) else {
                return Err(format!(
                    "  check {name}: baseline {base:.2}x, not measured MISSING"
                ));
            };
            let floor = base / (1.0 + max_regress / 100.0);
            let line = format!(
                "  check {name}: speedup {:.2}x vs baseline {base:.2}x (floor {floor:.2}x)",
                sc.speedup()
            );
            if sc.speedup() < floor {
                Err(line + " REGRESSED")
            } else {
                Ok(line + " ok")
            }
        })
        .collect()
}

/// Pulls `"name": ..., "speedup": ...` pairs out of a baseline JSON,
/// one scenario per line. Hand-rolled (no serde in the workspace), tied
/// to [`Suite::to_json`].
pub fn parse_baseline(json: &str) -> Vec<(String, f64)> {
    json.lines()
        .filter_map(|line| {
            let name = line.split_once("\"name\": \"")?.1.split_once('"')?.0;
            let rest = line.split_once("\"speedup\": ")?.1;
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            Some((name.to_string(), rest[..end].parse().ok()?))
        })
        .collect()
}

impl Suite {
    /// The measured JSON: schema, scale and one line per scenario.
    pub fn to_json(&self, scenarios: &[Scenario], scale: f64) -> String {
        let [k0, k1] = self.keys;
        let rows: Vec<String> = scenarios
            .iter()
            .map(|sc| {
                let (name, [x, y], s) = (sc.name, sc.ns, sc.speedup());
                format!("    {{\"name\": \"{name}\", \"{k0}\": {x:.2}, \"{k1}\": {y:.2}, \"speedup\": {s:.3}}}")
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"scale\": {scale},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
            self.schema,
            rows.join(",\n")
        )
    }

    /// Runs the bench from the command line: parses the options, has
    /// `scenarios` time its list at `--scale`, prints it, and writes and
    /// checks the JSON as asked.
    pub fn main(&self, scenarios: impl FnOnce(f64, &mut Vec<Scenario>)) -> ExitCode {
        let Err(e) = self.run(scenarios) else {
            return ExitCode::SUCCESS;
        };
        eprintln!("{e}");
        ExitCode::FAILURE
    }

    fn run(&self, scenarios: impl FnOnce(f64, &mut Vec<Scenario>)) -> Result<(), String> {
        let (mut scale, mut out, mut baseline, mut max_regress) = (1.0, None, None, 20.0);
        let positive = |v: Option<String>| v?.parse::<f64>().ok().filter(|v| *v > 0.0);
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    scale = positive(args.next()).ok_or("--scale requires a positive number")?
                }
                "--out" => out = Some(args.next().ok_or("--out requires a file path")?),
                "--check" => {
                    baseline = Some(args.next().ok_or("--check requires a baseline file path")?)
                }
                "--max-regress" => {
                    max_regress = positive(args.next())
                        .ok_or("--max-regress requires a positive percentage")?;
                }
                other => {
                    return Err(format!(
                        "unknown argument {other}\n\
                         usage: [--scale F] [--out FILE] [--check BASELINE] [--max-regress PCT]"
                    ))
                }
            }
        }

        println!("{} (scale {scale}):", self.title);
        let mut measured = Vec::new();
        scenarios(scale, &mut measured);
        let ([a, b], unit) = (self.sides, self.unit);
        for sc in &measured {
            let (name, [x, y], s) = (sc.name, sc.ns, sc.speedup());
            println!("  {name:<24} {a} {x:>7.2} {unit}   {b} {y:>7.2} {unit}   speedup {s:.2}x");
        }
        if let Some(path) = &out {
            std::fs::write(path, self.to_json(&measured, scale))
                .map_err(|e| format!("error: could not write {path}: {e}"))?;
            println!("wrote {path}");
        }
        let Some(path) = &baseline else {
            return Ok(());
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("error: could not read baseline {path}: {e}"))?;
        let base = parse_baseline(&text);
        if base.is_empty() {
            return Err(format!(
                "error: no speedup entries found in baseline {path}"
            ));
        }
        let verdicts = check(&measured, &base, max_regress);
        for v in &verdicts {
            println!("{}", v.as_ref().unwrap_or_else(|line| line));
        }
        if verdicts.iter().any(Result::is_err) {
            return Err(format!(
                "error: {a} speedup regressed more than {max_regress}% or was not measured vs {path}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: Suite = Suite {
        title: "test bench",
        schema: "bench-test-v1",
        keys: ["new_ns", "old_ns"],
        sides: ["new", "old"],
        unit: "ns",
    };

    fn measured(name: &'static str, speedup: f64) -> Scenario {
        Scenario {
            name,
            ns: [1.0, speedup],
        }
    }

    #[test]
    fn baseline_parser_reads_back_the_written_scenarios() {
        let json = SUITE.to_json(&[measured("a", 2.0), measured("b", 1.25)], 0.2);
        assert_eq!(
            json,
            "{\n  \"schema\": \"bench-test-v1\",\n  \"scale\": 0.2,\n  \"scenarios\": [\n    \
             {\"name\": \"a\", \"new_ns\": 1.00, \"old_ns\": 2.00, \"speedup\": 2.000},\n    \
             {\"name\": \"b\", \"new_ns\": 1.00, \"old_ns\": 1.25, \"speedup\": 1.250}\n  ]\n}\n"
        );
        // A named line without a speedup, like the old end-to-end row, is skipped.
        let old_row = "  \"end_to_end\": {\"name\": \"testpmd\", \"host_secs\": 0.110}\n";
        assert_eq!(
            parse_baseline(&(json + old_row)),
            [("a".to_string(), 2.0), ("b".to_string(), 1.25)]
        );
    }

    #[test]
    fn speedup_below_the_floor_fails_and_at_the_floor_passes() {
        // Baseline 1.2 with 20% tolerance: the floor is 1.0.
        let baseline = [("s".to_string(), 1.2)];
        let at = check(&[measured("s", 1.0)], &baseline, 20.0);
        let ok = "  check s: speedup 1.00x vs baseline 1.20x (floor 1.00x) ok";
        assert_eq!(at, [Ok(ok.to_string())]);
        let below = check(&[measured("s", 0.99)], &baseline, 20.0);
        assert!(below[0].as_ref().is_err_and(|l| l.ends_with("REGRESSED")));
    }

    #[test]
    fn unmeasured_baseline_scenario_fails() {
        let baseline = [("kept".to_string(), 1.0), ("renamed".to_string(), 1.0)];
        let verdicts = check(
            &[measured("kept", 1.5), measured("new", 1.5)],
            &baseline,
            20.0,
        );
        // A measured scenario without a baseline is not gated.
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts[0].is_ok());
        assert_eq!(
            verdicts[1],
            Err("  check renamed: baseline 1.00x, not measured MISSING".to_string())
        );
    }
}
