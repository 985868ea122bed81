//! The paper's evaluation, experiment by experiment.
//!
//! Each module reproduces one table or figure of §VI/§VII and returns
//! [`crate::table::Table`]s whose rows are the series the paper plots. The
//! `repro` binary runs them and writes CSVs under `results/`.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table1`] | Table I (system configurations) |
//! | [`fig05`] | Fig. 5 (drop-cause breakdown at the knee) |
//! | [`curves`] | Figs. 6–9 (bandwidth vs drop rate, gem5 vs altra) |
//! | [`cache`] | Figs. 10–12 (L1/L2/LLC size sensitivity) |
//! | [`dca`] | Figs. 13–14 (DCA leak sweep; DCA on/off) |
//! | [`core_sens`] | Figs. 15–17 (frequency, core kind, channels, ROB) |
//! | [`memcached`] | Figs. 18–19 (RPS vs drops; latency vs frequency) |
//! | [`speedup`] | Fig. 20 (EtherLoadGen vs dual-mode simulation time) |
//! | [`headline`] | §I/§II's 6.3× kernel→DPDK bandwidth claim |
//! | [`ablations`] | Design-choice ablations (writeback threshold, DCA ways, open/closed clients) |
//! | [`fault_matrix`] | Chaos sweep: fault intensity vs achieved rate (`simnet_sim::fault`) |
//! | [`tcp_ext`] | Extension: the TCP state machine in `EtherLoadGen` (paper future work) |
//! | [`mq_sweep`] | Extension: cores × queues RSS scaling (the Fig. 6-style multi-queue axis) |
//! | [`topo_sweep`] | Extension: incast fan-in through the switch/trunk topology fabric |

pub mod ablations;
pub mod cache;
pub mod core_sens;
pub mod curves;
pub mod dca;
pub mod fault_matrix;
pub mod fig05;
pub mod headline;
pub mod latency_hist;
pub mod memcached;
pub mod mq_sweep;
pub mod speedup;
pub mod table1;
pub mod tcp_ext;
pub mod topo_sweep;

use crate::table::Table;

/// How thorough an experiment run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced sweeps: fewer sizes/points, for CI and benches.
    Quick,
    /// The full sweeps matching the paper's figures.
    Full,
}

impl Effort {
    /// Packet sizes for MSB bar charts (Figs. 10–12, 14, 15).
    pub fn bar_sizes(&self) -> &'static [usize] {
        match self {
            Effort::Quick => &[128, 1518],
            Effort::Full => &[128, 256, 512, 1024, 1518],
        }
    }

    /// Packet sizes for bandwidth/drop curves (Figs. 6–9).
    pub fn curve_sizes(&self) -> &'static [usize] {
        match self {
            Effort::Quick => &[64, 256, 1518],
            Effort::Full => &[64, 128, 256, 512, 1024, 1518],
        }
    }

    /// Offered-load points per ramp.
    pub fn ramp_steps(&self) -> usize {
        match self {
            Effort::Quick => 5,
            Effort::Full => 9,
        }
    }
}

/// Runs `f` over `items` on a thread pool, preserving order.
///
/// A panic inside `f` is caught on the worker, remaining work is
/// abandoned, and the *original* panic payload is re-raised on the
/// calling thread — not a secondhand `PoisonError` from a worker finding
/// the work queue poisoned (the panic never unwinds across the mutexes,
/// so they cannot be poisoned at all).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let work: std::sync::Mutex<std::vec::IntoIter<(usize, T)>> = std::sync::Mutex::new(
        items
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_iter(),
    );
    let results: std::sync::Mutex<Vec<Option<R>>> =
        std::sync::Mutex::new((0..n).map(|_| None).collect());
    let first_panic: std::sync::Mutex<Option<Box<dyn std::any::Any + Send>>> =
        std::sync::Mutex::new(None);
    let abort = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let next = work.lock().expect("work queue lock").next();
                let Some((idx, item)) = next else { break };
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => results.lock().expect("results lock")[idx] = Some(r),
                    Err(payload) => {
                        abort.store(true, Ordering::Relaxed);
                        let mut slot = first_panic.lock().expect("panic slot lock");
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        break;
                    }
                }
            });
        }
    });
    if let Some(payload) = first_panic.into_inner().expect("panic slot lock") {
        resume_unwind(payload);
    }
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

/// An experiment's output: named tables plus free-form notes comparing
/// against the paper.
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// Result tables (one per sub-figure/series group).
    pub tables: Vec<(String, Table)>,
    /// Comparison notes against the paper's reported values.
    pub notes: Vec<String>,
    /// Raw artifact files `(filename, contents)` written next to the CSVs
    /// — interval time-series (ndjson), event-loop profiles, and similar
    /// side outputs that don't fit the table shape.
    pub artifacts: Vec<(String, String)>,
}

impl ExperimentOutput {
    /// Adds a table under a CSV-friendly name.
    pub fn table(&mut self, name: impl Into<String>, table: Table) {
        self.tables.push((name.into(), table));
    }

    /// Adds a paper-comparison note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Adds a raw artifact file (name must include the extension).
    pub fn artifact(&mut self, filename: impl Into<String>, contents: impl Into<String>) {
        self.artifacts.push((filename.into(), contents.into()));
    }

    /// Prints everything to `out` and writes CSVs plus artifacts under
    /// `dir`. A file that cannot be written is a warning on stderr; only
    /// a failed write to `out` is an error.
    pub fn emit(
        &self,
        out: &mut impl std::io::Write,
        dir: &std::path::Path,
    ) -> std::io::Result<()> {
        for (name, table) in &self.tables {
            writeln!(out, "{}", table.render())?;
            if let Err(e) = table.write_csv(dir, name) {
                eprintln!("warning: could not write {name}.csv: {e}");
            }
        }
        for (filename, contents) in &self.artifacts {
            let path = dir.join(filename);
            let write = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents));
            match write {
                Ok(()) => writeln!(out, "wrote {}", path.display())?,
                Err(e) => eprintln!("warning: could not write {filename}: {e}"),
            }
        }
        for note in &self.notes {
            writeln!(out, "note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_propagates_the_original_worker_panic() {
        // Enough items that the parallel path runs and other workers are
        // mid-flight when one panics.
        let result = std::panic::catch_unwind(|| {
            par_map((0..256).collect::<Vec<i32>>(), |x| {
                if x == 13 {
                    panic!("boom at item {x}");
                }
                x * 2
            })
        });
        let payload = result.expect_err("the worker panic must surface");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the original formatted message, not a PoisonError");
        assert!(msg.contains("boom at item 13"), "got: {msg}");
    }

    #[test]
    fn effort_levels_differ() {
        assert!(Effort::Full.bar_sizes().len() > Effort::Quick.bar_sizes().len());
        assert!(Effort::Full.ramp_steps() > Effort::Quick.ramp_steps());
    }

    #[test]
    fn experiment_output_collects() {
        let mut out = ExperimentOutput::default();
        out.table("t", Table::new("T", &["a"]));
        out.note("hello");
        assert_eq!(out.tables.len(), 1);
        assert_eq!(out.notes.len(), 1);
    }
}
