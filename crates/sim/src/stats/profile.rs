//! Simulator self-profiling: where does wall-clock time go?
//!
//! The paper's Fig. 20 asks how much host time a simulation costs; this
//! module answers the next question — *which component's events* cost it.
//! The harness's event loop, when profiling is enabled, attributes the
//! host time of each popped event (pop + dispatch + handler) to that
//! event's kind, so the end-of-run [`Profiler::render`] table shows
//! per-kind and per-component host-time shares and pinpoints the next hot
//! path to optimise.
//!
//! Profiling is off by default and the unprofiled event loop is untouched
//! (no `Instant::now` calls), following the same zero-cost-when-off
//! discipline as the tracer and the fault injector.

use std::fmt::Write as _;

/// Host-time and event-count attribution over a fixed set of event kinds.
///
/// Kinds are registered up front as `(kind, component)` label pairs; the
/// event loop records `(kind index, elapsed nanoseconds)` per event and
/// the total loop time once per `run_until` call.
///
/// ```
/// use simnet_sim::stats::Profiler;
/// let mut p = Profiler::new(vec![("software", "cpu"), ("rx_dma", "dma")]);
/// p.record(0, 1_500);
/// p.record(1, 500);
/// p.add_loop_nanos(2_100);
/// assert_eq!(p.events(), 2);
/// assert!(p.coverage() > 0.9);
/// assert!(p.render().contains("software"));
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    labels: Vec<(&'static str, &'static str)>,
    counts: Vec<u64>,
    nanos: Vec<u64>,
    loop_nanos: u64,
}

impl Profiler {
    /// Creates a profiler over `(kind, component)` label pairs.
    pub fn new(labels: Vec<(&'static str, &'static str)>) -> Self {
        let n = labels.len();
        Self {
            labels,
            counts: vec![0; n],
            nanos: vec![0; n],
            loop_nanos: 0,
        }
    }

    /// Attributes one event of kind `idx` costing `nanos` host-ns.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn record(&mut self, idx: usize, nanos: u64) {
        self.counts[idx] += 1;
        self.nanos[idx] += nanos;
    }

    /// Adds measured event-loop wall time (the attribution denominator).
    pub fn add_loop_nanos(&mut self, nanos: u64) {
        self.loop_nanos += nanos;
    }

    /// Total events attributed.
    pub fn events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total host nanoseconds attributed to event kinds.
    pub fn attributed_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Total measured event-loop nanoseconds.
    pub fn loop_nanos(&self) -> u64 {
        self.loop_nanos
    }

    /// Fraction of loop time attributed to a kind (1.0 when no loop time
    /// was measured — an empty run attributes everything).
    pub fn coverage(&self) -> f64 {
        if self.loop_nanos == 0 {
            return 1.0;
        }
        self.attributed_nanos() as f64 / self.loop_nanos as f64
    }

    /// Per-kind rows `(kind, component, events, nanos)`, attribution order.
    pub fn kinds(&self) -> Vec<(&'static str, &'static str, u64, u64)> {
        self.labels
            .iter()
            .zip(&self.counts)
            .zip(&self.nanos)
            .map(|(((kind, comp), &count), &nanos)| (*kind, *comp, count, nanos))
            .collect()
    }

    /// Host time and event counts aggregated per component,
    /// heaviest first.
    pub fn by_component(&self) -> Vec<(&'static str, u64, u64)> {
        let mut agg: Vec<(&'static str, u64, u64)> = Vec::new();
        for (_, comp, count, nanos) in self.kinds() {
            match agg.iter_mut().find(|(c, _, _)| *c == comp) {
                Some(row) => {
                    row.1 += count;
                    row.2 += nanos;
                }
                None => agg.push((comp, count, nanos)),
            }
        }
        agg.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        agg
    }

    /// Renders the end-of-run profile table (the Fig. 20
    /// "where does wall-clock go" view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let loop_ms = self.loop_nanos as f64 / 1e6;
        let _ = writeln!(
            out,
            "simulator self-profile: {} events in {:.2} ms host time \
             ({:.1}% attributed)",
            self.events(),
            loop_ms,
            self.coverage() * 100.0
        );
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:>12} {:>10} {:>8} {:>10}",
            "kind", "component", "events", "host_ms", "share", "ns/event"
        );
        let denom = self.loop_nanos.max(1) as f64;
        let mut rows = self.kinds();
        rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
        for (kind, comp, count, nanos) in rows {
            if count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<14} {:<10} {:>12} {:>10.3} {:>7.1}% {:>10.0}",
                kind,
                comp,
                count,
                nanos as f64 / 1e6,
                nanos as f64 / denom * 100.0,
                nanos as f64 / count as f64
            );
        }
        let _ = writeln!(out, "per-component shares:");
        for (comp, count, nanos) in self.by_component() {
            if count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<12} {:>6.1}%  ({} events, {:.3} ms)",
                comp,
                nanos as f64 / denom * 100.0,
                count,
                nanos as f64 / 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profiler {
        let mut p = Profiler::new(vec![
            ("software", "cpu"),
            ("rx_dma", "dma"),
            ("tx_dma", "dma"),
        ]);
        p.record(0, 6_000);
        p.record(1, 2_000);
        p.record(2, 1_000);
        p.record(0, 1_000);
        p.add_loop_nanos(10_500);
        p
    }

    #[test]
    fn totals_add_up() {
        let p = sample();
        assert_eq!(p.events(), 4);
        assert_eq!(p.attributed_nanos(), 10_000);
        assert_eq!(p.loop_nanos(), 10_500);
        assert!((p.coverage() - 10_000.0 / 10_500.0).abs() < 1e-12);
    }

    #[test]
    fn components_aggregate_across_kinds() {
        let p = sample();
        let by = p.by_component();
        assert_eq!(by[0], ("cpu", 2, 7_000));
        assert_eq!(by[1], ("dma", 2, 3_000));
    }

    #[test]
    fn render_mentions_kinds_and_shares() {
        let text = sample().render();
        assert!(text.contains("software"));
        assert!(text.contains("per-component shares"));
        assert!(text.contains("cpu"));
        assert!(text.contains("% attributed"));
    }

    #[test]
    fn empty_profile_has_full_coverage() {
        let p = Profiler::new(vec![("a", "x")]);
        assert_eq!(p.events(), 0);
        assert_eq!(p.coverage(), 1.0);
        assert!(p.render().contains("0 events"));
    }
}
