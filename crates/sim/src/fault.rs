//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes component misbehaviour — lossy links, flaky
//! PCI devices, stalled DMA — in a small text grammar
//! (`link.ber=1e-7;pci.stall=200ns@10%;dma.burst=+500ns/1us`). Components
//! hold a cloned [`FaultInjector`] handle and query it at event
//! boundaries, exactly like the trace layer's `Tracer`: a disabled
//! injector (the default) costs one `Option` null-check per query site,
//! so the hooks stay compiled in everywhere.
//!
//! Every probabilistic fault draws from the injector's own seeded
//! SplitMix64/xoshiro256++ streams (one per fault site), independent of
//! the workload RNG — installing a plan never perturbs the workload's
//! draws, and the same `(plan, seed)` yields the same fault pattern on
//! every run. Window-based faults (`@period` forms) are pure functions of
//! the tick and use no randomness at all.
//!
//! The plan grammar, entry by entry (`DUR` is an integer with a
//! `ps`/`ns`/`us`/`ms` suffix; `PCT` is a percentage with a `%` suffix):
//!
//! | Entry | Meaning |
//! |---|---|
//! | `link.ber=1e-7` | Link bit-error rate; per-frame FCS-failure drops |
//! | `nic.fifo_stuck=2us@20us` | RX FIFO reads stuck-full for 2 µs every 20 µs |
//! | `nic.wb_delay=500ns@10%` | Descriptor writeback delayed 500 ns with p=10 % |
//! | `nic.wb_corrupt=1%` | Descriptor writeback corrupted (frame lost) with p=1 % |
//! | `pci.stall=200ns@10%` | Timed config-space read stalls 200 ns with p=10 % (the simulated datapath issues none) |
//! | `pci.master_clear=1us@50us` | Bus-master enable reads cleared for 1 µs every 50 µs |
//! | `dma.burst=+500ns/1us@10us` | +500 ns DMA latency during 1 µs bursts every 10 µs |
//! | `dma.dca_miss=20%` | DCA placement forced to miss (DRAM) with p=20 % |
//!
//! `dma.burst`'s `@period` is optional and defaults to 10× the burst
//! duration.

use std::cell::RefCell;
use std::rc::Rc;

use crate::random::SimRng;
use crate::tick::{ms, ns, us, Tick};

/// Which fault fired — carried by `Stage::Fault` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A link bit error corrupted a frame (FCS/checksum failure).
    LinkBitError,
    /// The RX FIFO read stuck-full to an arriving frame.
    FifoStuck,
    /// A descriptor writeback was delayed.
    WbDelay,
    /// A descriptor writeback was corrupted; the frame is lost.
    WbCorrupt,
    /// A PCI config-space read stalled.
    PciStall,
    /// The PCI bus-master enable read as transiently cleared.
    PciMasterClear,
    /// A DMA transaction fell inside an added-latency burst.
    DmaBurst,
    /// A DCA placement was forced to miss into DRAM.
    DcaForcedMiss,
}

impl FaultKind {
    /// The kind's canonical lowercase name (trace serialization).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::LinkBitError => "link_ber",
            FaultKind::FifoStuck => "fifo_stuck",
            FaultKind::WbDelay => "wb_delay",
            FaultKind::WbCorrupt => "wb_corrupt",
            FaultKind::PciStall => "pci_stall",
            FaultKind::PciMasterClear => "master_clear",
            FaultKind::DmaBurst => "dma_burst",
            FaultKind::DcaForcedMiss => "dca_miss",
        }
    }
}

/// A periodic fault window: active for `duration` out of every `period`
/// ticks, phase-locked to tick 0 (deterministic without randomness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Active span at the start of each period.
    pub duration: Tick,
    /// Repetition period.
    pub period: Tick,
}

impl Window {
    /// Whether `now` falls inside an active span.
    pub fn contains(&self, now: Tick) -> bool {
        now % self.period < self.duration
    }

    /// End of the active span covering `now` (meaningful when
    /// [`Window::contains`] holds).
    pub fn end_of(&self, now: Tick) -> Tick {
        now - now % self.period + self.duration
    }
}

/// A probabilistic delay: `extra` ticks with probability `pct` percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delayed {
    /// Added latency when the fault fires.
    pub extra: Tick,
    /// Firing probability, in percent (0–100].
    pub pct: f64,
}

/// An added-latency burst: `extra` ticks on every DMA transaction inside
/// the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Latency added per transaction during a burst.
    pub extra: Tick,
    /// When bursts are active.
    pub window: Window,
}

/// A parsed fault plan. `Default` is the empty plan (no faults).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Link bit-error rate (0.0 = off). Each frame fails FCS with
    /// probability `1 - (1 - ber)^bits`.
    pub link_ber: f64,
    /// RX FIFO stuck-full windows.
    pub fifo_stuck: Option<Window>,
    /// Descriptor-writeback delay fault.
    pub wb_delay: Option<Delayed>,
    /// Descriptor-writeback corruption probability, percent (0.0 = off).
    pub wb_corrupt_pct: f64,
    /// PCI config-space read-stall fault.
    pub pci_stall: Option<Delayed>,
    /// Transient bus-master-enable clear windows.
    pub master_clear: Option<Window>,
    /// DMA added-latency bursts.
    pub dma_burst: Option<Burst>,
    /// DCA forced-miss probability, percent (0.0 = off).
    pub dca_miss_pct: f64,
}

fn parse_duration(s: &str) -> Result<Tick, String> {
    let (digits, unit): (&str, &str) = match s.find(|c: char| !c.is_ascii_digit()) {
        Some(i) => s.split_at(i),
        None => return Err(format!("duration {s:?} needs a ps/ns/us/ms unit")),
    };
    let value: Tick = digits
        .parse()
        .map_err(|_| format!("bad duration value in {s:?}"))?;
    let ticks = match unit {
        "ps" => value,
        "ns" => ns(value),
        "us" => us(value),
        "ms" => ms(value),
        _ => return Err(format!("unknown duration unit {unit:?} in {s:?}")),
    };
    if ticks == 0 {
        return Err(format!("duration {s:?} must be positive"));
    }
    Ok(ticks)
}

fn format_duration(t: Tick) -> String {
    if t.is_multiple_of(ms(1)) {
        format!("{}ms", t / ms(1))
    } else if t.is_multiple_of(us(1)) {
        format!("{}us", t / us(1))
    } else if t.is_multiple_of(ns(1)) {
        format!("{}ns", t / ns(1))
    } else {
        format!("{t}ps")
    }
}

fn parse_pct(s: &str) -> Result<f64, String> {
    let digits = s
        .strip_suffix('%')
        .ok_or_else(|| format!("probability {s:?} needs a % suffix"))?;
    let pct: f64 = digits
        .parse()
        .map_err(|_| format!("bad probability in {s:?}"))?;
    if !(pct > 0.0 && pct <= 100.0) {
        return Err(format!("probability {s:?} must be in (0, 100]"));
    }
    Ok(pct)
}

fn parse_window(s: &str, key: &str) -> Result<Window, String> {
    let (dur, period) = s
        .split_once('@')
        .ok_or_else(|| format!("{key} needs DURATION@PERIOD, got {s:?}"))?;
    let window = Window {
        duration: parse_duration(dur)?,
        period: parse_duration(period)?,
    };
    if window.duration > window.period {
        return Err(format!("{key}: duration exceeds period in {s:?}"));
    }
    Ok(window)
}

fn parse_delayed(s: &str, key: &str) -> Result<Delayed, String> {
    let (dur, pct) = s
        .split_once('@')
        .ok_or_else(|| format!("{key} needs DURATION@PCT%, got {s:?}"))?;
    Ok(Delayed {
        extra: parse_duration(dur)?,
        pct: parse_pct(pct)?,
    })
}

impl FaultPlan {
    /// Parses the text plan grammar (see the module docs). The empty
    /// string is the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed entry.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in text.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} is not key=value"))?;
            match key.trim() {
                "link.ber" => {
                    let ber: f64 = value
                        .parse()
                        .map_err(|_| format!("bad bit-error rate {value:?}"))?;
                    if !(ber > 0.0 && ber < 1.0) {
                        return Err(format!("link.ber {value:?} must be in (0, 1)"));
                    }
                    plan.link_ber = ber;
                }
                "nic.fifo_stuck" => {
                    plan.fifo_stuck = Some(parse_window(value, "nic.fifo_stuck")?);
                }
                "nic.wb_delay" => plan.wb_delay = Some(parse_delayed(value, "nic.wb_delay")?),
                "nic.wb_corrupt" => plan.wb_corrupt_pct = parse_pct(value)?,
                "pci.stall" => plan.pci_stall = Some(parse_delayed(value, "pci.stall")?),
                "pci.master_clear" => {
                    plan.master_clear = Some(parse_window(value, "pci.master_clear")?);
                }
                "dma.burst" => {
                    let body = value
                        .strip_prefix('+')
                        .ok_or_else(|| format!("dma.burst needs +EXTRA/DURATION, got {value:?}"))?;
                    let (extra, rest) = body
                        .split_once('/')
                        .ok_or_else(|| format!("dma.burst needs +EXTRA/DURATION, got {value:?}"))?;
                    let (duration, period) = match rest.split_once('@') {
                        Some((d, p)) => (parse_duration(d)?, parse_duration(p)?),
                        None => {
                            let d = parse_duration(rest)?;
                            (d, d * 10)
                        }
                    };
                    if duration > period {
                        return Err(format!("dma.burst: duration exceeds period in {value:?}"));
                    }
                    plan.dma_burst = Some(Burst {
                        extra: parse_duration(extra)?,
                        window: Window { duration, period },
                    });
                }
                "dma.dca_miss" => plan.dca_miss_pct = parse_pct(value)?,
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// The most aggressive preset: every fault at high intensity. Used by
    /// the no-hang regression suite.
    pub fn aggressive() -> FaultPlan {
        FaultPlan::parse(
            "link.ber=1e-4;nic.fifo_stuck=5us@20us;nic.wb_delay=2us@50%;\
             nic.wb_corrupt=10%;pci.stall=1us@50%;pci.master_clear=10us@40us;\
             dma.burst=+2us/5us@15us;dma.dca_miss=50%",
        )
        .expect("preset parses")
    }
}

impl std::fmt::Display for FaultPlan {
    /// The canonical text form; `FaultPlan::parse` round-trips it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut entries: Vec<String> = Vec::new();
        if self.link_ber > 0.0 {
            entries.push(format!("link.ber={:e}", self.link_ber));
        }
        if let Some(w) = &self.fifo_stuck {
            entries.push(format!(
                "nic.fifo_stuck={}@{}",
                format_duration(w.duration),
                format_duration(w.period)
            ));
        }
        if let Some(d) = &self.wb_delay {
            entries.push(format!(
                "nic.wb_delay={}@{}%",
                format_duration(d.extra),
                d.pct
            ));
        }
        if self.wb_corrupt_pct > 0.0 {
            entries.push(format!("nic.wb_corrupt={}%", self.wb_corrupt_pct));
        }
        if let Some(d) = &self.pci_stall {
            entries.push(format!("pci.stall={}@{}%", format_duration(d.extra), d.pct));
        }
        if let Some(w) = &self.master_clear {
            entries.push(format!(
                "pci.master_clear={}@{}",
                format_duration(w.duration),
                format_duration(w.period)
            ));
        }
        if let Some(b) = &self.dma_burst {
            entries.push(format!(
                "dma.burst=+{}/{}@{}",
                format_duration(b.extra),
                format_duration(b.window.duration),
                format_duration(b.window.period)
            ));
        }
        if self.dca_miss_pct > 0.0 {
            entries.push(format!("dma.dca_miss={}%", self.dca_miss_pct));
        }
        f.write_str(&entries.join(";"))
    }
}

/// Cumulative per-fault injection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Frames dropped by link bit errors (FCS failures).
    pub link_bit_errors: u64,
    /// Arrivals refused by a stuck-full RX FIFO window.
    pub fifo_stuck_hits: u64,
    /// Delayed descriptor writebacks.
    pub wb_delays: u64,
    /// Corrupted descriptor writebacks (frames lost).
    pub wb_corrupts: u64,
    /// Stalled PCI config-space reads.
    pub pci_stalls: u64,
    /// DMA attempts blocked by a cleared bus-master enable.
    pub master_clear_blocks: u64,
    /// DMA transactions slowed by a latency burst.
    pub dma_bursts: u64,
    /// DCA placements forced to miss into DRAM.
    pub dca_forced_misses: u64,
}

impl FaultCounts {
    /// Total injections of any kind.
    pub fn total(&self) -> u64 {
        self.link_bit_errors
            + self.fifo_stuck_hits
            + self.wb_delays
            + self.wb_corrupts
            + self.pci_stalls
            + self.master_clear_blocks
            + self.dma_bursts
            + self.dca_forced_misses
    }
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    seed: u64,
    rng_link: SimRng,
    rng_wb_delay: SimRng,
    rng_wb_corrupt: SimRng,
    rng_pci: SimRng,
    rng_dca: SimRng,
    counts: FaultCounts,
}

impl FaultState {
    fn new(plan: FaultPlan, seed: u64) -> Self {
        // One independent stream per probabilistic fault site, so adding
        // draws at one site never perturbs another.
        let mut base = SimRng::seed_from(seed);
        Self {
            plan,
            seed,
            rng_link: base.fork(1),
            rng_wb_delay: base.fork(2),
            rng_wb_corrupt: base.fork(3),
            rng_pci: base.fork(4),
            rng_dca: base.fork(5),
            counts: FaultCounts::default(),
        }
    }
}

/// The cloneable handle components query at event boundaries.
///
/// A disabled injector (the default) answers every query with "no fault"
/// after a single `Option` null-check — the same discipline as the trace
/// layer's `Tracer`.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    shared: Option<Rc<RefCell<FaultState>>>,
}

impl FaultInjector {
    /// A disabled injector: every query is a no-fault no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled injector executing `plan` with its own RNG streams
    /// seeded from `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self {
            shared: Some(Rc::new(RefCell::new(FaultState::new(plan, seed)))),
        }
    }

    /// Whether a plan is installed.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The installed plan, if any.
    pub fn plan(&self) -> Option<FaultPlan> {
        self.shared.as_ref().map(|s| s.borrow().plan.clone())
    }

    /// The fault seed, if a plan is installed.
    pub fn seed(&self) -> Option<u64> {
        self.shared.as_ref().map(|s| s.borrow().seed)
    }

    /// A snapshot of the injection counters (zeros when disabled).
    pub fn counts(&self) -> FaultCounts {
        self.shared
            .as_ref()
            .map_or(FaultCounts::default(), |s| s.borrow().counts)
    }

    /// Clears the injection counters (end of warm-up). RNG streams and
    /// the plan are untouched.
    pub fn reset_counts(&self) {
        if let Some(s) = &self.shared {
            s.borrow_mut().counts = FaultCounts::default();
        }
    }

    /// Registers the `system.fault.*` statistics section.
    ///
    /// No-op when disabled, mirroring the conditional fault section of the
    /// legacy dump: a run without an installed plan has no fault stats.
    pub fn register_stats(&self, reg: &mut crate::stats::StatsRegistry) {
        let Some(shared) = &self.shared else {
            return;
        };
        let s = shared.borrow();
        let fc = s.counts;
        reg.scoped("system.fault", |reg| {
            reg.text("plan", &s.plan, "installed fault plan");
            reg.scalar("seed", s.seed, "fault RNG seed");
            reg.scalar(
                "linkBitErrors",
                fc.link_bit_errors,
                "frames corrupted on the wire (FCS fail)",
            );
            reg.scalar(
                "fifoStuckHits",
                fc.fifo_stuck_hits,
                "RX receptions inside a stuck-full FIFO window",
            );
            reg.scalar(
                "wbDelays",
                fc.wb_delays,
                "delayed descriptor writeback batches",
            );
            reg.scalar(
                "wbCorrupts",
                fc.wb_corrupts,
                "corrupted descriptor writebacks (frame lost)",
            );
            reg.scalar("pciStalls", fc.pci_stalls, "stalled PCI config reads");
            reg.scalar(
                "masterClearBlocks",
                fc.master_clear_blocks,
                "DMA attempts blocked by master-enable clear",
            );
            reg.scalar(
                "dmaBursts",
                fc.dma_bursts,
                "DMA accesses hit by a latency burst",
            );
            reg.scalar(
                "dcaForcedMisses",
                fc.dca_forced_misses,
                "DCA placements forced to miss the LLC",
            );
            reg.scalar("total", fc.total(), "injected faults (all sites)");
        });
    }

    /// Whether a `frame_bits`-bit frame fails FCS under the plan's
    /// bit-error rate.
    #[inline]
    pub fn link_bit_error(&self, frame_bits: u64) -> bool {
        if let Some(shared) = &self.shared {
            let mut s = shared.borrow_mut();
            if s.plan.link_ber > 0.0 {
                let p = 1.0 - (1.0 - s.plan.link_ber).powi(frame_bits.min(i32::MAX as u64) as i32);
                if s.rng_link.chance(p) {
                    s.counts.link_bit_errors += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Whether the RX FIFO reads stuck-full at `now`.
    #[inline]
    pub fn fifo_stuck(&self, now: Tick) -> bool {
        if let Some(shared) = &self.shared {
            let mut s = shared.borrow_mut();
            if let Some(w) = s.plan.fifo_stuck {
                if w.contains(now) {
                    s.counts.fifo_stuck_hits += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Extra latency for a descriptor writeback (0 = no fault).
    #[inline]
    pub fn wb_delay(&self) -> Tick {
        if let Some(shared) = &self.shared {
            let mut s = shared.borrow_mut();
            if let Some(d) = s.plan.wb_delay {
                if s.rng_wb_delay.chance(d.pct / 100.0) {
                    s.counts.wb_delays += 1;
                    return d.extra;
                }
            }
        }
        0
    }

    /// Whether this descriptor writeback is corrupted (frame lost).
    #[inline]
    pub fn wb_corrupt(&self) -> bool {
        if let Some(shared) = &self.shared {
            let mut s = shared.borrow_mut();
            if s.plan.wb_corrupt_pct > 0.0 {
                let p = s.plan.wb_corrupt_pct / 100.0;
                if s.rng_wb_corrupt.chance(p) {
                    s.counts.wb_corrupts += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Extra latency for a PCI config-space read (0 = no fault).
    #[inline]
    pub fn pci_stall(&self) -> Tick {
        if let Some(shared) = &self.shared {
            let mut s = shared.borrow_mut();
            if let Some(d) = s.plan.pci_stall {
                if s.rng_pci.chance(d.pct / 100.0) {
                    s.counts.pci_stalls += 1;
                    return d.extra;
                }
            }
        }
        0
    }

    /// Whether the bus-master enable reads cleared at `now` (DMA engines
    /// must not start transactions).
    #[inline]
    pub fn master_cleared(&self, now: Tick) -> bool {
        if let Some(shared) = &self.shared {
            let mut s = shared.borrow_mut();
            if let Some(w) = s.plan.master_clear {
                if w.contains(now) {
                    s.counts.master_clear_blocks += 1;
                    return true;
                }
            }
        }
        false
    }

    /// End of the master-clear window covering `now`, if inside one —
    /// lets the node schedule a DMA retry instead of spinning.
    #[inline]
    pub fn master_window_end(&self, now: Tick) -> Option<Tick> {
        let shared = self.shared.as_ref()?;
        let s = shared.borrow();
        let w = s.plan.master_clear?;
        w.contains(now).then(|| w.end_of(now))
    }

    /// Extra latency for a DMA transaction issued at `now` (0 = outside
    /// any burst).
    #[inline]
    pub fn dma_burst_extra(&self, now: Tick) -> Tick {
        if let Some(shared) = &self.shared {
            let mut s = shared.borrow_mut();
            if let Some(b) = s.plan.dma_burst {
                if b.window.contains(now) {
                    s.counts.dma_bursts += 1;
                    return b.extra;
                }
            }
        }
        0
    }

    /// Whether this DCA placement is forced to miss into DRAM.
    #[inline]
    pub fn dca_force_miss(&self) -> bool {
        if let Some(shared) = &self.shared {
            let mut s = shared.borrow_mut();
            if s.plan.dca_miss_pct > 0.0 {
                let p = s.plan.dca_miss_pct / 100.0;
                if s.rng_dca.chance(p) {
                    s.counts.dca_forced_misses += 1;
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_parses_and_prints_empty() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.to_string(), "");
    }

    #[test]
    fn issue_example_parses() {
        let plan =
            FaultPlan::parse("link.ber=1e-7;pci.stall=200ns@10%;dma.burst=+500ns/1us").unwrap();
        assert_eq!(plan.link_ber, 1e-7);
        let stall = plan.pci_stall.unwrap();
        assert_eq!(stall.extra, ns(200));
        assert_eq!(stall.pct, 10.0);
        let burst = plan.dma_burst.unwrap();
        assert_eq!(burst.extra, ns(500));
        assert_eq!(burst.window.duration, us(1));
        assert_eq!(burst.window.period, us(10), "default period = 10x duration");
    }

    #[test]
    fn display_round_trips() {
        let text = "link.ber=1e-7;nic.fifo_stuck=2us@20us;nic.wb_delay=500ns@10%;\
                    nic.wb_corrupt=1%;pci.stall=200ns@10%;pci.master_clear=1us@50us;\
                    dma.burst=+500ns/1us@10us;dma.dca_miss=20%";
        let plan = FaultPlan::parse(text).unwrap();
        let printed = plan.to_string();
        assert_eq!(FaultPlan::parse(&printed).unwrap(), plan);
        assert_eq!(printed, text);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "link.ber",                    // no value
            "link.ber=2.0",                // out of range
            "link.ber=-1e-9",              // negative
            "nose.ber=1e-7",               // unknown key
            "nic.fifo_stuck=2us",          // missing period
            "nic.fifo_stuck=20us@2us",     // duration > period
            "nic.wb_delay=500ns@10",       // missing %
            "nic.wb_corrupt=150%",         // > 100
            "nic.wb_corrupt=0%",           // zero probability
            "pci.stall=200@10%",           // missing unit
            "pci.stall=0ns@10%",           // zero duration
            "dma.burst=500ns/1us",         // missing +
            "dma.burst=+500ns",            // missing /duration
            "dma.burst=+500ns/9us@2us",    // duration > period
            "link.ber=1e-7;;nic.wb_delay", // second entry malformed
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn windows_are_phase_locked() {
        let w = Window {
            duration: us(2),
            period: us(10),
        };
        assert!(w.contains(0));
        assert!(w.contains(us(2) - 1));
        assert!(!w.contains(us(2)));
        assert!(w.contains(us(10)));
        assert_eq!(w.end_of(us(11)), us(12));
    }

    #[test]
    fn disabled_injector_injects_nothing() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        assert!(!inj.link_bit_error(12_000));
        assert!(!inj.fifo_stuck(0));
        assert_eq!(inj.wb_delay(), 0);
        assert!(!inj.wb_corrupt());
        assert_eq!(inj.pci_stall(), 0);
        assert!(!inj.master_cleared(0));
        assert_eq!(inj.master_window_end(0), None);
        assert_eq!(inj.dma_burst_extra(0), 0);
        assert!(!inj.dca_force_miss());
        assert_eq!(inj.counts(), FaultCounts::default());
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let plan = FaultPlan::parse("link.ber=1e-5;nic.wb_corrupt=5%").unwrap();
        let a = FaultInjector::new(plan.clone(), 7);
        let b = FaultInjector::new(plan.clone(), 7);
        let c = FaultInjector::new(plan, 8);
        let pat = |inj: &FaultInjector| -> Vec<bool> {
            (0..2_000).map(|_| inj.link_bit_error(12_144)).collect()
        };
        let pa = pat(&a);
        assert_eq!(pa, pat(&b));
        assert_ne!(pa, pat(&c), "different seed, different pattern");
        assert!(pa.iter().any(|&hit| hit), "1e-5 over 12k bits must fire");
        assert_eq!(a.counts().link_bit_errors, b.counts().link_bit_errors);
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        let plan = FaultPlan::parse("link.ber=1e-3;nic.wb_corrupt=50%").unwrap();
        let a = FaultInjector::new(plan.clone(), 42);
        let b = FaultInjector::new(plan, 42);
        // Interleave extra wb_corrupt draws on `b` only: the link stream
        // must be unaffected.
        let pa: Vec<bool> = (0..500).map(|_| a.link_bit_error(12_144)).collect();
        let pb: Vec<bool> = (0..500)
            .map(|_| {
                let _ = b.wb_corrupt();
                b.link_bit_error(12_144)
            })
            .collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn counters_track_injections() {
        let plan = FaultPlan::parse("nic.fifo_stuck=1us@2us;dma.burst=+100ns/1us@2us").unwrap();
        let inj = FaultInjector::new(plan, 1);
        assert!(inj.fifo_stuck(0));
        assert!(!inj.fifo_stuck(us(1)));
        assert_eq!(inj.dma_burst_extra(0), ns(100));
        assert_eq!(inj.dma_burst_extra(us(1)), 0);
        let counts = inj.counts();
        assert_eq!(counts.fifo_stuck_hits, 1);
        assert_eq!(counts.dma_bursts, 1);
        assert_eq!(counts.total(), 2);
        inj.reset_counts();
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn register_stats_is_conditional_on_a_plan() {
        use crate::stats::{StatValue, StatsRegistry};
        let mut reg = StatsRegistry::new();
        FaultInjector::disabled().register_stats(&mut reg);
        assert!(reg.is_empty(), "disabled injector registers nothing");
        let inj = FaultInjector::new(FaultPlan::parse("link.ber=1e-4").unwrap(), 7);
        inj.register_stats(&mut reg);
        assert_eq!(reg.get("system.fault.seed"), Some(&StatValue::Scalar(7)));
        assert_eq!(reg.get("system.fault.total"), Some(&StatValue::Scalar(0)));
        assert_eq!(
            reg.get("system.fault.plan"),
            Some(&StatValue::Text("link.ber=1e-4".into()))
        );
    }

    #[test]
    fn aggressive_preset_enables_everything() {
        let plan = FaultPlan::aggressive();
        assert!(plan.link_ber > 0.0);
        assert!(plan.fifo_stuck.is_some());
        assert!(plan.wb_delay.is_some());
        assert!(plan.wb_corrupt_pct > 0.0);
        assert!(plan.pci_stall.is_some());
        assert!(plan.master_clear.is_some());
        assert!(plan.dma_burst.is_some());
        assert!(plan.dca_miss_pct > 0.0);
        // And it survives a print/parse round trip like any other plan.
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }
}
