//! Hierarchical statistics registry.
//!
//! gem5 20.0+ organizes statistics as a tree of named groups: every
//! `SimObject` registers its stats under a dotted path
//! (`system.cpu.committedInsts`), and `stats.txt` is *generated* from the
//! registry instead of hand-written. [`StatsRegistry`] brings that model
//! here: components register named values with descriptions under the
//! current group prefix, and renderers ([`StatsRegistry::render_gem5`])
//! walk the registry. A counter a component registers becomes visible in
//! every dump for free — nothing to hand-enumerate in the harness.
//!
//! Components expose an inherent `register_stats(&self, reg)` method (with
//! extra context arguments where a derived stat needs them, e.g. the
//! current tick for a utilization). The component owns its full dotted
//! path: it pushes its own group (`system.nic`, `system.mem_ctrls`, …)
//! so renaming never silently happens at a call site.
//!
//! The registry carries a [`DumpLevel`]: [`DumpLevel::Compat`] restricts
//! output to the legacy hand-written stat set (golden-file compatible),
//! [`DumpLevel::Full`] lets components add newer counters on top.

use std::fmt::Write as _;

/// One registered statistic value.
#[derive(Debug, Clone, PartialEq)]
pub enum StatValue {
    /// An integer count.
    Scalar(u64),
    /// A derived floating-point value (rates, fractions).
    Float(f64),
    /// A free-form text value (e.g. an installed fault plan).
    Text(String),
}

impl std::fmt::Display for StatValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatValue::Scalar(v) => write!(f, "{v}"),
            StatValue::Float(v) => write!(f, "{v:.6}"),
            StatValue::Text(v) => write!(f, "{v}"),
        }
    }
}

/// One registered statistic: full dotted path, value, description.
#[derive(Debug, Clone, PartialEq)]
pub struct StatEntry {
    /// Full dotted path (`system.nic.rxPackets`).
    pub path: String,
    /// The value at registration time.
    pub value: StatValue,
    /// One-line description (the `# …` column of `stats.txt`).
    pub desc: String,
}

/// How much of the registry a dump includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DumpLevel {
    /// Only the legacy hand-written stat set — byte-compatible with the
    /// pre-registry `stats.txt` output.
    #[default]
    Compat,
    /// Everything components register, including post-migration counters.
    Full,
}

/// An ordered, hierarchical collection of statistics.
///
/// Entries keep registration order, so renderers are deterministic and a
/// generated dump can match a legacy hand-written one byte for byte.
///
/// ```
/// use simnet_sim::stats::{StatsRegistry, StatValue};
/// let mut reg = StatsRegistry::new();
/// reg.scalar("sim_ticks", 42, "simulated ticks");
/// reg.push_group("system.nic");
/// reg.scalar("rxPackets", 7, "frames accepted");
/// reg.pop_group();
/// assert_eq!(reg.get("system.nic.rxPackets"), Some(&StatValue::Scalar(7)));
/// assert!(reg.render_gem5().contains("system.nic.rxPackets"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StatsRegistry {
    entries: Vec<StatEntry>,
    prefix: Vec<String>,
    level: DumpLevel,
}

impl StatsRegistry {
    /// Creates an empty registry at [`DumpLevel::Compat`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry at the given level.
    pub fn with_level(level: DumpLevel) -> Self {
        Self {
            level,
            ..Self::default()
        }
    }

    /// Whether components should register post-migration extras.
    pub fn full(&self) -> bool {
        self.level == DumpLevel::Full
    }

    /// Pushes a group name; subsequent registrations nest under it.
    pub fn push_group(&mut self, name: impl Into<String>) {
        self.prefix.push(name.into());
    }

    /// Pops the innermost group.
    ///
    /// # Panics
    ///
    /// Panics if no group is open.
    pub fn pop_group(&mut self) {
        self.prefix.pop().expect("pop_group without a push_group");
    }

    /// Runs `f` with `name` pushed as a group.
    pub fn scoped(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self)) {
        self.push_group(name);
        f(self);
        self.pop_group();
    }

    fn path_of(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            let mut p = self.prefix.join(".");
            p.push('.');
            p.push_str(name);
            p
        }
    }

    /// Registers an integer statistic under the current group.
    pub fn scalar(&mut self, name: &str, value: u64, desc: &str) {
        self.entries.push(StatEntry {
            path: self.path_of(name),
            value: StatValue::Scalar(value),
            desc: desc.to_string(),
        });
    }

    /// Registers a floating-point statistic under the current group.
    pub fn float(&mut self, name: &str, value: f64, desc: &str) {
        self.entries.push(StatEntry {
            path: self.path_of(name),
            value: StatValue::Float(value),
            desc: desc.to_string(),
        });
    }

    /// Registers a text statistic under the current group.
    pub fn text(&mut self, name: &str, value: impl std::fmt::Display, desc: &str) {
        self.entries.push(StatEntry {
            path: self.path_of(name),
            value: StatValue::Text(value.to_string()),
            desc: desc.to_string(),
        });
    }

    /// All entries in registration order.
    pub fn entries(&self) -> &[StatEntry] {
        &self.entries
    }

    /// Number of registered statistics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a statistic by its full dotted path (first match).
    pub fn get(&self, path: &str) -> Option<&StatValue> {
        self.entries
            .iter()
            .find(|e| e.path == path)
            .map(|e| &e.value)
    }

    /// Renders every entry in gem5's `stats.txt` line format:
    /// `name value # description`, 52/16-column aligned.
    pub fn render_gem5(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let path = &e.path;
            let desc = &e.desc;
            let _ = match &e.value {
                StatValue::Scalar(v) => writeln!(out, "{path:<52} {v:>16} # {desc}"),
                StatValue::Float(v) => writeln!(out, "{path:<52} {v:>16.6} # {desc}"),
                StatValue::Text(v) => writeln!(out, "{path:<52} {v:>16} # {desc}"),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_groups_build_dotted_paths() {
        let mut reg = StatsRegistry::new();
        reg.push_group("system");
        reg.push_group("cpu");
        reg.scalar("committedInsts", 10, "instructions committed");
        reg.pop_group();
        reg.pop_group();
        assert_eq!(reg.entries()[0].path, "system.cpu.committedInsts");
        assert_eq!(
            reg.get("system.cpu.committedInsts"),
            Some(&StatValue::Scalar(10))
        );
    }

    #[test]
    fn scoped_restores_prefix() {
        let mut reg = StatsRegistry::new();
        reg.scoped("system.nic", |r| r.scalar("rxPackets", 1, "rx"));
        reg.scalar("sim_ticks", 2, "ticks");
        assert_eq!(reg.entries()[0].path, "system.nic.rxPackets");
        assert_eq!(reg.entries()[1].path, "sim_ticks");
    }

    #[test]
    fn render_matches_legacy_line_format() {
        let mut reg = StatsRegistry::new();
        reg.scalar("sim_ticks", 42, "simulated ticks (ps)");
        reg.float("system.cpu.ipc", 1.25, "instructions per cycle");
        let text = reg.render_gem5();
        // Exactly the historic `{name:<52} {value:>16} # {desc}` layout.
        assert!(text.contains(&format!(
            "{:<52} {:>16} # simulated ticks (ps)\n",
            "sim_ticks", 42
        )));
        assert!(text.contains(&format!(
            "{:<52} {:>16.6} # instructions per cycle\n",
            "system.cpu.ipc", 1.25
        )));
    }

    #[test]
    fn levels_gate_extras() {
        let compat = StatsRegistry::new();
        let full = StatsRegistry::with_level(DumpLevel::Full);
        assert!(!compat.full());
        assert!(full.full());
    }

    #[test]
    #[should_panic(expected = "pop_group")]
    fn unbalanced_pop_panics() {
        StatsRegistry::new().pop_group();
    }
}
