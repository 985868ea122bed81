//! Software network stacks.
//!
//! The paper's central comparison is *userspace* (DPDK) versus *kernel*
//! networking on the same simulated hardware. Both stacks here consume the
//! same NIC and emit op streams priced by the same core model; what differs
//! is exactly what differs in reality:
//!
//! * [`dpdk`] — polling-mode driver, zero-copy (the app reads packet data
//!   in place in the mbuf), small per-packet cost, modest (256 KiB–1 MiB)
//!   working set, run-to-completion.
//! * [`kernel`] — interrupt-driven NAPI entry, per-packet socket/syscall
//!   costs, a copy from kernel to user buffers, and a multi-MiB working
//!   set that makes the kernel path cache-sensitive (Figs. 10–12's iperf
//!   and MemcachedKernel series).
//!
//! Applications implement [`PacketApp`] (in `simnet-apps`) and run on
//! either stack via the [`NetworkStack`] trait.

pub mod app;
pub mod dpdk;
pub mod footprint;
pub mod kernel;
mod queues;
#[cfg(test)]
mod testing;

pub use app::{AppAction, PacketApp};
pub use dpdk::{DpdkStack, Eal, EalConfig, EalError};
pub use kernel::KernelStack;

use simnet_cpu::Core;
use simnet_mem::MemorySystem;
use simnet_nic::Nic;
use simnet_sim::Tick;

/// Result of one stack iteration (one poll loop pass or one NAPI/syscall
/// cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iteration {
    /// When the core finished this iteration; the next one may start here.
    pub end: Tick,
    /// Packets received and processed.
    pub rx: usize,
    /// Packets submitted for transmission.
    pub tx: usize,
    /// Whether the iteration found no work (the node may sleep until the
    /// NIC has something visible instead of simulating every spin).
    pub idle: bool,
}

/// Aggregate iteration counters a stack maintains across its run loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Iterations executed.
    pub iterations: u64,
    /// Iterations that found no work.
    pub idle_iterations: u64,
    /// Packets received and processed.
    pub rx_packets: u64,
    /// Packets submitted for transmission.
    pub tx_packets: u64,
}

impl StackStats {
    /// Folds one iteration's outcome in.
    pub fn observe(&mut self, it: &Iteration) {
        self.iterations += 1;
        if it.idle {
            self.idle_iterations += 1;
        }
        self.rx_packets += it.rx as u64;
        self.tx_packets += it.tx as u64;
    }

    /// Fraction of iterations that found no work (0.0 when idle).
    pub fn idle_fraction(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.idle_iterations as f64 / self.iterations as f64
        }
    }

    /// Registers the `system.stack.*` statistics section (Full-level
    /// only: the legacy dump carried no stack counters).
    pub fn register_stats(&self, reg: &mut simnet_sim::stats::StatsRegistry) {
        self.register_stats_at("system.stack", reg);
    }

    /// Registers this stack's statistics under an arbitrary scope — the
    /// multi-lcore harness uses `system.stack.lcore<i>` per worker.
    /// Full-level only, like [`StackStats::register_stats`].
    pub fn register_stats_at(&self, scope: &str, reg: &mut simnet_sim::stats::StatsRegistry) {
        if !reg.full() {
            return;
        }
        reg.scoped(scope, |reg| {
            reg.scalar("iterations", self.iterations, "stack loop iterations");
            reg.scalar(
                "idleIterations",
                self.idle_iterations,
                "iterations that found no work",
            );
            reg.scalar(
                "rxPackets",
                self.rx_packets,
                "packets picked up by software",
            );
            reg.scalar(
                "txPackets",
                self.tx_packets,
                "packets submitted for transmission",
            );
            reg.float(
                "idleFraction",
                self.idle_fraction(),
                "fraction of iterations finding no work",
            );
        });
    }

    /// Clears the counters (post-warm-up reset).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A software network stack driving one NIC port with one application.
pub trait NetworkStack {
    /// The stack's name (for reports).
    fn name(&self) -> &'static str;

    /// Runs one iteration starting at `now`.
    fn iteration(
        &mut self,
        now: Tick,
        nic: &mut Nic,
        core: &mut Core,
        mem: &mut MemorySystem,
        app: &mut dyn PacketApp,
    ) -> Iteration;

    /// Extra delay between "a packet became visible" and "this stack
    /// notices it" when idle — zero for a polling stack, the interrupt
    /// latency for the kernel stack.
    fn wakeup_latency(&self) -> Tick {
        0
    }

    /// Assigns the NIC queue set this stack instance services — an
    /// lcore's RSS share under multi-queue operation (DPDK: per-lcore
    /// `rx_burst` queues; kernel: the softirq/RPS fan-out target of this
    /// core). Default: the stack keeps polling queue 0 only, the
    /// single-queue legacy behaviour.
    fn assign_queues(&mut self, _queues: Vec<usize>) {}

    /// Attaches a packet-lifecycle tracer (see `simnet_sim::trace`). The
    /// stack reports software pickups (`sw_rx`) and application-boundary
    /// crossings (`app_rx`/`app_tx`). Default: tracing not supported.
    fn set_tracer(&mut self, _tracer: simnet_sim::trace::Tracer) {}

    /// Iteration counters, when the stack maintains them.
    fn stats(&self) -> Option<&StackStats> {
        None
    }

    /// Clears iteration counters (post-warm-up reset). Default: no-op.
    fn reset_stats(&mut self) {}
}
