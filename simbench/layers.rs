//! Per-layer attribution for the traced rep.
//!
//! The simulator's self-profiler times every event by kind; this module
//! maps those kinds onto the packet path's layers and splits the
//! `software` kind further with timing wrappers around the node's stacks
//! and applications. The wrappers only delegate, so the traced rep must
//! reproduce the untraced model hash exactly.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use simnet_apps::TestPmd;
use simnet_cpu::{Core, Op};
use simnet_harness::{build_registry, Simulation};
use simnet_mem::{Addr, MemorySystem};
use simnet_net::Packet;
use simnet_nic::i8254x::RxCompletion;
use simnet_nic::Nic;
use simnet_sim::stats::{DumpLevel, Profiler, StatValue};
use simnet_sim::trace::Tracer;
use simnet_sim::Tick;
use simnet_stack::{AppAction, DpdkStack, Iteration, NetworkStack, PacketApp, StackStats};

/// Profiler event kind → layer. `software` is split by the wrapper spans
/// into `stack.self`, `apps` and `harness.sw_event`; the observation
/// probes never run in a benchmark rep and count as residual.
const LAYER_OF_KIND: &[(&str, Layer)] = &[
    ("loadgen_tx", Layer::Loadgen),
    ("loadgen_rx", Layer::Loadgen),
    ("fleet_tx", Layer::Loadgen),
    ("fleet_rx", Layer::Loadgen),
    ("nic_rx", Layer::NicRx),
    ("rx_dma", Layer::NicDma),
    ("tx_dma", Layer::NicDma),
    ("tx_wire", Layer::Fabric),
    ("switch_rx", Layer::Fabric),
    ("software", Layer::Software),
    ("probe", Layer::Residual),
    ("sample", Layer::Residual),
];

#[derive(Debug, Clone, Copy)]
enum Layer {
    Loadgen,
    NicRx,
    NicDma,
    Fabric,
    Software,
    Residual,
}

/// Host time inside the wrapped stacks and applications, summed over
/// every lcore. App spans nest inside stack spans.
#[derive(Debug, Default)]
pub struct Spans {
    stack_ns: u64,
    app_ns: u64,
    app_calls: u64,
}

pub type SharedSpans = Rc<RefCell<Spans>>;

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

struct TimedStack {
    inner: Box<dyn NetworkStack>,
    spans: SharedSpans,
}

impl NetworkStack for TimedStack {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn iteration(
        &mut self,
        now: Tick,
        nic: &mut Nic,
        core: &mut Core,
        mem: &mut MemorySystem,
        app: &mut dyn PacketApp,
    ) -> Iteration {
        let start = Instant::now();
        let it = self.inner.iteration(now, nic, core, mem, app);
        self.spans.borrow_mut().stack_ns += elapsed_ns(start);
        it
    }

    fn wakeup_latency(&self) -> Tick {
        self.inner.wakeup_latency()
    }

    fn assign_queues(&mut self, queues: Vec<usize>) {
        self.inner.assign_queues(queues)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer)
    }

    fn stats(&self) -> Option<&StackStats> {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

struct TimedApp {
    inner: Box<dyn PacketApp>,
    spans: SharedSpans,
}

impl TimedApp {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn PacketApp) -> R) -> R {
        let start = Instant::now();
        let r = f(self.inner.as_mut());
        let mut spans = self.spans.borrow_mut();
        spans.app_ns += elapsed_ns(start);
        spans.app_calls += 1;
        r
    }
}

impl PacketApp for TimedApp {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_packet(&mut self, packet: RxCompletion, mbuf_addr: Addr, ops: &mut Vec<Op>) -> AppAction {
        self.timed(|app| app.on_packet(packet, mbuf_addr, ops))
    }

    fn on_burst(&mut self, count: usize, ops: &mut Vec<Op>) {
        self.timed(|app| app.on_burst(count, ops))
    }

    fn on_idle(&mut self, ops: &mut Vec<Op>) {
        self.timed(|app| app.on_idle(ops))
    }

    fn poll_tx(&mut self, now: Tick, ops: &mut Vec<Op>) -> Option<Packet> {
        self.timed(|app| app.poll_tx(now, ops))
    }

    // Called by the harness outside the stack iteration, so it is not an
    // app span (the span tree must nest).
    fn next_tx_at(&self, now: Tick) -> Option<Tick> {
        self.inner.next_tx_at(now)
    }
}

fn wrap_lcore(
    stack: &mut Box<dyn NetworkStack>,
    app: &mut Box<dyn PacketApp>,
    spans: &SharedSpans,
) {
    // The stand-ins only fill the slots while the real ones move into
    // their wrappers; they are dropped unused.
    let inner = std::mem::replace(stack, Box::new(DpdkStack::new(0)));
    *stack = Box::new(TimedStack {
        inner,
        spans: spans.clone(),
    });
    let inner = std::mem::replace(app, Box::new(TestPmd::new()));
    *app = Box::new(TimedApp {
        inner,
        spans: spans.clone(),
    });
}

/// Swaps the test node's stack and app on every lcore for timing
/// wrappers that record into the returned spans.
pub fn wrap(sim: &mut Simulation) -> SharedSpans {
    let spans = SharedSpans::default();
    let node = &mut sim.nodes[0];
    wrap_lcore(&mut node.stack, &mut node.app, &spans);
    for w in &mut node.workers {
        wrap_lcore(&mut w.stack, &mut w.app, &spans);
    }
    spans
}

/// Clears the spans (end of warm-up, alongside the profiler).
pub fn reset(spans: &SharedSpans) {
    *spans.borrow_mut() = Spans::default();
}

/// One metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// The host-time layer metrics of one traced rep, normalised by the
/// generator's `pkts` over the profiled interval.
///
/// Errors if a profiler kind has no layer, or if the layer shares plus
/// the residual do not cover the loop time to within 1%.
pub fn time_metrics(profile: &Profiler, spans: &Spans, pkts: u64) -> Result<Vec<Metric>, String> {
    let mut ns = [0u64; 6];
    for (kind, _, _, nanos) in profile.kinds() {
        let Some(&(_, layer)) = LAYER_OF_KIND.iter().find(|(k, _)| *k == kind) else {
            return Err(format!("profiler kind `{kind}` is not mapped to a layer"));
        };
        ns[layer as usize] += nanos;
    }
    let loop_ns = profile.loop_nanos().max(1) as f64;
    let layer = |l: Layer| ns[l as usize] as f64;
    // Loop time outside any event record, plus the probes.
    let residual =
        layer(Layer::Residual) + profile.loop_nanos() as f64 - profile.attributed_nanos() as f64;
    let stack_self = spans.stack_ns as f64 - spans.app_ns as f64;
    let apps = spans.app_ns as f64;
    let sw_event = layer(Layer::Software) - spans.stack_ns as f64;

    let (loadgen, nic_rx, nic_dma, fabric) = (
        layer(Layer::Loadgen),
        layer(Layer::NicRx),
        layer(Layer::NicDma),
        layer(Layer::Fabric),
    );

    let parts = [
        loadgen, nic_rx, nic_dma, fabric, stack_self, apps, sw_event, residual,
    ];
    // A negative part means a span did not nest inside its parent.
    if let Some(p) = parts.iter().find(|&&p| p < 0.0) {
        return Err(format!("a layer measured negative host time ({p} ns)"));
    }
    let covered = parts.iter().sum::<f64>() / loop_ns;
    if (covered - 1.0).abs() > 0.01 {
        return Err(format!(
            "layer shares plus residual cover {:.2}% of loop time, not 100% ± 1%",
            covered * 100.0
        ));
    }
    let per_pkt = |v: f64| v / pkts.max(1) as f64;
    let share = |v: f64| v / loop_ns;
    let events = profile.events() as f64;
    Ok(vec![
        ("loadgen.ns_per_pkt", "ns", per_pkt(loadgen)),
        ("loadgen.share", "ratio", share(loadgen)),
        ("nic.rx_ns_per_pkt", "ns", per_pkt(nic_rx)),
        ("nic.rx_share", "ratio", share(nic_rx)),
        ("nic.dma_ns_per_pkt", "ns", per_pkt(nic_dma)),
        ("nic.dma_share", "ratio", share(nic_dma)),
        ("net.fabric_ns_per_pkt", "ns", per_pkt(fabric)),
        ("net.fabric_share", "ratio", share(fabric)),
        ("stack.self_ns_per_pkt", "ns", per_pkt(stack_self)),
        ("stack.share", "ratio", share(stack_self)),
        ("apps.ns_per_pkt", "ns", per_pkt(apps)),
        ("apps.share", "ratio", share(apps)),
        ("harness.sw_event_ns_per_pkt", "ns", per_pkt(sw_event)),
        ("harness.residual_share", "ratio", share(residual)),
        ("sim.events_per_pkt", "events/pkt", per_pkt(events)),
        (
            "sim.ns_per_event",
            "ns",
            profile.loop_nanos() as f64 / events.max(1.0),
        ),
        (
            "apps.calls_per_pkt",
            "calls/pkt",
            per_pkt(spans.app_calls as f64),
        ),
    ])
}

/// Deterministic model counters of the test node, each tied to the
/// layer time it explains, over the measurement window.
pub fn count_metrics(sim: &Simulation, pkts: u64) -> Vec<Metric> {
    let node = &sim.nodes[0];
    let per_pkt = |v: u64| v as f64 / pkts.max(1) as f64;
    let per_kpkt = |v: u64| 1e3 * per_pkt(v);
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;

    let fsm = node.nic.drop_fsm();
    let attempts = fsm.accepted.value() + fsm.total_drops();

    let mut stack = StackStats::default();
    let mut insts = 0;
    let mut cycles = 0;
    let freq = node.core.config().frequency;
    let lcores = std::iter::once((&node.core, node.stack.stats()))
        .chain(node.workers.iter().map(|w| (&w.core, w.stack.stats())));
    for (core, stats) in lcores {
        insts += core.stats().instructions.value();
        cycles += freq.ticks_to_cycles(core.stats().total_ticks.value());
        if let Some(s) = stats {
            stack.iterations += s.iterations;
            stack.idle_iterations += s.idle_iterations;
            stack.rx_packets += s.rx_packets;
        }
    }

    let l1d_accesses: u64 = (0..node.mem.num_cores())
        .map(|c| {
            let s = node.mem.l1d_stats_of(c);
            s.core_hits.value() + s.dma_hits.value() + s.core_misses.value() + s.dma_misses.value()
        })
        .sum();
    let pool = simnet_net::pool::stats();
    // The fabric is private to the simulation; its stats section is not.
    let trunk_tail_drops =
        match build_registry(sim, 0, DumpLevel::Compat).get("system.topo.trunk.tailDrops") {
            Some(StatValue::Scalar(v)) => *v,
            _ => 0,
        };

    vec![
        (
            "nic.accept_ratio",
            "ratio",
            ratio(fsm.accepted.value(), attempts),
        ),
        (
            "nic.drop_dma_per_kpkt",
            "drops/kpkt",
            per_kpkt(fsm.dma_drops.value()),
        ),
        (
            "nic.drop_core_per_kpkt",
            "drops/kpkt",
            per_kpkt(fsm.core_drops.value()),
        ),
        (
            "nic.drop_tx_per_kpkt",
            "drops/kpkt",
            per_kpkt(fsm.tx_drops.value()),
        ),
        (
            "nic.rx_fifo_peak",
            "ratio",
            ratio(node.nic.rx_fifo_used_max(), node.nic.rx_fifo_capacity()),
        ),
        (
            "stack.pkts_per_iter",
            "pkts/iter",
            ratio(stack.rx_packets, stack.iterations),
        ),
        (
            "stack.idle_iter_ratio",
            "ratio",
            ratio(stack.idle_iterations, stack.iterations),
        ),
        ("cpu.insts_per_pkt", "insts/pkt", per_pkt(insts)),
        ("cpu.ipc", "insts/cycle", ratio(insts, cycles)),
        (
            "mem.l1d_accesses_per_pkt",
            "accesses/pkt",
            per_pkt(l1d_accesses),
        ),
        (
            "mem.llc_miss_rate",
            "ratio",
            node.mem.llc_stats().miss_rate(),
        ),
        (
            "mem.dram_row_hit_rate",
            "ratio",
            node.mem.dram_stats().row_hit_rate(),
        ),
        (
            "net.pool_allocs_per_pkt",
            "allocs/pkt",
            per_pkt(pool.class_allocs.iter().sum()),
        ),
        (
            "net.pool_heap_fallbacks",
            "count",
            pool.heap_fallback as f64,
        ),
        (
            "net.trunk_tail_drops_per_kpkt",
            "drops/kpkt",
            per_kpkt(trunk_tail_drops),
        ),
    ]
}
