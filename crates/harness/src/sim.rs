//! The event-driven node simulation.
//!
//! A [`Simulation`] holds one node under test (NIC, memory system, and a
//! core, software stack and application per lcore) and a traffic source:
//! the hardware [`EtherLoadGen`] (Fig. 1b), whose client ports reach the
//! NIC over one wire or, in an incast fan-in, through a MAC [`Switch`];
//! or a second, fully simulated Drive Node running a software
//! load-generator application (dual-mode, Fig. 1a).
//! In every mode the ports are joined by one table of directed
//! [`TopoLink`]s, and every frame enters a link through one function,
//! `Simulation::transmit`. A synthetic frame rides the links as a
//! [`Descriptor`], its id and departure tick; the generator's
//! [`SyntheticConfig`] supplies its length where a link is offered it,
//! its client port (id mod N) where it picks its egress, and its bytes
//! only when the NIC admits it, the capture tap records it, or it comes
//! back to the generator. The switch routes it on the destination MAC
//! that every client shares.
//!
//! Booting a node follows Listing 2: bind `uio_pci_generic` through the
//! PCI registry, then initialize the DPDK EAL (vendor-check skip and PMD
//! launch) — or, for the kernel stack, leave interrupts enabled.

use simnet_cpu::Core;
use simnet_loadgen::{Descriptor, EtherLoadGen, Frame, FrameSpec, SyntheticConfig};
use simnet_mem::MemorySystem;
use simnet_net::pcap::PcapWriter;
use simnet_net::topo::{LinkPolicy, Switch, TopoLink, Verdict};
use simnet_net::Packet;
use simnet_nic::{Nic, RxFrame};
use simnet_pci::devbind::DevBind;
use simnet_sim::fault::FaultInjector;
use simnet_sim::stats::{ColumnSpec, Counter, Profiler, SampleValue, StatsRegistry, TimeSeries};
use simnet_sim::trace::{Component, Stage, TraceEvent, Tracer, NO_PACKET};
use simnet_sim::{tick, EventQueue, Priority, Tick};
use simnet_stack::dpdk::{Eal, EalConfig};
use simnet_stack::{Iteration, NetworkStack, PacketApp};

use crate::config::SystemConfig;

/// Simulation events.
#[derive(Debug)]
enum Ev {
    /// The load generator's next departure, from whichever client port
    /// it is due on.
    LoadGenTx,
    /// A frame arrives at a node's NIC.
    NicRx { node: usize, frame: Frame },
    /// An echo arrives back at one of the load generator's client ports.
    LoadGenRx { packet: Packet },
    /// RX DMA engine pipeline advance for one NIC queue.
    RxDma { node: usize, queue: usize },
    /// TX DMA engine pipeline advance for one NIC queue.
    TxDma { node: usize, queue: usize },
    /// TX FIFO → wire drain.
    TxWire { node: usize },
    /// One software stack iteration on one worker lcore.
    Software { node: usize, lcore: usize },
    /// Periodic stat-sampling probe (only scheduled while tracing).
    Probe,
    /// Periodic interval-stats sample (only scheduled when
    /// [`Simulation::enable_interval_stats`] ran).
    Sample,
    /// A frame arrives at the switch — from a client uplink or from the
    /// host-facing trunk — and is forwarded by destination MAC.
    SwitchRx { frame: Frame },
}

/// Host-time attribution labels, one per [`Ev`] kind: `(kind, component)`.
const PROFILE_KINDS: &[(&str, &str)] = &[
    ("loadgen_tx", "loadgen"),
    ("nic_rx", "link"),
    ("loadgen_rx", "loadgen"),
    ("rx_dma", "nic"),
    ("tx_dma", "nic"),
    ("tx_wire", "link"),
    ("software", "stack"),
    ("probe", "sim"),
    ("sample", "sim"),
    ("switch_rx", "link"),
];

/// Index into [`PROFILE_KINDS`] for an event payload.
fn kind_index(ev: &Ev) -> usize {
    match ev {
        Ev::LoadGenTx => 0,
        Ev::NicRx { .. } => 1,
        Ev::LoadGenRx { .. } => 2,
        Ev::RxDma { .. } => 3,
        Ev::TxDma { .. } => 4,
        Ev::TxWire { .. } => 5,
        Ev::Software { .. } => 6,
        Ev::Probe => 7,
        Ev::Sample => 8,
        Ev::SwitchRx { .. } => 9,
    }
}

/// One end of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    /// The NIC of node `i`.
    Nic(usize),
    /// The MAC-forwarding switch.
    Switch,
    /// The load generator's client port `c` (point-to-point: client 0).
    Client(usize),
}

/// The switch→host trunk: the link whose congestion queue the
/// `topo_queue` gauge and the `system.topo.trunk` stats read.
const TRUNK: (Port, Port) = (Port::Switch, Port::Nic(0));

/// The period of the stat-sampling probe rows a traced run emits.
const PROBE_INTERVAL: Tick = tick::us(10);

/// One directed link of the simulation's link table.
struct Link {
    /// The port that transmits onto the link.
    from: Port,
    /// The port the link delivers to.
    to: Port,
    wire: TopoLink,
}

/// Cumulative counter values at the previous interval sample, for the
/// per-interval delta columns.
#[derive(Debug, Default, Clone, Copy)]
struct SampleBaseline {
    dma_drops: u64,
    core_drops: u64,
    tx_drops: u64,
    fault_drops: u64,
    faults: u64,
    topo_drops: u64,
}

/// The interval time-series sampler: a periodic simulation event that
/// snapshots registered counters and live queue gauges into a
/// [`TimeSeries`] (one row per interval).
struct IntervalSampler {
    interval: Tick,
    series: TimeSeries,
    prev: SampleBaseline,
    last_sample: Option<Tick>,
}

impl IntervalSampler {
    fn new(interval: Tick) -> Self {
        Self {
            interval,
            series: TimeSeries::new(sample_columns()),
            prev: SampleBaseline::default(),
            last_sample: None,
        }
    }
}

/// The interval time-series schema. Cumulative columns restart from the
/// warm-up reset; `drop_*` and `faults` are per-interval deltas, so they
/// sum exactly to the final drop-FSM and fault-injection counters.
fn sample_columns() -> Vec<ColumnSpec> {
    vec![
        ColumnSpec::float("t_us", "sample time (simulated microseconds)"),
        ColumnSpec::int("rx_frames", "cumulative frames accepted from the wire"),
        ColumnSpec::int("tx_frames", "cumulative frames handed to the wire"),
        ColumnSpec::int("drop_dma", "drops this interval: DMA engine behind"),
        ColumnSpec::int("drop_core", "drops this interval: core behind"),
        ColumnSpec::int("drop_tx", "drops this interval: TX backpressure"),
        ColumnSpec::int("drop_fault", "drops this interval: injected faults"),
        ColumnSpec::int("faults", "faults injected this interval (all sites)"),
        ColumnSpec::int("fifo_used", "RX FIFO bytes in use"),
        ColumnSpec::float("fifo_frac", "RX FIFO fill fraction"),
        ColumnSpec::int("ring_free", "free RX descriptors"),
        ColumnSpec::int("rx_visible", "received frames visible to software"),
        ColumnSpec::int("tx_used", "occupied TX ring slots"),
        ColumnSpec::float("llc_miss_rate", "cumulative LLC miss rate"),
        ColumnSpec::float("ipc", "cumulative instructions per cycle"),
        ColumnSpec::float("row_hit_rate", "cumulative DRAM row-buffer hit rate"),
        ColumnSpec::int("pool_in_use", "pooled packet buffers held by live handles"),
        ColumnSpec::int("pool_hwm", "peak pooled buffers in use since reset"),
        ColumnSpec::int(
            "pool_fallback",
            "cumulative heap-fallback packet allocations",
        ),
        ColumnSpec::int("rxq_used_max", "max per-queue RX FIFO bytes in use"),
        ColumnSpec::int(
            "rxq_visible_max",
            "max per-queue frames visible to software",
        ),
        ColumnSpec::int("topo_queue", "switch→host trunk congestion-queue occupancy"),
        ColumnSpec::int(
            "topo_drops",
            "drops this interval: topology links (tail + loss + unroutable)",
        ),
    ]
}

/// One lcore's software, as a node is built from it: its stack instance
/// and its application shard.
pub type Lcore = (Box<dyn NetworkStack>, Box<dyn PacketApp>);

/// The lcore of an `nlcores`-lcore node that polls NIC queue `queue`:
/// queues are dealt round-robin, so lcore `L` polls
/// `{q : q mod nlcores == L}`.
pub(crate) fn lcore_of(queue: usize, nlcores: usize) -> usize {
    queue % nlcores
}

/// One additional worker lcore of a node (lcore indices 1 and up; lcore
/// 0 lives directly on [`Node`]): its private core, its own stack
/// instance, and its application shard.
pub struct Worker {
    /// The worker's core (private L1/L2 in the node's memory system).
    pub core: Core,
    /// The worker's stack instance (per-lcore TX mbuf/footprint bases).
    pub stack: Box<dyn NetworkStack>,
    /// The worker's application shard.
    pub app: Box<dyn PacketApp>,
}

/// One simulated machine.
pub struct Node {
    /// The NIC under this node.
    pub nic: Nic,
    /// The node's memory system.
    pub mem: MemorySystem,
    /// The node's core (worker lcore 0).
    pub core: Core,
    /// The software network stack (worker lcore 0).
    pub stack: Box<dyn NetworkStack>,
    /// The application (worker lcore 0's shard).
    pub app: Box<dyn PacketApp>,
    /// Additional worker lcores (lcore `i + 1` is `workers[i]`); empty
    /// on a single-lcore node.
    pub workers: Vec<Worker>,
    /// Per-lcore software-iteration scheduling flags.
    sw_scheduled: Vec<bool>,
    sw_waiting: Vec<bool>,
    /// Per-queue DMA-engine scheduling flags.
    rx_dma_scheduled: Vec<bool>,
    tx_dma_scheduled: Vec<bool>,
    tx_wire_scheduled: bool,
}

impl Node {
    /// Builds a node from its config and every lcore's software, lcore 0
    /// first: each lcore polls the queues [`lcore_of`] deals it, on its
    /// own core with private L1/L2 caches.
    ///
    /// # Panics
    ///
    /// Panics without an lcore, or with more lcores than NIC queues (an
    /// lcore with nothing to poll).
    fn new(cfg: &SystemConfig, lcores: Vec<Lcore>) -> Self {
        let mut nic = Nic::new(cfg.nic);
        let mut mem = MemorySystem::new(cfg.mem);
        mem.set_core_frequency(cfg.core.frequency);
        let core = Core::new(cfg.core);
        let nq = nic.num_queues();
        let n = lcores.len();
        assert!(
            (1..=nq).contains(&n),
            "{n} lcores need at least one and at most the NIC's {nq} queues"
        );
        if n > 1 {
            mem.set_num_cores(n);
        }
        let mut lcores = lcores
            .into_iter()
            .enumerate()
            .map(|(lcore, (mut stack, app))| {
                stack.assign_queues((0..nq).filter(|&q| lcore_of(q, n) == lcore).collect());
                (stack, app)
            });
        let (stack, app) = lcores.next().expect("checked above");
        let workers = lcores
            .map(|(stack, app)| Worker {
                core: Core::new(cfg.core),
                stack,
                app,
            })
            .collect();

        // Boot sequence (Listing 2): register the NIC on the PCI bus,
        // bind the userspace I/O driver, and bring up the stack.
        let bdf = "00:02.0".parse().expect("static BDF");
        let mut registry = DevBind::new();
        registry.register(bdf, nic.pci_config().clone());
        registry
            .bind_uio(bdf)
            .expect("extended PCI model supports uio_pci_generic");
        if stack.name() == "dpdk" {
            let mut eal = Eal::new(EalConfig::paper_default());
            eal.init(&mut nic)
                .expect("patched DPDK initializes on the extended NIC model");
        }
        // The driver posts the full RX ring (every queue's ring, under
        // multi-queue operation).
        let ring = cfg.nic.rx_ring_size;
        nic.rx_ring_post(ring);

        Self {
            nic,
            mem,
            core,
            stack,
            app,
            workers,
            sw_scheduled: vec![false; n],
            sw_waiting: vec![false; n],
            rx_dma_scheduled: vec![false; nq],
            tx_dma_scheduled: vec![false; nq],
            tx_wire_scheduled: false,
        }
    }

    /// Number of lcores (lcore 0 plus the workers).
    pub fn lcores(&self) -> usize {
        1 + self.workers.len()
    }

    /// Runs one stack iteration on `lcore`, activating its private cache
    /// hierarchy first.
    fn run_lcore(&mut self, now: Tick, lcore: usize) -> Iteration {
        self.mem.set_active_core(lcore);
        if lcore == 0 {
            self.stack.iteration(
                now,
                &mut self.nic,
                &mut self.core,
                &mut self.mem,
                self.app.as_mut(),
            )
        } else {
            let w = &mut self.workers[lcore - 1];
            w.stack.iteration(
                now,
                &mut self.nic,
                &mut w.core,
                &mut self.mem,
                w.app.as_mut(),
            )
        }
    }

    fn wakeup_latency_of(&self, lcore: usize) -> Tick {
        if lcore == 0 {
            self.stack.wakeup_latency()
        } else {
            self.workers[lcore - 1].stack.wakeup_latency()
        }
    }

    fn next_tx_of(&mut self, lcore: usize, at: Tick) -> Option<Tick> {
        if lcore == 0 {
            self.app.next_tx_at(at)
        } else {
            self.workers[lcore - 1].app.next_tx_at(at)
        }
    }

    /// Earliest tick at which a packet becomes visible on any queue this
    /// lcore polls.
    fn rx_next_visible_for(&self, lcore: usize) -> Option<Tick> {
        let nlcores = self.lcores();
        (0..self.nic.num_queues())
            .filter(|&q| lcore_of(q, nlcores) == lcore)
            .filter_map(|q| self.nic.rx_next_visible_at_q(q))
            .min()
    }
}

/// What [`Simulation::new`] builds a node from: its config and its
/// lcores.
type NodeParts<'a> = (&'a SystemConfig, Vec<Lcore>);

/// The full simulation.
pub struct Simulation {
    queue: EventQueue<Ev>,
    /// Node 0 is always the node under test; node 1 (if present) is the
    /// Drive Node of a dual-mode run.
    pub nodes: Vec<Node>,
    /// The hardware load generator (absent in dual mode).
    pub loadgen: Option<EtherLoadGen>,
    /// Every directed link between two ports, in link-seed order.
    links: Vec<Link>,
    /// Destination-MAC forwarding table; each route names the index of
    /// the link the switch forwards onto. Empty without a switch.
    switch: Switch,
    /// Frames whose destination MAC had no switch route (counted and
    /// dropped — no flooding in this model).
    unroutable: Counter,
    loadgen_tx_scheduled: bool,
    /// Optional pdump-style capture tap at the test node's port (both
    /// directions), producing a PCAP byte stream.
    capture: Option<PcapWriter<Vec<u8>>>,
    started: bool,
    /// The packet-lifecycle tracer (disabled unless
    /// [`Simulation::enable_trace`] ran before the first event).
    tracer: Tracer,
    /// The fault injector (disabled unless [`Simulation::install_faults`]
    /// ran before the first event).
    faults: FaultInjector,
    /// The interval time-series sampler (absent unless
    /// [`Simulation::enable_interval_stats`] ran before the first event).
    sampler: Option<IntervalSampler>,
    /// The self-profiler (absent unless [`Simulation::enable_profiler`]
    /// ran; the unprofiled event loop is untouched).
    profiler: Option<Profiler>,
}

impl Simulation {
    /// Assembles a simulation from one node per `(config, lcores)`,
    /// the load generator, the link table as `(from, to, policy, seed)`
    /// rows, and the switch.
    fn new(
        nodes: Vec<NodeParts>,
        loadgen: Option<EtherLoadGen>,
        links: Vec<(Port, Port, LinkPolicy, u64)>,
        switch: Switch,
    ) -> Self {
        // Packet-pool counters describe one simulation; earlier runs on
        // this worker thread must not leak into this run's stats.
        simnet_net::pool::reset_stats();
        Self {
            queue: EventQueue::new(),
            nodes: nodes
                .into_iter()
                .map(|(cfg, lcores)| Node::new(cfg, lcores))
                .collect(),
            loadgen,
            // A link's loss stream is its seed mixed with its table index
            // (splitmix64 odd constant), so links draw independent
            // streams and runs replay exactly.
            links: links
                .into_iter()
                .enumerate()
                .map(|(i, (from, to, policy, seed))| Link {
                    from,
                    to,
                    wire: TopoLink::new(
                        policy,
                        seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ),
                })
                .collect(),
            switch,
            unroutable: Counter::new(),
            loadgen_tx_scheduled: false,
            capture: None,
            started: false,
            tracer: Tracer::disabled(),
            faults: FaultInjector::disabled(),
            sampler: None,
            profiler: None,
        }
    }

    /// Builds a load-generator-mode simulation: `EtherLoadGen` feeding a
    /// test node with `lcores` over the network `cfg.topo` describes.
    /// Point-to-point (Fig. 1b), one pure wire per direction joins the
    /// generator's one port to the NIC. A fan-in puts the generator's
    /// client ports behind a MAC switch: the switch→host trunk carries
    /// the bounded congestion queue (a pure wire at 0 frames), the return
    /// trunk is a pure wire, client `c`'s access links have latency
    /// `client_latency + c × latency_spread`, and only uplinks lose
    /// frames.
    ///
    /// # Panics
    ///
    /// Panics if the generator's client count disagrees with
    /// `cfg.topo.clients`.
    pub fn loadgen_mode(cfg: &SystemConfig, lcores: Vec<Lcore>, loadgen: EtherLoadGen) -> Self {
        let t = &cfg.topo;
        assert_eq!(
            loadgen.clients(),
            t.clients,
            "the generator's client ports must match the configured topology"
        );
        let (bw, seed) = (cfg.link_bandwidth, cfg.seed);
        let mut switch = Switch::new();
        if t.is_point_to_point() {
            let wire = LinkPolicy::wire(bw, cfg.link_latency);
            let links = vec![
                (Port::Client(0), Port::Nic(0), wire, seed),
                (Port::Nic(0), Port::Client(0), wire, seed),
            ];
            return Self::new(vec![(cfg, lcores)], Some(loadgen), links, switch);
        }
        let trunk = match t.trunk_queue_frames {
            0 => LinkPolicy::wire(bw, t.trunk_latency),
            frames => LinkPolicy::bounded(bw, t.trunk_latency, frames),
        };
        let back = LinkPolicy::wire(bw, t.trunk_latency);
        let mut links = vec![
            (Port::Switch, Port::Nic(0), trunk, seed),
            (Port::Nic(0), Port::Switch, back, seed),
        ];
        switch.add_route(cfg.nic.mac, 0);
        for c in 0..t.clients {
            let access = LinkPolicy::wire(bw, t.client_latency + t.latency_spread * c as Tick);
            let uplink = access.with_loss(t.loss_ppm);
            links.push((Port::Client(c), Port::Switch, uplink, seed));
            let mac = loadgen
                .client_mac(c)
                .expect("only a synthetic generator has several client ports");
            switch.add_route(mac, links.len());
            links.push((Port::Switch, Port::Client(c), access, seed));
        }
        Self::new(vec![(cfg, lcores)], Some(loadgen), links, switch)
    }

    /// Builds a dual-mode simulation (Fig. 1a): a Drive Node whose lcores
    /// run a software load-generator application, linked to the test node
    /// by one pure wire per direction, each set by its sending node's
    /// config.
    pub fn dual_mode(
        test_cfg: &SystemConfig,
        test_lcores: Vec<Lcore>,
        drive_cfg: &SystemConfig,
        drive_lcores: Vec<Lcore>,
    ) -> Self {
        let links = [test_cfg, drive_cfg]
            .iter()
            .enumerate()
            .map(|(node, cfg)| {
                let wire = LinkPolicy::wire(cfg.link_bandwidth, cfg.link_latency);
                (Port::Nic(node), Port::Nic(1 - node), wire, cfg.seed)
            })
            .collect();
        Self::new(
            vec![(test_cfg, test_lcores), (drive_cfg, drive_lcores)],
            None,
            links,
            Switch::new(),
        )
    }

    /// Enables packet-lifecycle tracing into a ring buffer of `capacity`
    /// events, recording only components whose bits are set in `mask`
    /// (see `simnet_sim::trace::Component::bit`;
    /// `Component::ALL_MASK` records everything). Clones of the tracer
    /// handle are distributed to every node's NIC, memory system, and
    /// stack, and to the load generator.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already started.
    pub fn enable_trace(&mut self, capacity: usize, mask: u32) {
        assert!(!self.started, "enable_trace must precede the first run");
        self.tracer = Tracer::enabled(capacity).with_filter(mask);
        for node in &mut self.nodes {
            node.nic.set_tracer(self.tracer.clone());
            node.mem.set_tracer(self.tracer.clone());
            node.stack.set_tracer(self.tracer.clone());
            for w in &mut node.workers {
                w.stack.set_tracer(self.tracer.clone());
            }
        }
        if let Some(lg) = &mut self.loadgen {
            lg.set_tracer(self.tracer.clone());
        }
    }

    /// Installs a fault injector (see `simnet_sim::fault`). Clones of the
    /// handle are distributed to every node's NIC (which shares it with
    /// its PCI config space) and memory system.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already started.
    pub fn install_faults(&mut self, faults: FaultInjector) {
        assert!(!self.started, "install_faults must precede the first run");
        for node in &mut self.nodes {
            node.nic.set_fault_injector(faults.clone());
            node.mem.set_fault_injector(faults.clone());
        }
        self.faults = faults;
    }

    /// The fault injector (disabled unless [`Simulation::install_faults`]
    /// ran).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.faults
    }

    /// Enables the interval time-series sampler with the given period.
    /// The test node's counters and queue gauges are snapshotted every
    /// `interval` ticks into a [`TimeSeries`] (see
    /// [`Simulation::take_timeseries`]). Without this call no sampling
    /// event is ever scheduled — the run is byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already started.
    pub fn enable_interval_stats(&mut self, interval: Tick) {
        assert!(
            !self.started,
            "enable_interval_stats must precede the first run"
        );
        self.sampler = Some(IntervalSampler::new(interval.max(1)));
    }

    /// Pushes one final partial-interval row so the delta columns cover
    /// the whole run. Call after the last [`Simulation::run_until`]; a
    /// no-op when sampling is off or the last row already lands on `now`.
    pub fn finalize_interval_stats(&mut self) {
        let now = self.now();
        if self
            .sampler
            .as_ref()
            .is_some_and(|s| s.last_sample != Some(now))
        {
            self.sample_row(now);
        }
    }

    /// Detaches and returns the sampled time series, if sampling was on.
    pub fn take_timeseries(&mut self) -> Option<TimeSeries> {
        self.sampler.take().map(|s| s.series)
    }

    /// Non-finite float cells the interval sampler has recorded so far
    /// (each serialized as `null`/empty rather than a forged `0`), when
    /// sampling is on. Dumped as `system.sampler.nonfinite`.
    pub fn sampler_nonfinite(&self) -> Option<u64> {
        self.sampler.as_ref().map(|s| s.series.nonfinite_count())
    }

    /// Enables the self-profiler: per-event-kind host-time and event
    /// counts, attributed inside the event loop. Without this call the
    /// event loop takes no timestamps at all.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Profiler::new(PROFILE_KINDS.to_vec()));
    }

    /// The accumulated profile, if profiling is on.
    pub fn profile(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Detaches and returns the accumulated profile, if profiling was on.
    pub fn take_profile(&mut self) -> Option<Profiler> {
        self.profiler.take()
    }

    /// The tracer handle (disabled unless [`Simulation::enable_trace`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Removes and returns all buffered trace events.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }

    /// Attaches a pdump-style PCAP capture tap at the test node's port.
    pub fn enable_capture(&mut self) {
        self.capture = Some(PcapWriter::new(Vec::new()).expect("vec write cannot fail"));
    }

    /// Detaches the capture tap and returns the PCAP bytes.
    pub fn take_capture(&mut self) -> Option<Vec<u8>> {
        self.capture.take().and_then(|w| w.into_inner().ok())
    }

    /// Current simulated time.
    pub fn now(&self) -> Tick {
        self.queue.now()
    }

    /// Total events executed (simulation effort metric, Fig. 20).
    pub fn events_executed(&self) -> u64 {
        self.queue.executed_count()
    }

    /// The index of the link `port` transmits on.
    fn egress(&self, port: Port) -> usize {
        self.links
            .iter()
            .position(|l| l.from == port)
            .expect("every sender has an egress link")
    }

    /// The config every described frame derives from: only a synthetic
    /// generator describes frames.
    fn synthetic(&self) -> &SyntheticConfig {
        self.loadgen
            .as_ref()
            .and_then(EtherLoadGen::synthetic)
            .expect("a described frame comes from a synthetic generator")
    }

    /// The frame's length in bytes: a described frame's is the
    /// generator's frame length.
    #[inline]
    fn frame_len(&self, frame: &Frame) -> usize {
        match frame {
            Frame::Built(packet) => packet.len(),
            Frame::Described(_) => self.synthetic().frame_len(),
        }
    }

    /// The frame's bytes, built by the generator if it is described.
    fn build(&self, frame: Frame) -> Packet {
        match frame {
            Frame::Built(packet) => packet,
            Frame::Described(d) => self.synthetic().spec(d.id).build(&d),
        }
    }

    /// Offers `frame` to link `link` at `now`: the one wire hop of every
    /// mode. The capture tap records every frame that a link to or from
    /// the test node accepts, at its departure tick, building its own
    /// copy of a described frame. An accepted frame arrives at the link's
    /// far port; a dropped one is counted by the link and goes no further.
    fn transmit(&mut self, now: Tick, link: usize, frame: Frame) {
        let len = self.frame_len(&frame);
        let Link { from, to, wire } = &mut self.links[link];
        let Verdict::Deliver(arrival) = wire.transmit(now, len) else {
            return;
        };
        let (from, to) = (*from, *to);
        if self.capture.is_some() && (from == Port::Nic(0) || to == Port::Nic(0)) {
            let copy = self.build(frame.clone());
            if let Some(writer) = &mut self.capture {
                let _ = writer.write_packet(now, copy.bytes());
            }
        }
        let event = match to {
            Port::Nic(node) => Ev::NicRx { node, frame },
            Port::Switch => Ev::SwitchRx { frame },
            Port::Client(_) => Ev::LoadGenRx {
                packet: self.build(frame),
            },
        };
        self.queue
            .schedule_with_priority(arrival, Priority::LINK, event);
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.nodes.len() {
            for lcore in 0..self.nodes[node].lcores() {
                self.queue
                    .schedule_with_priority(0, Priority::CPU, Ev::Software { node, lcore });
                self.nodes[node].sw_scheduled[lcore] = true;
            }
        }
        if let Some(lg) = &self.loadgen {
            if let Some(t) = lg.next_departure(0) {
                self.queue.schedule(t, Ev::LoadGenTx);
                self.loadgen_tx_scheduled = true;
            }
        }
        if self.tracer.is_enabled() {
            // MAXIMUM priority: sample queue state after every other
            // same-tick event has settled.
            self.queue
                .schedule_with_priority(PROBE_INTERVAL, Priority::MAXIMUM, Ev::Probe);
        }
        if let Some(sampler) = &self.sampler {
            self.queue
                .schedule_with_priority(sampler.interval, Priority::MAXIMUM, Ev::Sample);
        }
    }

    fn dispatch(&mut self, now: Tick, payload: Ev) {
        match payload {
            Ev::LoadGenTx => self.handle_loadgen_tx(now),
            Ev::NicRx { node, frame } => self.handle_nic_rx(now, node, frame),
            Ev::LoadGenRx { packet } => self.handle_loadgen_rx(now, packet),
            Ev::RxDma { node, queue } => self.handle_rx_dma(now, node, queue),
            Ev::TxDma { node, queue } => self.handle_tx_dma(now, node, queue),
            Ev::TxWire { node } => self.handle_tx_wire(now, node),
            Ev::Software { node, lcore } => self.handle_software(now, node, lcore),
            Ev::Probe => self.handle_probe(now),
            Ev::Sample => self.handle_sample(now),
            Ev::SwitchRx { frame } => self.handle_switch_rx(now, frame),
        }
    }

    /// Runs the simulation until simulated tick `until`.
    ///
    /// The drain loop leans on the event queue's two-level ladder: a
    /// same-tick cohort is sorted once when the clock reaches its bucket,
    /// so the `pop_until` per iteration is an O(1) pop off the sorted
    /// cohort (plus a cheap bound check) rather than a re-heapify of the
    /// whole pending set — even when handlers schedule follow-up events
    /// into the cohort being drained.
    pub fn run_until(&mut self, until: Tick) {
        self.start();
        if self.profiler.is_some() {
            self.run_until_profiled(until);
            return;
        }
        while let Some(event) = self.queue.pop_until(until) {
            self.dispatch(event.tick, event.payload);
        }
    }

    /// The profiled event loop: each `record` covers one pop plus its
    /// dispatch, so attributed time approaches total loop time.
    fn run_until_profiled(&mut self, until: Tick) {
        let mut profiler = self.profiler.take().expect("checked by run_until");
        let loop_start = std::time::Instant::now();
        let mut mark = loop_start;
        while let Some(event) = self.queue.pop_until(until) {
            let kind = kind_index(&event.payload);
            self.dispatch(event.tick, event.payload);
            let after = std::time::Instant::now();
            profiler.record(kind, after.duration_since(mark).as_nanos() as u64);
            mark = after;
        }
        profiler.add_loop_nanos(loop_start.elapsed().as_nanos() as u64);
        self.profiler = Some(profiler);
    }

    /// Resets all statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        for node in &mut self.nodes {
            node.nic.reset_stats();
            node.nic.pci_config().stats().reset();
            node.mem.reset_stats();
            node.core.reset_stats();
            node.stack.reset_stats();
            for w in &mut node.workers {
                w.core.reset_stats();
                w.stack.reset_stats();
            }
        }
        for link in &mut self.links {
            link.wire.reset_stats();
        }
        self.unroutable.reset();
        if let Some(lg) = &mut self.loadgen {
            lg.reset_stats();
        }
        self.faults.reset_counts();
        // The packet pool's alloc/recycle history follows the other
        // counters back to zero; its high-water mark re-baselines to the
        // currently outstanding buffers.
        simnet_net::pool::reset_stats();
        // Interval rows collected during warm-up are discarded, and the
        // delta baselines follow the counters back to zero so post-reset
        // deltas still sum exactly to the final cumulative values.
        if let Some(sampler) = &mut self.sampler {
            sampler.series.clear();
            sampler.prev = SampleBaseline::default();
            sampler.last_sample = None;
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle_loadgen_tx(&mut self, now: Tick) {
        self.loadgen_tx_scheduled = false;
        let Some(lg) = &mut self.loadgen else { return };
        let Some(frame) = lg.take(now) else {
            return;
        };
        let client = match &frame {
            Frame::Built(_) => 0,
            Frame::Described(d) => self.synthetic().client(d.id),
        };
        self.tracer.emit(
            now,
            frame.id(),
            Component::Link,
            Stage::WireTx {
                len: self.frame_len(&frame) as u32,
            },
        );
        let link = self.egress(Port::Client(client));
        self.transmit(now, link, frame);
        let lg = self.loadgen.as_mut().expect("checked above");
        if let Some(next) = lg.next_departure(now) {
            self.queue.schedule(next.max(now), Ev::LoadGenTx);
            self.loadgen_tx_scheduled = true;
        }
    }

    /// A frame reaches a NIC, which builds a described frame only if its
    /// RX FIFO admits it.
    fn handle_nic_rx(&mut self, now: Tick, node: usize, frame: Frame) {
        self.tracer
            .emit(now, frame.id(), Component::Link, Stage::WireRx);
        let _ = match frame {
            Frame::Built(packet) => self.nodes[node].nic.wire_rx(now, packet),
            Frame::Described(d) => {
                let spec = self.synthetic().spec(d.id);
                self.nodes[node].nic.wire_rx(now, Deferred { d, spec })
            }
        };
        self.maybe_kick_rx_dma(now, node);
    }

    fn handle_loadgen_rx(&mut self, now: Tick, packet: Packet) {
        self.tracer
            .emit(now, packet.id(), Component::Link, Stage::WireRx);
        let Some(lg) = &mut self.loadgen else { return };
        lg.on_rx(now, &packet);
        // A response can open a closed-loop window (or TCP's send window)
        // *earlier* than any already-scheduled departure (e.g. a pending
        // RTO), so an unblocked generator always gets a fresh event; a
        // spurious extra firing is harmless (take returns None).
        if !self.loadgen_tx_scheduled || lg.unblocked() {
            if let Some(next) = lg.next_departure(now) {
                self.queue.schedule(next.max(now), Ev::LoadGenTx);
                self.loadgen_tx_scheduled = true;
            }
        }
    }

    fn maybe_kick_rx_dma(&mut self, now: Tick, node: usize) {
        // Evaluate unconditionally: `rx_dma_needs_kick_q` also settles
        // time-deferred descriptor posts, which the drop-classification
        // FSM must observe at packet-arrival granularity.
        for queue in 0..self.nodes[node].nic.num_queues() {
            let needs = self.nodes[node].nic.rx_dma_needs_kick_q(queue, now);
            if !self.nodes[node].rx_dma_scheduled[queue] && needs {
                self.nodes[node].rx_dma_scheduled[queue] = true;
                self.queue
                    .schedule_with_priority(now, Priority::DMA, Ev::RxDma { node, queue });
            }
        }
    }

    fn maybe_kick_tx_dma(&mut self, at: Tick, node: usize) {
        for queue in 0..self.nodes[node].nic.num_queues() {
            if !self.nodes[node].tx_dma_scheduled[queue]
                && self.nodes[node].nic.tx_dma_needs_kick_q(queue)
            {
                self.nodes[node].tx_dma_scheduled[queue] = true;
                self.queue.schedule_with_priority(
                    at.max(self.queue.now()),
                    Priority::DMA,
                    Ev::TxDma { node, queue },
                );
            }
        }
    }

    fn handle_rx_dma(&mut self, now: Tick, node: usize, queue: usize) {
        self.nodes[node].rx_dma_scheduled[queue] = false;
        let n = &mut self.nodes[node];
        if let Some(next) = n.nic.rx_dma_advance_q(queue, now, &mut n.mem) {
            n.rx_dma_scheduled[queue] = true;
            self.queue.schedule_with_priority(
                next.max(now),
                Priority::DMA,
                Ev::RxDma { node, queue },
            );
        } else if n.nic.rx_dma_needs_kick_q(queue, now) {
            // Work is pending but the engine refused to start — a cleared
            // bus-master enable. Retry when the fault window closes.
            if let Some(end) = self.faults.master_window_end(now) {
                n.rx_dma_scheduled[queue] = true;
                self.queue.schedule_with_priority(
                    end.max(now + 1),
                    Priority::DMA,
                    Ev::RxDma { node, queue },
                );
            }
        }
        self.wake_software_for_rx(now, node);
    }

    /// If a worker's software loop went to sleep, wake it when packets
    /// become visible on one of its queues (paying the stack's
    /// interrupt/wakeup latency).
    fn wake_software_for_rx(&mut self, now: Tick, node: usize) {
        for lcore in 0..self.nodes[node].lcores() {
            let n = &self.nodes[node];
            if !n.sw_waiting[lcore] || n.sw_scheduled[lcore] {
                continue;
            }
            let Some(visible) = n.rx_next_visible_for(lcore) else {
                continue;
            };
            let at = visible.max(now) + n.wakeup_latency_of(lcore);
            let n = &mut self.nodes[node];
            n.sw_waiting[lcore] = false;
            n.sw_scheduled[lcore] = true;
            self.queue
                .schedule_with_priority(at, Priority::CPU, Ev::Software { node, lcore });
        }
    }

    fn handle_software(&mut self, now: Tick, node: usize, lcore: usize) {
        self.nodes[node].sw_scheduled[lcore] = false;
        let iteration = self.nodes[node].run_lcore(now, lcore);
        let end = iteration.end.max(now);

        // TX submissions and RX ring posts happened inside the iteration.
        self.maybe_kick_tx_dma(end, node);
        self.maybe_kick_rx_dma(end, node);

        let n = &mut self.nodes[node];
        if !iteration.idle {
            n.sw_scheduled[lcore] = true;
            self.queue
                .schedule_with_priority(end, Priority::CPU, Ev::Software { node, lcore });
            return;
        }

        // Idle: sleep until the NIC makes something visible on one of
        // this lcore's queues or its client app wants to transmit.
        let mut wake: Option<Tick> = None;
        if let Some(visible) = n.rx_next_visible_for(lcore) {
            wake = Some(visible.max(end) + n.wakeup_latency_of(lcore));
        }
        if let Some(tx_at) = n.next_tx_of(lcore, end) {
            let candidate = tx_at.max(end);
            wake = Some(wake.map_or(candidate, |w| w.min(candidate)));
        }
        match wake {
            Some(at) => {
                n.sw_scheduled[lcore] = true;
                self.queue.schedule_with_priority(
                    at.max(end),
                    Priority::CPU,
                    Ev::Software { node, lcore },
                );
            }
            None => n.sw_waiting[lcore] = true,
        }
    }

    /// Emits one stat-sampling row pair per node (queue occupancies and
    /// cumulative LLC counters) and reschedules itself.
    fn handle_probe(&mut self, now: Tick) {
        for node in &mut self.nodes {
            self.tracer.emit(
                now,
                NO_PACKET,
                Component::Sim,
                Stage::ProbeQueues {
                    fifo_used: node.nic.rx_fifo_used(),
                    ring_free: node.nic.rx_descriptors_available() as u32,
                    tx_used: node.nic.tx_ring_used() as u32,
                    visible: node.nic.rx_visible_len() as u32,
                },
            );
            let llc = node.mem.llc_stats();
            let misses = llc.core_misses.value() + llc.dma_misses.value();
            let lookups = llc.core_hits.value() + llc.dma_hits.value() + misses;
            self.tracer.emit(
                now,
                NO_PACKET,
                Component::Sim,
                Stage::ProbeCache { lookups, misses },
            );
        }
        self.queue
            .schedule_with_priority(now + PROBE_INTERVAL, Priority::MAXIMUM, Ev::Probe);
    }

    /// Appends one time-series row for the test node.
    fn sample_row(&mut self, now: Tick) {
        if self.sampler.is_none() {
            return;
        }
        // Link gauges come first: trunk occupancy needs `&mut` (it
        // retires serialized frames), which must not overlap the sampler
        // borrow below.
        let topo_queue = self
            .links
            .iter_mut()
            .find(|l| (l.from, l.to) == TRUNK)
            .map_or(0, |l| l.wire.occupancy(now)) as u64;
        let topo_drops_cum = self
            .links
            .iter()
            .map(|l| l.wire.tail_drops.value() + l.wire.loss_drops.value())
            .sum::<u64>()
            + self.unroutable.value();
        let Some(sampler) = &mut self.sampler else {
            return;
        };
        let n = &self.nodes[0];
        let fsm = n.nic.drop_fsm();
        let cur = SampleBaseline {
            dma_drops: fsm.dma_drops.value(),
            core_drops: fsm.core_drops.value(),
            tx_drops: fsm.tx_drops.value(),
            fault_drops: fsm.fault_drops.value(),
            faults: self.faults.counts().total(),
            topo_drops: topo_drops_cum,
        };
        let prev = sampler.prev;
        let ns = n.nic.stats();
        let llc = n.mem.llc_stats();
        let core = n.core.stats();
        let fifo_used = n.nic.rx_fifo_used();
        let fifo_cap = n.nic.rx_fifo_capacity();
        let pool = simnet_net::pool::stats();
        sampler.series.push_row(vec![
            SampleValue::Float(now as f64 / 1e6),
            SampleValue::Int(ns.rx_frames.value()),
            SampleValue::Int(ns.tx_frames.value()),
            SampleValue::Int(cur.dma_drops - prev.dma_drops),
            SampleValue::Int(cur.core_drops - prev.core_drops),
            SampleValue::Int(cur.tx_drops - prev.tx_drops),
            SampleValue::Int(cur.fault_drops - prev.fault_drops),
            SampleValue::Int(cur.faults - prev.faults),
            SampleValue::Int(fifo_used),
            SampleValue::Float(fifo_used as f64 / fifo_cap as f64),
            SampleValue::Int(n.nic.rx_descriptors_available() as u64),
            SampleValue::Int(n.nic.rx_visible_len() as u64),
            SampleValue::Int(n.nic.tx_ring_used() as u64),
            SampleValue::Float(llc.miss_rate()),
            SampleValue::Float(core.ipc(n.core.config().frequency)),
            SampleValue::Float(n.mem.dram_stats().row_hit_rate()),
            SampleValue::Int(pool.in_use),
            SampleValue::Int(pool.high_water),
            SampleValue::Int(pool.heap_fallback),
            SampleValue::Int(n.nic.rx_fifo_used_max()),
            SampleValue::Int(n.nic.rx_visible_len_max() as u64),
            SampleValue::Int(topo_queue),
            SampleValue::Int(cur.topo_drops - prev.topo_drops),
        ]);
        sampler.prev = cur;
        sampler.last_sample = Some(now);
    }

    /// Takes one interval sample and reschedules itself.
    fn handle_sample(&mut self, now: Tick) {
        self.sample_row(now);
        if let Some(sampler) = &self.sampler {
            self.queue.schedule_with_priority(
                now + sampler.interval,
                Priority::MAXIMUM,
                Ev::Sample,
            );
        }
    }

    fn handle_tx_dma(&mut self, now: Tick, node: usize, queue: usize) {
        self.nodes[node].tx_dma_scheduled[queue] = false;
        let n = &mut self.nodes[node];
        if let Some(next) = n.nic.tx_dma_advance_q(queue, now, &mut n.mem) {
            n.tx_dma_scheduled[queue] = true;
            self.queue.schedule_with_priority(
                next.max(now),
                Priority::DMA,
                Ev::TxDma { node, queue },
            );
        } else if n.nic.tx_dma_needs_kick_q(queue) {
            if let Some(end) = self.faults.master_window_end(now) {
                n.tx_dma_scheduled[queue] = true;
                self.queue.schedule_with_priority(
                    end.max(now + 1),
                    Priority::DMA,
                    Ev::TxDma { node, queue },
                );
            }
        }
        let n = &mut self.nodes[node];
        if !n.tx_wire_scheduled {
            if let Some(ready) = n.nic.tx_next_wire_ready() {
                n.tx_wire_scheduled = true;
                self.queue.schedule_with_priority(
                    ready.max(now),
                    Priority::DEVICE,
                    Ev::TxWire { node },
                );
            }
        }
    }

    fn handle_tx_wire(&mut self, now: Tick, node: usize) {
        self.nodes[node].tx_wire_scheduled = false;
        let link = self.egress(Port::Nic(node));
        while let Some((_, packet)) = self.nodes[node].nic.tx_take_wire_packet(now) {
            self.tracer.emit(
                now,
                packet.id(),
                Component::Link,
                Stage::WireTx {
                    len: packet.len() as u32,
                },
            );
            self.transmit(now, link, Frame::Built(packet));
        }
        let n = &mut self.nodes[node];
        if let Some(ready) = n.nic.tx_next_wire_ready() {
            n.tx_wire_scheduled = true;
            self.queue.schedule_with_priority(
                ready.max(now + 1),
                Priority::DEVICE,
                Ev::TxWire { node },
            );
        }
        // The TX FIFO drained; the DMA engine may have stalled on it.
        self.maybe_kick_tx_dma(now, node);
    }

    /// A frame reaches the switch: forward by destination MAC (a
    /// described frame's is the one every client sends to) onto the link
    /// its route names. Unroutable frames are counted and dropped.
    fn handle_switch_rx(&mut self, now: Tick, frame: Frame) {
        let dst = match &frame {
            Frame::Built(packet) => packet.ethernet().map(|eth| eth.dst),
            Frame::Described(_) => Some(self.synthetic().dst),
        };
        match dst.and_then(|dst| self.switch.route(dst)) {
            Some(link) => self.transmit(now, link, frame),
            None => self.unroutable.inc(),
        }
    }

    /// The load generator when it drives more than one client port (an
    /// incast fan-in).
    pub fn fleet(&self) -> Option<&EtherLoadGen> {
        self.loadgen.as_ref().filter(|lg| lg.clients() > 1)
    }

    /// Registers the `system.topo` fabric statistics: switch and
    /// per-direction link counters, with per-link breakdowns behind the
    /// `full` gate. A no-op without a switch: the point-to-point and
    /// dual-mode wires belong to the frozen legacy stats surface and must
    /// not grow new keys.
    pub fn register_topo_stats(&self, reg: &mut StatsRegistry) {
        if self.switch.is_empty() {
            return;
        }
        let uplinks: Vec<&TopoLink> = self
            .links
            .iter()
            .filter(|l| matches!(l.from, Port::Client(_)))
            .map(|l| &l.wire)
            .collect();
        let downlinks: Vec<&TopoLink> = self
            .links
            .iter()
            .filter(|l| matches!(l.to, Port::Client(_)))
            .map(|l| &l.wire)
            .collect();
        reg.scoped("system.topo", |reg| {
            reg.scalar(
                "clients",
                uplinks.len() as u64,
                "fleet endpoints behind the switch",
            );
            reg.scalar(
                "unroutable",
                self.unroutable.value(),
                "frames with no switch route",
            );
            if let Some(trunk) = self.links.iter().find(|l| (l.from, l.to) == TRUNK) {
                let trunk = &trunk.wire;
                reg.scalar(
                    "trunk.txFrames",
                    trunk.frames.value(),
                    "trunk frames toward host",
                );
                reg.scalar(
                    "trunk.txBytes",
                    trunk.bytes.value(),
                    "trunk bytes toward host",
                );
                reg.scalar(
                    "trunk.tailDrops",
                    trunk.tail_drops.value(),
                    "trunk congestion-queue tail drops",
                );
                reg.scalar(
                    "trunk.lossDrops",
                    trunk.loss_drops.value(),
                    "trunk random-loss drops",
                );
                reg.scalar(
                    "trunk.queuePeak",
                    trunk.queue_peak() as u64,
                    "trunk congestion-queue high-water mark",
                );
            }
            let up_frames: u64 = uplinks.iter().map(|l| l.frames.value()).sum();
            let up_loss: u64 = uplinks.iter().map(|l| l.loss_drops.value()).sum();
            let down_frames: u64 = downlinks.iter().map(|l| l.frames.value()).sum();
            reg.scalar(
                "uplinks.txFrames",
                up_frames,
                "client uplink frames (all clients)",
            );
            reg.scalar(
                "uplinks.lossDrops",
                up_loss,
                "client uplink loss drops (all clients)",
            );
            reg.scalar(
                "downlinks.txFrames",
                down_frames,
                "client downlink frames (all clients)",
            );
            if reg.full() {
                for (i, l) in uplinks.iter().enumerate() {
                    reg.scalar(
                        &format!("uplink{i}.txFrames"),
                        l.frames.value(),
                        "client uplink frames",
                    );
                    reg.scalar(
                        &format!("uplink{i}.lossDrops"),
                        l.loss_drops.value(),
                        "client uplink loss drops",
                    );
                }
                for (i, l) in downlinks.iter().enumerate() {
                    reg.scalar(
                        &format!("downlink{i}.txFrames"),
                        l.frames.value(),
                        "client downlink frames",
                    );
                }
            }
        });
    }
}

/// A described frame on its way into a NIC, with the spec that builds it
/// if the RX FIFO admits it.
struct Deferred {
    d: Descriptor,
    spec: FrameSpec,
}

impl RxFrame for Deferred {
    fn id(&self) -> u64 {
        self.d.id
    }

    fn len(&self) -> usize {
        self.spec.len
    }

    fn queue(&self, nqueues: usize) -> usize {
        self.spec.queue(nqueues)
    }

    fn build(self) -> Packet {
        self.spec.build(&self.d)
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.queue.now())
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames ride in events by value (DESIGN §3.2), so every pending
    /// ladder entry pays for the largest variant: a node index plus a
    /// three-word `Frame`, a tag beside a two-word `Packet` or
    /// `Descriptor`, whose spare tag values hold the event's.
    #[test]
    fn events_stay_four_words() {
        let size = std::mem::size_of::<Ev>();
        assert!(size <= 32, "Ev is {size} bytes");
    }

    /// The built link tables: loadgen mode is a pair of pure wires with
    /// no switch; incast has a bounded trunk, client `c`'s access
    /// latency of base + `c` × spread, loss on uplinks only, and a route
    /// from each MAC to the link toward its owner.
    #[test]
    fn link_tables_have_the_configured_shape() {
        use crate::config::TopoConfig;
        use crate::msb::{build_loadgen_sim, AppSpec};

        let sim = build_loadgen_sim(&SystemConfig::gem5(), &AppSpec::TestPmd, 1518, 10.0);
        let ends: Vec<_> = sim.links.iter().map(|l| (l.from, l.to)).collect();
        assert_eq!(
            ends,
            [
                (Port::Client(0), Port::Nic(0)),
                (Port::Nic(0), Port::Client(0))
            ]
        );
        for l in &sim.links {
            assert_eq!(l.wire.policy().queue_frames, None);
            assert_eq!(l.wire.policy().loss_ppm, 0);
        }
        assert!(sim.switch.is_empty());

        let topo = TopoConfig::incast(8)
            .with_latency_spread(tick::us(10))
            .with_trunk_queue(64)
            .with_loss_ppm(100);
        let cfg = SystemConfig::gem5().with_topo(topo);
        let sim = build_loadgen_sim(&cfg, &AppSpec::TestPmd, 1518, 10.0);
        // The trunk pair, then an uplink and a downlink per client.
        assert_eq!(sim.links.len(), 18);
        assert_eq!((sim.links[0].from, sim.links[0].to), TRUNK);
        assert_eq!(sim.links[0].wire.policy().queue_frames, Some(64));
        let up7 = sim
            .links
            .iter()
            .find(|l| l.from == Port::Client(7))
            .unwrap();
        assert_eq!(
            up7.wire.policy().latency,
            topo.client_latency + tick::us(10) * 7
        );
        for l in &sim.links {
            let loss = if matches!(l.from, Port::Client(_)) {
                100
            } else {
                0
            };
            assert_eq!(l.wire.policy().loss_ppm, loss, "{:?} -> {:?}", l.from, l.to);
        }
        assert_eq!(sim.switch.route(cfg.nic.mac), Some(0));
        assert!(format!("{sim:?}").ends_with("nodes: 1, links: 18 }"));
        let lg = sim.fleet().unwrap();
        for c in 0..8 {
            let link = sim.switch.route(lg.client_mac(c).unwrap()).unwrap();
            assert_eq!(
                (sim.links[link].from, sim.links[link].to),
                (Port::Switch, Port::Client(c))
            );
        }
    }
}
