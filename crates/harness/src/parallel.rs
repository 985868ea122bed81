//! Parallel sharded simulation: per-node event loops with conservative
//! link-lookahead synchronization.
//!
//! The legacy [`Simulation`](crate::Simulation) drives every component
//! from one event queue on one thread. This driver decomposes the same
//! model by **topology node**: each shard (host under test, switch,
//! load generator, fleet client) owns a private [`EventQueue`], RNG
//! streams, packet-pool domain, tracer ring, and stats surface, and runs
//! on a worker thread. Shards synchronize SimBricks-style: every
//! cross-shard edge is a wire with latency `L ≥ 1`, so a shard may
//! safely execute strictly below
//! `H = min over in-edges (sender_clock + L)` without ever receiving a
//! message in its past. Cross-shard packet handoff travels lock-light
//! channels as plain bytes and rematerializes in the receiver's pool
//! domain.
//!
//! Determinism is exact, not statistical: a foreign delivery is keyed by
//! [`foreign_seq`]`(sender_rank, per-edge counter)`, which (a) never
//! consumes a local queue sequence number, so local tie-breaks are
//! untouched, and (b) orders same-tick deliveries from different senders
//! by rank. Every shard therefore executes an identical event sequence
//! regardless of how many worker threads the shards are spread over —
//! `--threads 1` and `--threads N` produce byte-identical traces, stats
//! dumps, and summaries (modulo host wall-clock).
//!
//! Known, documented divergences from the *legacy single-queue* driver
//! (all invariant across thread counts):
//! - `host_events` counts the same logical events, except that fragment
//!   samplers add `Sample` events on switch/client shards in topology
//!   mode.
//! - Packet-pool stats (Full dump only) count one extra alloc per
//!   cross-shard hop: a packet is recycled into the sender's domain and
//!   reallocated in the receiver's.
//! - The final partial-interval sample row is taken at the window end
//!   tick rather than at the globally last-executed tick.
//! - With `zipf_skew > 0` and multiple flows the legacy fleet draws all
//!   clients' flow choices from one shared RNG stream; slices draw
//!   per-client streams.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use simnet_loadgen::{ClientFleet, EtherLoadGen, FleetSnapshot, LoadGenReport};
use simnet_net::pool::{self, PoolDomain, PoolStats};
use simnet_net::topo::{Switch, TopoLink, Topology, Verdict};
use simnet_net::{MacAddr, Packet};
use simnet_sim::event::shard::{foreign_seq, horizon, ShardChannel, ShardClock};
use simnet_sim::fault::{FaultCounts, FaultInjector, FaultPlan};
use simnet_sim::stats::{Counter, DumpLevel, Profiler, SampleValue, StatsRegistry, TimeSeries};
use simnet_sim::tick::{self, Bandwidth};
use simnet_sim::trace::{Component, Stage, TraceEvent, Tracer, NO_PACKET};
use simnet_sim::{EventQueue, Priority, Tick};

use crate::config::SystemConfig;
use crate::msb::{build_loadgen, clamp_offered, host_node, AppSpec, RunConfig};
use crate::sim::{
    kind_index, sample_columns, Ev, Fabric, IntervalSampler, LinkStatsSnap, Node, SampleBaseline,
    TopoStatsSnap, PROFILE_KINDS,
};
use crate::stats_dump::{
    register_mempool, register_node_sections, register_sampler_health, render,
};
use crate::summary::RunSummary;
use crate::tracerun::ObserveOpts;

/// Events a shard executes per pump visit before yielding the thread to
/// its sibling shards (bounds per-shard latency without starving anyone).
const STEP_BATCH: usize = 256;

/// Column indices the main thread patches from fabric fragments when
/// reassembling the topology-mode time series.
const COL_TOPO_QUEUE: usize = 21;
const COL_TOPO_DROPS: usize = 22;

/// The host's hardware cores, as reported by the OS (≥ 1).
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a `--threads` request against the shard count: `0` means
/// auto-detect, and no run ever uses more threads than it has shards.
pub fn resolve_threads(requested: usize, shards: usize) -> usize {
    let t = if requested == 0 {
        auto_threads()
    } else {
        requested
    };
    t.clamp(1, shards.max(1))
}

// ---------------------------------------------------------------------
// Cross-shard wiring
// ---------------------------------------------------------------------

/// One cross-shard wire delivery: the packet as plain bytes plus the
/// arrival tick and the receiver-side event key. `seq` is a
/// [`foreign_seq`] minted by the sending edge, so same-tick deliveries
/// from different senders dispatch in (sender rank, send order) — a
/// total order independent of thread placement.
struct Msg {
    arrival: Tick,
    seq: u64,
    id: u64,
    bytes: Vec<u8>,
}

/// What a foreign delivery becomes on the receiving shard.
#[derive(Debug, Clone, Copy)]
enum InboxKind {
    /// A frame arriving at the host NIC.
    HostNic,
    /// An echo arriving back at the hardware load generator.
    LoadGen,
    /// A frame arriving at the switch.
    Switch,
    /// An echo arriving back at this shard's (single) fleet client.
    Client,
}

impl InboxKind {
    const ALL: [InboxKind; 4] = [
        InboxKind::HostNic,
        InboxKind::LoadGen,
        InboxKind::Switch,
        InboxKind::Client,
    ];

    fn from_u8(kind: u8) -> InboxKind {
        Self::ALL[kind as usize]
    }

    fn to_event(self, packet: Packet) -> Ev {
        match self {
            InboxKind::HostNic => Ev::NicRx { node: 0, packet },
            InboxKind::LoadGen => Ev::LoadGenRx { packet },
            InboxKind::Switch => Ev::SwitchRx { packet },
            InboxKind::Client => Ev::FleetRx { client: 0, packet },
        }
    }
}

/// Receiving end of a cross-shard wire, as shipped inside a
/// [`ShardSpec`] (all `Send`).
struct InWire {
    channel: Arc<ShardChannel<Msg>>,
    clock: Arc<ShardClock>,
    lookahead: Tick,
    kind: InboxKind,
}

/// Sending end of a cross-shard wire.
struct OutWire {
    channel: Arc<ShardChannel<Msg>>,
}

/// A live outbound edge on a shard thread: mints per-edge foreign
/// sequence numbers and serializes packets into the channel.
struct OutEdge {
    sender_rank: u32,
    seq: u64,
    channel: Arc<ShardChannel<Msg>>,
}

impl OutEdge {
    fn new(sender_rank: u32, wire: OutWire) -> Self {
        Self {
            sender_rank,
            seq: 0,
            channel: wire.channel,
        }
    }

    /// Hands a packet across the shard boundary: recycle the buffer into
    /// the sending domain, ship plain bytes, rematerialize on arrival.
    fn send(&mut self, arrival: Tick, packet: Packet) {
        let seq = foreign_seq(self.sender_rank, self.seq);
        self.seq += 1;
        let id = packet.id();
        self.channel.push(Msg {
            arrival,
            seq,
            id,
            bytes: packet.into_bytes(),
        });
    }
}

// ---------------------------------------------------------------------
// Shard specification (Send) and on-thread construction
// ---------------------------------------------------------------------

/// Role-specific wiring for one shard, shipped to its worker thread.
/// Model state (stacks, fleets, tracers) is deliberately **not** here:
/// shards hold `Rc`-based handles and must be constructed on the thread
/// that runs them, from this plain-data description.
enum RoleSpec {
    Host {
        out: OutWire,
        topo: bool,
    },
    LoadGen {
        out: OutWire,
    },
    Switch {
        out_host: OutWire,
        out_clients: Vec<OutWire>,
    },
    Client {
        index: usize,
        out: OutWire,
    },
}

/// Everything a worker thread needs to build one shard.
struct ShardSpec {
    rank: u32,
    cfg: SystemConfig,
    app: AppSpec,
    size: usize,
    /// Clamped offered load (aggregate, Gbps of frame bytes).
    offered: f64,
    trace: Option<(usize, u32)>,
    faults: Option<(FaultPlan, u64)>,
    stats_interval: Option<Tick>,
    profile: bool,
    clock: Arc<ShardClock>,
    ins: Vec<InWire>,
    role: RoleSpec,
}

/// A fragment sampler on a fabric-owning shard (switch or client):
/// per-interval gauges the host's sampler cannot see, joined into the
/// host's rows on the main thread.
struct FragSampler {
    interval: Tick,
    rows: Vec<FragRow>,
    last: Option<Tick>,
}

#[derive(Debug, Clone, Copy)]
struct FragRow {
    tick: Tick,
    /// Trunk congestion-queue occupancy (switch shard; 0 on clients).
    queue: u64,
    /// Cumulative drops owned by this shard since the stats reset.
    drops_cum: u64,
}

impl FragSampler {
    fn new(interval: Tick) -> Self {
        Self {
            interval,
            rows: Vec::new(),
            last: None,
        }
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.last = None;
    }
}

struct HostShard {
    node: Node,
    faults: FaultInjector,
    sampler: Option<IntervalSampler>,
    /// The host's transmit link: the host→loadgen pure wire (degenerate)
    /// or the host→switch trunk (fan-in).
    out_link: TopoLink,
    out: OutEdge,
    topo: bool,
    probe_interval: Tick,
}

struct LoadGenShard {
    lg: EtherLoadGen,
    uplink: TopoLink,
    out: OutEdge,
    tx_scheduled: bool,
}

struct SwitchShard {
    switch: Switch,
    trunk_up: TopoLink,
    downlinks: Vec<TopoLink>,
    unroutable: Counter,
    out_host: OutEdge,
    out_clients: Vec<OutEdge>,
    frag: Option<FragSampler>,
}

struct ClientShard {
    /// A one-client slice of the logical fleet (local index 0).
    fleet: ClientFleet,
    uplink: TopoLink,
    out: OutEdge,
    frag: Option<FragSampler>,
}

enum Role {
    Host(Box<HostShard>),
    LoadGen(Box<LoadGenShard>),
    Switch(Box<SwitchShard>),
    Client(Box<ClientShard>),
}

/// One shard: a private event loop over one topology node's state.
struct Shard {
    rank: u32,
    queue: EventQueue<Ev>,
    clock: Arc<ShardClock>,
    ins: Vec<InWire>,
    pool: PoolDomain,
    tracer: Tracer,
    profiler: Option<Profiler>,
    started: bool,
    inbox_buf: Vec<Msg>,
    role: Role,
}

impl Shard {
    /// Builds the shard on its worker thread. All pool allocations made
    /// during construction (ring posts, app state) land in this shard's
    /// private domain.
    fn build(spec: ShardSpec) -> Self {
        let pool = PoolDomain::new();
        let guard = pool.activate();
        let tracer = match spec.trace {
            Some((capacity, mask)) => Tracer::enabled(capacity).with_filter(mask),
            None => Tracer::disabled(),
        };
        let profiler = spec.profile.then(|| Profiler::new(PROFILE_KINDS.to_vec()));
        let cfg = &spec.cfg;
        let role = match spec.role {
            RoleSpec::Host { out, topo } => {
                let mut node = host_node(cfg, &spec.app);
                if tracer.is_enabled() {
                    node.nic.set_tracer(tracer.clone());
                    node.mem.set_tracer(tracer.clone());
                    node.stack.set_tracer(tracer.clone());
                    for w in &mut node.workers {
                        w.stack.set_tracer(tracer.clone());
                    }
                }
                let faults = match &spec.faults {
                    Some((plan, seed)) => FaultInjector::new(plan.clone(), *seed),
                    None => FaultInjector::disabled(),
                };
                node.nic.set_fault_injector(faults.clone());
                node.mem.set_fault_injector(faults.clone());
                let out_link = if topo {
                    // Host→switch trunk: link index 1 of the incast order.
                    incast_link(cfg, 1)
                } else {
                    // Host→loadgen pure wire: link index 1 of the pair.
                    p2p_link(cfg, 1)
                };
                Role::Host(Box::new(HostShard {
                    node,
                    faults,
                    sampler: spec.stats_interval.map(IntervalSampler::new),
                    out_link,
                    out: OutEdge::new(spec.rank, out),
                    topo,
                    probe_interval: tick::us(10),
                }))
            }
            RoleSpec::LoadGen { out } => {
                let mut lg = build_loadgen(cfg, &spec.app, spec.size, spec.offered);
                if tracer.is_enabled() {
                    lg.set_tracer(tracer.clone());
                }
                Role::LoadGen(Box::new(LoadGenShard {
                    lg,
                    uplink: p2p_link(cfg, 0),
                    out: OutEdge::new(spec.rank, out),
                    tx_scheduled: false,
                }))
            }
            RoleSpec::Switch {
                out_host,
                out_clients,
            } => {
                let mut switch = Switch::new();
                switch.add_route(cfg.nic.mac, 0);
                for i in 0..cfg.topo.clients {
                    switch.add_route(
                        MacAddr::simulated(simnet_loadgen::fleet::CLIENT_MAC_BASE + i as u32),
                        i + 1,
                    );
                }
                let downlinks = (0..cfg.topo.clients)
                    .map(|i| incast_link(cfg, 2 + 2 * i + 1))
                    .collect();
                Role::Switch(Box::new(SwitchShard {
                    switch,
                    trunk_up: incast_link(cfg, 0),
                    downlinks,
                    unroutable: Counter::new(),
                    out_host: OutEdge::new(spec.rank, out_host),
                    out_clients: out_clients
                        .into_iter()
                        .map(|w| OutEdge::new(spec.rank, w))
                        .collect(),
                    frag: spec.stats_interval.map(FragSampler::new),
                }))
            }
            RoleSpec::Client { index, out } => {
                let mut fleet = ClientFleet::fixed_rate_slice(
                    1,
                    cfg.topo.clients,
                    index,
                    spec.size,
                    Bandwidth::gbps(spec.offered),
                    cfg.nic.mac,
                    cfg.seed ^ 0x10AD,
                )
                .with_flows(cfg.topo.flows_per_client, cfg.topo.zipf_skew);
                if tracer.is_enabled() {
                    fleet.set_tracer(tracer.clone());
                }
                Role::Client(Box::new(ClientShard {
                    fleet,
                    uplink: incast_link(cfg, 2 + 2 * index),
                    out: OutEdge::new(spec.rank, out),
                    frag: spec.stats_interval.map(FragSampler::new),
                }))
            }
        };
        drop(guard);
        Shard {
            rank: spec.rank,
            queue: EventQueue::new(),
            clock: spec.clock,
            ins: spec.ins,
            pool,
            tracer,
            profiler,
            started: false,
            inbox_buf: Vec::new(),
            role,
        }
    }

    /// Seeds the shard's initial events — the per-node slice of
    /// `Simulation::start`.
    fn start(&mut self) {
        match &mut self.role {
            Role::Host(h) => {
                for lcore in 0..h.node.lcores() {
                    self.queue.schedule_with_priority(
                        0,
                        Priority::CPU,
                        Ev::Software { node: 0, lcore },
                    );
                    h.node.sw_scheduled[lcore] = true;
                }
                if self.tracer.is_enabled() {
                    self.queue.schedule_with_priority(
                        h.probe_interval,
                        Priority::MAXIMUM,
                        Ev::Probe,
                    );
                }
                if let Some(sampler) = &h.sampler {
                    self.queue.schedule_with_priority(
                        sampler.interval,
                        Priority::MAXIMUM,
                        Ev::Sample,
                    );
                }
            }
            Role::LoadGen(l) => {
                if let Some(t) = l.lg.next_departure(0) {
                    self.queue.schedule(t, Ev::LoadGenTx);
                    l.tx_scheduled = true;
                }
            }
            Role::Switch(s) => {
                if let Some(frag) = &s.frag {
                    self.queue
                        .schedule_with_priority(frag.interval, Priority::MAXIMUM, Ev::Sample);
                }
            }
            Role::Client(c) => {
                self.queue
                    .schedule(c.fleet.next_departure(0), Ev::FleetTx { client: 0 });
                if let Some(frag) = &c.frag {
                    self.queue
                        .schedule_with_priority(frag.interval, Priority::MAXIMUM, Ev::Sample);
                }
            }
        }
    }

    fn horizon(&self) -> Tick {
        let edges: Vec<(Arc<ShardClock>, Tick)> = self
            .ins
            .iter()
            .map(|e| (Arc::clone(&e.clock), e.lookahead))
            .collect();
        horizon(&edges)
    }

    /// One bounded pump visit: drain inboxes, execute up to `batch`
    /// events strictly below the conservative horizon (and ≤ `end`),
    /// then publish the shard's new lower-bound promise. Returns
    /// `(progressed, done)` where `done` means this shard can execute
    /// nothing more at or before `end` and no message at or before `end`
    /// can still arrive.
    fn step(&mut self, end: Tick, batch: usize) -> (bool, bool) {
        let _guard = self.pool.activate();
        if !self.started {
            self.started = true;
            self.start();
        }
        // Read the horizon once, BEFORE draining, and use that one value
        // for the execution limit, the published promise and the done
        // check. Every message that can arrive below `h0` was pushed
        // before its sender published the clock `h0` was computed from,
        // so the drain below sees it. A second read after the drain could
        // admit a message pushed in between, still sitting in the
        // channel, and the shard would execute and promise past it
        // (DESIGN.md §3.6).
        let h0 = self.horizon();
        let mut drained = 0u64;
        for i in 0..self.ins.len() {
            self.inbox_buf.clear();
            self.ins[i].channel.drain_into(&mut self.inbox_buf);
            let kind = self.ins[i].kind as u8;
            for msg in self.inbox_buf.drain(..) {
                drained += 1;
                // The packet stays as bytes until the event executes:
                // rematerializing here would make the receiving pool's
                // alloc counters depend on worker drain timing instead
                // of on the (deterministic) event schedule.
                self.queue.schedule_foreign(
                    msg.arrival,
                    Priority::LINK,
                    msg.seq,
                    Ev::ShardRx {
                        kind,
                        id: msg.id,
                        bytes: msg.bytes,
                    },
                );
            }
        }
        // Execute strictly below the horizon: an event AT the horizon
        // could still be preceded by a same-tick foreign delivery.
        let limit = end.min(h0.saturating_sub(1));
        let mut executed = 0usize;
        let mut progressed = drained > 0;
        while executed < batch {
            let Some(event) = self.queue.pop_until(limit) else {
                break;
            };
            if self.profiler.is_some() {
                // Materialization inside the timed region: the arrival's
                // pool alloc is honest per-event work, and the concrete
                // payload yields the attribution kind.
                let t0 = Instant::now();
                let payload = Self::materialize(event.payload);
                let kind = kind_index(&payload);
                Self::dispatch(
                    &mut self.queue,
                    &mut self.role,
                    &self.tracer,
                    event.tick,
                    payload,
                );
                let nanos = t0.elapsed().as_nanos() as u64;
                if let Some(p) = &mut self.profiler {
                    p.record(kind, nanos);
                }
            } else {
                let payload = Self::materialize(event.payload);
                Self::dispatch(
                    &mut self.queue,
                    &mut self.role,
                    &self.tracer,
                    event.tick,
                    payload,
                );
            }
            executed += 1;
            progressed = true;
        }
        // Publish the promise AFTER outbound pushes: a reader that
        // observes the new clock value is guaranteed (Release/Acquire)
        // to also observe every message sent below it. An idle shard
        // promises its own horizon, chaining lower bounds forward so
        // clocks advance at least one min-latency per round without
        // null messages.
        let next_local = self.queue.peek_tick().unwrap_or(Tick::MAX);
        self.clock.publish(next_local.min(h0));
        let done = drained == 0 && h0 > end && self.queue.peek_tick().is_none_or(|t| t > end);
        (progressed, done)
    }

    /// Rematerializes an in-flight cross-shard delivery into its concrete
    /// arrival event (allocating in the active — receiving — pool
    /// domain); every other payload passes through.
    fn materialize(payload: Ev) -> Ev {
        match payload {
            Ev::ShardRx { kind, id, bytes } => {
                InboxKind::from_u8(kind).to_event(Packet::from_bytes(id, bytes))
            }
            p => p,
        }
    }

    fn dispatch(
        queue: &mut EventQueue<Ev>,
        role: &mut Role,
        tracer: &Tracer,
        now: Tick,
        payload: Ev,
    ) {
        match role {
            Role::Host(h) => h.dispatch(queue, tracer, now, payload),
            Role::LoadGen(l) => match payload {
                Ev::LoadGenTx => l.handle_tx(queue, tracer, now),
                Ev::LoadGenRx { packet } => l.handle_rx(queue, tracer, now, packet),
                other => unreachable_ev("loadgen", &other),
            },
            Role::Switch(s) => match payload {
                Ev::SwitchRx { packet } => s.handle_rx(now, packet),
                Ev::Sample => {
                    s.sample(now);
                    let interval = s.frag.as_ref().expect("sample implies sampler").interval;
                    queue.schedule_with_priority(now + interval, Priority::MAXIMUM, Ev::Sample);
                }
                other => unreachable_ev("switch", &other),
            },
            Role::Client(c) => match payload {
                Ev::FleetTx { client: 0 } => c.handle_tx(queue, tracer, now),
                Ev::FleetRx { client: 0, packet } => c.handle_rx(tracer, now, packet),
                Ev::Sample => {
                    c.sample(now);
                    let interval = c.frag.as_ref().expect("sample implies sampler").interval;
                    queue.schedule_with_priority(now + interval, Priority::MAXIMUM, Ev::Sample);
                }
                other => unreachable_ev("client", &other),
            },
        }
    }

    /// Per-shard slice of `Simulation::reset_stats` (end of warm-up).
    fn reset(&mut self) {
        let _guard = self.pool.activate();
        pool::reset_stats();
        match &mut self.role {
            Role::Host(h) => {
                let node = &mut h.node;
                node.nic.reset_stats();
                node.nic.pci_config().stats().reset();
                node.mem.reset_stats();
                node.core.reset_stats();
                node.stack.reset_stats();
                for w in &mut node.workers {
                    w.core.reset_stats();
                    w.stack.reset_stats();
                }
                h.out_link.reset_stats();
                h.faults.reset_counts();
                if let Some(sampler) = &mut h.sampler {
                    sampler.series.clear();
                    sampler.prev = SampleBaseline::default();
                    sampler.last_sample = None;
                }
            }
            Role::LoadGen(l) => {
                l.lg.reset_stats();
                l.uplink.reset_stats();
            }
            Role::Switch(s) => {
                s.trunk_up.reset_stats();
                for link in &mut s.downlinks {
                    link.reset_stats();
                }
                s.unroutable.reset();
                if let Some(frag) = &mut s.frag {
                    frag.clear();
                }
            }
            Role::Client(c) => {
                c.fleet.reset_stats();
                c.uplink.reset_stats();
                if let Some(frag) = &mut c.frag {
                    frag.clear();
                }
            }
        }
    }

    /// Detaches everything the main thread needs, finalizing any
    /// sampler with a partial-interval row at the window end.
    fn extract(&mut self, now_global: Tick, start: Tick, end: Tick) -> ShardReport {
        let _guard = self.pool.activate();
        let trace = self.tracer.take();
        let evicted = self.tracer.evicted();
        let profile = self.profiler.take().map(|mut p| {
            // The shard profiler's "loop" is exactly its dispatches; the
            // pump/idle remainder is accounted by the thread's sync
            // profiler, so the merged report attributes 100%.
            let attributed = p.attributed_nanos();
            p.add_loop_nanos(attributed);
            p
        });
        let detail = match &mut self.role {
            Role::Host(h) => {
                if h.sampler
                    .as_ref()
                    .is_some_and(|s| s.last_sample != Some(end))
                {
                    h.sample_row(end);
                }
                let n = &h.node;
                let fsm = n.nic.drop_fsm();
                let mut reg_compat = StatsRegistry::with_level(DumpLevel::Compat);
                register_node_sections(n, now_global, &h.faults, &mut reg_compat);
                let mut reg_full = StatsRegistry::with_level(DumpLevel::Full);
                register_node_sections(n, now_global, &h.faults, &mut reg_full);
                let ring = (n.nic.config().rx_ring_size * n.nic.num_queues()).max(1);
                RoleReport::Host(Box::new(HostReport {
                    reg_compat,
                    reg_full,
                    fault_counts: h.faults.counts(),
                    series: h.sampler.take().map(|s| s.series),
                    drop_rate: fsm.drop_rate(),
                    drop_breakdown: fsm.breakdown(),
                    drop_counts: (
                        fsm.dma_drops.value(),
                        fsm.core_drops.value(),
                        fsm.tx_drops.value(),
                    ),
                    fault_drops: fsm.fault_drops.value(),
                    llc_miss_rate: n.mem.llc_stats().core_miss_rate(),
                    row_hit_rate: n.mem.dram_stats().row_hit_rate(),
                    rx_backlog_ratio: n.nic.rx_visible_len() as f64 / ring as f64,
                }))
            }
            Role::LoadGen(l) => {
                let mut reg_compat = StatsRegistry::with_level(DumpLevel::Compat);
                l.lg.register_stats(now_global, &mut reg_compat);
                let mut reg_full = StatsRegistry::with_level(DumpLevel::Full);
                l.lg.register_stats(now_global, &mut reg_full);
                RoleReport::LoadGen(Box::new(LoadGenShardReport {
                    report: l.lg.report(start, end),
                    reg_compat,
                    reg_full,
                }))
            }
            Role::Switch(s) => {
                if s.frag.as_ref().is_some_and(|f| f.last != Some(end)) {
                    s.sample(end);
                }
                RoleReport::Switch(Box::new(SwitchReport {
                    trunk: LinkStatsSnap::of(&s.trunk_up),
                    downlinks: s.downlinks.iter().map(LinkStatsSnap::of).collect(),
                    unroutable: s.unroutable.value(),
                    frag: s.frag.take().map(|f| f.rows).unwrap_or_default(),
                }))
            }
            Role::Client(c) => {
                if c.frag.as_ref().is_some_and(|f| f.last != Some(end)) {
                    c.sample(end);
                }
                RoleReport::Client(Box::new(ClientReport {
                    uplink: LinkStatsSnap::of(&c.uplink),
                    snapshot: c.fleet.snapshot(),
                    frag: c.frag.take().map(|f| f.rows).unwrap_or_default(),
                }))
            }
        };
        ShardReport {
            rank: self.rank,
            trace,
            evicted,
            profile,
            pool: self.pool.stats(),
            detail,
        }
    }
}

#[cold]
fn unreachable_ev(role: &str, ev: &Ev) -> ! {
    unreachable!("event {ev:?} cannot occur on a {role} shard")
}

/// The shard's private rebuild of the degenerate point-to-point fabric
/// link `index`, seeded exactly as [`Fabric::point_to_point`].
fn p2p_link(cfg: &SystemConfig, index: usize) -> TopoLink {
    let topo = Topology::point_to_point(cfg.link_bandwidth, cfg.link_latency);
    TopoLink::new(
        topo.links()[index].policy,
        Fabric::link_seed(cfg.seed, index),
    )
}

/// The shard's private rebuild of incast fabric link `index`, seeded
/// exactly as [`Fabric::incast`].
fn incast_link(cfg: &SystemConfig, index: usize) -> TopoLink {
    let t = &cfg.topo;
    let topo = Topology::incast(
        t.clients,
        cfg.link_bandwidth,
        t.client_latency,
        t.latency_spread,
        t.trunk_latency,
        t.trunk_queue_frames,
        t.loss_ppm,
    );
    TopoLink::new(
        topo.links()[index].policy,
        Fabric::link_seed(cfg.seed, index),
    )
}

// ---------------------------------------------------------------------
// Per-role handlers (ported verbatim from `Simulation`, minus the
// capture tap, which the sharded driver does not support)
// ---------------------------------------------------------------------

impl HostShard {
    fn dispatch(&mut self, queue: &mut EventQueue<Ev>, tracer: &Tracer, now: Tick, payload: Ev) {
        match payload {
            Ev::NicRx { node: 0, packet } => self.handle_nic_rx(queue, tracer, now, packet),
            Ev::RxDma { node: 0, queue: q } => self.handle_rx_dma(queue, now, q),
            Ev::TxDma { node: 0, queue: q } => self.handle_tx_dma(queue, now, q),
            Ev::TxWire { node: 0 } => self.handle_tx_wire(queue, tracer, now),
            Ev::Software { node: 0, lcore } => self.handle_software(queue, now, lcore),
            Ev::Probe => self.handle_probe(queue, tracer, now),
            Ev::Sample => self.handle_sample(queue, now),
            other => unreachable_ev("host", &other),
        }
    }

    fn handle_nic_rx(
        &mut self,
        queue: &mut EventQueue<Ev>,
        tracer: &Tracer,
        now: Tick,
        packet: Packet,
    ) {
        tracer.emit(now, packet.id(), Component::Link, Stage::WireRx);
        let _ = self.node.nic.wire_rx(now, packet);
        self.maybe_kick_rx_dma(queue, now);
    }

    fn maybe_kick_rx_dma(&mut self, queue: &mut EventQueue<Ev>, now: Tick) {
        // Evaluate unconditionally: `rx_dma_needs_kick_q` also settles
        // time-deferred descriptor posts, which the drop-classification
        // FSM must observe at packet-arrival granularity.
        for q in 0..self.node.nic.num_queues() {
            let needs = self.node.nic.rx_dma_needs_kick_q(q, now);
            if !self.node.rx_dma_scheduled[q] && needs {
                self.node.rx_dma_scheduled[q] = true;
                queue.schedule_with_priority(now, Priority::DMA, Ev::RxDma { node: 0, queue: q });
            }
        }
    }

    fn maybe_kick_tx_dma(&mut self, queue: &mut EventQueue<Ev>, at: Tick) {
        for q in 0..self.node.nic.num_queues() {
            if !self.node.tx_dma_scheduled[q] && self.node.nic.tx_dma_needs_kick_q(q) {
                self.node.tx_dma_scheduled[q] = true;
                queue.schedule_with_priority(
                    at.max(queue.now()),
                    Priority::DMA,
                    Ev::TxDma { node: 0, queue: q },
                );
            }
        }
    }

    fn handle_rx_dma(&mut self, queue: &mut EventQueue<Ev>, now: Tick, q: usize) {
        self.node.rx_dma_scheduled[q] = false;
        let n = &mut self.node;
        let next = n.nic.rx_dma_advance_q(q, now, &mut n.mem);
        if let Some(next) = next {
            n.rx_dma_scheduled[q] = true;
            queue.schedule_with_priority(
                next.max(now),
                Priority::DMA,
                Ev::RxDma { node: 0, queue: q },
            );
        } else if n.nic.rx_dma_needs_kick_q(q, now) {
            // Work is pending but the engine refused to start — a cleared
            // bus-master enable. Retry when the fault window closes.
            if let Some(end) = self.faults.master_window_end(now) {
                n.rx_dma_scheduled[q] = true;
                queue.schedule_with_priority(
                    end.max(now + 1),
                    Priority::DMA,
                    Ev::RxDma { node: 0, queue: q },
                );
            }
        }
        self.wake_software_for_rx(queue, now);
    }

    fn wake_software_for_rx(&mut self, queue: &mut EventQueue<Ev>, now: Tick) {
        for lcore in 0..self.node.lcores() {
            let n = &self.node;
            if !n.sw_waiting[lcore] || n.sw_scheduled[lcore] {
                continue;
            }
            let Some(visible) = n.rx_next_visible_for(lcore) else {
                continue;
            };
            let at = visible.max(now) + n.wakeup_latency_of(lcore);
            let n = &mut self.node;
            n.sw_waiting[lcore] = false;
            n.sw_scheduled[lcore] = true;
            queue.schedule_with_priority(at, Priority::CPU, Ev::Software { node: 0, lcore });
        }
    }

    fn handle_software(&mut self, queue: &mut EventQueue<Ev>, now: Tick, lcore: usize) {
        self.node.sw_scheduled[lcore] = false;
        let iteration = self.node.run_lcore(now, lcore);
        let end = iteration.end.max(now);

        self.maybe_kick_tx_dma(queue, end);
        self.maybe_kick_rx_dma(queue, end);

        let n = &mut self.node;
        if !iteration.idle {
            n.sw_scheduled[lcore] = true;
            queue.schedule_with_priority(end, Priority::CPU, Ev::Software { node: 0, lcore });
            return;
        }

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
                queue.schedule_with_priority(
                    at.max(end),
                    Priority::CPU,
                    Ev::Software { node: 0, lcore },
                );
            }
            None => n.sw_waiting[lcore] = true,
        }
    }

    fn handle_tx_dma(&mut self, queue: &mut EventQueue<Ev>, now: Tick, q: usize) {
        self.node.tx_dma_scheduled[q] = false;
        let n = &mut self.node;
        if let Some(next) = n.nic.tx_dma_advance_q(q, now, &mut n.mem) {
            n.tx_dma_scheduled[q] = true;
            queue.schedule_with_priority(
                next.max(now),
                Priority::DMA,
                Ev::TxDma { node: 0, queue: q },
            );
        } else if n.nic.tx_dma_needs_kick_q(q) {
            if let Some(end) = self.faults.master_window_end(now) {
                n.tx_dma_scheduled[q] = true;
                queue.schedule_with_priority(
                    end.max(now + 1),
                    Priority::DMA,
                    Ev::TxDma { node: 0, queue: q },
                );
            }
        }
        let n = &mut self.node;
        if !n.tx_wire_scheduled {
            if let Some(ready) = n.nic.tx_next_wire_ready() {
                n.tx_wire_scheduled = true;
                queue.schedule_with_priority(
                    ready.max(now),
                    Priority::DEVICE,
                    Ev::TxWire { node: 0 },
                );
            }
        }
    }

    fn handle_tx_wire(&mut self, queue: &mut EventQueue<Ev>, tracer: &Tracer, now: Tick) {
        self.node.tx_wire_scheduled = false;
        while let Some((_, packet)) = self.node.nic.tx_take_wire_packet(now) {
            tracer.emit(
                now,
                packet.id(),
                Component::Link,
                Stage::WireTx {
                    len: packet.len() as u32,
                },
            );
            if self.topo {
                // Fan-in topology: host→switch trunk (may tail-drop).
                if let Verdict::Deliver(arrival) = self.out_link.transmit(now, packet.len()) {
                    self.out.send(arrival, packet);
                }
            } else {
                // Degenerate topology: host→loadgen pure wire fast path.
                let arrival = self.out_link.transmit_wire(now, packet.len());
                self.out.send(arrival, packet);
            }
        }
        let n = &mut self.node;
        if let Some(ready) = n.nic.tx_next_wire_ready() {
            n.tx_wire_scheduled = true;
            queue.schedule_with_priority(
                ready.max(now + 1),
                Priority::DEVICE,
                Ev::TxWire { node: 0 },
            );
        }
        // The TX FIFO drained; the DMA engine may have stalled on it.
        self.maybe_kick_tx_dma(queue, now);
    }

    fn handle_probe(&mut self, queue: &mut EventQueue<Ev>, tracer: &Tracer, now: Tick) {
        let node = &self.node;
        tracer.emit(
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
        tracer.emit(
            now,
            NO_PACKET,
            Component::Sim,
            Stage::ProbeCache { lookups, misses },
        );
        queue.schedule_with_priority(now + self.probe_interval, Priority::MAXIMUM, Ev::Probe);
    }

    /// The host's slice of `Simulation::sample_row`. The fabric columns
    /// (trunk occupancy, topology drops) belong to the switch and client
    /// shards; the host writes their degenerate-mode values (0 — pure
    /// wires never queue or drop) and the main thread patches the
    /// fan-in values in from the fragment samplers.
    fn sample_row(&mut self, now: Tick) {
        let Some(sampler) = &mut self.sampler else {
            return;
        };
        let n = &self.node;
        let fsm = n.nic.drop_fsm();
        let cur = SampleBaseline {
            dma_drops: fsm.dma_drops.value(),
            core_drops: fsm.core_drops.value(),
            tx_drops: fsm.tx_drops.value(),
            fault_drops: fsm.fault_drops.value(),
            faults: self.faults.counts().total(),
            topo_drops: 0,
        };
        let prev = sampler.prev;
        let ns = n.nic.stats();
        let llc = n.mem.llc_stats();
        let core = n.core.stats();
        let fifo_used = n.nic.rx_fifo_used();
        let fifo_cap = n.nic.rx_fifo_capacity();
        let pool = pool::stats();
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
            SampleValue::Int(0),
            SampleValue::Int(0),
        ]);
        sampler.prev = cur;
        sampler.last_sample = Some(now);
    }

    fn handle_sample(&mut self, queue: &mut EventQueue<Ev>, now: Tick) {
        self.sample_row(now);
        if let Some(sampler) = &self.sampler {
            queue.schedule_with_priority(now + sampler.interval, Priority::MAXIMUM, Ev::Sample);
        }
    }
}

impl LoadGenShard {
    fn handle_tx(&mut self, queue: &mut EventQueue<Ev>, tracer: &Tracer, now: Tick) {
        self.tx_scheduled = false;
        let Some(packet) = self.lg.take_packet(now) else {
            return;
        };
        tracer.emit(
            now,
            packet.id(),
            Component::Link,
            Stage::WireTx {
                len: packet.len() as u32,
            },
        );
        // The degenerate uplink is statically a pure wire.
        let arrival = self.uplink.transmit_wire(now, packet.len());
        self.out.send(arrival, packet);
        if let Some(next) = self.lg.next_departure(now) {
            queue.schedule(next.max(now), Ev::LoadGenTx);
            self.tx_scheduled = true;
        }
    }

    fn handle_rx(
        &mut self,
        queue: &mut EventQueue<Ev>,
        tracer: &Tracer,
        now: Tick,
        packet: Packet,
    ) {
        tracer.emit(now, packet.id(), Component::Link, Stage::WireRx);
        self.lg.on_rx(now, &packet);
        // A response can open a closed-loop window earlier than any
        // already-scheduled departure, so an unblocked generator always
        // gets a fresh event (a spurious firing is harmless).
        if !self.tx_scheduled || self.lg.unblocked() {
            if let Some(next) = self.lg.next_departure(now) {
                queue.schedule(next.max(now), Ev::LoadGenTx);
                self.tx_scheduled = true;
            }
        }
    }
}

impl SwitchShard {
    fn handle_rx(&mut self, now: Tick, packet: Packet) {
        let port = packet.ethernet().and_then(|eth| self.switch.route(eth.dst));
        match port {
            None => self.unroutable.inc(),
            Some(0) => {
                if let Verdict::Deliver(arrival) = self.trunk_up.transmit(now, packet.len()) {
                    self.out_host.send(arrival, packet);
                }
            }
            Some(port) => {
                let client = port - 1;
                if let Verdict::Deliver(arrival) =
                    self.downlinks[client].transmit(now, packet.len())
                {
                    self.out_clients[client].send(arrival, packet);
                }
            }
        }
    }

    /// Cumulative drops this shard owns: trunk tail+loss, downlink
    /// tail+loss, and unroutable frames.
    fn drops_cum(&self) -> u64 {
        self.trunk_up.tail_drops.value()
            + self.trunk_up.loss_drops.value()
            + self
                .downlinks
                .iter()
                .map(|l| l.tail_drops.value() + l.loss_drops.value())
                .sum::<u64>()
            + self.unroutable.value()
    }

    fn sample(&mut self, now: Tick) {
        let queue = self.trunk_up.occupancy(now) as u64;
        let drops_cum = self.drops_cum();
        if let Some(frag) = &mut self.frag {
            frag.rows.push(FragRow {
                tick: now,
                queue,
                drops_cum,
            });
            frag.last = Some(now);
        }
    }
}

impl ClientShard {
    fn handle_tx(&mut self, queue: &mut EventQueue<Ev>, tracer: &Tracer, now: Tick) {
        let packet = self.fleet.take_packet(0, now);
        tracer.emit(
            now,
            packet.id(),
            Component::Link,
            Stage::WireTx {
                len: packet.len() as u32,
            },
        );
        if let Verdict::Deliver(arrival) = self.uplink.transmit(now, packet.len()) {
            self.out.send(arrival, packet);
        }
        queue.schedule(
            self.fleet.next_departure(0).max(now),
            Ev::FleetTx { client: 0 },
        );
    }

    fn handle_rx(&mut self, tracer: &Tracer, now: Tick, packet: Packet) {
        tracer.emit(now, packet.id(), Component::Link, Stage::WireRx);
        self.fleet.on_rx(0, now, &packet);
    }

    fn sample(&mut self, now: Tick) {
        let drops_cum = self.uplink.tail_drops.value() + self.uplink.loss_drops.value();
        if let Some(frag) = &mut self.frag {
            frag.rows.push(FragRow {
                tick: now,
                queue: 0,
                drops_cum,
            });
            frag.last = Some(now);
        }
    }
}

// ---------------------------------------------------------------------
// Worker protocol
// ---------------------------------------------------------------------

enum Cmd {
    Run {
        end: Tick,
    },
    Reset,
    Extract {
        now_global: Tick,
        start: Tick,
        end: Tick,
    },
}

enum Reply {
    RunDone {
        /// `(rank, now, executed)` per owned shard.
        shards: Vec<(u32, Tick, u64)>,
    },
    ResetDone,
    Extracted {
        reports: Vec<ShardReport>,
        sync_profile: Option<Profiler>,
    },
    /// The worker panicked; the payload is re-raised on the driver.
    Panicked(Box<dyn std::any::Any + Send>),
}

struct ShardReport {
    rank: u32,
    trace: Vec<TraceEvent>,
    evicted: u64,
    profile: Option<Profiler>,
    pool: PoolStats,
    detail: RoleReport,
}

enum RoleReport {
    Host(Box<HostReport>),
    LoadGen(Box<LoadGenShardReport>),
    Switch(Box<SwitchReport>),
    Client(Box<ClientReport>),
}

struct HostReport {
    reg_compat: StatsRegistry,
    reg_full: StatsRegistry,
    fault_counts: FaultCounts,
    series: Option<TimeSeries>,
    drop_rate: f64,
    drop_breakdown: (f64, f64, f64),
    drop_counts: (u64, u64, u64),
    fault_drops: u64,
    llc_miss_rate: f64,
    row_hit_rate: f64,
    rx_backlog_ratio: f64,
}

struct LoadGenShardReport {
    report: LoadGenReport,
    reg_compat: StatsRegistry,
    reg_full: StatsRegistry,
}

struct SwitchReport {
    trunk: LinkStatsSnap,
    downlinks: Vec<LinkStatsSnap>,
    unroutable: u64,
    frag: Vec<FragRow>,
}

struct ClientReport {
    uplink: LinkStatsSnap,
    snapshot: FleetSnapshot,
    frag: Vec<FragRow>,
}

/// The worker-thread body. A panic anywhere in [`serve`] raises `abort`,
/// so sibling workers stop waiting on this thread's shards, and ships
/// the payload to the driver, which re-raises it.
fn worker(
    specs: Vec<ShardSpec>,
    cmds: mpsc::Receiver<Cmd>,
    replies: mpsc::Sender<Reply>,
    abort: Arc<AtomicBool>,
) {
    let served = catch_unwind(AssertUnwindSafe(|| {
        serve(specs, &cmds, &replies, &abort);
    }));
    if let Err(payload) = served {
        abort.store(true, Ordering::Relaxed);
        let _ = replies.send(Reply::Panicked(payload));
    }
}

/// The worker-thread pump: builds its shards on-thread, then serves
/// commands until the driver hangs up, round-robining bounded batches
/// over its shards during a `Run` until every owned shard is done with
/// the window. Returns early when a sibling worker panicked.
fn serve(
    specs: Vec<ShardSpec>,
    cmds: &mpsc::Receiver<Cmd>,
    replies: &mpsc::Sender<Reply>,
    abort: &AtomicBool,
) {
    let profile = specs.iter().any(|s| s.profile);
    let mut shards: Vec<Shard> = specs.into_iter().map(Shard::build).collect();
    let mut sync_prof = profile.then(|| Profiler::new(vec![("sync_idle", "sim")]));
    for cmd in cmds.iter() {
        match cmd {
            Cmd::Run { end } => {
                let t0 = Instant::now();
                let attr0: u64 = shards
                    .iter()
                    .map(|s| s.profiler.as_ref().map_or(0, Profiler::attributed_nanos))
                    .sum();
                let mut done = vec![false; shards.len()];
                while !done.iter().all(|d| *d) {
                    if abort.load(Ordering::Relaxed) {
                        return;
                    }
                    let mut any = false;
                    for (i, shard) in shards.iter_mut().enumerate() {
                        if done[i] {
                            continue;
                        }
                        let (progressed, d) = shard.step(end, STEP_BATCH);
                        done[i] = d;
                        any |= progressed;
                    }
                    if !any {
                        std::thread::yield_now();
                    }
                }
                if let Some(p) = &mut sync_prof {
                    let wall = t0.elapsed().as_nanos() as u64;
                    let attr1: u64 = shards
                        .iter()
                        .map(|s| s.profiler.as_ref().map_or(0, Profiler::attributed_nanos))
                        .sum();
                    let sync = wall.saturating_sub(attr1 - attr0);
                    p.record_bulk(0, 1, sync);
                    p.add_loop_nanos(sync);
                }
                let shard_states = shards
                    .iter()
                    .map(|s| (s.rank, s.queue.now(), s.queue.executed_count()))
                    .collect();
                let _ = replies.send(Reply::RunDone {
                    shards: shard_states,
                });
            }
            Cmd::Reset => {
                for shard in &mut shards {
                    shard.reset();
                }
                let _ = replies.send(Reply::ResetDone);
            }
            Cmd::Extract {
                now_global,
                start,
                end,
            } => {
                let reports = shards
                    .iter_mut()
                    .map(|s| s.extract(now_global, start, end))
                    .collect();
                let _ = replies.send(Reply::Extracted {
                    reports,
                    sync_profile: sync_prof.take(),
                });
            }
        }
    }
}

/// The driver's handle on its worker threads.
struct Workers {
    cmds: Vec<mpsc::Sender<Cmd>>,
    replies: mpsc::Receiver<Reply>,
    handles: Vec<JoinHandle<()>>,
}

impl Workers {
    fn broadcast(&self, make: impl Fn() -> Cmd) {
        for tx in &self.cmds {
            // A worker that panicked has hung up; its `Panicked` reply is
            // already queued for `collect`.
            let _ = tx.send(make());
        }
    }

    /// One reply from every worker. A worker's panic is re-raised here,
    /// with the worker's own payload, once every worker has stopped:
    /// hanging up ends idle workers' command loops, and the abort flag
    /// the panicking worker raised ends busy ones.
    fn collect(&mut self) -> Vec<Reply> {
        let mut out = Vec::with_capacity(self.handles.len());
        while out.len() < self.handles.len() {
            match self.replies.recv_timeout(Duration::from_secs(600)) {
                Ok(Reply::Panicked(payload)) => {
                    self.cmds.clear();
                    for h in self.handles.drain(..) {
                        let _ = h.join();
                    }
                    resume_unwind(payload);
                }
                Ok(reply) => out.push(reply),
                Err(e) => panic!("no reply from the shard workers within 10 minutes: {e}"),
            }
        }
        out
    }

    /// The `(rank, now, executed)` states of every shard after a `Run`.
    fn collect_run(&mut self) -> Vec<(u32, Tick, u64)> {
        let mut states = Vec::new();
        for reply in self.collect() {
            match reply {
                Reply::RunDone { shards } => states.extend(shards),
                _ => panic!("expected RunDone"),
            }
        }
        states
    }

    /// Hangs up on the workers and joins them.
    fn shutdown(mut self) {
        self.cmds.clear();
        for h in self.handles.drain(..) {
            h.join().expect("worker thread exited cleanly");
        }
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// An observed parallel run: everything [`ObservedRun`]
/// (`crate::tracerun::ObservedRun`) carries, plus the rendered stats
/// dumps (the shards are gone once the run returns, so the dump cannot
/// be rebuilt later) and the realized parallelism.
#[derive(Debug)]
pub struct ParallelOutcome {
    /// The ordinary measurement summary.
    pub summary: RunSummary,
    /// Merged lifecycle trace: per-shard streams (each nondecreasing in
    /// tick) k-way merged by `(tick, shard rank)`.
    pub events: Vec<TraceEvent>,
    /// Trace-ring evictions summed over shards.
    pub evicted: u64,
    /// Fault counters from the host shard's injector.
    pub fault_counts: FaultCounts,
    /// Reassembled interval time series, when sampling was on.
    pub timeseries: Option<TimeSeries>,
    /// Merged profile (per-shard dispatch kinds + per-thread sync/idle),
    /// when profiling was on. Attribution sums to 100% of thread time.
    pub profile: Option<Profiler>,
    /// The Compat-level stats dump (legacy surface).
    pub stats_compat: String,
    /// The Full-level stats dump.
    pub stats_full: String,
    /// Worker threads actually used.
    pub threads: usize,
    /// Shards the topology decomposed into.
    pub shards: usize,
}

/// Runs one measurement point on the sharded parallel driver, mirroring
/// [`run_observed`](crate::run_observed): same config surface, same
/// observability layers, same phase structure. `threads = 0`
/// auto-detects ([`auto_threads`]) and is clamped to the shard count.
///
/// Not supported (panics): dual-mode, PCAP capture (the `ObserveOpts`
/// surface cannot request either), and topology-mode request workloads
/// (same restriction as [`build_topo_sim`](crate::msb::build_topo_sim)).
///
/// # Panics
///
/// Panics if a cross-shard link has zero latency (no conservative
/// lookahead). A panic on a worker thread is re-raised here, with the
/// worker's own payload, as soon as every worker has stopped.
pub fn run_observed_parallel(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
    rc: RunConfig,
    threads: usize,
    opts: ObserveOpts,
) -> ParallelOutcome {
    let offered = clamp_offered(cfg, spec, size, offered);
    let p2p = cfg.topo.is_point_to_point();
    if !p2p {
        assert!(
            !spec.uses_rps() && !matches!(spec, AppSpec::IperfTcp),
            "topology mode drives open-loop synthetic traffic only"
        );
    }
    let nshards = if p2p { 2 } else { 2 + cfg.topo.clients };
    let threads_n = resolve_threads(threads, nshards);
    let fault_plan = opts.faults.plan().map(|plan| {
        (
            plan,
            opts.faults.seed().expect("an enabled injector has a seed"),
        )
    });

    // --- Wiring: one clock per shard, one channel per directed edge. ---
    let clocks: Vec<Arc<ShardClock>> = (0..nshards).map(|_| ShardClock::new()).collect();
    let chan = |_from: usize, _to: usize| Arc::new(ShardChannel::<Msg>::new());
    let mut specs: Vec<ShardSpec> = Vec::with_capacity(nshards);
    let base_spec = |rank: usize, ins: Vec<InWire>, role: RoleSpec| ShardSpec {
        rank: rank as u32,
        cfg: *cfg,
        app: *spec,
        size,
        offered,
        trace: opts.trace,
        faults: if rank == 0 { fault_plan.clone() } else { None },
        stats_interval: opts.stats_interval,
        profile: opts.profile,
        clock: Arc::clone(&clocks[rank]),
        ins,
        role,
    };

    if p2p {
        let topo = Topology::point_to_point(cfg.link_bandwidth, cfg.link_latency);
        let up_latency = topo.links()[0].policy.latency;
        let down_latency = topo.links()[1].policy.latency;
        assert!(
            up_latency >= 1 && down_latency >= 1,
            "conservative sharding needs link latency >= 1 tick"
        );
        let lg_to_host = chan(1, 0);
        let host_to_lg = chan(0, 1);
        specs.push(base_spec(
            0,
            vec![InWire {
                channel: Arc::clone(&lg_to_host),
                clock: Arc::clone(&clocks[1]),
                lookahead: up_latency,
                kind: InboxKind::HostNic,
            }],
            RoleSpec::Host {
                out: OutWire {
                    channel: Arc::clone(&host_to_lg),
                },
                topo: false,
            },
        ));
        specs.push(base_spec(
            1,
            vec![InWire {
                channel: host_to_lg,
                clock: Arc::clone(&clocks[0]),
                lookahead: down_latency,
                kind: InboxKind::LoadGen,
            }],
            RoleSpec::LoadGen {
                out: OutWire {
                    channel: lg_to_host,
                },
            },
        ));
    } else {
        let t = &cfg.topo;
        let topo = Topology::incast(
            t.clients,
            cfg.link_bandwidth,
            t.client_latency,
            t.latency_spread,
            t.trunk_latency,
            t.trunk_queue_frames,
            t.loss_ppm,
        );
        let links = topo.links();
        let trunk_up_latency = links[0].policy.latency;
        let trunk_down_latency = links[1].policy.latency;
        assert!(
            trunk_up_latency >= 1 && trunk_down_latency >= 1,
            "conservative sharding needs trunk latency >= 1 tick"
        );
        for i in 0..t.clients {
            assert!(
                links[2 + 2 * i].policy.latency >= 1 && links[2 + 2 * i + 1].policy.latency >= 1,
                "conservative sharding needs access-link latency >= 1 tick"
            );
        }
        let host_to_sw = chan(0, 1);
        let sw_to_host = chan(1, 0);
        let client_to_sw: Vec<_> = (0..t.clients).map(|i| chan(2 + i, 1)).collect();
        let sw_to_client: Vec<_> = (0..t.clients).map(|i| chan(1, 2 + i)).collect();

        // Rank 0: host. Its single inbound wire is the switch→host trunk.
        specs.push(base_spec(
            0,
            vec![InWire {
                channel: Arc::clone(&sw_to_host),
                clock: Arc::clone(&clocks[1]),
                lookahead: trunk_up_latency,
                kind: InboxKind::HostNic,
            }],
            RoleSpec::Host {
                out: OutWire {
                    channel: Arc::clone(&host_to_sw),
                },
                topo: true,
            },
        ));
        // Rank 1: switch. Inbound wires from the host and every client.
        let mut sw_ins = vec![InWire {
            channel: host_to_sw,
            clock: Arc::clone(&clocks[0]),
            lookahead: trunk_down_latency,
            kind: InboxKind::Switch,
        }];
        for (i, ch) in client_to_sw.iter().enumerate() {
            sw_ins.push(InWire {
                channel: Arc::clone(ch),
                clock: Arc::clone(&clocks[2 + i]),
                lookahead: links[2 + 2 * i].policy.latency,
                kind: InboxKind::Switch,
            });
        }
        specs.push(base_spec(
            1,
            sw_ins,
            RoleSpec::Switch {
                out_host: OutWire {
                    channel: sw_to_host,
                },
                out_clients: sw_to_client
                    .iter()
                    .map(|ch| OutWire {
                        channel: Arc::clone(ch),
                    })
                    .collect(),
            },
        ));
        // Ranks 2+i: one fleet client each.
        for i in 0..t.clients {
            specs.push(base_spec(
                2 + i,
                vec![InWire {
                    channel: Arc::clone(&sw_to_client[i]),
                    clock: Arc::clone(&clocks[1]),
                    lookahead: links[2 + 2 * i + 1].policy.latency,
                    kind: InboxKind::Client,
                }],
                RoleSpec::Client {
                    index: i,
                    out: OutWire {
                        channel: Arc::clone(&client_to_sw[i]),
                    },
                },
            ));
        }
    }

    // --- Spawn workers: shard rank r runs on thread r mod threads. ---
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let abort = Arc::new(AtomicBool::new(false));
    let mut cmd_txs = Vec::with_capacity(threads_n);
    let mut handles = Vec::with_capacity(threads_n);
    let mut per_thread: Vec<Vec<ShardSpec>> = (0..threads_n).map(|_| Vec::new()).collect();
    for s in specs {
        let t = (s.rank as usize) % threads_n;
        per_thread[t].push(s);
    }
    for (t, owned) in per_thread.into_iter().enumerate() {
        let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
        let replies = reply_tx.clone();
        let abort = Arc::clone(&abort);
        handles.push(
            std::thread::Builder::new()
                .name(format!("simnet-shard-{t}"))
                .spawn(move || worker(owned, cmd_rx, replies, abort))
                .expect("worker thread spawn"),
        );
        cmd_txs.push(cmd_tx);
    }
    drop(reply_tx);
    let mut workers = Workers {
        cmds: cmd_txs,
        replies: reply_rx,
        handles,
    };

    // --- Phases (mirrors `run_phases`). ---
    let phases = rc.phases;
    let start = phases.warmup;
    let end = phases.warmup + phases.measure;
    let mut events_before = 0u64;
    if phases.warmup > 0 {
        workers.broadcast(|| Cmd::Run { end: phases.warmup });
        let states = workers.collect_run();
        events_before = states.iter().map(|(_, _, e)| e).sum();
        workers.broadcast(|| Cmd::Reset);
        for reply in workers.collect() {
            assert!(matches!(reply, Reply::ResetDone), "expected ResetDone");
        }
    }
    let t0 = Instant::now();
    workers.broadcast(|| Cmd::Run { end });
    let states = workers.collect_run();
    let host_seconds = t0.elapsed().as_secs_f64();
    let now_global = states.iter().map(|&(_, now, _)| now).max().unwrap_or(end);
    let events_total: u64 = states.iter().map(|(_, _, e)| e).sum();

    workers.broadcast(|| Cmd::Extract {
        now_global,
        start,
        end,
    });
    let mut reports: Vec<ShardReport> = Vec::with_capacity(nshards);
    let mut sync_profiles: Vec<Profiler> = Vec::new();
    for reply in workers.collect() {
        match reply {
            Reply::Extracted {
                reports: r,
                sync_profile,
            } => {
                reports.extend(r);
                sync_profiles.extend(sync_profile);
            }
            _ => panic!("expected Extracted"),
        }
    }
    workers.shutdown();
    reports.sort_by_key(|r| r.rank);

    assemble(
        cfg,
        size,
        offered,
        rc,
        threads_n,
        nshards,
        p2p,
        now_global,
        host_seconds,
        events_before,
        events_total,
        start,
        end,
        opts.stats_interval.is_some(),
        reports,
        sync_profiles,
    )
}

/// Reassembles the single-run observables from per-shard reports, in the
/// exact section order the legacy dump uses.
#[allow(clippy::too_many_arguments)]
fn assemble(
    cfg: &SystemConfig,
    size: usize,
    offered: f64,
    rc: RunConfig,
    threads_n: usize,
    nshards: usize,
    p2p: bool,
    now_global: Tick,
    host_seconds: f64,
    events_before: u64,
    events_total: u64,
    start: Tick,
    end: Tick,
    sampling: bool,
    mut reports: Vec<ShardReport>,
    sync_profiles: Vec<Profiler>,
) -> ParallelOutcome {
    // Trace: k-way merge of per-shard streams by (tick, rank). Streams
    // are tick-nondecreasing (a shard's clock never goes backward), so
    // the merge is a linear pass.
    let streams: Vec<Vec<TraceEvent>> = reports
        .iter_mut()
        .map(|r| std::mem::take(&mut r.trace))
        .collect();
    let events = merge_traces(streams);
    let evicted: u64 = reports.iter().map(|r| r.evicted).sum();
    let pool_total = reports
        .iter()
        .fold(PoolStats::default(), |acc, r| sum_pool(acc, r.pool));

    // Detach role reports.
    let mut host: Option<Box<HostReport>> = None;
    let mut loadgen: Option<Box<LoadGenShardReport>> = None;
    let mut switch: Option<Box<SwitchReport>> = None;
    let mut clients: Vec<Box<ClientReport>> = Vec::new();
    let mut shard_profiles: Vec<Profiler> = Vec::new();
    for r in reports {
        if let Some(p) = r.profile {
            shard_profiles.push(p);
        }
        match r.detail {
            RoleReport::Host(h) => host = Some(h),
            RoleReport::LoadGen(l) => loadgen = Some(l),
            RoleReport::Switch(s) => switch = Some(s),
            RoleReport::Client(c) => clients.push(c),
        }
    }
    let host = host.expect("rank 0 is always the host shard");

    // Topology mode: merge the fleet slices back into one logical fleet
    // so the report and `loadgen.*` stats come from the same code path
    // the legacy driver uses.
    let merged_fleet = (!p2p).then(|| {
        let mut fleet = ClientFleet::fixed_rate(
            cfg.topo.clients,
            size,
            Bandwidth::gbps(offered),
            cfg.nic.mac,
            cfg.seed ^ 0x10AD,
        )
        .with_flows(cfg.topo.flows_per_client, cfg.topo.zipf_skew);
        fleet.reset_stats();
        for c in &clients {
            fleet.absorb(&c.snapshot);
        }
        fleet
    });

    let topo_snap = switch.as_ref().map(|s| TopoStatsSnap {
        clients: clients.len() as u64,
        unroutable: s.unroutable,
        trunk: Some(s.trunk),
        uplinks: clients.iter().map(|c| c.uplink).collect(),
        downlinks: s.downlinks.clone(),
    });

    // Time series: the host's rows, with the fabric columns patched in
    // from the switch/client fragment samplers (fan-in mode only; the
    // degenerate fabric's columns are identically zero).
    let timeseries = if p2p {
        host.series.clone()
    } else {
        host.series.as_ref().map(|series| {
            let s = switch.as_ref().expect("fan-in mode has a switch shard");
            let rows = series.len();
            assert_eq!(
                s.frag.len(),
                rows,
                "switch sampler fragments misaligned with host rows"
            );
            for c in &clients {
                assert_eq!(
                    c.frag.len(),
                    rows,
                    "client sampler fragments misaligned with host rows"
                );
            }
            let mut ts = TimeSeries::new(sample_columns());
            let mut prev_cum = 0u64;
            for k in 0..rows {
                for c in &clients {
                    assert_eq!(
                        c.frag[k].tick, s.frag[k].tick,
                        "sampler fragments disagree on the sample grid"
                    );
                }
                let cum =
                    s.frag[k].drops_cum + clients.iter().map(|c| c.frag[k].drops_cum).sum::<u64>();
                let mut row = series.rows()[k].clone();
                row[COL_TOPO_QUEUE] = SampleValue::Int(s.frag[k].queue);
                row[COL_TOPO_DROPS] = SampleValue::Int(cum - prev_cum);
                prev_cum = cum;
                ts.push_row(row);
            }
            ts
        })
    };

    // Stats dumps, assembled in the legacy `build_registry` order.
    let build_dump = |level: DumpLevel| -> String {
        let mut reg = StatsRegistry::with_level(level);
        reg.scalar("sim_ticks", now_global, "simulated ticks (ps)");
        reg.scalar("host_events", events_total, "events executed");
        match level {
            DumpLevel::Compat => reg.extend(&host.reg_compat),
            DumpLevel::Full => reg.extend(&host.reg_full),
        }
        if let Some(lg) = &loadgen {
            match level {
                DumpLevel::Compat => reg.extend(&lg.reg_compat),
                DumpLevel::Full => reg.extend(&lg.reg_full),
            }
        }
        if let Some(fleet) = &merged_fleet {
            fleet.register_stats(now_global, &mut reg);
        }
        if let Some(snap) = &topo_snap {
            snap.register(&mut reg);
        }
        if sampling {
            let nonfinite = timeseries.as_ref().map_or(0, TimeSeries::nonfinite_count);
            register_sampler_health(nonfinite, &mut reg);
        }
        register_mempool(&pool_total, &mut reg);
        render(&reg)
    };
    let stats_compat = build_dump(DumpLevel::Compat);
    let stats_full = build_dump(DumpLevel::Full);

    // Summary (mirrors `run_phases`).
    let report = if let Some(lg) = &loadgen {
        lg.report.clone()
    } else {
        merged_fleet
            .as_ref()
            .expect("a run is loadgen-mode or topology-mode")
            .report(start, end)
    };
    let summary = RunSummary {
        report,
        drop_rate: host.drop_rate,
        drop_breakdown: host.drop_breakdown,
        drop_counts: host.drop_counts,
        fault_drops: host.fault_drops,
        llc_miss_rate: host.llc_miss_rate,
        row_hit_rate: host.row_hit_rate,
        rx_backlog_ratio: host.rx_backlog_ratio,
        window: rc.phases.measure,
        host_seconds,
        events: events_total - events_before,
    };

    let profile = if shard_profiles.is_empty() && sync_profiles.is_empty() {
        None
    } else {
        let mut merged = Profiler::new(PROFILE_KINDS.to_vec());
        for p in &shard_profiles {
            merged.merge(p);
        }
        for p in &sync_profiles {
            merged.merge(p);
        }
        Some(merged)
    };

    ParallelOutcome {
        summary,
        events,
        evicted,
        fault_counts: host.fault_counts,
        timeseries,
        profile,
        stats_compat,
        stats_full,
        threads: threads_n,
        shards: nshards,
    }
}

/// Stable k-way merge of per-shard trace streams by `(tick, stream
/// index)`: at equal ticks the lower-ranked shard's events come first,
/// and within a shard emission order is preserved. Stream order is the
/// rank order (reports are sorted before the streams are taken).
fn merge_traces(streams: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut idx = vec![0usize; streams.len()];
    loop {
        let mut best: Option<(Tick, usize)> = None;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(ev) = stream.get(idx[s]) {
                if best.is_none_or(|(t, b)| (ev.tick, s) < (t, b)) {
                    best = Some((ev.tick, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        out.push(streams[s][idx[s]]);
        idx[s] += 1;
    }
    out
}

fn sum_pool(a: PoolStats, b: PoolStats) -> PoolStats {
    let mut out = a;
    out.in_use += b.in_use;
    out.high_water += b.high_water;
    out.heap_fallback += b.heap_fallback;
    out.heap_live += b.heap_live;
    for i in 0..out.class_allocs.len() {
        out.class_allocs[i] += b.class_allocs[i];
        out.class_recycles[i] += b.class_recycles[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_clamps_and_autodetects() {
        // Explicit requests clamp to [1, shards].
        assert_eq!(resolve_threads(1, 2), 1);
        assert_eq!(resolve_threads(4, 2), 2);
        assert_eq!(resolve_threads(3, 10), 3);
        // Zero shards still resolves to one thread.
        assert_eq!(resolve_threads(5, 0), 1);
        // `0` = auto-detect, still clamped to the shard count.
        let auto = resolve_threads(0, 1_000_000);
        assert_eq!(auto, auto_threads());
        assert_eq!(resolve_threads(0, 1), 1);
    }

    #[test]
    fn pool_stats_sum_is_fieldwise() {
        let mut a = PoolStats {
            in_use: 1,
            ..Default::default()
        };
        a.class_allocs[0] = 10;
        let mut b = PoolStats {
            in_use: 2,
            heap_fallback: 3,
            ..Default::default()
        };
        b.class_allocs[0] = 5;
        let s = sum_pool(a, b);
        assert_eq!(s.in_use, 3);
        assert_eq!(s.class_allocs[0], 15);
        assert_eq!(s.heap_fallback, 3);
    }

    #[test]
    fn trace_merge_orders_by_tick_then_rank() {
        use simnet_sim::trace::{Component, Stage, TraceEvent};
        let ev = |tick: Tick, id: u64| TraceEvent {
            tick,
            packet_id: id,
            component: Component::Link,
            stage: Stage::WireRx,
        };
        let merged = merge_traces(vec![vec![ev(5, 0), ev(10, 1)], vec![ev(5, 2), ev(7, 3)]]);
        let ids: Vec<u64> = merged.iter().map(|e| e.packet_id).collect();
        assert_eq!(ids, [0, 2, 3, 1], "tick order, rank 0 first on ties");
    }
}
