//! Application specifications, single-point runs, and the
//! maximum-sustainable-bandwidth search.

use simnet_apps::{
    Iperf, IperfTcp, KvStore, MemcachedDpdk, MemcachedKernel, RxpTx, TestPmd, TouchDrop, TouchFwd,
};
use simnet_loadgen::{
    find_knee, EtherLoadGen, LoadGenMode, MemcachedClientConfig, RatePoint, SyntheticConfig,
    TcpClientConfig, MSB_DROP_THRESHOLD,
};
use simnet_net::{rss, MacAddr};
use simnet_sim::random::SimRng;
use simnet_sim::random::Zipf;
use simnet_sim::tick::{us, Bandwidth, Tick};
use simnet_stack::{DpdkStack, KernelStack, NetworkStack, PacketApp};

use crate::client_app::SoftwareClient;
use crate::config::SystemConfig;
use crate::sim::{lcore_of, Lcore, Simulation};
use crate::summary::{run_phases, Phases, RunSummary};

/// Which benchmark to run (§V, plus iperf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSpec {
    /// testpmd in macswap mode on DPDK.
    TestPmd,
    /// Payload-touching forwarder on DPDK.
    TouchFwd,
    /// Payload-touching sink on DPDK.
    TouchDrop,
    /// RX → process(interval) → TX on DPDK.
    RxpTx(Tick),
    /// Kernel-stack throughput test (UDP-style fixed-rate stream).
    Iperf,
    /// Kernel-stack TCP stream sink driven by the load generator's TCP
    /// state machine; `offered` is the client window in segments.
    IperfTcp,
    /// KV store on DPDK (memcached client load).
    MemcachedDpdk,
    /// KV store on the kernel stack (memcached client load).
    MemcachedKernel,
}

impl AppSpec {
    /// Display name matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            AppSpec::TestPmd => "TestPMD".into(),
            AppSpec::TouchFwd => "TouchFwd".into(),
            AppSpec::TouchDrop => "TouchDrop".into(),
            AppSpec::RxpTx(t) => {
                if *t >= us(1) {
                    format!("RXpTX-{}us", t / us(1))
                } else {
                    format!("RXpTX-{}ns", t / 1_000)
                }
            }
            AppSpec::Iperf => "iperf".into(),
            AppSpec::IperfTcp => "iperf-tcp".into(),
            AppSpec::MemcachedDpdk => "MemcachedDPDK".into(),
            AppSpec::MemcachedKernel => "MemcachedKernel".into(),
        }
    }

    /// Whether offered load is requests/second (vs Gbps).
    pub fn uses_rps(&self) -> bool {
        matches!(self, AppSpec::MemcachedDpdk | AppSpec::MemcachedKernel)
    }

    /// Whether the node runs the kernel stack.
    pub fn kernel_stack(&self) -> bool {
        matches!(
            self,
            AppSpec::Iperf | AppSpec::IperfTcp | AppSpec::MemcachedKernel
        )
    }

    /// Builds lcores `0..cfg.num_lcores` of a node: each lcore's stack,
    /// with its TX mbufs and footprints in that lcore's private 64 MiB
    /// slice of the address map, and its application shard. A memcached
    /// lcore holds the store shard of the queues it polls.
    pub fn lcores(&self, cfg: &SystemConfig) -> Vec<Lcore> {
        (0..cfg.num_lcores)
            .map(|lcore| {
                let stack: Box<dyn NetworkStack> = if self.kernel_stack() {
                    Box::new(KernelStack::for_lcore(cfg.seed, lcore))
                } else {
                    Box::new(DpdkStack::for_lcore(cfg.seed, lcore))
                };
                let app: Box<dyn PacketApp> = match self {
                    AppSpec::TestPmd => Box::new(TestPmd::new()),
                    AppSpec::TouchFwd => Box::new(TouchFwd::new()),
                    AppSpec::TouchDrop => Box::new(TouchDrop::new()),
                    AppSpec::RxpTx(t) => Box::new(RxpTx::new(*t)),
                    AppSpec::Iperf => Box::new(Iperf::new()),
                    AppSpec::IperfTcp => Box::new(IperfTcp::new()),
                    AppSpec::MemcachedDpdk => {
                        Box::new(MemcachedDpdk::for_lcore(shard_store(cfg, lcore), lcore))
                    }
                    AppSpec::MemcachedKernel => {
                        Box::new(MemcachedKernel::for_lcore(shard_store(cfg, lcore), lcore))
                    }
                };
                (stack, app)
            })
            .collect()
    }

    /// Builds the matching load generator at `offered` load (Gbps of
    /// frame bytes, or kRPS for the memcached workloads) with frames of
    /// `size` bytes, with one client port per `cfg.topo` client. On a
    /// multi-queue NIC the client steers by UDP source port, `ports[q]`
    /// hashing to queue `q`: synthetic frames round-robin over the
    /// queues, and a memcached request goes to the queue whose lcore
    /// holds its key. A fan-in's clients each send one UDP flow from
    /// their own address instead, and `offered` is their aggregate.
    ///
    /// # Panics
    ///
    /// Panics on a fan-in of a memcached or TCP client: a fan-in drives
    /// open-loop synthetic traffic only.
    pub fn loadgen(&self, cfg: &SystemConfig, size: usize, offered: f64) -> EtherLoadGen {
        let server = cfg.nic.mac;
        let clients = cfg.topo.clients;
        let client = MacAddr::simulated(if clients > 1 { INCAST_MAC } else { CLIENT_MAC });
        let nq = cfg.nic.num_queues;
        let steering =
            |dst_port| (nq > 1).then(|| rss::ports_for_queues(CLIENT_IP, SERVER_IP, dst_port, nq));
        let mode = if let AppSpec::IperfTcp = self {
            // `offered` is the stream window, in segments.
            LoadGenMode::Tcp(TcpClientConfig::new(
                server,
                client,
                (offered.round() as usize).max(1),
                1_448,
            ))
        } else if self.uses_rps() {
            let mut mc = MemcachedClientConfig::paper_client(offered * 1_000.0, server, client);
            mc.shard_ports = steering(11_211);
            LoadGenMode::Memcached(mc)
        } else {
            let mut syn =
                SyntheticConfig::fixed_rate(size, Bandwidth::gbps(offered), server, client);
            // A fan-in's clients each send one UDP flow from their own
            // address. Raw LoadGen shells carry no tuple and RSS pins
            // every frame to queue 0, so a multi-queue NIC gets UDP
            // frames instead.
            if clients > 1 {
                syn = syn.with_rss_ports(INCAST_IP, SERVER_IP, 9, vec![INCAST_PORT]);
            } else if let Some(ports) = steering(9) {
                syn = syn.with_rss_ports(CLIENT_IP, SERVER_IP, 9, ports);
            }
            LoadGenMode::Synthetic(syn)
        };
        EtherLoadGen::new(mode, cfg.seed ^ 0x10AD).with_clients(clients)
    }
}

/// The load generator's `MacAddr::simulated` index and IPv4 address.
const CLIENT_MAC: u32 = 99;
const CLIENT_IP: [u8; 4] = [10, 0, 0, 2];
/// A fan-in's base client address: client `c` sends from
/// `MacAddr::simulated(INCAST_MAC + c)` and `10.0.1.c`, UDP port 40000.
const INCAST_MAC: u32 = 100;
const INCAST_IP: [u8; 4] = [10, 0, 1, 0];
const INCAST_PORT: u16 = 40_000;
/// The node under test's IPv4 address.
const SERVER_IP: [u8; 4] = [10, 0, 0, 1];

/// `lcore`'s shard of the paper's 5000-key store: the keys whose RSS
/// queue that lcore polls, in its own 64 MiB heap slice. Value lengths
/// are those of the whole-store warm (the RNG is drawn for every key), and
/// a lone lcore keeps every key in the bottom slice without hashing any.
fn shard_store(cfg: &SystemConfig, lcore: usize) -> KvStore {
    let (nlcores, nqueues) = (cfg.num_lcores, cfg.nic.num_queues);
    let mut store = KvStore::new(8192).with_base_offset(lcore as u64 * (64 << 20));
    store.warm(
        5_000,
        &Zipf::paper_lengths(),
        &mut SimRng::seed_from(cfg.seed),
        |key| nlcores == 1 || lcore_of(rss::key_shard(key, nqueues), nlcores) == lcore,
    );
    store
}

/// Clamps the offered load to a software client's per-packet rate
/// ceiling (the altra setup's Pktgen cannot exceed it), for
/// [`run_point`] and [`run_observed`](crate::run_observed).
pub(crate) fn clamp_offered(cfg: &SystemConfig, spec: &AppSpec, size: usize, offered: f64) -> f64 {
    match (cfg.client_pps_cap, spec.uses_rps()) {
        (Some(cap), false) => {
            let cap_gbps = cap * size as f64 * 8.0 / 1e9;
            offered.min(cap_gbps)
        }
        (Some(cap), true) => offered.min(cap / 1_000.0),
        (None, _) => offered,
    }
}

/// Run configuration for a measurement point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Warm-up + measurement windows.
    pub phases: Phases,
}

impl RunConfig {
    /// Fast default: 300 µs warm-up, 1 ms measurement (the paper warms
    /// for 200 ms on gem5; our event granularity reaches steady state in
    /// hundreds of microseconds).
    pub fn fast() -> Self {
        Self {
            phases: Phases {
                warmup: us(300),
                measure: us(1_000),
            },
        }
    }

    /// Longer windows for low-rate workloads (memcached, kernel stack).
    pub fn long() -> Self {
        Self {
            phases: Phases {
                warmup: us(1_000),
                measure: us(10_000),
            },
        }
    }

    /// Default windows appropriate for an app.
    pub fn for_app(spec: &AppSpec) -> Self {
        if spec.uses_rps() || spec.kernel_stack() {
            Self::long()
        } else {
            Self::fast()
        }
    }
}

/// Assembles a loadgen-mode simulation exactly as
/// [`run_point`]/[`run_observed`](crate::run_observed) do — every lcore,
/// the client's RSS steering and the `cfg.topo` network included —
/// without running it. Integration tests use this to attach their own
/// observability layers (trace, faults) before driving the phases
/// themselves.
pub fn build_loadgen_sim(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
) -> Simulation {
    Simulation::loadgen_mode(cfg, spec.lcores(cfg), spec.loadgen(cfg, size, offered))
}

/// Runs one (config, app, size, offered-load) measurement point.
pub fn run_point(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
    rc: RunConfig,
) -> RunSummary {
    // A software client (the altra setup's Pktgen) cannot exceed its
    // per-packet rate ceiling; clamp the offered load accordingly.
    let offered = clamp_offered(cfg, spec, size, offered);
    let mut sim = build_loadgen_sim(cfg, spec, size, offered);
    run_phases(&mut sim, rc.phases)
}

/// Assembles a **dual-mode** simulation (Fig. 1a) without running it:
/// the traffic source is a software load-generator application on a
/// fully simulated Drive Node instead of the hardware `EtherLoadGen`.
/// [`run_dual_point`] and the dual-mode golden trace both run this
/// assembly.
pub fn build_dual_sim(cfg: &SystemConfig, spec: &AppSpec, size: usize, offered: f64) -> Simulation {
    // The Drive Node runs the matching client as a DPDK app (Pktgen-like)
    // on one lcore.
    let client = SoftwareClient::new(spec.loadgen(cfg, size, offered));
    let drive: Lcore = (
        Box::new(DpdkStack::new(cfg.seed ^ 0xD21E)),
        Box::new(client),
    );
    Simulation::dual_mode(cfg, spec.lcores(cfg), cfg, vec![drive])
}

/// Runs one measurement point in dual-mode ([`build_dual_sim`]). Used by
/// the Fig. 20 simulation-speed comparison.
pub fn run_dual_point(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
    rc: RunConfig,
) -> RunSummary {
    let mut sim = build_dual_sim(cfg, spec, size, offered);
    run_phases(&mut sim, rc.phases)
}

/// A completed MSB search.
#[derive(Debug, Clone)]
pub struct MsbResult {
    /// The knee (Gbps or kRPS), `None` if even the lowest load dropped.
    pub msb: Option<f64>,
    /// The measured ramp.
    pub points: Vec<RatePoint>,
}

impl MsbResult {
    /// The MSB, or 0.0 when the server could not sustain any probed load.
    pub fn msb_or_zero(&self) -> f64 {
        self.msb.unwrap_or(0.0)
    }
}

/// The drop-rate metric and knee threshold for a spec.
///
/// Bandwidth workloads use the NIC-FSM drop rate against the paper's 1%
/// threshold (§VII.C). Request workloads use the load generator's view —
/// unanswered requests within the window, which captures queue collapse
/// the way Fig. 18's client-side measurement does — with a slightly
/// higher threshold to absorb in-flight requests at the window edge.
fn drop_metric(spec: &AppSpec, summary: &RunSummary) -> (f64, f64) {
    if spec.uses_rps() {
        (summary.report.drop_rate, 0.05)
    } else {
        let mut drop = summary.drop_rate;
        // Near the knee, the RX ring + FIFO can absorb the surplus for
        // the whole measurement window without a FIFO overrun. A ring
        // that ends the window majority-full is the §VII.A "core is
        // behind" state: the load is not sustainable.
        if drop <= MSB_DROP_THRESHOLD && summary.rx_backlog_ratio > 0.5 {
            drop = MSB_DROP_THRESHOLD * 2.0;
        }
        (drop, MSB_DROP_THRESHOLD)
    }
}

/// Sweeps offered load geometrically from `lo` to `hi` (Gbps or kRPS) and
/// finds the drop knee (§VII.C's MSB definition).
pub fn find_msb(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    lo: f64,
    hi: f64,
    steps: usize,
    rc: RunConfig,
) -> MsbResult {
    let mut points = Vec::with_capacity(steps + 4);
    let mut threshold = MSB_DROP_THRESHOLD;
    let measure = |offered: f64, points: &mut Vec<RatePoint>| -> (f64, f64) {
        let summary = run_point(cfg, spec, size, offered, rc);
        let achieved = if spec.uses_rps() {
            summary.achieved_rps() / 1_000.0
        } else {
            summary.achieved_gbps()
        };
        let (drop, thr) = drop_metric(spec, &summary);
        points.push(RatePoint {
            offered,
            achieved,
            drop_rate: drop,
        });
        (drop, thr)
    };

    for offered in simnet_loadgen::ramp::geometric_ramp(lo, hi, steps) {
        let (drop, thr) = measure(offered, &mut points);
        threshold = thr;
        // Ramp early-exit: past the knee with heavy drops, higher loads
        // only waste simulation time.
        if drop > 0.25 {
            break;
        }
    }

    // Refine the knee bracket by geometric bisection: coarse ramps badly
    // underestimate the knee when the bracketing interval is wide.
    for _ in 0..4 {
        let thr = threshold;
        let good = points
            .iter()
            .filter(|p| p.drop_rate <= thr)
            .map(|p| p.offered)
            .fold(f64::NAN, f64::max);
        let bad = points
            .iter()
            .filter(|p| p.drop_rate > thr)
            .map(|p| p.offered)
            .fold(f64::NAN, f64::min);
        if !good.is_finite() || !bad.is_finite() {
            break;
        }
        if bad / good < 1.15 {
            break; // bracket tight enough
        }
        let mid = (good * bad).sqrt();
        let (_, thr) = measure(mid, &mut points);
        threshold = thr;
    }
    points.sort_by(|a, b| a.offered.partial_cmp(&b.offered).expect("finite loads"));

    MsbResult {
        msb: find_knee(&points, threshold),
        points,
    }
}
