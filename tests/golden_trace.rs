//! Golden-trace determinism: the packet-lifecycle trace of a fixed
//! configuration must be byte-identical across runs and across freshly
//! rebuilt nodes, and must match the committed golden file. The incast,
//! dual-mode, kernel-stack and small-TX-ring goldens also pin the Full
//! stats dump of every node.
//!
//! Regenerate the golden after an intentional behavior change with:
//!
//! ```text
//! SIMNET_UPDATE_GOLDEN=1 cargo test -q --test golden_trace
//! ```

use simnet::harness::config::TopoConfig;
use simnet::harness::summary::run_phases;
use simnet::harness::{
    build_dual_sim, build_loadgen_sim, run_observed, stats_text_all, AppSpec, ObserveOpts,
    ObservedRun, RunConfig, Simulation, SystemConfig,
};
use simnet::sim::fault::{FaultInjector, FaultPlan};
use simnet::sim::tick::us;
use simnet::sim::trace::{canonical_text, trace_hash, Component};

/// A loadgen-mode point run for `measure_us` µs without warm-up, every
/// component traced into a ring of `capacity` events, with `faults`
/// installed before the first event.
fn traced(
    cfg: &SystemConfig,
    spec: &AppSpec,
    size: usize,
    offered: f64,
    measure_us: u64,
    capacity: usize,
    faults: FaultInjector,
) -> ObservedRun {
    let rc = RunConfig {
        warmup: 0,
        measure: us(measure_us),
    };
    let opts = ObserveOpts {
        trace: Some((capacity, Component::ALL_MASK)),
        faults,
        ..Default::default()
    };
    run_observed(cfg, spec, size, offered, rc, opts)
}

/// A short, light TestPMD point: no warm-up, a 250 µs window (the link's
/// one-way latency is 100 µs, so the window must cover inject → arrival →
/// echo) at 2 Gbps of 1518 B frames — a few hundred trace lines, small
/// enough to commit.
fn golden_point() -> ObservedRun {
    let cfg = SystemConfig::gem5();
    traced(
        &cfg,
        &AppSpec::TestPmd,
        1518,
        2.0,
        250,
        1 << 16,
        FaultInjector::disabled(),
    )
}

/// The golden point with a fault plan installed: the same workload as
/// [`golden_point`] plus a BER high enough to corrupt a few frames and a
/// periodic DMA latency burst — chaos that must still be byte-for-byte
/// reproducible from the fault seed.
fn faulted_point(fault_seed: u64) -> ObservedRun {
    let cfg = SystemConfig::gem5();
    let plan = FaultPlan::parse("link.ber=3e-5;dma.burst=+500ns/2us@20us").unwrap();
    traced(
        &cfg,
        &AppSpec::TestPmd,
        1518,
        2.0,
        250,
        1 << 16,
        FaultInjector::new(plan, fault_seed),
    )
}

/// A line-rate-ish TestPMD point: 30 Gbps of 1518 B frames over the same
/// 250 µs window, so hundreds of frames are in flight per direction.
/// `fault_seed` optionally installs the same chaos plan as
/// [`faulted_point`].
fn line_rate_point(fault_seed: Option<u64>) -> ObservedRun {
    let cfg = SystemConfig::gem5();
    let faults = match fault_seed {
        Some(seed) => {
            let plan = FaultPlan::parse("link.ber=3e-5;dma.burst=+500ns/2us@20us").unwrap();
            FaultInjector::new(plan, seed)
        }
        None => FaultInjector::disabled(),
    };
    traced(&cfg, &AppSpec::TestPmd, 1518, 30.0, 250, 1 << 20, faults)
}

/// The multi-queue golden point: the same light TestPMD workload as
/// [`golden_point`], but on a 2-queue NIC with 2 worker lcores. On a
/// multi-queue NIC the synthetic generator emits RSS-hashable UDP
/// frames whose source ports round-robin one port per queue, so the
/// stream genuinely spreads across both queues — the golden pins the
/// full multi-queue event schedule: per-queue DMA kicks, both lcores'
/// software wakeups, partitioned FIFOs, and the interleaved echo
/// stream.
fn mq_point() -> ObservedRun {
    let cfg = SystemConfig::gem5().with_queues(2).with_lcores(2);
    traced(
        &cfg,
        &AppSpec::TestPmd,
        1518,
        2.0,
        250,
        1 << 16,
        FaultInjector::disabled(),
    )
}

/// The sharded-memcached multi-queue golden: 4 RSS queues, 4 worker
/// lcores, the client steering each request's source port onto the
/// queue owning its key's shard — real cross-queue traffic, committed
/// byte-for-byte.
fn mq_memcached_point() -> ObservedRun {
    let cfg = SystemConfig::gem5().with_queues(4).with_lcores(4);
    traced(
        &cfg,
        &AppSpec::MemcachedDpdk,
        0,
        200.0,
        400,
        1 << 18,
        FaultInjector::disabled(),
    )
}

/// Compares `text` with the committed golden file `name` under
/// `tests/golden/`, or rewrites that file when `SIMNET_UPDATE_GOLDEN` is
/// set.
fn assert_golden(name: &str, text: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("SIMNET_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(&path).parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}; run with SIMNET_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        text, golden,
        "{name} diverged from the golden file; if the change is intentional, \
         regenerate with SIMNET_UPDATE_GOLDEN=1 cargo test --test golden_trace"
    );
}

/// Runs an assembled simulation traced for `measure_us` µs without
/// warm-up and returns its canonical trace followed by the Full stats
/// dump of every node.
fn trace_and_dumps(mut sim: Simulation, measure_us: u64) -> String {
    sim.enable_trace(1 << 16, Component::ALL_MASK);
    run_phases(
        &mut sim,
        RunConfig {
            warmup: 0,
            measure: us(measure_us),
        },
    );
    assert_eq!(sim.tracer().evicted(), 0, "golden trace must fit the ring");
    let mut text = canonical_text(&sim.take_trace());
    for node in 0..sim.nodes.len() {
        text.push_str(&stats_text_all(&sim, node));
    }
    text
}

/// The value of stats-dump line `key`.
fn stat(dump: &str, key: &str) -> u64 {
    dump.lines()
        .find(|l| l.split_whitespace().next() == Some(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in the dump"))
}

#[test]
fn trace_is_deterministic_across_rebuilt_nodes() {
    // Each call assembles a brand-new node (NIC, memory, stack, loadgen)
    // from the same `SystemConfig`; nothing may leak between runs.
    let a = golden_point();
    let b = golden_point();
    assert!(!a.events.is_empty(), "trace captured events");
    assert_eq!(a.evicted, 0, "golden trace must fit the ring");
    assert_eq!(
        canonical_text(&a.events),
        canonical_text(&b.events),
        "canonical traces of identical configs must be byte-identical"
    );
    assert_eq!(trace_hash(&a.events), trace_hash(&b.events));
}

#[test]
fn trace_matches_committed_golden_file() {
    let run = golden_point();
    let text = canonical_text(&run.events);
    assert_golden("testpmd_small.trace", &text);
}

/// Chaos determinism: the faulted event stream is a pure function of the
/// fault seed. Two freshly rebuilt simulators with the same seed emit
/// byte-identical canonical traces; a different seed perturbs them.
#[test]
fn faulted_trace_is_deterministic_and_seed_sensitive() {
    let a = faulted_point(11);
    let b = faulted_point(11);
    assert!(!a.events.is_empty());
    assert_eq!(a.evicted, 0, "faulted golden trace must fit the ring");
    assert_eq!(
        canonical_text(&a.events),
        canonical_text(&b.events),
        "same fault seed must reproduce the chaos byte-for-byte"
    );
    assert_eq!(trace_hash(&a.events), trace_hash(&b.events));
    assert!(
        a.fault_counts.total() > 0,
        "the faulted plan must actually inject faults: {:?}",
        a.fault_counts
    );
    assert_eq!(
        a.fault_counts.total(),
        b.fault_counts.total(),
        "fault counters are part of the deterministic surface"
    );

    let c = faulted_point(12);
    assert_ne!(
        trace_hash(&a.events),
        trace_hash(&c.events),
        "a different fault seed must produce a different trace"
    );
}

/// The faulted trace also has a committed golden: fault injection sites
/// may not drift (new draws, reordered draws) without a deliberate
/// regeneration.
#[test]
fn faulted_trace_matches_committed_golden_file() {
    let run = faulted_point(11);
    let text = canonical_text(&run.events);
    assert!(
        text.contains("stage=fault"),
        "faulted golden must contain fault events"
    );
    assert_golden("testpmd_faulted.trace", &text);
}

/// The line-rate golden (`testpmd_burst.trace`, named for the 30 Gbps
/// arrival bursts it pins): hundreds of frames in flight per direction.
#[test]
fn burst_trace_matches_committed_golden_file() {
    let run = line_rate_point(None);
    assert_eq!(run.evicted, 0, "line-rate golden trace must fit the ring");
    let text = canonical_text(&run.events);
    assert_golden("testpmd_burst.trace", &text);
}

/// The faulted line-rate golden: the same hot point with the chaos plan
/// installed, every `stage=fault` line included.
#[test]
fn faulted_burst_trace_matches_committed_golden_file() {
    let run = line_rate_point(Some(11));
    assert_eq!(run.evicted, 0, "faulted line-rate golden must fit the ring");
    let text = canonical_text(&run.events);
    assert!(
        text.contains("stage=fault"),
        "faulted burst golden must contain fault events"
    );
    assert!(
        run.fault_counts.total() > 0,
        "the plan must actually inject faults: {:?}",
        run.fault_counts
    );
    assert_golden("testpmd_burst_faulted.trace", &text);
}

/// The multi-queue golden: the 2-queue/2-lcore TestPMD schedule may not
/// drift (event reordering, extra wakeups, changed DMA kicks) without a
/// deliberate regeneration — and it must differ from the single-queue
/// golden, or the multi-queue configuration is silently inert.
#[test]
fn mq_trace_matches_committed_golden_file() {
    let run = mq_point();
    assert_eq!(run.evicted, 0, "mq golden trace must fit the ring");
    let text = canonical_text(&run.events);
    assert_golden("testpmd_mq.trace", &text);

    // A second rebuilt node must reproduce it, and the single-queue
    // golden point must not (the queues change the schedule).
    assert_eq!(canonical_text(&mq_point().events), text);
    assert_ne!(
        canonical_text(&golden_point().events),
        text,
        "the 2-queue schedule must differ from the single-queue golden"
    );
}

/// The sharded-memcached multi-queue golden: 4 queues of genuinely
/// RSS-spread request traffic, byte-for-byte reproducible.
#[test]
fn mq_memcached_trace_matches_committed_golden_file() {
    let run = mq_memcached_point();
    assert_eq!(run.evicted, 0, "mq memcached golden must fit the ring");
    let text = canonical_text(&run.events);
    assert_golden("memcached_mq.trace", &text);
    assert_eq!(canonical_text(&mq_memcached_point().events), text);
}

/// The incast golden: the generator's 4 client ports with 5 µs of
/// latency spread behind a switch whose trunk queue holds one frame,
/// 20,000 ppm of uplink loss, and 12 Gbps of 1518 B frames in
/// aggregate. It pins the client, switch and trunk schedule with every
/// fabric drop path taken.
#[test]
fn incast_small_matches_committed_golden_file() {
    let cfg = SystemConfig::gem5().with_topo(
        TopoConfig::incast(4)
            .with_latency_spread(us(5))
            .with_trunk_queue(1)
            .with_loss_ppm(20_000),
    );
    let text = trace_and_dumps(build_loadgen_sim(&cfg, &AppSpec::TestPmd, 1518, 12.0), 250);
    assert!(
        stat(&text, "system.topo.trunk.tailDrops") > 0,
        "trunk never tail-dropped"
    );
    assert!(
        stat(&text, "system.topo.uplinks.lossDrops") > 0,
        "uplinks never lost a frame"
    );
    assert_golden("incast_small.trace", &text);
}

/// The dual-mode golden (Fig. 20's assembly): a Drive Node running the
/// software client sends 2 Gbps of 1518 B frames to the test node over
/// the node-to-node wires; both nodes' dumps are pinned.
#[test]
fn dual_small_matches_committed_golden_file() {
    let cfg = SystemConfig::gem5();
    let text = trace_and_dumps(build_dual_sim(&cfg, &AppSpec::TestPmd, 1518, 2.0), 250);
    assert_golden("dual_small.trace", &text);
}

/// The kernel-stack golden: memcached on the kernel stack at 200 kRPS.
/// Every GET and SET is answered, so it pins the kernel's Respond path
/// (send syscall, user-to-skb copy, TX mbuf ring, TX descriptor stores).
#[test]
fn memcached_kernel_matches_committed_golden_file() {
    let cfg = SystemConfig::gem5();
    let text = trace_and_dumps(
        build_loadgen_sim(&cfg, &AppSpec::MemcachedKernel, 0, 200.0),
        250,
    );
    assert!(
        stat(&text, "system.stack.txPackets") > 0,
        "the kernel stack never answered"
    );
    assert_golden("memcached_kernel.trace", &text);
}

/// An 8-slot TX ring with the paper's 1024-slot RX ring, so bursts
/// outrun TX and each stack parks rejected requests in its backlog and
/// retries them before polling again.
fn small_tx_ring() -> SystemConfig {
    let mut cfg = SystemConfig::gem5();
    cfg.nic.tx_ring_size = 8;
    cfg
}

/// The DPDK backlog golden: TestPMD past its 64 B knee (20 Gbps) on the
/// 8-slot TX ring. A 1 µs wire and a 5 µs window keep the file small
/// while the backlog retry runs dozens of times.
#[test]
fn testpmd_small_tx_ring_matches_committed_golden_file() {
    let mut cfg = small_tx_ring();
    cfg.link_latency = us(1);
    let text = trace_and_dumps(build_loadgen_sim(&cfg, &AppSpec::TestPmd, 64, 20.0), 5);
    assert_golden("testpmd_tx8.trace", &text);
}

/// The kernel backlog golden: MemcachedKernel at 600 kRPS on the 8-slot
/// TX ring, where NAPI cycles answer more requests than the ring holds.
#[test]
fn memcached_kernel_small_tx_ring_matches_committed_golden_file() {
    let cfg = small_tx_ring();
    let text = trace_and_dumps(
        build_loadgen_sim(&cfg, &AppSpec::MemcachedKernel, 0, 600.0),
        250,
    );
    assert_golden("memcached_kernel_tx8.trace", &text);
}

#[test]
fn trace_filter_restricts_components() {
    let cfg = SystemConfig::gem5();
    let rc = RunConfig {
        warmup: 0,
        measure: us(250),
    };
    let opts = ObserveOpts {
        trace: Some((1 << 16, Component::Nic.bit())),
        ..Default::default()
    };
    let run = run_observed(&cfg, &AppSpec::TestPmd, 1518, 2.0, rc, opts);
    assert!(!run.events.is_empty());
    assert!(run.events.iter().all(|e| e.component == Component::Nic));
}
