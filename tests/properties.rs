//! Property-based tests over the assembled system and core data
//! structures: conservation laws and determinism must hold for arbitrary
//! (valid) loads and frame sizes.

use proptest::prelude::*;
use simnet::harness::summary::{run_phases, Phases};
use simnet::harness::{build_loadgen_sim, AppSpec, RunConfig, SystemConfig};
use simnet::net::pcap::{PcapReader, PcapWriter};
use simnet::net::{PacketBuilder, MIN_FRAME_LEN};
use simnet::sim::tick::us;

fn quick_phases() -> RunConfig {
    RunConfig {
        phases: Phases {
            warmup: us(100),
            measure: us(300),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// Packet conservation: everything the generator sent is accounted
    /// for — echoed, dropped at the NIC, or still inside the pipeline
    /// (buffers hold at most FIFO + rings + in-flight wire packets).
    #[test]
    fn packet_conservation(
        size in prop_oneof![Just(64usize), Just(256), Just(750), Just(1518)],
        gbps in 1.0f64..70.0,
    ) {
        let cfg = SystemConfig::gem5();
        let mut sim = build_loadgen_sim(&cfg, &AppSpec::TestPmd, size, gbps);
        run_phases(&mut sim, quick_phases().phases);

        let lg = sim.loadgen.as_ref().expect("loadgen mode");
        let fsm = sim.nodes[0].nic.drop_fsm();
        let tx = lg.tx_packets();
        let rx = lg.rx_packets();
        let dropped = fsm.dma_drops.value() + fsm.core_drops.value() + fsm.tx_drops.value();
        prop_assert!(rx <= tx, "echoes cannot exceed sends: rx={rx} tx={tx}");
        let in_pipeline = tx - rx - dropped.min(tx - rx);
        // Generous bound: FIFO + both rings + visible queue + wire.
        let capacity = 2 * cfg.nic.rx_ring_size as u64
            + cfg.nic.tx_ring_size as u64
            + (cfg.nic.rx_fifo_bytes + cfg.nic.tx_fifo_bytes) / MIN_FRAME_LEN as u64
            + 4_096;
        prop_assert!(
            in_pipeline <= capacity,
            "pipeline holds {in_pipeline} > capacity {capacity} (tx={tx} rx={rx} drop={dropped})"
        );
    }

    /// Achieved goodput never exceeds offered load (no packet duplication
    /// anywhere in the pipeline).
    #[test]
    fn no_amplification(
        size in prop_oneof![Just(128usize), Just(1024)],
        gbps in 1.0f64..50.0,
    ) {
        let cfg = SystemConfig::gem5();
        let s = simnet::harness::run_point(&cfg, &AppSpec::TestPmd, size, gbps, quick_phases());
        // Allow a small margin for packets buffered during warm-up
        // draining inside the measurement window.
        prop_assert!(
            s.report.achieved_gbps <= s.report.offered_gbps * 1.15 + 0.5,
            "achieved {} > offered {}",
            s.report.achieved_gbps,
            s.report.offered_gbps
        );
    }

    /// The whole simulation is deterministic for any (size, load).
    #[test]
    fn end_to_end_determinism(
        size in prop_oneof![Just(64usize), Just(512)],
        gbps in 1.0f64..60.0,
    ) {
        let cfg = SystemConfig::gem5();
        let a = simnet::harness::run_point(&cfg, &AppSpec::TestPmd, size, gbps, quick_phases());
        let b = simnet::harness::run_point(&cfg, &AppSpec::TestPmd, size, gbps, quick_phases());
        prop_assert_eq!(a.report.tx_packets, b.report.tx_packets);
        prop_assert_eq!(a.report.rx_packets, b.report.rx_packets);
        prop_assert_eq!(a.drop_counts, b.drop_counts);
        prop_assert_eq!(a.events, b.events);
    }

    /// PCAP files round-trip arbitrary frame contents and timestamps.
    #[test]
    fn pcap_round_trip(
        frames in prop::collection::vec(
            (0u64..10_000_000_000, prop::collection::vec(any::<u8>(), 14..1518)),
            1..40
        )
    ) {
        let mut sorted = frames.clone();
        sorted.sort_by_key(|(t, _)| *t);
        let mut buf = Vec::new();
        {
            let mut writer = PcapWriter::new(&mut buf).unwrap();
            for (tick, data) in &sorted {
                writer.write_packet(*tick, data).unwrap();
            }
        }
        let mut reader = PcapReader::new(&buf[..]).unwrap();
        let records = reader.read_all().unwrap();
        prop_assert_eq!(records.len(), sorted.len());
        for (record, (tick, data)) in records.iter().zip(&sorted) {
            // Nanosecond resolution: picosecond remainders are rounded away.
            prop_assert_eq!(record.tick, tick - tick % 1_000);
            prop_assert_eq!(&record.data, data);
        }
    }

    /// Frame building respects requested sizes and stays parseable.
    #[test]
    fn built_frames_parse(
        payload_len in 0usize..1000,
        frame_len in 64usize..1518,
    ) {
        prop_assume!(frame_len >= 42 + payload_len);
        let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
        let pkt = PacketBuilder::new()
            .udp([10, 0, 0, 1], [10, 0, 0, 2], 1111, 2222)
            .payload(&payload)
            .frame_len(frame_len)
            .build(9);
        prop_assert_eq!(pkt.len(), frame_len);
        let (_, _, got) = pkt.udp().expect("frame parses and checksums");
        prop_assert_eq!(&got[..payload_len], &payload[..]);
    }
}
