//! TCP client mode: the state machine the paper defers to future work.
//!
//! §V: "adding support for TCP would require implementing a TCP state
//! machine inside EtherLoadGen (which is a future work)". This module is
//! that extension: an iperf-style bulk-stream sender with a three-way
//! handshake, a fixed congestion window, cumulative ACK processing,
//! duplicate-ACK fast retransmit and RTO-based go-back-N recovery — enough
//! protocol to exercise a TCP sink on the simulated kernel stack,
//! including loss recovery when the NIC drops segments.

use std::collections::BTreeMap;

use simnet_net::tcp::{self, build_tcp_frame, flags, parse_tcp_frame, TcpHeader};
use simnet_net::{MacAddr, Packet};
use simnet_sim::stats::Counter;
use simnet_sim::tick::{us, Tick};

use crate::{CLIENT_IP, SERVER_IP};

/// Connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Nothing sent yet.
    Closed,
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Handshake complete; streaming.
    Established,
}

/// TCP client-mode parameters and state.
#[derive(Debug, Clone)]
pub struct TcpClientConfig {
    /// Server (node under test) MAC.
    pub server_mac: MacAddr,
    /// Client MAC.
    pub client_mac: MacAddr,
    /// Payload bytes per segment (1448 fills a 1518 B frame).
    pub mss: usize,
    /// Fixed window, in segments (the "offered load" knob of a
    /// window-limited sender).
    pub window_segments: usize,
    /// Current retransmission timeout (adaptive: SRTT + 4·RTTVAR,
    /// Jacobson/Karels, clamped to `[RTO_MIN, RTO_MAX]`).
    pub rto: Tick,
    /// Smoothed RTT estimate (0 until the first sample).
    srtt: Tick,
    /// RTT variance estimate.
    rttvar: Tick,
    /// Congestion window in segments (Reno: slow start + AIMD). The
    /// effective send window is `min(cwnd, window_segments)`.
    cwnd: f64,
    /// Slow-start threshold in segments.
    ssthresh: f64,

    state: State,
    /// First unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Server's initial sequence number + 1 (what we acknowledge).
    rcv_nxt: u32,
    rto_deadline: Option<Tick>,
    dup_acks: u32,
    /// Send time per in-flight segment seq (cleared on retransmission —
    /// Karn's rule — so RTT samples never come from retransmits).
    send_times: BTreeMap<u32, Tick>,
    /// Cumulative payload bytes acknowledged.
    pub acked_bytes: Counter,
    /// Segments retransmitted.
    pub retransmissions: Counter,
    /// RTO expirations.
    pub timeouts: Counter,
}

/// Lower RTO clamp.
const RTO_MIN: Tick = us(400);
/// Upper RTO clamp.
const RTO_MAX: Tick = us(20_000);

const ISS: u32 = 1_000;
const SRC_PORT: u16 = 40_001;
/// iperf's well-known control/data port.
pub const TCP_SERVER_PORT: u16 = 5_001;

impl TcpClientConfig {
    /// Creates a bulk-stream client with the given window (segments of
    /// `mss` payload bytes).
    pub fn new(
        server_mac: MacAddr,
        client_mac: MacAddr,
        window_segments: usize,
        mss: usize,
    ) -> Self {
        assert!(window_segments > 0, "window must be positive");
        assert!((1..=1448).contains(&mss), "mss must fit a standard frame");
        Self {
            server_mac,
            client_mac,
            mss,
            window_segments,
            rto: us(600), // initial guess; adapts after the first sample
            srtt: 0,
            rttvar: 0,
            cwnd: 2.0,
            ssthresh: f64::INFINITY,
            state: State::Closed,
            snd_una: ISS,
            snd_nxt: ISS,
            rcv_nxt: 0,
            rto_deadline: None,
            dup_acks: 0,
            send_times: BTreeMap::new(),
            acked_bytes: Counter::new(),
            retransmissions: Counter::new(),
            timeouts: Counter::new(),
        }
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// Payload bytes in flight.
    pub fn bytes_in_flight(&self) -> u64 {
        self.snd_nxt.wrapping_sub(self.snd_una) as u64
    }

    /// The effective send window in bytes: the configured window capped
    /// by the congestion window.
    fn effective_window_bytes(&self) -> u64 {
        let segments = (self.cwnd.floor() as usize).clamp(1, self.window_segments);
        (segments * self.mss) as u64
    }

    /// Current congestion window, in segments.
    pub fn cwnd_segments(&self) -> f64 {
        self.cwnd
    }

    /// Goodput over a window, in Gbps of acknowledged payload.
    pub fn goodput_gbps(&self, window: Tick) -> f64 {
        if window == 0 {
            return 0.0;
        }
        self.acked_bytes.value() as f64 * 8.0 / (window as f64 / simnet_sim::tick::S as f64) / 1e9
    }

    /// When the client next wants to transmit, if ever.
    pub(crate) fn next_departure(&self, now: Tick) -> Option<Tick> {
        match self.state {
            State::Closed => Some(now),
            State::SynSent => self.rto_deadline.map(|d| d.max(now)),
            State::Established => {
                if self.bytes_in_flight() + self.mss as u64 <= self.effective_window_bytes() {
                    Some(now) // window open: send immediately
                } else {
                    self.rto_deadline.map(|d| d.max(now)) // wait for ACK or RTO
                }
            }
        }
    }

    /// Builds the next frame to transmit at `now`.
    pub(crate) fn build(&mut self, id: u64, now: Tick) -> Option<Packet> {
        match self.state {
            State::Closed => {
                self.state = State::SynSent;
                self.rto_deadline = Some(now + self.rto);
                let header = TcpHeader::new(SRC_PORT, TCP_SERVER_PORT, ISS, 0, flags::SYN, 0xFFFF);
                Some(self.frame(id, header, &[]))
            }
            State::SynSent => {
                // SYN retransmission on RTO.
                if self.rto_deadline.is_some_and(|d| now >= d) {
                    self.timeouts.inc();
                    self.retransmissions.inc();
                    self.rto_deadline = Some(now + self.rto);
                    let header =
                        TcpHeader::new(SRC_PORT, TCP_SERVER_PORT, ISS, 0, flags::SYN, 0xFFFF);
                    return Some(self.frame(id, header, &[]));
                }
                None
            }
            State::Established => {
                let rto_expired =
                    self.rto_deadline.is_some_and(|d| now >= d) && self.bytes_in_flight() > 0;
                let seq = if rto_expired {
                    // Go-back-N: resume from the first unacknowledged byte,
                    // with exponential RTO backoff (undone by new samples)
                    // and a collapse of the congestion window.
                    self.timeouts.inc();
                    self.retransmissions.inc();
                    self.send_times.clear(); // Karn: no samples from retransmits
                    self.rto = (self.rto * 2).min(RTO_MAX);
                    let flight_segments = (self.bytes_in_flight() / self.mss as u64).max(2) as f64;
                    self.ssthresh = (flight_segments / 2.0).max(2.0);
                    self.cwnd = 1.0;
                    self.snd_nxt = self.snd_una;
                    self.snd_una
                } else if self.bytes_in_flight() + self.mss as u64 <= self.effective_window_bytes()
                {
                    self.snd_nxt
                } else {
                    return None;
                };
                let payload = vec![0x55u8; self.mss];
                let header = TcpHeader::new(
                    SRC_PORT,
                    TCP_SERVER_PORT,
                    seq,
                    self.rcv_nxt,
                    flags::ACK | flags::PSH,
                    0xFFFF,
                );
                if !rto_expired {
                    self.send_times.insert(seq, now);
                }
                self.snd_nxt = seq.wrapping_add(self.mss as u32);
                self.rto_deadline = Some(now + self.rto);
                Some(self.frame(id, header, &payload))
            }
        }
    }

    /// Processes a frame from the server; returns an RTT sample if this
    /// ACK timed a (non-retransmitted) segment.
    pub(crate) fn on_rx(&mut self, now: Tick, packet: &Packet) -> Option<Tick> {
        let (_, header, _) = parse_tcp_frame(packet)?;
        match self.state {
            State::Closed => None,
            State::SynSent => {
                if header.has(flags::SYN | flags::ACK) && header.ack == ISS.wrapping_add(1) {
                    self.state = State::Established;
                    self.rcv_nxt = header.seq.wrapping_add(1);
                    self.snd_una = header.ack;
                    self.snd_nxt = header.ack;
                    self.rto_deadline = None;
                }
                None
            }
            State::Established => {
                if !header.has(flags::ACK) {
                    return None;
                }
                if tcp::seq_lt(self.snd_una, header.ack) {
                    let advanced = header.ack.wrapping_sub(self.snd_una);
                    self.acked_bytes.add(advanced as u64);
                    self.snd_una = header.ack;
                    self.dup_acks = 0;
                    // Reno growth: exponential in slow start, additive in
                    // congestion avoidance.
                    let acked_segments = (advanced as f64 / self.mss as f64).max(1.0);
                    if self.cwnd < self.ssthresh {
                        self.cwnd += acked_segments;
                    } else {
                        self.cwnd += acked_segments / self.cwnd.max(1.0);
                    }
                    self.cwnd = self.cwnd.min(self.window_segments as f64);
                    self.rto_deadline = if self.bytes_in_flight() > 0 {
                        Some(now + self.rto)
                    } else {
                        None
                    };
                    // RTT from the newest fully acknowledged timed segment.
                    let mut sample = None;
                    let acked: Vec<u32> = self
                        .send_times
                        .range(..)
                        .map(|(&s, _)| s)
                        .filter(|&s| tcp::seq_lt(s, header.ack))
                        .collect();
                    for seq in acked {
                        if let Some(sent) = self.send_times.remove(&seq) {
                            sample = Some(now.saturating_sub(sent));
                        }
                    }
                    if let Some(rtt) = sample {
                        self.update_rto(rtt);
                    }
                    sample
                } else if header.ack == self.snd_una && self.bytes_in_flight() > 0 {
                    self.dup_acks += 1;
                    if self.dup_acks == 3 {
                        // Fast retransmit + multiplicative decrease.
                        self.dup_acks = 0;
                        self.retransmissions.inc();
                        self.send_times.clear();
                        let flight_segments =
                            (self.bytes_in_flight() / self.mss as u64).max(2) as f64;
                        self.ssthresh = (flight_segments / 2.0).max(2.0);
                        self.cwnd = self.ssthresh;
                        self.snd_nxt = self.snd_una;
                        self.rto_deadline = Some(now); // send immediately
                    }
                    None
                } else {
                    None
                }
            }
        }
    }

    /// Jacobson/Karels RTO adaptation.
    fn update_rto(&mut self, rtt: Tick) {
        if self.srtt == 0 {
            self.srtt = rtt;
            self.rttvar = rtt / 2;
        } else {
            let err = self.srtt.abs_diff(rtt);
            self.rttvar = (3 * self.rttvar + err) / 4;
            self.srtt = (7 * self.srtt + rtt) / 8;
        }
        self.rto = (self.srtt + 4 * self.rttvar).clamp(RTO_MIN, RTO_MAX);
    }

    fn frame(&self, id: u64, header: TcpHeader, payload: &[u8]) -> Packet {
        build_tcp_frame(
            id,
            self.client_mac,
            self.server_mac,
            CLIENT_IP,
            SERVER_IP,
            header,
            payload,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(window: usize) -> TcpClientConfig {
        TcpClientConfig::new(MacAddr::simulated(1), MacAddr::simulated(2), window, 1448)
    }

    fn synack(client_cfg: &TcpClientConfig) -> Packet {
        let header = TcpHeader::new(
            TCP_SERVER_PORT,
            SRC_PORT,
            50_000,
            ISS + 1,
            flags::SYN | flags::ACK,
            0xFFFF,
        );
        build_tcp_frame(
            0,
            client_cfg.server_mac,
            client_cfg.client_mac,
            SERVER_IP,
            CLIENT_IP,
            header,
            &[],
        )
    }

    fn ack(client_cfg: &TcpClientConfig, ack_no: u32) -> Packet {
        let header = TcpHeader::new(
            TCP_SERVER_PORT,
            SRC_PORT,
            50_001,
            ack_no,
            flags::ACK,
            0xFFFF,
        );
        build_tcp_frame(
            0,
            client_cfg.server_mac,
            client_cfg.client_mac,
            SERVER_IP,
            CLIENT_IP,
            header,
            &[],
        )
    }

    #[test]
    fn slow_start_grows_cwnd_on_acks() {
        let mut c = client(64);
        c.build(0, 0);
        c.on_rx(1_000, &synack(&c));
        assert_eq!(c.cwnd_segments(), 2.0);
        c.build(1, 2_000);
        c.build(2, 2_001);
        let ack1 = (ISS + 1).wrapping_add(1448);
        c.on_rx(210_000, &ack(&c, ack1));
        assert!(c.cwnd_segments() >= 3.0, "exponential growth in slow start");
    }

    #[test]
    fn handshake_then_streams_within_window() {
        let mut c = client(2);
        // SYN departs immediately.
        let syn = c.build(0, 0).expect("SYN");
        let (_, h, _) = parse_tcp_frame(&syn).unwrap();
        assert!(h.has(flags::SYN));
        assert!(!c.is_established());

        c.on_rx(1_000, &synack(&c));
        assert!(c.is_established());

        // Window of 2 segments: two sends, then blocked.
        assert!(c.build(1, 2_000).is_some());
        assert!(c.build(2, 3_000).is_some());
        assert_eq!(c.bytes_in_flight(), 2 * 1448);
        assert!(c.build(3, 4_000).is_none(), "window closed");

        // Cumulative ACK of the first segment reopens one slot.
        let first_ack = (ISS + 1).wrapping_add(1448);
        let rtt = c.on_rx(300_000, &ack(&c, first_ack));
        assert_eq!(rtt, Some(298_000), "RTT measured from segment send");
        assert_eq!(c.acked_bytes.value(), 1448);
        assert!(c.next_departure(300_000) == Some(300_000));
        assert!(c.build(4, 300_000).is_some());
    }

    #[test]
    fn syn_retransmits_on_rto() {
        let mut c = client(1);
        c.build(0, 0).expect("SYN");
        assert!(c.build(1, 1_000).is_none(), "before RTO: wait");
        let deadline = c.next_departure(1_000).expect("RTO scheduled");
        let retx = c.build(2, deadline).expect("SYN retransmit");
        let (_, h, _) = parse_tcp_frame(&retx).unwrap();
        assert!(h.has(flags::SYN));
        assert_eq!(c.retransmissions.value(), 1);
        assert_eq!(c.timeouts.value(), 1);
    }

    #[test]
    fn rto_triggers_go_back_n() {
        let mut c = client(4);
        c.build(0, 0);
        c.on_rx(1_000, &synack(&c));
        // Slow start opens with cwnd = 2: only two segments may fly.
        assert!(c.build(1, 2_000).is_some());
        assert!(c.build(2, 2_001).is_some());
        assert!(c.build(3, 2_002).is_none(), "cwnd=2 blocks the third");
        let first_seq = ISS + 1;
        assert_eq!(c.bytes_in_flight(), 2 * 1448);
        // No ACKs arrive; the RTO fires, cwnd collapses to 1 and the
        // stream resends from snd_una.
        let deadline = c.next_departure(10_000).expect("RTO pending");
        let retx = c.build(9, deadline).expect("go-back-N resend");
        let (_, h, _) = parse_tcp_frame(&retx).unwrap();
        assert_eq!(h.seq, first_seq);
        assert!(c.timeouts.value() >= 1);
        assert!(c.cwnd_segments() <= 1.0, "multiplicative collapse on RTO");
    }

    #[test]
    fn triple_duplicate_ack_fast_retransmits() {
        let mut c = client(8);
        c.build(0, 0);
        c.on_rx(1_000, &synack(&c));
        for i in 0..4u64 {
            c.build(1 + i, 2_000);
        }
        let una = ISS + 1;
        for _ in 0..3 {
            c.on_rx(5_000, &ack(&c, una));
        }
        assert_eq!(c.retransmissions.value(), 1, "fast retransmit armed");
        let retx = c.build(9, 5_000).expect("resend hole");
        let (_, h, _) = parse_tcp_frame(&retx).unwrap();
        assert_eq!(h.seq, una);
    }

    #[test]
    fn retransmitted_segments_never_give_rtt_samples() {
        let mut c = client(1); // window of 1: the next send can only be a resend
        c.build(0, 0);
        c.on_rx(1_000, &synack(&c));
        c.build(1, 2_000);
        let deadline = c.next_departure(2_500).expect("RTO deadline");
        assert!(deadline > 2_500, "window closed; only the RTO remains");
        c.build(2, deadline); // RTO resend clears send_times (Karn)
        assert_eq!(c.timeouts.value(), 1);
        let first_ack = (ISS + 1).wrapping_add(1448);
        let rtt = c.on_rx(deadline + 1_000, &ack(&c, first_ack));
        assert_eq!(rtt, None, "Karn's rule");
        assert!(c.acked_bytes.value() > 0);
    }
}
