//! The queue-pair bookkeeping both stacks share.
//!
//! A DPDK lcore and a kernel softirq core do the same work around their
//! own per-packet costs: poll their RX queues, stage each reply on the
//! TX queue its request arrived on, submit the staged batches when the
//! iteration's stores retire, park what a full TX ring rejects and
//! retry it first next time, and hand the processed RX descriptors back.
//! [`QueuePairs`] does that once, and counts the iterations, which all
//! end there; each stack adds only its own ops and its poll policy.

use simnet_cpu::{Core, Op};
use simnet_mem::{layout, MemorySystem};
use simnet_nic::i8254x::{RxCompletion, TxRequest};
use simnet_nic::Nic;
use simnet_sim::Tick;

use crate::{Iteration, StackStats};

/// TX mbufs per lcore. Sent frames are fire-and-forget, so the ring
/// reuses its indices in order and never frees one.
const TX_MBUFS: usize = 4096;

/// Most queue pairs a NIC has.
const MAX_QUEUES: usize = 8;

/// One lcore's share of the NIC's queue pairs, with its TX mbuf ring.
#[derive(Debug)]
pub(crate) struct QueuePairs {
    /// NIC queues this lcore serves (its RSS share). `[0]` is the
    /// single-queue legacy assignment.
    queues: Vec<usize>,
    /// Reused op-stream and RX completion buffers (allocation-free
    /// steady state).
    ops: Vec<Op>,
    completions: Vec<RxCompletion>,
    /// Packets polled from each queue this iteration: the descriptors
    /// its end posts back.
    rx_counts: [usize; MAX_QUEUES],
    /// Reused per-queue TX staging batches.
    tx_batches: Vec<Vec<TxRequest>>,
    /// Per-queue TX descriptor cursors of this iteration.
    tx_cursors: [usize; MAX_QUEUES],
    /// Requests staged this iteration.
    tx_staged: usize,
    /// Rejected TX requests tagged with their queue, awaiting retry.
    backlog: Vec<(usize, TxRequest)>,
    /// RX ring entries per queue, as of the last poll.
    rx_ring: usize,
    /// TX ring entries per queue, as of the last poll.
    tx_ring: usize,
    /// The NIC's queue-pair count, as of the last poll.
    num_queues: usize,
    /// First index of this lcore's TX mbuf ring.
    mbuf_base: usize,
    /// Offset of the next TX mbuf in the ring.
    mbuf_cursor: usize,
    /// Iteration counters.
    pub(crate) stats: StackStats,
}

impl QueuePairs {
    /// Queue 0 for lcore `lcore`, whose TX mbufs are the 4096 indices
    /// from `first_mbuf + lcore * 4096`.
    pub(crate) fn new(first_mbuf: usize, lcore: usize) -> Self {
        Self {
            queues: vec![0],
            ops: Vec::new(),
            completions: Vec::new(),
            rx_counts: [0; MAX_QUEUES],
            tx_batches: Vec::new(),
            tx_cursors: [0; MAX_QUEUES],
            tx_staged: 0,
            backlog: Vec::new(),
            rx_ring: 0,
            tx_ring: 0,
            num_queues: 0,
            mbuf_base: first_mbuf + lcore * TX_MBUFS,
            mbuf_cursor: 0,
            stats: StackStats::default(),
        }
    }

    /// Serves `queues` from now on.
    pub(crate) fn assign(&mut self, queues: Vec<usize>) {
        assert!(!queues.is_empty(), "an lcore needs at least one queue");
        self.queues = queues;
    }

    /// The lcore's first queue, where its own originations leave.
    pub(crate) fn first(&self) -> usize {
        self.queues[0]
    }

    /// Requests staged since the last poll.
    pub(crate) fn staged(&self) -> usize {
        self.tx_staged
    }

    /// Rejected requests awaiting retry.
    #[cfg(test)]
    pub(crate) fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// If the TX ring rejected requests earlier, resubmits them at `now`
    /// and runs `spin` instructions of TX spinning on `core`. The stack
    /// retries before it polls RX again: the stall that backs pressure
    /// up into the RX ring (TxDrops).
    pub(crate) fn retry_backlog(
        &mut self,
        now: Tick,
        nic: &mut Nic,
        core: &mut Core,
        mem: &mut MemorySystem,
        spin: u64,
    ) -> Option<Iteration> {
        if self.backlog.is_empty() {
            return None;
        }
        self.tx_batches.resize_with(nic.num_queues(), Vec::new);
        for (q, req) in self.backlog.drain(..) {
            self.tx_batches[q].push(req);
        }
        let tx = self.submit(now, nic);
        let end = core.execute(now, &[Op::Compute(spin)], mem);
        Some(self.observe(Iteration {
            end,
            rx: 0,
            tx,
            idle: false,
        }))
    }

    /// Opens an iteration: polls the lcore's queues in order for
    /// packets visible at `now`, `max` in all, and returns the empty op
    /// buffer with the completions. [`QueuePairs::finish`] takes both
    /// back.
    pub(crate) fn poll(
        &mut self,
        now: Tick,
        nic: &mut Nic,
        max: usize,
    ) -> (Vec<Op>, Vec<RxCompletion>) {
        self.rx_ring = nic.config().rx_ring_size;
        self.tx_ring = nic.config().tx_ring_size;
        self.num_queues = nic.num_queues();
        let mut completions = std::mem::take(&mut self.completions);
        completions.clear();
        self.rx_counts = [0; MAX_QUEUES];
        for &q in &self.queues {
            let before = completions.len();
            nic.rx_poll_q_into(q, now, max, &mut completions);
            self.rx_counts[q] += completions.len() - before;
        }
        self.tx_batches.resize_with(self.num_queues, Vec::new);
        self.tx_cursors = [0; MAX_QUEUES];
        self.tx_staged = 0;
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();
        (ops, completions)
    }

    /// The queue `completion` arrived on, where its reply leaves.
    pub(crate) fn queue_of(&self, completion: &RxCompletion) -> usize {
        completion.slot / self.rx_ring
    }

    /// The next TX mbuf, for a frame the stack builds.
    pub(crate) fn tx_mbuf(&mut self) -> usize {
        let index = self.mbuf_base + self.mbuf_cursor;
        self.mbuf_cursor = (self.mbuf_cursor + 1) % TX_MBUFS;
        index
    }

    /// Stages `req` on queue `q`: its descriptor store goes into `ops`,
    /// the request into `q`'s batch, submitted when the iteration ends.
    pub(crate) fn stage_tx(&mut self, q: usize, req: TxRequest, ops: &mut Vec<Op>) {
        ops.push(Op::Store(layout::tx_desc_addr(
            q * self.tx_ring + self.tx_cursors[q],
            self.tx_ring * self.num_queues,
        )));
        self.tx_cursors[q] += 1;
        self.tx_batches[q].push(req);
        self.tx_staged += 1;
    }

    /// Ends the iteration: runs `ops` on `core` from `now`, then, at the
    /// tick the stores retire, submits the staged batches and posts each
    /// queue's processed RX descriptors back.
    pub(crate) fn finish(
        &mut self,
        now: Tick,
        nic: &mut Nic,
        core: &mut Core,
        mem: &mut MemorySystem,
        ops: Vec<Op>,
        completions: Vec<RxCompletion>,
    ) -> Iteration {
        let end = core.execute(now, &ops, mem);
        self.submit(end, nic);
        for &q in &self.queues {
            nic.rx_ring_post_q_at(q, end, self.rx_counts[q]);
        }
        self.ops = ops;
        self.completions = completions;
        let rx = self.rx_counts.iter().sum();
        self.observe(Iteration {
            end,
            rx,
            tx: self.tx_staged,
            idle: rx == 0 && self.tx_staged == 0,
        })
    }

    /// Folds `it` into the counters and returns it.
    fn observe(&mut self, it: Iteration) -> Iteration {
        self.stats.observe(&it);
        it
    }

    /// Submits every non-empty batch at `at`, queue by queue, and parks
    /// the rejects in the backlog. Returns how many the rings accepted.
    fn submit(&mut self, at: Tick, nic: &mut Nic) -> usize {
        let mut accepted = 0;
        for (q, batch) in self.tx_batches.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            accepted += nic.tx_submit_q(q, at, batch);
            self.backlog.extend(batch.drain(..).map(|r| (q, r)));
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_mbufs_cycle_through_the_lcores_ring() {
        let mut queues = QueuePairs::new(8192, 1);
        let first: Vec<usize> = (0..TX_MBUFS).map(|_| queues.tx_mbuf()).collect();
        assert_eq!(first[0], 8192 + TX_MBUFS);
        assert!(first.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(queues.tx_mbuf(), first[0], "the ring wraps");
    }
}
