//! The simulated NIC: an i8254x-style (Intel e1000-family) device model,
//! extended the way the paper extends gem5's (§III.A):
//!
//! * a **descriptor cache** whose writeback threshold is a user-visible
//!   parameter (§III.A.3 — without it, a polling-mode driver sees packets
//!   land in unrealistic 32–64 packet batches);
//! * an **interrupt mask register** with working read/write methods
//!   (§III.A.5 — present but unimplemented in baseline gem5, which keeps
//!   DPDK's PMD from launching);
//! * a PCI configuration space (from [`simnet_pci`]) with the
//!   interrupt-disable and byte-granular-access fixes;
//! * DMA through [`simnet_mem::MemorySystem`], so Direct Cache Access and
//!   I/O-bus saturation behave per §III.A.4 and Fig. 6.
//!
//! The packet life cycle matches Fig. 3: wire → RX FIFO → DMA → RX ring →
//! software poll → TX ring → DMA → TX FIFO → wire. The Fig. 4 finite-state
//! machine ([`drop_fsm::DropFsm`]) classifies every drop as a DmaDrop,
//! CoreDrop or TxDrop.

pub mod config;
pub mod drop_fsm;
pub mod fifo;
pub mod i8254x;
pub mod regs;

pub use config::NicConfig;
pub use drop_fsm::{DropFsm, DropKind};
pub use fifo::ByteFifo;
pub use i8254x::{Nic, RxCompletion, RxFrame};
pub use regs::{NicCompatMode, RegisterFile};
