//! The NIC's memory-mapped register file (e1000-style offsets).
//!
//! §III.A.5: "the Interrupt Mask Register ... is included in the i8254xGBe
//! model, but the read and write methods for accessing the register are
//! not implemented in the current gem5 release. We implemented the read
//! and write methods to enable DPDK to launch its PMD." In
//! [`CompatMode::Baseline`], accesses to IMS/IMC fault exactly like
//! unimplemented-register accesses in gem5; in
//! [`CompatMode::Extended`] they work.

use simnet_pci::CompatMode;

/// Register offsets within BAR0 (subset of the 8254x map).
pub mod offsets {
    /// Device control.
    pub const CTRL: u32 = 0x0000;
    /// Device status.
    pub const STATUS: u32 = 0x0008;
    /// Interrupt cause read (read-to-clear).
    pub const ICR: u32 = 0x00C0;
    /// Interrupt mask set/read.
    pub const IMS: u32 = 0x00D0;
    /// Interrupt mask clear.
    pub const IMC: u32 = 0x00D8;
    /// RX descriptor ring length.
    pub const RDLEN: u32 = 0x2808;
    /// RX descriptor head (NIC-owned).
    pub const RDH: u32 = 0x2810;
    /// RX descriptor tail (software-owned).
    pub const RDT: u32 = 0x2818;
    /// RX descriptor writeback threshold — the parameter §III.A.3 adds so
    /// "the user can control the threshold of descriptor writebacks".
    pub const WBTHRESH: u32 = 0x2828;
    /// TX descriptor ring length.
    pub const TDLEN: u32 = 0x3808;
    /// TX descriptor head.
    pub const TDH: u32 = 0x3810;
    /// TX descriptor tail.
    pub const TDT: u32 = 0x3818;
    /// Multiple receive queues command — RSS enable + active queue count
    /// (82574/82599-style; zero means single-queue legacy operation).
    pub const MRQC: u32 = 0x5818;
}

/// Interrupt cause / mask bits (subset).
pub mod irq {
    /// Receive timer / packet delivered.
    pub const RXT0: u32 = 1 << 7;
    /// RX descriptor minimum threshold.
    pub const RXDMT0: u32 = 1 << 4;
    /// Receiver FIFO overrun.
    pub const RXO: u32 = 1 << 6;
    /// TX descriptor written back.
    pub const TXDW: u32 = 1 << 0;
}

/// Error accessing a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegError {
    /// The register's accessor is not implemented in this compat mode.
    Unimplemented(u32),
    /// No register at this offset.
    Unknown(u32),
}

impl std::fmt::Display for RegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegError::Unimplemented(off) => {
                write!(f, "register 0x{off:04x} access methods not implemented")
            }
            RegError::Unknown(off) => write!(f, "no register at offset 0x{off:04x}"),
        }
    }
}

impl std::error::Error for RegError {}

/// The register file.
#[derive(Debug)]
pub struct RegisterFile {
    mode: CompatMode,
    ctrl: u32,
    ims: u32,
    icr: u32,
    rdlen: u32,
    rdh: u32,
    rdt: u32,
    tdlen: u32,
    tdh: u32,
    tdt: u32,
    wbthresh: u32,
    mrqc: u32,
}

impl RegisterFile {
    /// Creates a register file in the given compat mode.
    pub fn new(mode: CompatMode) -> Self {
        Self {
            mode,
            ctrl: 0,
            ims: 0,
            icr: 0,
            rdlen: 0,
            rdh: 0,
            rdt: 0,
            tdlen: 0,
            tdh: 0,
            tdt: 0,
            wbthresh: 4,
            mrqc: 0,
        }
    }

    /// The compat mode.
    pub fn mode(&self) -> CompatMode {
        self.mode
    }

    /// Current interrupt mask.
    pub fn interrupt_mask(&self) -> u32 {
        self.ims
    }

    /// Whether any cause in `mask` is both raised and unmasked.
    pub fn interrupt_pending(&self) -> bool {
        self.icr & self.ims != 0
    }

    /// Raises interrupt cause bits (device side).
    pub fn raise_cause(&mut self, bits: u32) {
        self.icr |= bits;
    }

    /// The configured descriptor writeback threshold.
    pub fn writeback_threshold(&self) -> usize {
        self.wbthresh.max(1) as usize
    }

    /// The RSS queue count programmed into MRQC (0 = legacy
    /// single-queue).
    pub fn rss_queues(&self) -> usize {
        self.mrqc as usize
    }

    /// MMIO read.
    ///
    /// # Errors
    ///
    /// [`RegError::Unimplemented`] for IMS in baseline mode;
    /// [`RegError::Unknown`] for unmapped offsets.
    pub fn read(&mut self, offset: u32) -> Result<u32, RegError> {
        use offsets::*;
        match offset {
            CTRL => Ok(self.ctrl),
            STATUS => Ok(0x8000_0003), // link up, full duplex
            ICR => {
                let v = self.icr;
                self.icr = 0; // read-to-clear
                Ok(v)
            }
            IMS => match self.mode {
                CompatMode::Baseline => Err(RegError::Unimplemented(offset)),
                CompatMode::Extended => Ok(self.ims),
            },
            RDLEN => Ok(self.rdlen),
            RDH => Ok(self.rdh),
            RDT => Ok(self.rdt),
            WBTHRESH => Ok(self.wbthresh),
            TDLEN => Ok(self.tdlen),
            TDH => Ok(self.tdh),
            TDT => Ok(self.tdt),
            MRQC => Ok(self.mrqc),
            other => Err(RegError::Unknown(other)),
        }
    }

    /// MMIO write.
    ///
    /// # Errors
    ///
    /// [`RegError::Unimplemented`] for IMS/IMC in baseline mode;
    /// [`RegError::Unknown`] for unmapped offsets.
    pub fn write(&mut self, offset: u32, value: u32) -> Result<(), RegError> {
        use offsets::*;
        match offset {
            CTRL => self.ctrl = value,
            ICR => self.icr &= !value, // write-1-to-clear
            IMS => match self.mode {
                CompatMode::Baseline => return Err(RegError::Unimplemented(offset)),
                CompatMode::Extended => self.ims |= value,
            },
            IMC => match self.mode {
                CompatMode::Baseline => return Err(RegError::Unimplemented(offset)),
                CompatMode::Extended => self.ims &= !value,
            },
            RDLEN => self.rdlen = value,
            RDH => self.rdh = value,
            RDT => self.rdt = value,
            WBTHRESH => self.wbthresh = value,
            TDLEN => self.tdlen = value,
            TDH => self.tdh = value,
            TDT => self.tdt = value,
            MRQC => self.mrqc = value,
            STATUS => {} // read-only, write dropped
            other => return Err(RegError::Unknown(other)),
        }
        Ok(())
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new(CompatMode::Extended)
    }
}

#[cfg(test)]
mod tests {
    use super::offsets::*;
    use super::*;

    #[test]
    fn ims_imc_work_in_extended_mode() {
        let mut r = RegisterFile::new(CompatMode::Extended);
        r.write(IMS, 0xFF).unwrap();
        assert_eq!(r.read(IMS).unwrap(), 0xFF);
        r.write(IMC, 0x0F).unwrap();
        assert_eq!(r.read(IMS).unwrap(), 0xF0);
        assert_eq!(r.interrupt_mask(), 0xF0);
    }

    #[test]
    fn ims_faults_in_baseline_mode() {
        // The §III.A.5 defect: PMD launch pokes IMC and faults.
        let mut r = RegisterFile::new(CompatMode::Baseline);
        assert_eq!(r.write(IMC, u32::MAX), Err(RegError::Unimplemented(IMC)));
        assert_eq!(r.read(IMS), Err(RegError::Unimplemented(IMS)));
    }

    #[test]
    fn icr_is_read_to_clear() {
        let mut r = RegisterFile::default();
        r.raise_cause(irq::RXT0 | irq::RXO);
        assert_eq!(r.read(ICR).unwrap(), irq::RXT0 | irq::RXO);
        assert_eq!(r.read(ICR).unwrap(), 0);
    }

    #[test]
    fn interrupt_pending_respects_mask() {
        let mut r = RegisterFile::default();
        r.raise_cause(irq::RXT0);
        assert!(!r.interrupt_pending());
        r.write(IMS, irq::RXT0).unwrap();
        assert!(r.interrupt_pending());
        r.write(IMC, irq::RXT0).unwrap();
        assert!(!r.interrupt_pending());
    }

    #[test]
    fn ring_registers_round_trip() {
        let mut r = RegisterFile::default();
        for off in [RDLEN, RDH, RDT, TDLEN, TDH, TDT, WBTHRESH, MRQC] {
            r.write(off, 0x123).unwrap();
            assert_eq!(r.read(off).unwrap(), 0x123);
        }
    }

    #[test]
    fn mrqc_defaults_to_legacy_single_queue() {
        let mut r = RegisterFile::default();
        assert_eq!(r.rss_queues(), 0);
        r.write(MRQC, 4).unwrap();
        assert_eq!(r.rss_queues(), 4);
    }

    #[test]
    fn writeback_threshold_floor_is_one() {
        let mut r = RegisterFile::default();
        r.write(WBTHRESH, 0).unwrap();
        assert_eq!(r.writeback_threshold(), 1);
        r.write(WBTHRESH, 32).unwrap();
        assert_eq!(r.writeback_threshold(), 32);
    }

    #[test]
    fn unknown_offsets_fault() {
        let mut r = RegisterFile::default();
        assert_eq!(r.read(0xFFFF), Err(RegError::Unknown(0xFFFF)));
        assert_eq!(r.write(0xFFFF, 0), Err(RegError::Unknown(0xFFFF)));
    }

    #[test]
    fn status_reports_link_up_and_ignores_writes() {
        let mut r = RegisterFile::default();
        let s = r.read(STATUS).unwrap();
        r.write(STATUS, 0).unwrap();
        assert_eq!(r.read(STATUS).unwrap(), s);
        assert_ne!(s, 0);
    }
}
