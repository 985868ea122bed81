//! The DPDK Environment Abstraction Layer (EAL) initialization sequence.
//!
//! §III.B: "The DPDK Environment Abstraction Layer (EAL) relies on vendor
//! ID checks to match a device and a PMD. We modify the DPDK source to
//! skip these checks and force the matching of the gem5 device to [the]
//! NIC model PMD." [`EalConfig::skip_vendor_check`] is that patch; with it
//! off, probing a gem5-style NIC (broken vendor ID) fails exactly as
//! unmodified DPDK does.
//!
//! Launching the PMD also requires masking device interrupts through the
//! interrupt mask register — the §III.A.5 fix; against a baseline-mode
//! NIC the launch faults.

use simnet_nic::i8254x::{DEVICE_82540EM, VENDOR_INTEL};
use simnet_nic::regs::offsets;
use simnet_nic::Nic;

/// EAL initialization parameters (the `dpdk-testpmd -l 0-3 -n 4 ...`
/// environment of Listing 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EalConfig {
    /// Number of 2 MiB hugepages reserved (Listing 2 line 3 writes 2048 to
    /// `nr_hugepages`).
    pub hugepages: usize,
    /// The paper's DPDK patch: skip the vendor-ID check and force the
    /// e1000 PMD.
    pub skip_vendor_check: bool,
}

impl EalConfig {
    /// The paper's configuration: 2048 hugepages, vendor check skipped.
    pub fn paper_default() -> Self {
        Self {
            hugepages: 2048,
            skip_vendor_check: true,
        }
    }

    /// Unmodified upstream DPDK (vendor check enforced).
    pub fn unmodified() -> Self {
        Self {
            hugepages: 2048,
            skip_vendor_check: false,
        }
    }
}

impl Default for EalConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Why EAL initialization failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EalError {
    /// No hugepages reserved.
    NoHugepages,
    /// No PMD matched the device's vendor/device IDs (unmodified DPDK on a
    /// gem5-style NIC).
    NoPmdMatch {
        /// Vendor ID read from the device.
        vendor: u16,
        /// Device ID read from the device.
        device: u16,
    },
    /// The PMD could not mask device interrupts (baseline gem5's
    /// unimplemented interrupt-mask accessors, §III.A.5).
    PmdLaunchFailed,
}

impl std::fmt::Display for EalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EalError::NoHugepages => write!(f, "no hugepages reserved"),
            EalError::NoPmdMatch { vendor, device } => {
                write!(f, "no PMD for device {vendor:04x}:{device:04x}")
            }
            EalError::PmdLaunchFailed => {
                write!(
                    f,
                    "PMD launch failed: cannot access interrupt mask register"
                )
            }
        }
    }
}

impl std::error::Error for EalError {}

/// The EAL: probes the device and launches the polling-mode driver.
#[derive(Debug)]
pub struct Eal {
    cfg: EalConfig,
    pmd_name: Option<&'static str>,
}

impl Eal {
    /// Creates an uninitialized EAL.
    pub fn new(cfg: EalConfig) -> Self {
        Self {
            cfg,
            pmd_name: None,
        }
    }

    /// The matched PMD, once initialized.
    pub fn pmd_name(&self) -> Option<&'static str> {
        self.pmd_name
    }

    /// Runs EAL init + device probe + PMD launch against `nic`.
    ///
    /// # Errors
    ///
    /// See [`EalError`] — each variant corresponds to a failure mode the
    /// paper describes on unpatched gem5/DPDK.
    pub fn init(&mut self, nic: &mut Nic) -> Result<(), EalError> {
        if self.cfg.hugepages == 0 {
            return Err(EalError::NoHugepages);
        }

        // Probe: match vendor/device against the PMD registry.
        let vendor = nic.pci_config().vendor_id();
        let device = nic.pci_config().device_id();
        let matched = (vendor, device) == (VENDOR_INTEL, DEVICE_82540EM);
        if !matched && !self.cfg.skip_vendor_check {
            return Err(EalError::NoPmdMatch { vendor, device });
        }
        // The paper's patch hard-codes the e1000 PMD for the gem5 device.
        let pmd = "net_e1000_em";

        // PMD launch: mask all device interrupts (polling mode). This is
        // the access that faults on baseline gem5.
        let regs = nic.regs_mut();
        if regs.write(offsets::IMC, u32::MAX).is_err() {
            return Err(EalError::PmdLaunchFailed);
        }
        if regs.read(offsets::IMS).map(|m| m != 0).unwrap_or(true) {
            return Err(EalError::PmdLaunchFailed);
        }
        self.pmd_name = Some(pmd);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_nic::NicConfig;
    use simnet_pci::CompatMode;

    fn gem5_nic() -> Nic {
        Nic::new(NicConfig::paper_default()) // vendor quirk on, extended regs
    }

    #[test]
    fn patched_dpdk_initializes_on_gem5_nic() {
        let mut nic = gem5_nic();
        let mut eal = Eal::new(EalConfig::paper_default());
        assert_eq!(eal.init(&mut nic), Ok(()));
        assert_eq!(eal.pmd_name(), Some("net_e1000_em"));
    }

    #[test]
    fn unmodified_dpdk_fails_vendor_check_on_gem5_nic() {
        // "Unmodified DPDK cannot fetch the correct vendor ID when running
        // on gem5 and therefore fails to call the proper PMD" (§III.B).
        let mut nic = gem5_nic();
        let mut eal = Eal::new(EalConfig::unmodified());
        assert_eq!(
            eal.init(&mut nic),
            Err(EalError::NoPmdMatch {
                vendor: 0,
                device: 0x100e
            })
        );
    }

    #[test]
    fn unmodified_dpdk_works_on_a_real_nic() {
        let mut nic = Nic::new(NicConfig {
            vendor_id_broken: false,
            ..NicConfig::paper_default()
        });
        let mut eal = Eal::new(EalConfig::unmodified());
        assert_eq!(eal.init(&mut nic), Ok(()));
    }

    #[test]
    fn pmd_launch_fails_on_baseline_register_model() {
        // §III.A.5: without IMR read/write methods the PMD cannot launch.
        let mut nic = Nic::new(NicConfig {
            compat: CompatMode::Baseline,
            ..NicConfig::paper_default()
        });
        let mut eal = Eal::new(EalConfig::paper_default());
        assert_eq!(eal.init(&mut nic), Err(EalError::PmdLaunchFailed));
    }

    #[test]
    fn no_hugepages_fails_fast() {
        let mut nic = gem5_nic();
        let mut eal = Eal::new(EalConfig {
            hugepages: 0,
            skip_vendor_check: true,
        });
        assert_eq!(eal.init(&mut nic), Err(EalError::NoHugepages));
    }
}
