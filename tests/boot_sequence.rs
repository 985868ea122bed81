//! Cross-crate integration: the Listing-2 boot sequence and the paper's
//! §III defect reproductions, wired through the real component stack.

use simnet::nic::{Nic, NicConfig};
use simnet::pci::devbind::DevBind;
use simnet::pci::{BindError, CompatMode, ConfigSpace, UioPciGeneric};
use simnet::stack::dpdk::{Eal, EalConfig, EalError};

/// The full Listing-2 flow on the extended (paper) models succeeds:
/// modprobe uio_pci_generic → devbind → hugepages → EAL/PMD launch.
#[test]
fn listing2_boot_succeeds_on_extended_models() {
    let mut nic = Nic::new(NicConfig::paper_default());
    let bdf = "00:02.0".parse().unwrap();
    let mut registry = DevBind::new();
    registry.register(bdf, nic.pci_config().clone());
    registry
        .bind_uio(bdf)
        .expect("uio binds on the extended PCI model");

    let mut eal = Eal::new(EalConfig::paper_default());
    eal.init(&mut nic).expect("patched DPDK launches its PMD");
    assert_eq!(eal.pmd_name(), Some("net_e1000_em"));
}

/// §III.A.1: baseline gem5's PCI model (no interrupt-disable bit) cannot
/// host uio_pci_generic.
#[test]
fn baseline_pci_model_rejects_uio() {
    let mut cs = ConfigSpace::new(0x8086, 0x100e, CompatMode::Baseline);
    let mut uio = UioPciGeneric::new();
    assert_eq!(
        uio.bind(&mut cs),
        Err(BindError::InterruptDisableUnsupported)
    );
}

/// §III.A.5: baseline gem5's NIC model (unimplemented interrupt-mask
/// accessors) keeps the PMD from launching, even with the PCI fix.
#[test]
fn baseline_nic_model_blocks_pmd_launch() {
    let mut nic = Nic::new(NicConfig {
        compat: CompatMode::Baseline,
        ..NicConfig::paper_default()
    });
    let mut eal = Eal::new(EalConfig::paper_default());
    assert_eq!(eal.init(&mut nic), Err(EalError::PmdLaunchFailed));
}

/// §III.B: unmodified DPDK's vendor check fails against the gem5 NIC
/// (broken vendor ID); the paper's skip-check patch makes it pass.
#[test]
fn vendor_check_requires_the_dpdk_patch() {
    let mut nic = Nic::new(NicConfig::paper_default());
    let mut unmodified = Eal::new(EalConfig::unmodified());
    assert!(matches!(
        unmodified.init(&mut nic),
        Err(EalError::NoPmdMatch { vendor: 0, .. })
    ));
    let mut patched = Eal::new(EalConfig::paper_default());
    assert_eq!(patched.init(&mut nic), Ok(()));
}

/// DPDK byte-granular Command-register access (§III.A.2) works on the
/// extended model and is dropped on baseline.
#[test]
fn byte_granular_command_access() {
    for (mode, expect_bit) in [(CompatMode::Extended, true), (CompatMode::Baseline, false)] {
        let mut cs = ConfigSpace::new(0x8086, 0x100e, mode);
        let hi = cs.read_config(0x05, 1);
        cs.write_config(0x05, 1, hi | 0x04); // interrupt-disable, upper byte
        assert_eq!(cs.command().interrupts_disabled(), expect_bit, "{mode:?}");
    }
}
