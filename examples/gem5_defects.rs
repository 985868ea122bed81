//! The §III story as a runnable demo: why DPDK cannot boot on *baseline*
//! gem5, and what each of the paper's five changes unlocks.
//!
//! ```text
//! cargo run --release --example gem5_defects
//! ```

use simnet::nic::{Nic, NicConfig};
use simnet::pci::{BindError, CompatMode, ConfigSpace, UioPciGeneric};
use simnet::stack::dpdk::{Eal, EalConfig, EalError};

fn check(label: &str, ok: bool, detail: String) {
    println!(
        "{} {label}\n      {detail}\n",
        if ok { "[ok]  " } else { "[FAIL]" }
    );
}

fn main() {
    println!("== §III.A.1 — PCI Command interrupt-disable bit ==\n");
    let mut baseline = ConfigSpace::new(0x8086, 0x100e, CompatMode::Baseline);
    let mut uio = UioPciGeneric::new();
    let err = uio.bind(&mut baseline).expect_err("baseline must fail");
    check(
        "baseline gem5: uio_pci_generic refuses the device",
        err == BindError::InterruptDisableUnsupported,
        format!("bind error: {err}"),
    );
    let mut extended = ConfigSpace::new(0x8086, 0x100e, CompatMode::Extended);
    let bound = UioPciGeneric::new().bind(&mut extended).is_ok();
    check(
        "extended model: uio_pci_generic binds",
        bound,
        format!("command register after bind: {}", extended.command()),
    );

    println!("== §III.A.2 — byte-granular Command-register access ==\n");
    let mut cs = ConfigSpace::new(0x8086, 0x100e, CompatMode::Baseline);
    cs.write_config(0x05, 1, 0x04); // DPDK's 8-bit write of the upper half
    check(
        "baseline gem5 silently drops DPDK's 8-bit write at offset 0x05",
        !cs.command().interrupts_disabled(),
        format!("command register still: {}", cs.command()),
    );
    let mut cs = ConfigSpace::new(0x8086, 0x100e, CompatMode::Extended);
    cs.write_config(0x05, 1, 0x04);
    check(
        "extended model honours it",
        cs.command().interrupts_disabled(),
        format!("command register now: {}", cs.command()),
    );

    println!("== §III.A.5 — interrupt mask register methods ==\n");
    let mut nic = Nic::new(NicConfig {
        compat: CompatMode::Baseline,
        ..NicConfig::paper_default()
    });
    let err = Eal::new(EalConfig::paper_default())
        .init(&mut nic)
        .expect_err("baseline registers must fault");
    check(
        "baseline NIC model: PMD launch faults on the IMR access",
        err == EalError::PmdLaunchFailed,
        format!("eal error: {err}"),
    );

    println!("== §III.B — DPDK vendor-ID check ==\n");
    let mut nic = Nic::new(NicConfig::paper_default()); // vendor quirk on
    let err = Eal::new(EalConfig::unmodified())
        .init(&mut nic)
        .expect_err("unmodified DPDK must fail");
    check(
        "unmodified DPDK: no PMD matches the gem5 device",
        matches!(err, EalError::NoPmdMatch { vendor: 0, .. }),
        format!("eal error: {err}"),
    );
    let mut eal = Eal::new(EalConfig::paper_default());
    let ok = eal.init(&mut nic).is_ok();
    check(
        "patched DPDK (vendor check skipped): PMD launches",
        ok,
        format!("matched PMD: {:?}", eal.pmd_name()),
    );

    println!("with all five changes in place, Listing 2's boot sequence runs unmodified.");
}
