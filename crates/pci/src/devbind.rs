//! A `dpdk-devbind.py` stand-in: a registry mapping PCI addresses to
//! devices and the drivers bound to them.
//!
//! Listing 2 of the paper binds the NIC with
//! `dpdk-devbind.py -b uio_pci_generic 00:02.0`; [`DevBind`] models that
//! step so the harness's "boot script" is the same sequence of operations.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::config_space::ConfigSpace;
use crate::uio::{BindError, UioPciGeneric};

/// A PCI bus/device/function address, e.g. `00:02.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdf {
    /// Bus number.
    pub bus: u8,
    /// Device number (0–31).
    pub device: u8,
    /// Function number (0–7).
    pub function: u8,
}

impl fmt::Display for Bdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}:{:02x}.{}", self.bus, self.device, self.function)
    }
}

/// Error parsing a BDF string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBdfError(String);

impl fmt::Display for ParseBdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid PCI address syntax: {:?}", self.0)
    }
}

impl std::error::Error for ParseBdfError {}

impl FromStr for Bdf {
    type Err = ParseBdfError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseBdfError(s.to_owned());
        let (bus, rest) = s.split_once(':').ok_or_else(err)?;
        let (dev, func) = rest.split_once('.').ok_or_else(err)?;
        let bdf = Bdf {
            bus: u8::from_str_radix(bus, 16).map_err(|_| err())?,
            device: u8::from_str_radix(dev, 16).map_err(|_| err())?,
            function: func.parse().map_err(|_| err())?,
        };
        if bdf.device > 31 || bdf.function > 7 {
            return Err(err());
        }
        Ok(bdf)
    }
}

/// A registered device: its config space and (optionally) a UIO driver.
#[derive(Debug)]
struct Slot {
    config: ConfigSpace,
    uio: Option<UioPciGeneric>,
}

/// The device/driver registry.
#[derive(Debug, Default)]
pub struct DevBind {
    slots: BTreeMap<Bdf, Slot>,
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevBindError {
    /// No device at the given address.
    NoSuchDevice(Bdf),
    /// The underlying driver bind failed.
    Bind(BindError),
}

impl fmt::Display for DevBindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevBindError::NoSuchDevice(bdf) => write!(f, "no PCI device at {bdf}"),
            DevBindError::Bind(e) => write!(f, "driver bind failed: {e}"),
        }
    }
}

impl std::error::Error for DevBindError {}

impl From<BindError> for DevBindError {
    fn from(e: BindError) -> Self {
        DevBindError::Bind(e)
    }
}

impl DevBind {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a device's config space at `bdf` (platform enumeration).
    pub fn register(&mut self, bdf: Bdf, config: ConfigSpace) {
        self.slots.insert(bdf, Slot { config, uio: None });
    }

    /// Lists registered addresses.
    pub fn devices(&self) -> impl Iterator<Item = Bdf> + '_ {
        self.slots.keys().copied()
    }

    /// Binds `uio_pci_generic` to the device at `bdf`
    /// (`dpdk-devbind.py -b uio_pci_generic <bdf>`).
    ///
    /// # Errors
    ///
    /// [`DevBindError::NoSuchDevice`] or a wrapped [`BindError`].
    pub fn bind_uio(&mut self, bdf: Bdf) -> Result<(), DevBindError> {
        let slot = self
            .slots
            .get_mut(&bdf)
            .ok_or(DevBindError::NoSuchDevice(bdf))?;
        let mut uio = UioPciGeneric::new();
        uio.bind(&mut slot.config)?;
        slot.uio = Some(uio);
        Ok(())
    }

    /// Whether the device at `bdf` is UIO-bound.
    pub fn is_uio_bound(&self, bdf: Bdf) -> bool {
        self.slots
            .get(&bdf)
            .is_some_and(|s| s.uio.as_ref().is_some_and(|u| u.is_bound()))
    }

    /// Unbinds the device at `bdf` (`dpdk-devbind.py -u <bdf>`).
    ///
    /// # Errors
    ///
    /// [`DevBindError::NoSuchDevice`] if the address is unknown.
    pub fn unbind(&mut self, bdf: Bdf) -> Result<(), DevBindError> {
        let slot = self
            .slots
            .get_mut(&bdf)
            .ok_or(DevBindError::NoSuchDevice(bdf))?;
        if let Some(mut uio) = slot.uio.take() {
            uio.unbind(&mut slot.config);
        }
        Ok(())
    }

    /// The config space of the device at `bdf` (userspace access through
    /// `/sys/bus/pci/devices/<bdf>/config`).
    pub fn config(&self, bdf: Bdf) -> Option<&ConfigSpace> {
        self.slots.get(&bdf).map(|s| &s.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_space::CompatMode;

    fn nic_config(mode: CompatMode) -> ConfigSpace {
        ConfigSpace::new(0x8086, 0x100e, mode)
    }

    #[test]
    fn bdf_parse_and_display() {
        let bdf: Bdf = "00:02.0".parse().unwrap();
        assert_eq!(bdf.bus, 0);
        assert_eq!(bdf.device, 2);
        assert_eq!(bdf.function, 0);
        assert_eq!(bdf.to_string(), "00:02.0");
    }

    #[test]
    fn bdf_rejects_garbage() {
        assert!("".parse::<Bdf>().is_err());
        assert!("00-02.0".parse::<Bdf>().is_err());
        assert!("00:02".parse::<Bdf>().is_err());
        assert!("00:20.9".parse::<Bdf>().is_err());
        assert!("00:ff.0".parse::<Bdf>().is_err());
    }

    #[test]
    fn listing2_bind_sequence() {
        // modprobe uio_pci_generic; dpdk-devbind.py -b uio_pci_generic 00:02.0
        let bdf: Bdf = "00:02.0".parse().unwrap();
        let mut reg = DevBind::new();
        reg.register(bdf, nic_config(CompatMode::Extended));
        assert_eq!(reg.bind_uio(bdf), Ok(()));
        assert!(reg.is_uio_bound(bdf));
    }

    #[test]
    fn bind_fails_against_baseline_pci_model() {
        let bdf: Bdf = "00:02.0".parse().unwrap();
        let mut reg = DevBind::new();
        reg.register(bdf, nic_config(CompatMode::Baseline));
        assert_eq!(
            reg.bind_uio(bdf),
            Err(DevBindError::Bind(BindError::InterruptDisableUnsupported))
        );
        assert!(!reg.is_uio_bound(bdf));
    }

    #[test]
    fn unknown_device_errors() {
        let mut reg = DevBind::new();
        let bdf: Bdf = "00:03.0".parse().unwrap();
        assert_eq!(reg.bind_uio(bdf), Err(DevBindError::NoSuchDevice(bdf)));
        assert_eq!(reg.unbind(bdf), Err(DevBindError::NoSuchDevice(bdf)));
    }

    #[test]
    fn unbind_then_rebind() {
        let bdf: Bdf = "00:02.0".parse().unwrap();
        let mut reg = DevBind::new();
        reg.register(bdf, nic_config(CompatMode::Extended));
        reg.bind_uio(bdf).unwrap();
        reg.unbind(bdf).unwrap();
        assert!(!reg.is_uio_bound(bdf));
        assert_eq!(reg.bind_uio(bdf), Ok(()));
    }

    #[test]
    fn enumeration_lists_devices() {
        let mut reg = DevBind::new();
        reg.register("00:02.0".parse().unwrap(), nic_config(CompatMode::Extended));
        reg.register("00:04.0".parse().unwrap(), nic_config(CompatMode::Extended));
        let devices: Vec<String> = reg.devices().map(|b| b.to_string()).collect();
        assert_eq!(devices, ["00:02.0", "00:04.0"]);
    }
}
