//! Ethernet MAC addresses.

use std::fmt;
use std::str::FromStr;

/// A 48-bit Ethernet MAC address.
///
/// ```
/// use simnet_net::MacAddr;
/// let mac: MacAddr = "02:00:00:00:00:01".parse()?;
/// assert_eq!(mac.octets()[0], 0x02);
/// assert!(mac.is_locally_administered());
/// # Ok::<(), simnet_net::mac::ParseMacError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from raw octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        Self(octets)
    }

    /// A deterministic locally-administered unicast address for simulated
    /// device `index` (`02:53:4e:xx:xx:xx`, "SN" for simnet).
    pub fn simulated(index: u32) -> Self {
        let b = index.to_be_bytes();
        MacAddr([0x02, 0x53, 0x4e, b[1], b[2], b[3]])
    }

    /// The address `n` past this one, counting in the low three octets:
    /// `simulated(i).offset(n) == simulated(i + n)`.
    pub fn offset(self, n: u32) -> Self {
        let [a, b, c, d, e, f] = self.0;
        let [_, d, e, f] = u32::from_be_bytes([0, d, e, f])
            .wrapping_add(n)
            .to_be_bytes();
        MacAddr([a, b, c, d, e, f])
    }

    /// The raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Whether the multicast (group) bit is set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Whether the locally-administered bit is set.
    pub fn is_locally_administered(&self) -> bool {
        self.0[0] & 0x02 != 0
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        Self(octets)
    }
}

impl AsRef<[u8]> for MacAddr {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error parsing a textual MAC address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError {
    input: String,
}

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseMacError {
            input: s.to_owned(),
        };
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            if part.len() != 2 {
                return Err(err());
            }
            *octet = u8::from_str_radix(part, 16).map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let mac: MacAddr = "de:ad:be:ef:00:2a".parse().unwrap();
        assert_eq!(mac.to_string(), "de:ad:be:ef:00:2a");
        assert_eq!(mac.octets(), [0xde, 0xad, 0xbe, 0xef, 0x00, 0x2a]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:2a:ff".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:zz".parse::<MacAddr>().is_err());
        assert!("dead:be:ef:00:2a".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_and_multicast_bits() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::ZERO.is_multicast());
        let mc = MacAddr::new([0x01, 0, 0x5e, 0, 0, 1]);
        assert!(mc.is_multicast());
        assert!(!mc.is_broadcast());
    }

    #[test]
    fn simulated_addresses_are_unique_and_local() {
        let a = MacAddr::simulated(1);
        let b = MacAddr::simulated(2);
        assert_ne!(a, b);
        assert!(a.is_locally_administered());
        assert!(!a.is_multicast());
        assert_eq!(MacAddr::simulated(100).offset(249), MacAddr::simulated(349));
    }
}
