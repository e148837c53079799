//! Lightweight identifier newtypes.

use core::fmt;

/// Index of a task within a [`crate::TaskSet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// Index of a message stream within a [`crate::StreamSet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub usize);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// PROFIBUS station address (0..=126 per DIN 19245; 127 is broadcast).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MasterAddr(pub u8);

impl MasterAddr {
    /// Highest valid point-to-point station address.
    pub const MAX_ADDRESS: u8 = 126;
    /// The broadcast address.
    pub const BROADCAST: MasterAddr = MasterAddr(127);

    /// Whether this address is valid for an addressable station.
    pub fn is_valid_station(self) -> bool {
        self.0 <= Self::MAX_ADDRESS
    }
}

impl fmt::Display for MasterAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(TaskId(3).to_string(), "τ3");
        assert_eq!(StreamId(2).to_string(), "S2");
        assert_eq!(MasterAddr(5).to_string(), "M5");
    }

    #[test]
    fn address_validity() {
        assert!(MasterAddr(0).is_valid_station());
        assert!(MasterAddr(126).is_valid_station());
        assert!(!MasterAddr::BROADCAST.is_valid_station());
    }

    #[test]
    fn ids_are_ordered() {
        assert!(TaskId(1) < TaskId(2));
        assert!(StreamId(0) < StreamId(1));
        assert!(MasterAddr(3) < MasterAddr(4));
    }
}
