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

/// What is wrong with a ring's FDL address plan (see
/// [`check_address_plan`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AddressPlanError {
    /// A master's effective address is not a station address: its explicit
    /// address is past [`MasterAddr::MAX_ADDRESS`], or it has none and its
    /// ring index is.
    InvalidAddress {
        /// Ring index of the offending master.
        master: usize,
    },
    /// Two masters resolve to the same FDL address.
    DuplicateAddress {
        /// The shared address.
        addr: MasterAddr,
        /// Ring index of the first holder.
        first: usize,
        /// Ring index of the second holder.
        second: usize,
    },
}

impl fmt::Display for AddressPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AddressPlanError::InvalidAddress { master } => write!(
                f,
                "master {master} has no valid FDL address (stations are 0..={})",
                MasterAddr::MAX_ADDRESS
            ),
            AddressPlanError::DuplicateAddress {
                addr,
                first,
                second,
            } => write!(f, "masters {first} and {second} alias FDL address {addr}"),
        }
    }
}

impl std::error::Error for AddressPlanError {}

/// A ring's FDL address plan that [`check_address_plan`] accepted: the
/// effective address of each master, in ring order, every one a station
/// address and no two equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddressPlan {
    addrs: Vec<MasterAddr>,
}

impl AddressPlan {
    /// The effective addresses, in ring order.
    pub fn into_addrs(self) -> Vec<MasterAddr> {
        self.addrs
    }
}

/// Checks a ring's FDL address plan, given each master's explicit address
/// (`None` for none) in ring order. Master `k`'s effective address is its
/// explicit one, or else its ring index `k`; every effective address must
/// be a station address, and no two may be equal.
///
/// # Errors
/// The first master, in ring order, that breaks either rule.
pub fn check_address_plan(
    explicit: impl IntoIterator<Item = Option<MasterAddr>>,
) -> Result<AddressPlan, AddressPlanError> {
    // Ring index of each station address's holder so far.
    let mut holder = [None; MasterAddr::MAX_ADDRESS as usize + 1];
    let mut addrs = Vec::new();
    for (k, addr) in explicit.into_iter().enumerate() {
        // A ring index past 255 maps to 255, which is no station either.
        let addr = addr.unwrap_or(MasterAddr(u8::try_from(k).unwrap_or(u8::MAX)));
        let Some(slot) = holder.get_mut(usize::from(addr.0)) else {
            return Err(AddressPlanError::InvalidAddress { master: k });
        };
        if let Some(first) = *slot {
            return Err(AddressPlanError::DuplicateAddress {
                addr,
                first,
                second: k,
            });
        }
        *slot = Some(k);
        addrs.push(addr);
    }
    Ok(AddressPlan { addrs })
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
    fn address_plans_resolve_to_explicit_or_ring_index() {
        let addrs = |plan: Result<AddressPlan, _>| plan.map(AddressPlan::into_addrs);
        assert_eq!(
            addrs(check_address_plan([None, Some(MasterAddr(5)), None])),
            Ok(vec![MasterAddr(0), MasterAddr(5), MasterAddr(2)])
        );
        // Ring index 2's implicit address is master 0's explicit one.
        let alias = AddressPlanError::DuplicateAddress {
            addr: MasterAddr(2),
            first: 0,
            second: 2,
        };
        assert_eq!(
            check_address_plan([Some(MasterAddr(2)), None, None]),
            Err(alias)
        );
        // Two explicit addresses, apart in the ring.
        let five = Some(MasterAddr(5));
        assert_eq!(
            check_address_plan([five, Some(MasterAddr(3)), five]),
            Err(AddressPlanError::DuplicateAddress {
                addr: MasterAddr(5),
                first: 0,
                second: 2
            })
        );
        let invalid = |master| Err(AddressPlanError::InvalidAddress { master });
        assert_eq!(
            check_address_plan([None, Some(MasterAddr::BROADCAST)]),
            invalid(1)
        );
        let full = check_address_plan(vec![None; 127]).map(AddressPlan::into_addrs);
        assert_eq!(full, Ok((0..=126).map(MasterAddr).collect()));
        assert_eq!(check_address_plan(vec![None; 300]), invalid(127));
    }

    #[test]
    fn ids_are_ordered() {
        assert!(TaskId(1) < TaskId(2));
        assert!(StreamId(0) < StreamId(1));
        assert!(MasterAddr(3) < MasterAddr(4));
    }
}
