//! The logical token ring.
//!
//! Masters are ordered by ascending station address; the token travels from
//! each master to the next-higher address, wrapping from the highest to the
//! lowest (paper §3.1: "pass the token to station (k+1) modulo n"). The
//! *list of active stations* (LAS) is what each master learns from observing
//! token frames.

use profirt_base::MasterAddr;

/// The logical ring: the sorted set of active master addresses.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LogicalRing {
    members: Vec<MasterAddr>,
}

impl LogicalRing {
    /// Builds a ring from arbitrary-order addresses (sorted, deduplicated).
    ///
    /// # Panics
    /// Panics if any address is not a valid station address.
    pub fn new(mut members: Vec<MasterAddr>) -> LogicalRing {
        for m in &members {
            assert!(m.is_valid_station(), "invalid station address {m}");
        }
        members.sort();
        members.dedup();
        LogicalRing { members }
    }

    /// Number of masters in the ring.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Sorted member addresses (the LAS).
    pub fn members(&self) -> &[MasterAddr] {
        &self.members
    }

    /// `true` if `addr` is in the ring.
    pub fn contains(&self, addr: MasterAddr) -> bool {
        self.members.binary_search(&addr).is_ok()
    }

    /// The successor of `addr` in token order (next-higher address, wrapping
    /// to the lowest). `None` if `addr` is not a member or the ring is
    /// empty.
    pub fn next_of(&self, addr: MasterAddr) -> Option<MasterAddr> {
        let pos = self.members.binary_search(&addr).ok()?;
        Some(self.members[(pos + 1) % self.members.len()])
    }

    /// Ring position (0-based, in address order) of `addr`.
    pub fn position(&self, addr: MasterAddr) -> Option<usize> {
        self.members.binary_search(&addr).ok()
    }

    /// Adds a master (e.g. after a successful GAP poll); keeps order.
    pub fn join(&mut self, addr: MasterAddr) -> bool {
        assert!(addr.is_valid_station(), "invalid station address {addr}");
        match self.members.binary_search(&addr) {
            Ok(_) => false,
            Err(pos) => {
                self.members.insert(pos, addr);
                true
            }
        }
    }

    /// Removes a master (station failure / leave); returns `true` if it was
    /// present.
    pub fn leave(&mut self, addr: MasterAddr) -> bool {
        match self.members.binary_search(&addr) {
            Ok(pos) => {
                self.members.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The address range `(addr, next_of(addr))` exclusive — this master's
    /// GAP, i.e. the addresses it is responsible for polling.
    pub fn gap_range(&self, addr: MasterAddr) -> Option<Vec<MasterAddr>> {
        let next = self.next_of(addr)?;
        let mut out = Vec::new();
        let mut a = addr.0;
        loop {
            a = if a >= MasterAddr::MAX_ADDRESS {
                0
            } else {
                a + 1
            };
            if a == next.0 {
                break;
            }
            if a == addr.0 {
                break; // single-member ring: full wrap
            }
            out.push(MasterAddr(a));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(addrs: &[u8]) -> LogicalRing {
        LogicalRing::new(addrs.iter().map(|&a| MasterAddr(a)).collect())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let r = ring(&[5, 1, 9, 5]);
        assert_eq!(r.members(), &[MasterAddr(1), MasterAddr(5), MasterAddr(9)]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn token_order_wraps() {
        let r = ring(&[1, 5, 9]);
        assert_eq!(r.next_of(MasterAddr(1)), Some(MasterAddr(5)));
        assert_eq!(r.next_of(MasterAddr(5)), Some(MasterAddr(9)));
        assert_eq!(r.next_of(MasterAddr(9)), Some(MasterAddr(1)));
        assert_eq!(r.next_of(MasterAddr(7)), None);
    }

    #[test]
    fn single_member_ring_points_to_itself() {
        let r = ring(&[3]);
        assert_eq!(r.next_of(MasterAddr(3)), Some(MasterAddr(3)));
    }

    #[test]
    fn join_and_leave() {
        let mut r = ring(&[1, 9]);
        assert!(r.join(MasterAddr(5)));
        assert!(!r.join(MasterAddr(5)));
        assert_eq!(r.next_of(MasterAddr(1)), Some(MasterAddr(5)));
        assert!(r.leave(MasterAddr(5)));
        assert!(!r.leave(MasterAddr(5)));
        assert_eq!(r.next_of(MasterAddr(1)), Some(MasterAddr(9)));
    }

    #[test]
    fn positions() {
        let r = ring(&[2, 4, 8]);
        assert_eq!(r.position(MasterAddr(2)), Some(0));
        assert_eq!(r.position(MasterAddr(8)), Some(2));
        assert_eq!(r.position(MasterAddr(3)), None);
    }

    #[test]
    fn gap_ranges() {
        let r = ring(&[1, 5]);
        // GAP of 1: addresses 2,3,4 (up to but excluding 5).
        assert_eq!(
            r.gap_range(MasterAddr(1)).unwrap(),
            vec![MasterAddr(2), MasterAddr(3), MasterAddr(4)]
        );
        // GAP of 5: wraps 6..126, 0 (excluding 1).
        let gap5 = r.gap_range(MasterAddr(5)).unwrap();
        assert_eq!(gap5.first(), Some(&MasterAddr(6)));
        assert_eq!(gap5.last(), Some(&MasterAddr(0)));
        assert!(gap5.contains(&MasterAddr(126)));
        assert!(!gap5.contains(&MasterAddr(1)));
        assert!(!gap5.contains(&MasterAddr(5)));
    }

    #[test]
    #[should_panic(expected = "invalid station address")]
    fn broadcast_address_rejected() {
        let _ = ring(&[127]);
    }

    #[test]
    fn empty_ring() {
        let r = LogicalRing::default();
        assert!(r.is_empty());
        assert_eq!(r.next_of(MasterAddr(1)), None);
    }
}
