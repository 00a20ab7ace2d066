//! The virtual place: the one index of a socket in use.

use std::fmt;

/// A **virtual place**: the unit of locality in the NUMA-WS programming
/// model (paper §III-A).
///
/// The runtime groups the workers running on one socket into a single place,
/// so with `S` sockets in use there are `S` places, numbered `0..S`: place
/// `i` is the machine's socket `i`, and a [`DistanceMatrix`] is read by
/// place. Locality hints name places, which keeps application code
/// oblivious to how many physical sockets exist.
///
/// [`DistanceMatrix`]: crate::DistanceMatrix
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Place(pub usize);

impl Place {
    /// The "no constraint" hint: `@ANY` in the paper's notation (Figure 4).
    ///
    /// A frame hinted `ANY` is never pushed to a mailbox; it runs wherever
    /// the scheduler finds it.
    pub const ANY: Place = Place(usize::MAX);

    /// Returns `true` if this is the unconstrained [`Place::ANY`] hint.
    #[inline]
    pub fn is_any(self) -> bool {
        self == Self::ANY
    }

    /// Returns the place index, or `None` for [`Place::ANY`].
    #[inline]
    pub fn index(self) -> Option<usize> {
        if self.is_any() {
            None
        } else {
            Some(self.0)
        }
    }
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            write!(f, "@ANY")
        } else {
            write!(f, "@p{}", self.0)
        }
    }
}

impl From<usize> for Place {
    fn from(i: usize) -> Self {
        Place(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_place_is_distinguished() {
        assert!(Place::ANY.is_any());
        assert!(!Place(0).is_any());
        assert_eq!(Place::ANY.index(), None);
        assert_eq!(Place(3).index(), Some(3));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Place(2).to_string(), "@p2");
        assert_eq!(Place::ANY.to_string(), "@ANY");
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(Place(0) < Place(1));
        assert!(Place(2) > Place(1));
    }

    #[test]
    fn place_from_usize() {
        let p: Place = 5usize.into();
        assert_eq!(p, Place(5));
    }
}
