//! Block-to-place binding plans.
//!
//! On a real NUMA machine the application binds the physical pages of each
//! recursion quadrant to the socket that will compute on it (paper §III-A:
//! "allocate the physical pages mapped in the i-th quarters of the in and
//! tmp arrays from the socket corresponding to the i-th virtual place",
//! via `mmap`/`mbind`). Without NUMA pages to bind, the simulated machine
//! makes that decision instead: each kernel DAG homes its regions' pages
//! by an `nws_sim::PagePolicy`, so nothing consumes the plan built here
//! (DESIGN.md §3, "The Z-Morton layout").

use nws_topology::Place;

/// A plan assigning each block of a [`BlockedZ`](crate::BlockedZ) matrix
/// (or each contiguous chunk of a 1D array) to a virtual place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPlacement {
    assignments: Vec<Place>,
}

impl BlockPlacement {
    /// Splits `num_blocks` blocks evenly into `places` contiguous ranges:
    /// block `b` goes to place `b * places / num_blocks`. This matches the
    /// paper's mergesort example, where the i-th quarter of the data is
    /// allocated at the i-th place.
    ///
    /// # Panics
    ///
    /// Panics if `places == 0` or `num_blocks == 0`.
    pub fn contiguous(num_blocks: usize, places: usize) -> Self {
        assert!(places > 0, "need at least one place");
        assert!(num_blocks > 0, "need at least one block");
        let assignments = (0..num_blocks).map(|b| Place(b * places / num_blocks)).collect();
        BlockPlacement { assignments }
    }

    /// Round-robin assignment (the analogue of the OS `interleave` policy).
    ///
    /// # Panics
    ///
    /// Panics if `places == 0` or `num_blocks == 0`.
    pub fn interleaved(num_blocks: usize, places: usize) -> Self {
        assert!(places > 0, "need at least one place");
        assert!(num_blocks > 0, "need at least one block");
        let assignments = (0..num_blocks).map(|b| Place(b % places)).collect();
        BlockPlacement { assignments }
    }

    /// For a blocked-Z square of `blocks_per_side × blocks_per_side`
    /// blocks across 4 places: each Z-order *quadrant* (one contiguous
    /// quarter of the buffer) goes to one place. With fewer than 4 places,
    /// quadrants wrap round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `places == 0`, or `blocks_per_side` is not a positive
    /// power of two.
    pub fn z_quadrants(blocks_per_side: usize, places: usize) -> Self {
        assert!(places > 0, "need at least one place");
        assert!(blocks_per_side.is_power_of_two(), "blocks per side must be a power of two");
        let total = blocks_per_side * blocks_per_side;
        let quarter = (total / 4).max(1);
        let assignments = (0..total).map(|z| Place((z / quarter).min(3) % places)).collect();
        BlockPlacement { assignments }
    }

    /// The place assigned to block index `b` (Z-order index for blocked-Z
    /// matrices, linear index for 1D chunking).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[inline]
    pub fn place_of(&self, b: usize) -> Place {
        self.assignments[b]
    }

    /// Number of blocks covered.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.assignments.len()
    }

    /// Iterates over `(block, place)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Place)> + '_ {
        self.assignments.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_quarters() {
        let p = BlockPlacement::contiguous(8, 4);
        let places: Vec<usize> = (0..8).map(|b| p.place_of(b).0).collect();
        assert_eq!(places, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn contiguous_uneven_split_is_monotonic() {
        let p = BlockPlacement::contiguous(10, 3);
        let places: Vec<usize> = (0..10).map(|b| p.place_of(b).0).collect();
        assert!(places.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*places.last().unwrap(), 2);
        assert_eq!(places[0], 0);
    }

    #[test]
    fn interleaved_round_robin() {
        let p = BlockPlacement::interleaved(6, 3);
        let places: Vec<usize> = (0..6).map(|b| p.place_of(b).0).collect();
        assert_eq!(places, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn z_quadrants_four_places() {
        let p = BlockPlacement::z_quadrants(4, 4); // 16 blocks, quarter = 4
        for z in 0..16 {
            assert_eq!(p.place_of(z).0, z / 4);
        }
    }

    #[test]
    fn z_quadrants_two_places_wraps() {
        let p = BlockPlacement::z_quadrants(4, 2);
        let places: Vec<usize> = (0..16).map(|z| p.place_of(z).0).collect();
        assert_eq!(&places[..4], &[0; 4]);
        assert_eq!(&places[4..8], &[1; 4]);
        assert_eq!(&places[8..12], &[0; 4]);
        assert_eq!(&places[12..16], &[1; 4]);
    }

    #[test]
    fn single_block_single_place() {
        let p = BlockPlacement::z_quadrants(1, 4);
        assert_eq!(p.num_blocks(), 1);
        assert_eq!(p.place_of(0), Place(0));
    }

    #[test]
    fn iter_covers_all() {
        let p = BlockPlacement::contiguous(4, 2);
        assert_eq!(p.iter().count(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one place")]
    fn zero_places_rejected() {
        BlockPlacement::contiguous(4, 0);
    }
}
