//! The blocked Z-Morton layout (paper Figure 6b).

use crate::{zmorton, Matrix};
use std::fmt;

/// A square matrix stored as `block × block` row-major tiles laid out along
/// a recursive Z curve.
///
/// Compared to the cell-by-cell Z-Morton layout (Figure 6a), only the
/// *block* coordinates are bit-interleaved, so index computation costs one
/// interleave per block instead of per element, and each block is a
/// contiguous run of memory — the two benefits §III-C claims: base cases of
/// divide-and-conquer algorithms touch contiguous (bindable) pages, and
/// within-block traversal drives the hardware prefetcher.
///
/// The matrix dimension must be a multiple of the block size, and the
/// number of blocks per side must be a power of two (so the Z curve tiles
/// the square exactly) — both hold for the paper's benchmark shapes
/// (4k×4k / 32×32 and 8k×8k / 16×16).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedZ<T> {
    n: usize,
    block: usize,
    blocks_per_side: usize,
    data: Vec<T>,
}

impl<T: Clone + Default> BlockedZ<T> {
    /// Creates an `n × n` blocked-Z matrix of `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of `block` or if
    /// `n / block` is not a power of two.
    pub fn zeros(n: usize, block: usize) -> Self {
        Self::validate(n, block);
        BlockedZ { n, block, blocks_per_side: n / block, data: vec![T::default(); n * n] }
    }
}

impl<T> BlockedZ<T> {
    fn validate(n: usize, block: usize) {
        assert!(block > 0, "block size must be positive");
        assert!(
            n > 0 && n.is_multiple_of(block),
            "matrix side must be a positive multiple of block"
        );
        let bps = n / block;
        assert!(bps.is_power_of_two(), "blocks per side must be a power of two");
    }

    /// Transforms a row-major matrix into blocked Z-Morton layout.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or fails the shape rules of
    /// [`BlockedZ::zeros`].
    pub fn from_matrix(m: &Matrix<T>, block: usize) -> Self
    where
        T: Clone,
    {
        assert_eq!(m.rows(), m.cols(), "blocked Z layout requires a square matrix");
        let n = m.rows();
        Self::validate(n, block);
        let bps = n / block;
        let mut data = Vec::with_capacity(n * n);
        // Emit blocks in Z order; each block is a row-major tile.
        for z in 0..(bps * bps) as u64 {
            let (br, bc) = zmorton::decode(z);
            let (base_r, base_c) = (br as usize * block, bc as usize * block);
            for r in 0..block {
                for c in 0..block {
                    data.push(m.get(base_r + r, base_c + c).clone());
                }
            }
        }
        BlockedZ { n, block, blocks_per_side: bps, data }
    }

    /// Transforms back to a row-major [`Matrix`].
    pub fn to_matrix(&self) -> Matrix<T>
    where
        T: Clone + Default,
    {
        let mut m = Matrix::zeros(self.n, self.n);
        for br in 0..self.blocks_per_side {
            for bc in 0..self.blocks_per_side {
                let base = self.block_offset(br, bc);
                for r in 0..self.block {
                    for c in 0..self.block {
                        *m.get_mut(br * self.block + r, bc * self.block + c) =
                            self.data[base + r * self.block + c].clone();
                    }
                }
            }
        }
        m
    }

    /// Matrix side length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block side length.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of blocks per side.
    #[inline]
    pub fn blocks_per_side(&self) -> usize {
        self.blocks_per_side
    }

    /// Offset in the backing buffer where block `(br, bc)` starts.
    ///
    /// This is the only place the Z interleave is computed — once per block,
    /// which is the §III-C index-cost saving.
    #[inline]
    fn block_offset(&self, br: usize, bc: usize) -> usize {
        debug_assert!(br < self.blocks_per_side && bc < self.blocks_per_side);
        zmorton::encode(br as u32, bc as u32) as usize * self.block * self.block
    }

    /// The contiguous slice backing block `(br, bc)`, row-major within the
    /// block.
    pub fn block(&self, br: usize, bc: usize) -> &[T] {
        let base = self.block_offset(br, bc);
        &self.data[base..base + self.block * self.block]
    }

    /// Element access by global coordinates.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> &T {
        assert!(r < self.n && c < self.n, "index out of bounds");
        let (br, bc) = (r / self.block, c / self.block);
        let base = self.block_offset(br, bc);
        &self.data[base + (r % self.block) * self.block + (c % self.block)]
    }

    /// Mutable element access by global coordinates.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut T {
        assert!(r < self.n && c < self.n, "index out of bounds");
        let (br, bc) = (r / self.block, c / self.block);
        let base = self.block_offset(br, bc);
        &mut self.data[base + (r % self.block) * self.block + (c % self.block)]
    }

    /// The raw backing buffer in blocked-Z order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The raw backing buffer in blocked-Z order, mutably. Because Z-order
    /// quadrants are contiguous, recursive algorithms can partition this
    /// slice with `split_at_mut` and stay entirely in safe code.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: fmt::Display> fmt::Display for BlockedZ<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.n {
            for c in 0..self.n {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_6b_layout() {
        // Paper Figure 6b: 8x8 matrix, 4x4 blocks; entry (r,c) holds the
        // linear position where it is stored. Top-left block is positions
        // 0..16 row-major; top-right block is 16..32; etc.
        let m = Matrix::from_fn(8, 8, |r, c| (r, c));
        let z = BlockedZ::from_matrix(&m, 4);
        // Block (0,0) occupies the first 16 slots, row-major.
        let expect_first: Vec<(usize, usize)> =
            (0..4).flat_map(|r| (0..4).map(move |c| (r, c))).collect();
        assert_eq!(&z.as_slice()[..16], &expect_first[..]);
        // Z order of blocks: (0,0) (0,1) (1,0) (1,1).
        assert_eq!(z.block_offset(0, 0), 0);
        assert_eq!(z.block_offset(0, 1), 16);
        assert_eq!(z.block_offset(1, 0), 32);
        assert_eq!(z.block_offset(1, 1), 48);
    }

    #[test]
    fn roundtrip_identity() {
        let m = Matrix::from_fn(16, 16, |r, c| r * 100 + c);
        let z = BlockedZ::from_matrix(&m, 4);
        assert_eq!(z.to_matrix(), m);
    }

    #[test]
    fn get_matches_matrix() {
        let m = Matrix::from_fn(8, 8, |r, c| r * 8 + c);
        let z = BlockedZ::from_matrix(&m, 2);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(z.get(r, c), m.get(r, c));
            }
        }
    }

    #[test]
    fn get_mut_writes_through() {
        let mut z = BlockedZ::<u32>::zeros(8, 4);
        *z.get_mut(5, 6) = 99;
        assert_eq!(*z.get(5, 6), 99);
        assert_eq!(*z.to_matrix().get(5, 6), 99);
    }

    #[test]
    fn blocks_are_contiguous() {
        let m = Matrix::from_fn(8, 8, |r, c| r * 8 + c);
        let z = BlockedZ::from_matrix(&m, 4);
        let blk = z.block(1, 1); // bottom-right block
        let expect: Vec<usize> = (4..8).flat_map(|r| (4..8).map(move |c| r * 8 + c)).collect();
        assert_eq!(blk, &expect[..]);
    }

    #[test]
    fn quadrants_are_contiguous_quarters() {
        let z = BlockedZ::<u8>::zeros(16, 2); // 8x8 blocks
        let quarter = 16 * 16 / 4;
        // Z-order quadrants (NW, NE, SW, SE): each quadrant's first block
        // starts at i*quarter.
        let half = z.blocks_per_side() / 2;
        for (i, (br, bc)) in [(0, 0), (0, half), (half, 0), (half, half)].into_iter().enumerate() {
            assert_eq!(z.block_offset(br, bc), i * quarter);
        }
    }

    #[test]
    fn single_block_matrix() {
        let m = Matrix::from_fn(4, 4, |r, c| r + c);
        let z = BlockedZ::from_matrix(&m, 4);
        assert_eq!(z.blocks_per_side(), 1);
        assert_eq!(z.to_matrix(), m);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_blocks_rejected() {
        BlockedZ::<u8>::zeros(12, 4); // 3 blocks per side
    }

    #[test]
    #[should_panic(expected = "multiple of block")]
    fn non_multiple_rejected() {
        BlockedZ::<u8>::zeros(10, 4);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        let m = Matrix::from_fn(4, 8, |_, _| 0u8);
        BlockedZ::from_matrix(&m, 4);
    }
}
