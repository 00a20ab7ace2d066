//! Data layout transformations for NUMA-aware divide-and-conquer (paper
//! §III-C).
//!
//! Row-major 2D arrays defeat data/computation co-location: a
//! divide-and-conquer base case touches a quadrant whose rows are scattered
//! across many physical pages, so no page-binding policy can keep the data
//! on the socket that computes on it. The paper's fix is the **blocked
//! Z-Morton layout** (Figure 6b): blocks are laid out along a recursive
//! Z curve, while the data *inside* each block stays row-major. Base cases
//! then touch contiguous memory (bindable to a socket, prefetcher-friendly)
//! and the expensive bit-interleaving is computed only per block, not per
//! element.
//!
//! - [`zmorton`] — bit-interleaved Z-curve index math (Figure 6a);
//! - [`Matrix`] — plain row-major matrix, the baseline layout;
//! - [`BlockedZ`] — the blocked Z-Morton matrix (Figure 6b) with
//!   round-trip transformations to and from row-major.
//!
//! # Example
//!
//! ```
//! use nws_layout::{BlockedZ, Matrix};
//!
//! let m = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as u64);
//! let z = BlockedZ::from_matrix(&m, 4); // 4x4 row-major blocks on a Z curve
//! assert_eq!(z.get(3, 5), m.get(3, 5));
//! let back = z.to_matrix();
//! assert_eq!(back, m);
//! ```

#![warn(missing_docs)]

mod blocked;
mod matrix;
pub mod zmorton;

pub use blocked::BlockedZ;
pub use matrix::Matrix;
