//! Measurement plumbing shared by the experiment harness: time breakdowns,
//! derived ratios, and paper-style table rendering.

#![warn(missing_docs)]

mod breakdown;
mod counters;
mod table;

pub use breakdown::{cycles_to_seconds, Breakdown, CYCLES_PER_SECOND};
pub use counters::counter_table;
pub use table::{cell_with_ratio, Table};
