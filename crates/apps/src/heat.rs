//! `heat`: Jacobi-style heat diffusion on a 2D plane over a series of time
//! steps.
//!
//! Each step computes `next[r][c]` from the four neighbours in `cur`, then
//! the buffers swap. Rows are partitioned into one contiguous band per
//! place (and the band's pages bound there), so with locality hints each
//! socket re-reads the same band every time step — the reuse that classic
//! work stealing destroys and NUMA-WS preserves (the paper's largest
//! inflation win: 5.24× → 2.25×).

use crate::common::pages_for;
use numa_ws::{join_at, Place};
use nws_sim::{Dag, DagBuilder, FrameId, PagePolicy, RegionId, Strand, Touch};

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Time steps.
    pub steps: usize,
    /// Rows per sequential leaf (coarsening). At least 1: `run_serial`,
    /// `run_parallel` and `dag` panic otherwise.
    pub rows_base: usize,
}

impl Params {
    /// Simulator-scale configuration (same shape).
    pub fn sim() -> Self {
        Params { rows: 2048, cols: 2048, steps: 12, rows_base: 8 }
    }

    /// Tiny configuration for tests.
    pub fn test() -> Self {
        Params { rows: 64, cols: 48, steps: 4, rows_base: 8 }
    }

    /// Panics unless the row recursion terminates: with a base of 0 rows, a
    /// 1-row range splits into itself and an empty range forever.
    fn check(&self) {
        assert!(self.rows_base >= 1, "heat: rows_base must be >= 1, got {}", self.rows_base);
    }
}

/// One Jacobi update of an interior row: `out[c]` from the row above
/// (`up`), the row below (`down`) and `mid`'s horizontal neighbours. An
/// edge column stands in for its missing neighbour with its own value. The
/// first and last columns are peeled, so the interior is a plain zip over
/// slices that vectorizes; every cell keeps the operand order
/// `0.25 * (up + down + left + right)`.
#[inline]
fn update_row(up: &[f64], mid: &[f64], down: &[f64], out: &mut [f64]) {
    let cols = out.len();
    let (up, mid, down) = (&up[..cols], &mid[..cols], &down[..cols]);
    let cell = |u: f64, d: f64, l: f64, r: f64| 0.25 * (u + d + l + r);
    if cols < 2 {
        // One column: both horizontal neighbours are the cell itself.
        if cols == 1 {
            out[0] = cell(up[0], down[0], mid[0], mid[0]);
        }
        return;
    }
    let last = cols - 1;
    out[0] = cell(up[0], down[0], mid[0], mid[1]);
    out[last] = cell(up[last], down[last], mid[last - 1], mid[last]);
    let inner = out[1..last]
        .iter_mut()
        .zip(&up[1..last])
        .zip(&down[1..last])
        .zip(&mid[..last - 1])
        .zip(&mid[2..]);
    for ((((o, &u), &d), &l), &r) in inner {
        *o = cell(u, d, l, r);
    }
}

/// Writes row `r` of the next grid into `out`: boundary rows are fixed
/// (copied), interior rows get one Jacobi update.
#[inline]
fn step_row(cur: &[f64], out: &mut [f64], r: usize, rows: usize) {
    let cols = out.len();
    let row = |i: usize| &cur[i * cols..(i + 1) * cols];
    if r == 0 || r == rows - 1 {
        out.copy_from_slice(row(r));
    } else {
        update_row(row(r - 1), row(r), row(r + 1), out);
    }
}

/// Initial condition: a hot square in the middle of a cold plate.
pub fn initial_grid(rows: usize, cols: usize) -> Vec<f64> {
    let mut g = vec![0.0; rows * cols];
    for r in rows / 4..3 * rows / 4 {
        for c in cols / 4..3 * cols / 4 {
            g[r * cols + c] = 100.0;
        }
    }
    g
}

// ---------------------------------------------------------------------------
// Serial elision
// ---------------------------------------------------------------------------

/// Runs `steps` Jacobi iterations serially; returns the final grid (the
/// other buffer is scratch).
pub fn run_serial(grid: &mut Vec<f64>, scratch: &mut Vec<f64>, params: Params) {
    params.check();
    assert_eq!(grid.len(), params.rows * params.cols, "grid shape mismatch");
    assert_eq!(scratch.len(), grid.len(), "scratch shape mismatch");
    let cols = params.cols;
    for _ in 0..params.steps {
        for r in 0..params.rows {
            step_row(grid, &mut scratch[r * cols..(r + 1) * cols], r, params.rows);
        }
        std::mem::swap(grid, scratch);
    }
}

// ---------------------------------------------------------------------------
// Parallel version (real runtime)
// ---------------------------------------------------------------------------

/// Runs `steps` Jacobi iterations in parallel (call inside
/// [`Pool::install`](numa_ws::Pool::install)); row bands are hinted at the
/// place owning them, one band per place.
pub fn run_parallel(grid: &mut Vec<f64>, scratch: &mut Vec<f64>, params: Params, places: usize) {
    params.check();
    assert_eq!(grid.len(), params.rows * params.cols, "grid shape mismatch");
    assert_eq!(scratch.len(), grid.len(), "scratch shape mismatch");
    let places = places.max(1);
    for _ in 0..params.steps {
        step_bands_off(grid, scratch, &params, 0, params.rows, 0, places);
        std::mem::swap(grid, scratch);
    }
}

/// Recursively split `[r0, r1)` into `bands` bands, hinting band `i` at
/// place `first_band + i`, then binary-split each band down to leaves.
/// `next_off` is the slice of the output grid starting at row `r0` (the two
/// halves of a split write disjoint row ranges, so `split_at_mut` keeps the
/// parallel writes safe without any unsafe code).
fn step_bands_off(
    cur: &[f64],
    next_off: &mut [f64],
    params: &Params,
    r0: usize,
    r1: usize,
    first_band: usize,
    bands: usize,
) {
    if bands == 1 {
        step_rows_off(cur, next_off, params, r0, r1);
        return;
    }
    let left_bands = bands / 2;
    let mid = r0 + (r1 - r0) * left_bands / bands;
    let cols = params.cols;
    let (lo, hi) = next_off.split_at_mut((mid - r0) * cols);
    join_at(
        move || step_bands_off(cur, lo, params, r0, mid, first_band, left_bands),
        move || {
            step_bands_off(cur, hi, params, mid, r1, first_band + left_bands, bands - left_bands)
        },
        Place(first_band + left_bands),
    );
}

/// Binary split; `next_off[0..]` corresponds to row `r0`.
fn step_rows_off(cur: &[f64], next_off: &mut [f64], params: &Params, r0: usize, r1: usize) {
    if r1 - r0 <= params.rows_base {
        let cols = params.cols;
        for r in r0..r1 {
            step_row(cur, &mut next_off[(r - r0) * cols..(r - r0 + 1) * cols], r, params.rows);
        }
        return;
    }
    let mid = (r0 + r1) / 2;
    let cols = params.cols;
    let (lo, hi) = next_off.split_at_mut((mid - r0) * cols);
    numa_ws::join(
        move || step_rows_off(cur, lo, params, r0, mid),
        move || step_rows_off(cur, hi, params, mid, r1),
    );
}

// ---------------------------------------------------------------------------
// Simulator DAG
// ---------------------------------------------------------------------------

/// Builds the simulator DAG: `steps` phases, each a 4-band hinted fork over
/// row blocks; grids bound bandwise to places.
pub fn dag(params: Params, places: usize) -> Dag {
    params.check();
    let places = places.max(1);
    let rows = params.rows as u64;
    let cols = params.cols as u64;
    let pages = pages_for(rows * cols, 8);
    let mut b = DagBuilder::new();
    let cur = b.alloc("cur", pages, PagePolicy::Chunked { chunks: places });
    let next = b.alloc("next", pages, PagePolicy::Chunked { chunks: places });
    let pages_per_row = (cols * 8).div_ceil(4096).max(1);

    let mut step_frames: Vec<FrameId> = Vec::new();
    for step in 0..params.steps {
        // Buffers swap each step; regions alternate.
        let (src, dst) = if step % 2 == 0 { (cur, next) } else { (next, cur) };
        let mut band_frames = Vec::new();
        for band in 0..places {
            let r0 = rows * band as u64 / places as u64;
            let r1 = rows * (band + 1) as u64 / places as u64;
            let f = build_rows(
                b_ref(&mut b),
                src,
                dst,
                r0,
                r1,
                rows,
                pages_per_row,
                params.rows_base as u64,
                cols,
                Place(band),
            );
            band_frames.push(f);
        }
        let mut fb = b.frame(Place(0));
        for f in band_frames {
            fb = fb.spawn(f);
        }
        step_frames.push(fb.sync().finish());
    }
    // Root chains the steps: spawn+sync each (steps are serial phases).
    let mut fb = b.frame(Place(0));
    for f in step_frames {
        fb = fb.spawn(f).sync();
    }
    let root = fb.finish();
    b.build(root)
}

// Borrow helper to keep the recursive builder readable.
fn b_ref(b: &mut DagBuilder) -> &mut DagBuilder {
    b
}

#[allow(clippy::too_many_arguments)]
fn build_rows(
    b: &mut DagBuilder,
    src: RegionId,
    dst: RegionId,
    r0: u64,
    r1: u64,
    rows: u64,
    pages_per_row: u64,
    rows_base: u64,
    cols: u64,
    place: Place,
) -> FrameId {
    if r1 - r0 <= rows_base {
        // Read rows r0-1 ..= r1 (halo), write rows r0..r1.
        let read_lo = r0.saturating_sub(1);
        let read_hi = (r1 + 1).min(rows);
        let strand = Strand {
            cycles: 6 * (r1 - r0) * cols, // ~6 cycles per cell of arithmetic
            touches: vec![
                Touch {
                    region: src,
                    start_page: read_lo * pages_per_row,
                    pages: (read_hi - read_lo) * pages_per_row,
                    lines_per_page: 64,
                },
                Touch {
                    region: dst,
                    start_page: r0 * pages_per_row,
                    pages: (r1 - r0) * pages_per_row,
                    lines_per_page: 64,
                },
            ],
        };
        return b.frame(place).strand(strand).finish();
    }
    let mid = (r0 + r1) / 2;
    let l = build_rows(b, src, dst, r0, mid, rows, pages_per_row, rows_base, cols, place);
    let r = build_rows(b, src, dst, mid, r1, rows, pages_per_row, rows_base, cols, place);
    b.frame(place).spawn(l).spawn(r).sync().finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::max_abs_diff;
    use numa_ws::Pool;
    use rand::Rng;

    /// The row formula before the slice kernel, kept as the oracle: full
    /// grid indexing and an edge test on every column.
    fn update_row_oracle(cur: &[f64], next: &mut [f64], r: usize, rows: usize, cols: usize) {
        if r == 0 || r == rows - 1 {
            next[r * cols..(r + 1) * cols].copy_from_slice(&cur[r * cols..(r + 1) * cols]);
            return;
        }
        for c in 0..cols {
            let up = cur[(r - 1) * cols + c];
            let down = cur[(r + 1) * cols + c];
            let left = if c == 0 { cur[r * cols + c] } else { cur[r * cols + c - 1] };
            let right = if c == cols - 1 { cur[r * cols + c] } else { cur[r * cols + c + 1] };
            next[r * cols + c] = 0.25 * (up + down + left + right);
        }
    }

    #[test]
    fn step_row_is_bit_identical_to_the_branchy_formula() {
        let rows = 5;
        for cols in [1usize, 2, 3, 48, 1024] {
            // Values of mixed magnitude, so any change of operand order
            // rounds differently somewhere.
            let mut rng = crate::common::input_rng(cols as u64);
            let cur: Vec<f64> = (0..rows * cols)
                .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-8..8)))
                .collect();
            let mut expect = vec![f64::NAN; cur.len()];
            let mut got = vec![f64::NAN; cur.len()];
            for r in 0..rows {
                update_row_oracle(&cur, &mut expect, r, rows, cols);
                step_row(&cur, &mut got[r * cols..(r + 1) * cols], r, rows);
            }
            for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                let (r, c) = (i / cols, i % cols);
                assert_eq!(g.to_bits(), e.to_bits(), "cols={cols} row {r} col {c}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn serial_conserves_boundary_and_smooths() {
        let p = Params::test();
        let mut g = initial_grid(p.rows, p.cols);
        let mut s = vec![0.0; g.len()];
        let peak_before = g.iter().cloned().fold(0.0, f64::max);
        run_serial(&mut g, &mut s, p);
        let peak_after = g.iter().cloned().fold(0.0, f64::max);
        assert!(peak_after <= peak_before, "diffusion must not create heat");
        assert!(peak_after > 0.0, "heat must persist after 4 steps");
    }

    #[test]
    fn parallel_matches_serial() {
        let p = Params::test();
        for places in [1usize, 2, 4] {
            let pool = Pool::builder().workers(4).places(places).build().unwrap();
            let mut g1 = initial_grid(p.rows, p.cols);
            let mut s1 = vec![0.0; g1.len()];
            run_serial(&mut g1, &mut s1, p);

            let mut g2 = initial_grid(p.rows, p.cols);
            let mut s2 = vec![0.0; g2.len()];
            pool.install(|| run_parallel(&mut g2, &mut s2, p, places));
            assert!(
                max_abs_diff(&g1, &g2) < 1e-12,
                "parallel grid must match serial (places={places})"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_odd_shapes() {
        let p = Params { rows: 50, cols: 30, steps: 3, rows_base: 7 };
        let pool = Pool::builder().workers(8).places(4).build().unwrap();
        let mut g1 = initial_grid(p.rows, p.cols);
        let mut s1 = vec![0.0; g1.len()];
        run_serial(&mut g1, &mut s1, p);
        let mut g2 = initial_grid(p.rows, p.cols);
        let mut s2 = vec![0.0; g2.len()];
        pool.install(|| run_parallel(&mut g2, &mut s2, p, 4));
        assert!(max_abs_diff(&g1, &g2) < 1e-12);
    }

    #[test]
    fn dag_shape() {
        let p = Params { rows: 256, cols: 256, steps: 3, rows_base: 16 };
        let d = dag(p, 4);
        d.validate().unwrap();
        // 3 steps x 4 bands x (64/16=4 leaves + internals) + chaining.
        assert!(d.num_frames() > 3 * 4 * 4);
        assert!(d.work() > 0);
        // Steps are serial: span >= steps * leaf work.
        assert!(d.span() >= 3 * 6 * 16 * 256);
    }

    #[test]
    #[should_panic(expected = "rows_base must be >= 1")]
    fn rows_base_zero_is_rejected() {
        // Unchecked, a 1-row range splits into itself forever.
        dag(Params { rows_base: 0, ..Params::test() }, 2);
    }
}
