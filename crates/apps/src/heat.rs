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
use crate::fork::{self, ForkJoin, Serial};
use crate::record::Record;
use nws_sim::{Dag, DagBuilder, PagePolicy, RegionId, Strand, Touch, PAGE_BYTES};
use nws_topology::Place;

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
// The recursion
// ---------------------------------------------------------------------------

/// What every call of one time step shares: the grid it reads, the
/// parameters, and the step's index, which tells the DAG model which
/// buffer is being read.
#[derive(Clone, Copy)]
struct Sweep<'a> {
    cur: &'a [f64],
    params: &'a Params,
    step: usize,
}

/// Splits `next`, which holds rows `[r0, r1)`, at row `mid`. The row width
/// comes from the slice, so a walk over empty grids splits empty slices.
fn split_rows(next: &mut [f64], r0: usize, mid: usize, r1: usize) -> (&mut [f64], &mut [f64]) {
    next.split_at_mut(next.len() / (r1 - r0).max(1) * (mid - r0))
}

/// Writes rows `[r0, r1)` of the next grid into `next`, which holds exactly
/// those rows. The range is first split into `bands` bands, band `i`
/// hinted at place `first_band + i` (the first band stays where its caller
/// runs), then each band is halved down to leaves of at most `rows_base`
/// rows. `split_at_mut` hands the halves disjoint rows, so the parallel
/// writes need no unsafe code.
fn sweep<F: ForkJoin<Model>>(
    f: &mut F,
    s: Sweep,
    next: &mut [f64],
    r0: usize,
    r1: usize,
    first_band: usize,
    bands: usize,
) {
    if bands > 1 {
        let left = bands / 2;
        let mid = r0 + (r1 - r0) * left / bands;
        let (lo, hi) = split_rows(next, r0, mid, r1);
        f.join_at(
            move |f| sweep(f, s, lo, r0, mid, first_band, left),
            move |f| sweep(f, s, hi, mid, r1, first_band + left, bands - left),
            Place(first_band + left),
        );
    } else if r1 - r0 > s.params.rows_base {
        let mid = (r0 + r1) / 2;
        let (lo, hi) = split_rows(next, r0, mid, r1);
        f.join(
            move |f| sweep(f, s, lo, r0, mid, first_band, 1),
            move |f| sweep(f, s, hi, mid, r1, first_band, 1),
        );
    } else {
        let (rows, cols) = (s.params.rows, s.params.cols);
        f.leaf(
            |m| m.rows_strand(s.step, r0, r1),
            || {
                for r in r0..r1 {
                    step_row(s.cur, &mut next[(r - r0) * cols..(r - r0 + 1) * cols], r, rows);
                }
            },
        );
    }
}

/// Runs `steps` Jacobi iterations, each a [`sweep`] over `bands` bands;
/// returns the final grid in `grid` (the other buffer is scratch).
fn run<F: ForkJoin<Model>>(
    f: &mut F,
    grid: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
    params: Params,
    bands: usize,
) {
    params.check();
    for step in 0..params.steps {
        let s = Sweep { cur: grid, params: &params, step };
        sweep(f, s, scratch, 0, params.rows, 0, bands);
        std::mem::swap(grid, scratch);
    }
}

fn check_shape(grid: &[f64], scratch: &[f64], params: Params) {
    assert_eq!(grid.len(), params.rows * params.cols, "grid shape mismatch");
    assert_eq!(scratch.len(), grid.len(), "scratch shape mismatch");
}

/// Serial elision: runs `steps` Jacobi iterations; returns the final grid
/// (the other buffer is scratch).
pub fn run_serial(grid: &mut Vec<f64>, scratch: &mut Vec<f64>, params: Params) {
    check_shape(grid, scratch, params);
    run(&mut Serial, grid, scratch, params, 1);
}

/// Runs `steps` Jacobi iterations in parallel (call inside
/// [`Pool::install`](numa_ws::Pool::install)); row bands are hinted at the
/// place owning them, one band per place.
pub fn run_parallel(grid: &mut Vec<f64>, scratch: &mut Vec<f64>, params: Params, places: usize) {
    check_shape(grid, scratch, params);
    run(&mut fork::Pool, grid, scratch, params, places.max(1));
}

// ---------------------------------------------------------------------------
// Simulator DAG
// ---------------------------------------------------------------------------

/// What a leaf describes itself against: the regions of the two grid
/// buffers, which swap roles every step, and the grid's shape.
struct Model {
    grids: [RegionId; 2],
    rows: u64,
    cols: u64,
}

impl Model {
    /// A streaming touch of rows `[r0, r1)` of `grid`: the pages their
    /// bytes span in the row-major grid, so a row that is not a whole
    /// number of pages shares its first and last pages with its
    /// neighbours.
    fn rows_touch(&self, grid: RegionId, r0: u64, r1: u64) -> Touch {
        let row_bytes = self.cols * 8;
        let first = r0 * row_bytes / PAGE_BYTES;
        let end = (r1 * row_bytes).div_ceil(PAGE_BYTES);
        Touch { region: grid, start_page: first, pages: end - first, lines_per_page: 64 }
    }

    /// The strand of a leaf over rows `[r0, r1)` at step `step`: ≈ 6 cycles
    /// of arithmetic per cell, reading the rows and their halo in the
    /// step's source buffer and writing the rows in its destination.
    fn rows_strand(&self, step: usize, r0: usize, r1: usize) -> Strand {
        let (r0, r1) = (r0 as u64, r1 as u64);
        let (src, dst) = (self.grids[step % 2], self.grids[(step + 1) % 2]);
        let read_lo = r0.saturating_sub(1);
        let read_hi = (r1 + 1).min(self.rows);
        Strand {
            cycles: 6 * (r1 - r0) * self.cols,
            touches: vec![self.rows_touch(src, read_lo, read_hi), self.rows_touch(dst, r0, r1)],
        }
    }
}

/// Builds the simulator DAG by recording the recursion the pool runs, over
/// empty grids (no grid is allocated): `steps` phases of hinted row bands,
/// one per place, with both buffers bound bandwise to the places. The root
/// is hinted at place 0, where the first band inherits it.
pub fn dag(params: Params, places: usize) -> Dag {
    let places = places.max(1);
    let (rows, cols) = (params.rows as u64, params.cols as u64);
    let pages = pages_for(rows * cols, 8);
    let mut bd = DagBuilder::new();
    let grids =
        ["cur", "next"].map(|name| bd.alloc(name, pages, PagePolicy::Chunked { chunks: places }));
    let model = Model { grids, rows, cols };
    Record::dag(bd, model, Place(0), |f| run(f, &mut Vec::new(), &mut Vec::new(), params, places))
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

    /// The flat row loop `run_serial` was before it read the recursion,
    /// kept as the oracle.
    fn run_flat(grid: &mut Vec<f64>, scratch: &mut Vec<f64>, p: Params) {
        for _ in 0..p.steps {
            for r in 0..p.rows {
                step_row(grid, &mut scratch[r * p.cols..(r + 1) * p.cols], r, p.rows);
            }
            std::mem::swap(grid, scratch);
        }
    }

    #[test]
    fn serial_is_bit_identical_to_the_flat_row_loop() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for p in [Params::test(), Params { rows: 50, cols: 30, steps: 3, rows_base: 7 }] {
            let mut want = initial_grid(p.rows, p.cols);
            let mut scratch = vec![0.0; want.len()];
            run_flat(&mut want, &mut scratch, p);
            let mut got = initial_grid(p.rows, p.cols);
            let mut scratch = vec![0.0; got.len()];
            run_serial(&mut got, &mut scratch, p);
            assert_eq!(bits(&got), bits(&want), "{p:?}");
        }
    }

    #[test]
    fn dag_forks_as_often_as_the_pool_run() {
        // A 2-way fork is 2 DAG spawns (one child frame per branch) and 1
        // pool spawn. Each of the 4 steps splits 64 rows into 4 hinted
        // bands (3 forks), then each 16-row band into two 8-row leaves.
        let p = Params::test();
        let pool = Pool::new(1).unwrap();
        let mut g = initial_grid(p.rows, p.cols);
        let mut s = vec![0.0; g.len()];
        pool.install(|| run_parallel(&mut g, &mut s, p, 4));
        let stats = pool.stats();
        let pool_spawns = stats.total_spawns() + stats.total_spawn_overflows();
        let d = dag(p, 4);
        d.validate().unwrap();
        assert_eq!(d.num_spawns(), 2 * 4 * (3 + 4));
        assert_eq!(pool_spawns * 2, d.num_spawns());
        // Every leaf runs at the place of its band: 2 leaves per band and
        // step.
        let mut leaves = [0; 4];
        for f in 0..d.num_frames() {
            let frame = d.frame(nws_sim::FrameId(f));
            if frame.steps.iter().any(|s| matches!(s, nws_sim::Step::Strand(_))) {
                leaves[frame.place.index().unwrap()] += 1;
            }
        }
        assert_eq!(leaves, [2 * 4; 4]);
    }

    #[test]
    fn dag_simulates_when_rows_are_not_whole_pages() {
        // A 48-column row is 384 bytes and a 600-column row 4,800: rows
        // share pages with their neighbours, and the touches must stay
        // inside grids sized from their bytes.
        let topo = nws_topology::presets::paper_machine();
        let wide = Params { rows: 64, cols: 600, steps: 2, rows_base: 8 };
        for (p, places) in [(Params::test(), 1), (Params::test(), 4), (wide, 4)] {
            let d = dag(p, places);
            let touches: Vec<Touch> = (0..d.num_frames())
                .flat_map(|f| &d.frame(nws_sim::FrameId(f)).steps)
                .filter_map(|s| match s {
                    nws_sim::Step::Strand(s) => Some(&s.touches),
                    _ => None,
                })
                .flatten()
                .copied()
                .collect();
            for (i, region) in d.regions().iter().enumerate() {
                let ends = touches
                    .iter()
                    .filter(|t| t.region == RegionId(i))
                    .map(|t| (t.start_page, t.start_page + t.pages));
                let (lo, hi) = ends.fold((u64::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
                assert_eq!(
                    (lo, hi),
                    (0, region.pages),
                    "{p:?}: '{}' is touched whole",
                    region.name
                );
            }
            let ts = nws_sim::Simulation::serial_elision(&topo, &d);
            let cfg = nws_sim::SimConfig::numa_ws(8 * places);
            let r = nws_sim::Simulation::new(&topo, cfg, &d).unwrap().run();
            assert!(ts > d.work() && r.total_work() > d.work(), "{p:?}: memory costs cycles");
        }
    }

    #[test]
    #[should_panic(expected = "rows_base must be >= 1")]
    fn rows_base_zero_is_rejected() {
        // Unchecked, a 1-row range splits into itself forever.
        dag(Params { rows_base: 0, ..Params::test() }, 2);
    }
}
