//! `numa_kernels`: hinted `cilksort` plus `heat` at the paper's coarsening
//! on two places. Working sets are tens of MiB, far above the private L2,
//! so kernel compute and memory traffic dominate and the mailbox/PUSHBACK
//! path and the steal bias are engaged.

use crate::harness::{Batch, Exec};
use crate::spans::Tracer;
use nws_apps::common::{max_abs_diff, random_keys};
use nws_apps::{cilksort, heat};

pub const PLACES: usize = 2;
pub const HEAT: heat::Params = heat::Params { rows: 1024, cols: 1024, steps: 8, rows_base: 32 };
const SORT: cilksort::Params =
    cilksort::Params { n: 1 << 20, sort_base: 1 << 13, merge_base: 1 << 13 };
/// Largest elementwise difference from the serial grid the check accepts.
const HEAT_TOLERANCE: f64 = 1e-9;

pub struct NumaKernels {
    keys: Vec<u64>,
    data: Vec<u64>,
    tmp: Vec<u64>,
    sorted: Vec<u64>,
    init: Vec<f64>,
    grid: Vec<f64>,
    scratch: Vec<f64>,
    grid_oracle: Vec<f64>,
}

impl NumaKernels {
    pub fn new(seed: u64) -> Self {
        let keys = random_keys(SORT.n, seed);
        let init = heat::initial_grid(HEAT.rows, HEAT.cols);
        NumaKernels {
            data: keys.clone(),
            tmp: vec![0; SORT.n],
            keys,
            sorted: Vec::new(),
            grid: init.clone(),
            scratch: vec![0.0; init.len()],
            init,
            grid_oracle: Vec::new(),
        }
    }

    /// Computes the serial oracle outputs.
    pub fn oracle(&mut self) {
        let mut data = self.keys.clone();
        cilksort::sort_serial(&mut data, &mut self.tmp, SORT);
        self.sorted = data;
        let mut grid = self.init.clone();
        heat::run_serial(&mut grid, &mut self.scratch, HEAT);
        self.grid_oracle = grid;
    }

    /// Bytes the kernels sweep per unit (both buffers of each), computed
    /// from array sizes.
    pub fn working_set_bytes(&self) -> usize {
        2 * SORT.n * 8 + 2 * HEAT.rows * HEAT.cols * 8
    }
}

/// Bytes one `heat` call streams, computed from the grid size: each step
/// reads the current grid and writes the next once.
pub fn heat_bytes_computed() -> f64 {
    (HEAT.steps * HEAT.rows * HEAT.cols * 8 * 2) as f64
}

impl Batch for NumaKernels {
    fn reset(&mut self) {
        self.data.copy_from_slice(&self.keys);
        self.grid.copy_from_slice(&self.init);
    }

    fn run(&mut self, exec: Exec<'_>, mut tr: Option<&mut Tracer>) {
        let par = matches!(exec, Exec::Pool(_));
        let (data, tmp) = (&mut self.data, &mut self.tmp);
        exec.run(tr.as_deref_mut(), "apps.cilksort", || {
            if par {
                cilksort::sort_parallel(data, tmp, SORT, PLACES)
            } else {
                cilksort::sort_serial(data, tmp, SORT)
            }
        });
        let (grid, scratch) = (&mut self.grid, &mut self.scratch);
        exec.run(tr, "apps.heat", || {
            if par {
                heat::run_parallel(grid, scratch, HEAT, PLACES)
            } else {
                heat::run_serial(grid, scratch, HEAT)
            }
        });
    }

    fn check(&self) -> bool {
        self.data == self.sorted && max_abs_diff(&self.grid, &self.grid_oracle) <= HEAT_TOLERANCE
    }
}
