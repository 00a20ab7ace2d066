//! `matmul`: eight-way divide-and-conquer matrix multiplication with no
//! temporary matrices (cache-oblivious, after Frigo et al.).
//!
//! `C += A·B` splits every matrix into quadrants and runs two phases of
//! four independent quadrant products (the two products targeting the same
//! `C` quadrant are serialized between phases). The paper runs it in two
//! layouts: plain row-major (`matmul`) and the blocked Z-Morton layout of
//! §III-C (`matmul-z`), which makes every base-case block contiguous in
//! memory.
//!
//! The paper uses this benchmark as the "already cache-oblivious" baseline:
//! little work inflation to begin with, so NUMA-WS must not hurt it — while
//! the layout transformation still helps both platforms equally.

use crate::common::pages_for;
use crate::fork::{self, ForkJoin, Serial};
use crate::record::Record;
use nws_layout::{BlockedZ, Matrix};
use nws_sim::{Dag, DagBuilder, PagePolicy, RegionId, Strand, Touch};
use nws_topology::Place;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Matrix side (must be `block * 2^k`).
    pub n: usize,
    /// Base-case block side (the paper uses 32 for matmul and 16 for
    /// strassen).
    pub block: usize,
}

impl Params {
    /// Simulator-scale configuration.
    pub fn sim() -> Self {
        Params { n: 512, block: 32 }
    }

    /// Tiny configuration for tests.
    pub fn test() -> Self {
        Params { n: 64, block: 8 }
    }

    /// Panics unless `n` is `block` times a power of two, which the
    /// quadrant recursions of matmul and strassen need.
    pub(crate) fn validate(&self) {
        assert!(
            self.block > 0 && self.n.is_multiple_of(self.block),
            "n must be a multiple of block"
        );
        assert!(
            (self.n / self.block).is_power_of_two(),
            "n/block must be a power of two for quadrant recursion"
        );
    }
}

// ---------------------------------------------------------------------------
// Row-major views (the unsafe core, kept minimal and documented)
// ---------------------------------------------------------------------------

/// Read-only view into a row-major matrix: element `(r, c)` at
/// `ptr + r * stride + c`.
#[derive(Clone, Copy)]
struct View {
    ptr: *const f64,
    stride: usize,
}

/// Mutable view; quadrant recursion only ever hands out views onto
/// *disjoint* index rectangles of `C`, which is what makes the parallel
/// phases sound.
#[derive(Clone, Copy)]
struct MutView {
    ptr: *mut f64,
    stride: usize,
}

// SAFETY: views are dispatched to parallel tasks only over disjoint
// rectangles (phases split C by quadrant); A and B views are read-only.
unsafe impl Send for View {}
// SAFETY: a View only ever reads; any number of threads may share one.
unsafe impl Sync for View {}
// SAFETY: MutViews handed to concurrent tasks cover disjoint C rectangles
// (the quadrant recursion never aliases two live mutable views).
unsafe impl Send for MutView {}
// SAFETY: as for Send — disjointness of the rectangles, not interior
// synchronization, is what makes concurrent access sound.
unsafe impl Sync for MutView {}

impl View {
    /// # Safety
    ///
    /// The `(dr, dc)` offset must stay inside the underlying allocation.
    unsafe fn quad(self, dr: usize, dc: usize) -> View {
        View { ptr: self.ptr.add(dr * self.stride + dc), stride: self.stride }
    }
}

impl MutView {
    /// # Safety
    ///
    /// As [`View::quad`]; additionally the resulting rectangles handed to
    /// concurrent tasks must be disjoint.
    unsafe fn quad(self, dr: usize, dc: usize) -> MutView {
        MutView { ptr: self.ptr.add(dr * self.stride + dc), stride: self.stride }
    }
}

/// Base-case kernel: `c[0..n][0..n] += a · b` on row-major views.
///
/// # Safety
///
/// All three views must cover valid `n × n` rectangles; `c` must not alias
/// `a` or `b`.
unsafe fn kernel(a: View, b: View, c: MutView, n: usize) {
    for i in 0..n {
        for k in 0..n {
            let aik = *a.ptr.add(i * a.stride + k);
            let brow = b.ptr.add(k * b.stride);
            let crow = c.ptr.add(i * c.stride);
            for j in 0..n {
                *crow.add(j) += aik * *brow.add(j);
            }
        }
    }
}

fn mul_rec<F: ForkJoin<Model>>(f: &mut F, a: View, b: View, c: MutView, n: usize, block: usize) {
    if n == block {
        f.leaf(
            |m| m.leaf_strand([a.ptr, b.ptr, c.ptr.cast_const()]),
            // SAFETY: views cover n x n rectangles by construction of the
            // recursion; c never aliases a or b (checked at the public entry).
            || unsafe { kernel(a, b, c, n) },
        );
        return;
    }
    let h = n / 2;
    // SAFETY: quadrant offsets stay inside the n x n rectangle.
    let (a11, a12, a21, a22) = unsafe { (a.quad(0, 0), a.quad(0, h), a.quad(h, 0), a.quad(h, h)) };
    // SAFETY: as above — h = n / 2, so every offset is in-rectangle.
    let (b11, b12, b21, b22) = unsafe { (b.quad(0, 0), b.quad(0, h), b.quad(h, 0), b.quad(h, h)) };
    // SAFETY: in-rectangle as above; the C quadrants are disjoint, and each
    // phase below hands each quadrant to exactly one task.
    let (c11, c12, c21, c22) = unsafe { (c.quad(0, 0), c.quad(0, h), c.quad(h, 0), c.quad(h, h)) };
    // Phase 1: four products into the four disjoint C quadrants.
    f.join4(
        move |f| mul_rec(f, a11, b11, c11, h, block),
        move |f| mul_rec(f, a11, b12, c12, h, block),
        move |f| mul_rec(f, a21, b11, c21, h, block),
        move |f| mul_rec(f, a21, b12, c22, h, block),
    );
    // Phase 2: the other four products (same C quadrants, so a sync
    // separates the phases).
    f.join4(
        move |f| mul_rec(f, a12, b21, c11, h, block),
        move |f| mul_rec(f, a12, b22, c12, h, block),
        move |f| mul_rec(f, a22, b21, c21, h, block),
        move |f| mul_rec(f, a22, b22, c22, h, block),
    );
}

fn mul<F: ForkJoin<Model>>(
    f: &mut F,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &mut Matrix<f64>,
    p: Params,
) {
    p.validate();
    assert_eq!(a.rows(), p.n, "A shape");
    assert_eq!(b.rows(), p.n, "B shape");
    assert_eq!(c.rows(), p.n, "C shape");
    assert_eq!(a.cols(), p.n, "A must be square");
    assert_eq!(b.cols(), p.n, "B must be square");
    assert_eq!(c.cols(), p.n, "C must be square");
    let va = View { ptr: a.as_slice().as_ptr(), stride: p.n };
    let vb = View { ptr: b.as_slice().as_ptr(), stride: p.n };
    let vc = MutView { ptr: c.as_mut_slice().as_mut_ptr(), stride: p.n };
    mul_rec(f, va, vb, vc, p.n, p.block);
}

/// Serial elision: `c += a · b`, row-major.
pub fn mul_serial(a: &Matrix<f64>, b: &Matrix<f64>, c: &mut Matrix<f64>, params: Params) {
    mul(&mut Serial, a, b, c, params);
}

/// Parallel `c += a · b`, row-major (call inside
/// [`Pool::install`](numa_ws::Pool::install)).
pub fn mul_parallel(a: &Matrix<f64>, b: &Matrix<f64>, c: &mut Matrix<f64>, params: Params) {
    mul(&mut fork::Pool, a, b, c, params);
}

// ---------------------------------------------------------------------------
// Blocked Z-Morton variant (matmul-z) — all-safe slice recursion
// ---------------------------------------------------------------------------

/// `c += a · b` on one contiguous row-major `n × n` block (the §III-C
/// payoff of the Z-Morton layout), the leaf of `matmul-z` and `strassen`.
/// Each row of `c` is one zip over slices, which vectorizes; every cell
/// accumulates `a[i][k] * b[k][j]` in increasing `k`.
pub(crate) fn block_mul_add(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    assert!(a.len() == n * n && b.len() == n * n && c.len() == n * n, "blocks must be n x n");
    for (a_row, c_row) in a.chunks_exact(n).zip(c.chunks_exact_mut(n)) {
        for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            for (cij, &bkj) in c_row.iter_mut().zip(b_row) {
                *cij += aik * bkj;
            }
        }
    }
}

fn blocked_rec<F>(f: &mut F, a: &[f64], b: &[f64], c: &mut [f64], n: usize, block: usize)
where
    F: ForkJoin<Model>,
{
    if n == block {
        let tiles = [a.as_ptr(), b.as_ptr(), c.as_ptr()];
        f.leaf(|m| m.leaf_strand(tiles), || block_mul_add(a, b, c, n));
        return;
    }
    let h = n / 2;
    let q = c.len() / 4;
    let (a11, a12, a21, a22) = (&a[..q], &a[q..2 * q], &a[2 * q..3 * q], &a[3 * q..]);
    let (b11, b12, b21, b22) = (&b[..q], &b[q..2 * q], &b[2 * q..3 * q], &b[3 * q..]);
    let (c_top, c_bot) = c.split_at_mut(2 * q);
    let (c11, c12) = c_top.split_at_mut(q);
    let (c21, c22) = c_bot.split_at_mut(q);
    f.join4(
        |f| blocked_rec(f, a11, b11, c11, h, block),
        |f| blocked_rec(f, a11, b12, c12, h, block),
        |f| blocked_rec(f, a21, b11, c21, h, block),
        |f| blocked_rec(f, a21, b12, c22, h, block),
    );
    f.join4(
        |f| blocked_rec(f, a12, b21, c11, h, block),
        |f| blocked_rec(f, a12, b22, c12, h, block),
        |f| blocked_rec(f, a22, b21, c21, h, block),
        |f| blocked_rec(f, a22, b22, c22, h, block),
    );
}

fn mul_blocked<F>(f: &mut F, a: &BlockedZ<f64>, b: &BlockedZ<f64>, c: &mut BlockedZ<f64>, p: Params)
where
    F: ForkJoin<Model>,
{
    p.validate();
    assert_eq!(a.n(), p.n, "A shape");
    assert_eq!(b.n(), p.n, "B shape");
    assert_eq!(c.n(), p.n, "C shape");
    assert_eq!(a.block_size(), p.block, "A block");
    assert_eq!(b.block_size(), p.block, "B block");
    assert_eq!(c.block_size(), p.block, "C block");
    blocked_rec(f, a.as_slice(), b.as_slice(), c.as_mut_slice(), p.n, p.block);
}

/// Serial elision of `matmul-z`: `c += a · b` on blocked Z-Morton
/// matrices.
pub fn mul_blocked_serial(
    a: &BlockedZ<f64>,
    b: &BlockedZ<f64>,
    c: &mut BlockedZ<f64>,
    params: Params,
) {
    mul_blocked(&mut Serial, a, b, c, params);
}

/// Parallel `matmul-z` (call inside
/// [`Pool::install`](numa_ws::Pool::install)).
pub fn mul_blocked_parallel(
    a: &BlockedZ<f64>,
    b: &BlockedZ<f64>,
    c: &mut BlockedZ<f64>,
    params: Params,
) {
    mul_blocked(&mut fork::Pool, a, b, c, params);
}

// ---------------------------------------------------------------------------
// Simulator DAG
// ---------------------------------------------------------------------------

/// Data layout for the DAG model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Plain row-major: a base-case block spans one page fragment per row.
    RowMajor,
    /// Blocked Z-Morton (§III-C): a base-case block is contiguous pages.
    BlockedZ,
}

/// What a leaf describes itself against: the regions of `A`, `B` and `C`,
/// and the addresses of the zero matrices a recording walks in their
/// place. A leaf touches the pages its operand tiles occupy in them.
struct Model {
    regions: [RegionId; 3],
    bases: [usize; 3],
    layout: Layout,
    n: u64,
    block: u64,
}

impl Model {
    /// The strand of a leaf product on the tiles of `A`, `B` and `C` that
    /// start at `tiles`: 2·block³ flops at ≈ 1 cycle per FMA pair. Index
    /// math is per-element in row-major but per-block in blocked-Z
    /// (§III-C), modeled as a small per-element surcharge.
    fn leaf_strand(&self, tiles: [*const f64; 3]) -> Strand {
        let block = self.block;
        let per_tile = if self.layout == Layout::RowMajor { block } else { 1 };
        let mut touches = Vec::with_capacity(3 * per_tile as usize);
        for ((&region, base), tile) in self.regions.iter().zip(self.bases).zip(tiles) {
            let byte = (tile.addr() - base) as u64;
            match self.layout {
                // Each of the `block` rows lands on its own page run
                // (consecutive rows are n*8 bytes apart).
                Layout::RowMajor => touches.extend((0..block).map(|r| Touch {
                    region,
                    start_page: (byte + r * self.n * 8) / 4096,
                    pages: 1,
                    lines_per_page: (block * 8).div_ceil(64).max(1),
                })),
                // The tile is contiguous: block*block*8 bytes.
                Layout::BlockedZ => touches.push(Touch {
                    region,
                    start_page: byte / 4096,
                    pages: (block * block * 8).div_ceil(4096).max(1),
                    lines_per_page: 64,
                }),
            }
        }
        let index_cost = if self.layout == Layout::RowMajor { block * block } else { block };
        Strand { cycles: block * block * block + index_cost, touches }
    }
}

/// Builds the simulator DAG for `matmul` (`layout = RowMajor`) or
/// `matmul-z` (`layout = BlockedZ`) by recording the recursion the pool
/// runs. Hints are `ANY` (the paper uses no locality hints for this
/// benchmark); the layouts differ in page contiguity of the blocks, which
/// is what drives their different cache behaviour.
pub fn dag(params: Params, layout: Layout) -> Dag {
    params.validate();
    let (n, block) = (params.n, params.block);
    let pages = pages_for((n * n) as u64, 8);
    let mut bd = DagBuilder::new();
    let regions = ["A", "B", "C"].map(|name| bd.alloc(name, pages, PagePolicy::Interleave));
    let model = |bases| Model { regions, bases, layout, n: n as u64, block: block as u64 };
    // The recording runs no leaf body, so the zero operands are never read.
    match layout {
        Layout::RowMajor => {
            let [a, b, mut c] = [(); 3].map(|_| Matrix::<f64>::zeros(n, n));
            let bases = [&a, &b, &c].map(|m| m.as_slice().as_ptr().addr());
            Record::dag(bd, model(bases), Place::ANY, |f| mul(f, &a, &b, &mut c, params))
        }
        Layout::BlockedZ => {
            let [a, b, mut c] = [(); 3].map(|_| BlockedZ::<f64>::zeros(n, block));
            let bases = [&a, &b, &c].map(|m| m.as_slice().as_ptr().addr());
            Record::dag(bd, model(bases), Place::ANY, |f| mul_blocked(f, &a, &b, &mut c, params))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_ws::Pool;
    use rand::Rng;

    fn naive(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        let n = a.rows();
        Matrix::from_fn(n, n, |i, j| (0..n).map(|k| a.get(i, k) * b.get(k, j)).sum())
    }

    fn inputs(n: usize) -> (Matrix<f64>, Matrix<f64>) {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
        (a, b)
    }

    #[test]
    fn serial_rowmajor_matches_naive() {
        let p = Params::test();
        let (a, b) = inputs(p.n);
        let mut c = Matrix::zeros(p.n, p.n);
        mul_serial(&a, &b, &mut c, p);
        assert_eq!(c, naive(&a, &b));
    }

    #[test]
    fn parallel_rowmajor_matches_naive() {
        let p = Params::test();
        let (a, b) = inputs(p.n);
        let pool = Pool::builder().workers(8).places(4).build().unwrap();
        let mut c = Matrix::zeros(p.n, p.n);
        pool.install(|| mul_parallel(&a, &b, &mut c, p));
        assert_eq!(c, naive(&a, &b));
    }

    #[test]
    fn blocked_variants_match_naive() {
        let p = Params::test();
        let (a, b) = inputs(p.n);
        let za = BlockedZ::from_matrix(&a, p.block);
        let zb = BlockedZ::from_matrix(&b, p.block);
        let expect = naive(&a, &b);

        let mut zc = BlockedZ::zeros(p.n, p.block);
        mul_blocked_serial(&za, &zb, &mut zc, p);
        assert_eq!(zc.to_matrix(), expect);

        let pool = Pool::new(4).unwrap();
        let mut zc2 = BlockedZ::zeros(p.n, p.block);
        pool.install(|| mul_blocked_parallel(&za, &zb, &mut zc2, p));
        assert_eq!(zc2.to_matrix(), expect);
    }

    #[test]
    fn block_leaf_is_bit_identical_to_the_indexed_loop() {
        // The indexed loop the slice-zip leaf replaced, kept as the oracle.
        // strassen's old base case was this loop over a zeroed block.
        fn indexed(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
            for i in 0..n {
                for k in 0..n {
                    let aik = a[i * n + k];
                    for j in 0..n {
                        c[i * n + j] += aik * b[k * n + j];
                    }
                }
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = crate::common::input_rng(28);
        for n in [1, 2, 3, 8, 32] {
            let mut block = || (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<f64>>();
            let (a, b, c) = (block(), block(), block());
            for c0 in [c, vec![0.0; n * n]] {
                let (mut want, mut got) = (c0.clone(), c0);
                indexed(&a, &b, &mut want, n);
                block_mul_add(&a, &b, &mut got, n);
                assert_eq!(bits(&got), bits(&want), "n = {n}");
            }
        }
    }

    #[test]
    fn dag_forks_as_often_as_the_pool_run() {
        // A 4-way fork is 4 DAG spawns (one child frame per branch) and 3
        // pool spawns (`join4` is three `join`s). Each of the 1 + 8 + 64
        // calls above the leaves of a 64 / 8 recursion forks twice.
        let p = Params::test();
        let (a, b) = inputs(p.n);
        for layout in [Layout::RowMajor, Layout::BlockedZ] {
            let pool = Pool::new(1).unwrap();
            match layout {
                Layout::RowMajor => {
                    let mut c = Matrix::zeros(p.n, p.n);
                    pool.install(|| mul_parallel(&a, &b, &mut c, p));
                }
                Layout::BlockedZ => {
                    let (za, zb) =
                        (BlockedZ::from_matrix(&a, p.block), BlockedZ::from_matrix(&b, p.block));
                    let mut zc = BlockedZ::zeros(p.n, p.block);
                    pool.install(|| mul_blocked_parallel(&za, &zb, &mut zc, p));
                }
            }
            let stats = pool.stats();
            let pool_spawns = stats.total_spawns() + stats.total_spawn_overflows();
            let dag_spawns = dag(p, layout).num_spawns();
            assert_eq!(dag_spawns, 4 * 2 * 73, "{layout:?}");
            assert_eq!(pool_spawns * 4, dag_spawns * 3, "{layout:?}");
        }
    }

    #[test]
    fn accumulates_into_c() {
        let p = Params::test();
        let (a, b) = inputs(p.n);
        let mut c = Matrix::from_fn(p.n, p.n, |_, _| 1.0);
        mul_serial(&a, &b, &mut c, p);
        let mut expect = naive(&a, &b);
        for v in expect.as_mut_slice() {
            *v += 1.0;
        }
        assert_eq!(c, expect);
    }

    #[test]
    fn dag_blocked_touches_fewer_page_runs() {
        let p = Params { n: 256, block: 32 };
        let rm = dag(p, Layout::RowMajor);
        let bz = dag(p, Layout::BlockedZ);
        rm.validate().unwrap();
        bz.validate().unwrap();
        assert_eq!(rm.num_frames(), bz.num_frames(), "same recursion shape");
        // Count leaf touches: blocked should be far fewer Touch entries.
        let count = |d: &Dag| -> usize {
            (0..d.num_frames())
                .flat_map(|f| &d.frame(nws_sim::FrameId(f)).steps)
                .map(|s| match s {
                    nws_sim::Step::Strand(st) => st.touches.len(),
                    _ => 0,
                })
                .sum()
        };
        assert!(count(&bz) * 10 < count(&rm), "blocked layout must coalesce touches");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_shape_rejected() {
        let p = Params { n: 96, block: 32 }; // 3 blocks per side
        let (a, b) = inputs(96);
        let mut c = Matrix::zeros(96, 96);
        mul_serial(&a, &b, &mut c, p);
    }
}
