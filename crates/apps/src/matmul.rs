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
use numa_ws::join4;
use nws_layout::{BlockedZ, Matrix};
use nws_sim::{Dag, DagBuilder, FrameId, PagePolicy, RegionId, Strand, Touch};
use nws_topology::Place;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Matrix side (must be `block * 2^k`).
    pub n: usize,
    /// Base-case block side (the paper uses 32).
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

    fn validate(&self) {
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

fn mul_rec(a: View, b: View, c: MutView, n: usize, block: usize, parallel: bool) {
    if n == block {
        // SAFETY: views cover n x n rectangles by construction of the
        // recursion; c never aliases a or b (checked at the public entry).
        unsafe { kernel(a, b, c, n) };
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
    if parallel {
        // Phase 1: four products into the four disjoint C quadrants.
        join4(
            move || mul_rec(a11, b11, c11, h, block, true),
            move || mul_rec(a11, b12, c12, h, block, true),
            move || mul_rec(a21, b11, c21, h, block, true),
            move || mul_rec(a21, b12, c22, h, block, true),
        );
        // Phase 2: the other four products (same C quadrants, so a sync
        // separates the phases).
        join4(
            move || mul_rec(a12, b21, c11, h, block, true),
            move || mul_rec(a12, b22, c12, h, block, true),
            move || mul_rec(a22, b21, c21, h, block, true),
            move || mul_rec(a22, b22, c22, h, block, true),
        );
    } else {
        mul_rec(a11, b11, c11, h, block, false);
        mul_rec(a11, b12, c12, h, block, false);
        mul_rec(a21, b11, c21, h, block, false);
        mul_rec(a21, b12, c22, h, block, false);
        mul_rec(a12, b21, c11, h, block, false);
        mul_rec(a12, b22, c12, h, block, false);
        mul_rec(a22, b21, c21, h, block, false);
        mul_rec(a22, b22, c22, h, block, false);
    }
}

fn views<'a>(
    a: &'a Matrix<f64>,
    b: &'a Matrix<f64>,
    c: &'a mut Matrix<f64>,
    p: Params,
) -> (View, View, MutView) {
    p.validate();
    assert_eq!(a.rows(), p.n, "A shape");
    assert_eq!(b.rows(), p.n, "B shape");
    assert_eq!(c.rows(), p.n, "C shape");
    assert_eq!(a.cols(), p.n, "A must be square");
    assert_eq!(b.cols(), p.n, "B must be square");
    assert_eq!(c.cols(), p.n, "C must be square");
    (
        View { ptr: a.as_slice().as_ptr(), stride: p.n },
        View { ptr: b.as_slice().as_ptr(), stride: p.n },
        MutView { ptr: c.as_mut_slice().as_mut_ptr(), stride: p.n },
    )
}

/// Serial elision: `c += a · b`, row-major.
pub fn mul_serial(a: &Matrix<f64>, b: &Matrix<f64>, c: &mut Matrix<f64>, params: Params) {
    let (va, vb, vc) = views(a, b, c, params);
    mul_rec(va, vb, vc, params.n, params.block, false);
}

/// Parallel `c += a · b`, row-major (call inside
/// [`Pool::install`](numa_ws::Pool::install)).
pub fn mul_parallel(a: &Matrix<f64>, b: &Matrix<f64>, c: &mut Matrix<f64>, params: Params) {
    let (va, vb, vc) = views(a, b, c, params);
    mul_rec(va, vb, vc, params.n, params.block, true);
}

// ---------------------------------------------------------------------------
// Blocked Z-Morton variant (matmul-z) — all-safe slice recursion
// ---------------------------------------------------------------------------

fn blocked_rec(a: &[f64], b: &[f64], c: &mut [f64], n: usize, block: usize, parallel: bool) {
    if n == block {
        // Contiguous row-major blocks: the §III-C payoff.
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += aik * b[k * n + j];
                }
            }
        }
        return;
    }
    let h = n / 2;
    let q = c.len() / 4;
    let (a11, a12, a21, a22) = (&a[..q], &a[q..2 * q], &a[2 * q..3 * q], &a[3 * q..]);
    let (b11, b12, b21, b22) = (&b[..q], &b[q..2 * q], &b[2 * q..3 * q], &b[3 * q..]);
    let (c_top, c_bot) = c.split_at_mut(2 * q);
    let (c11, c12) = c_top.split_at_mut(q);
    let (c21, c22) = c_bot.split_at_mut(q);
    if parallel {
        join4(
            || blocked_rec(a11, b11, c11, h, block, true),
            || blocked_rec(a11, b12, c12, h, block, true),
            || blocked_rec(a21, b11, c21, h, block, true),
            || blocked_rec(a21, b12, c22, h, block, true),
        );
        join4(
            || blocked_rec(a12, b21, c11, h, block, true),
            || blocked_rec(a12, b22, c12, h, block, true),
            || blocked_rec(a22, b21, c21, h, block, true),
            || blocked_rec(a22, b22, c22, h, block, true),
        );
    } else {
        blocked_rec(a11, b11, c11, h, block, false);
        blocked_rec(a11, b12, c12, h, block, false);
        blocked_rec(a21, b11, c21, h, block, false);
        blocked_rec(a21, b12, c22, h, block, false);
        blocked_rec(a12, b21, c11, h, block, false);
        blocked_rec(a12, b22, c12, h, block, false);
        blocked_rec(a22, b21, c21, h, block, false);
        blocked_rec(a22, b22, c22, h, block, false);
    }
}

fn check_blocked(a: &BlockedZ<f64>, b: &BlockedZ<f64>, c: &BlockedZ<f64>, p: Params) {
    p.validate();
    assert_eq!(a.n(), p.n, "A shape");
    assert_eq!(b.n(), p.n, "B shape");
    assert_eq!(c.n(), p.n, "C shape");
    assert_eq!(a.block_size(), p.block, "A block");
    assert_eq!(b.block_size(), p.block, "B block");
    assert_eq!(c.block_size(), p.block, "C block");
}

/// Serial elision of `matmul-z`: `c += a · b` on blocked Z-Morton
/// matrices.
pub fn mul_blocked_serial(
    a: &BlockedZ<f64>,
    b: &BlockedZ<f64>,
    c: &mut BlockedZ<f64>,
    params: Params,
) {
    check_blocked(a, b, c, params);
    let n = params.n;
    blocked_rec(a.as_slice(), b.as_slice(), c.as_mut_slice(), n, params.block, false);
}

/// Parallel `matmul-z` (call inside
/// [`Pool::install`](numa_ws::Pool::install)).
pub fn mul_blocked_parallel(
    a: &BlockedZ<f64>,
    b: &BlockedZ<f64>,
    c: &mut BlockedZ<f64>,
    params: Params,
) {
    check_blocked(a, b, c, params);
    let n = params.n;
    blocked_rec(a.as_slice(), b.as_slice(), c.as_mut_slice(), n, params.block, true);
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

struct DagCtx {
    a: RegionId,
    b: RegionId,
    c: RegionId,
    n: u64,
    block: u64,
    layout: Layout,
}

/// Builds the simulator DAG for `matmul` (`layout = RowMajor`) or
/// `matmul-z` (`layout = BlockedZ`). Hints are `ANY` (the paper uses no
/// locality hints for this benchmark); the layouts differ in page
/// contiguity of the blocks, which is what drives their different cache
/// behaviour.
pub fn dag(params: Params, layout: Layout) -> Dag {
    params.validate();
    let n = params.n as u64;
    let pages = pages_for(n * n, 8);
    let mut b = DagBuilder::new();
    let ra = b.alloc("A", pages, PagePolicy::Interleave);
    let rb = b.alloc("B", pages, PagePolicy::Interleave);
    let rc = b.alloc("C", pages, PagePolicy::Interleave);
    let ctx = DagCtx { a: ra, b: rb, c: rc, n, block: params.block as u64, layout };
    let root = build_mul(&mut b, &ctx, 0, 0, 0, n);
    b.build(root)
}

/// Touches for one `block × block` tile whose top-left cell is
/// `(row, col)`.
fn tile_touches(ctx: &DagCtx, region: RegionId, row: u64, col: u64, out: &mut Vec<Touch>) {
    let block = ctx.block;
    match ctx.layout {
        Layout::RowMajor => {
            // Each of the `block` rows lands on its own page run
            // (consecutive rows are n*8 bytes apart).
            let lines = (block * 8).div_ceil(64).max(1);
            for r in row..row + block {
                let byte = (r * ctx.n + col) * 8;
                out.push(Touch {
                    region,
                    start_page: byte / 4096,
                    pages: 1,
                    lines_per_page: lines,
                });
            }
        }
        Layout::BlockedZ => {
            // The tile is contiguous: block*block*8 bytes starting at its
            // Z-order offset.
            let (br, bc) = (row / block, col / block);
            let z = nws_layout::zmorton::encode(br as u32, bc as u32);
            let byte = z * block * block * 8;
            let bytes = block * block * 8;
            out.push(Touch {
                region,
                start_page: byte / 4096,
                pages: bytes.div_ceil(4096).max(1),
                lines_per_page: 64,
            });
        }
    }
}

/// `C[i,j] += A[i,k] * B[k,j]` quadrant recursion over tile coordinates.
fn build_mul(bd: &mut DagBuilder, ctx: &DagCtx, i: u64, j: u64, k: u64, n: u64) -> FrameId {
    if n == ctx.block {
        let mut touches =
            Vec::with_capacity(if ctx.layout == Layout::RowMajor { 3 * n as usize } else { 3 });
        tile_touches(ctx, ctx.a, i, k, &mut touches);
        tile_touches(ctx, ctx.b, k, j, &mut touches);
        tile_touches(ctx, ctx.c, i, j, &mut touches);
        // 2*n^3 flops at ~1 cycle per FMA-pair; index math is per-element
        // in row-major but per-block in blocked-Z (§III-C), modeled as a
        // small per-element surcharge.
        let index_cost = if ctx.layout == Layout::RowMajor { n * n } else { n };
        return bd
            .frame(Place::ANY)
            .strand(Strand { cycles: n * n * n + index_cost, touches })
            .finish();
    }
    let h = n / 2;
    // Phase 1 products.
    let p1 = [
        build_mul(bd, ctx, i, j, k, h),
        build_mul(bd, ctx, i, j + h, k, h),
        build_mul(bd, ctx, i + h, j, k, h),
        build_mul(bd, ctx, i + h, j + h, k, h),
    ];
    // Phase 2 products (k advanced by h).
    let p2 = [
        build_mul(bd, ctx, i, j, k + h, h),
        build_mul(bd, ctx, i, j + h, k + h, h),
        build_mul(bd, ctx, i + h, j, k + h, h),
        build_mul(bd, ctx, i + h, j + h, k + h, h),
    ];
    let mut fb = bd.frame(Place::ANY);
    for f in p1 {
        fb = fb.spawn(f);
    }
    fb = fb.sync();
    for f in p2 {
        fb = fb.spawn(f);
    }
    fb.sync().finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_ws::Pool;

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
