//! `strassen`: Strassen's matrix multiplication — seven recursive products
//! of quadrant sums plus a set of additions.
//!
//! The paper uses strassen as the "hard to hint" benchmark: sub-matrices
//! feed several of the seven products, so data necessarily crosses sockets
//! and no locality hints are used (§V-A discusses and rejects the
//! top-eight-way variant because it gives up the `O(n^lg7)` work at the top
//! level). NUMA-WS must simply not hurt it.
//!
//! The recursion operates on matrices stored in **Z-order quadrants**
//! (each quadrant contiguous), which keeps the Rust implementation in safe
//! code; the `strassen` (row-major) configuration pays an explicit
//! transform at the boundary, the `strassen-z` configuration keeps inputs
//! in blocked Z-Morton form throughout — mirroring how the paper's `-z`
//! variant removes the layout penalty.

use crate::common::pages_for;
use crate::matmul::Layout;
use numa_ws::join;
use nws_layout::{BlockedZ, Matrix};
use nws_sim::{Dag, DagBuilder, FrameId, PagePolicy, RegionId, Strand, Touch};
use nws_topology::Place;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Matrix side (must be `block * 2^k`).
    pub n: usize,
    /// Below this side, multiply with the 8-way kernel (the paper uses
    /// 16×16 base cases).
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
}

// ---------------------------------------------------------------------------
// Z-quadrant recursion (safe: quadrants are contiguous slices)
// ---------------------------------------------------------------------------

fn add(a: &[f64], b: &[f64], out: &mut [f64]) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

fn sub(a: &[f64], b: &[f64], out: &mut [f64]) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// `out = a * b` on Z-quadrant buffers of side `n`.
fn strassen_rec(a: &[f64], b: &[f64], out: &mut [f64], n: usize, block: usize, parallel: bool) {
    if n <= block {
        out.fill(0.0);
        // Row-major kernel at the base (buffers are row-major at block
        // granularity).
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                for j in 0..n {
                    out[i * n + j] += aik * b[k * n + j];
                }
            }
        }
        return;
    }
    let q = a.len() / 4;
    let h = n / 2;
    let (a11, a12, a21, a22) = (&a[..q], &a[q..2 * q], &a[2 * q..3 * q], &a[3 * q..]);
    let (b11, b12, b21, b22) = (&b[..q], &b[q..2 * q], &b[2 * q..3 * q], &b[3 * q..]);

    // Quadrant sums (the "bunch of additions").
    let mut s1 = vec![0.0; q]; // A21 + A22
    let mut s2 = vec![0.0; q]; // S1 - A11
    let mut s3 = vec![0.0; q]; // A11 - A21
    let mut s4 = vec![0.0; q]; // A12 - S2
    let mut t1 = vec![0.0; q]; // B12 - B11
    let mut t2 = vec![0.0; q]; // B22 - T1
    let mut t3 = vec![0.0; q]; // B22 - B12
    let mut t4 = vec![0.0; q]; // T2 - B21
    add(a21, a22, &mut s1);
    sub(&s1, a11, &mut s2);
    sub(a11, a21, &mut s3);
    sub(a12, &s2, &mut s4);
    sub(b12, b11, &mut t1);
    sub(b22, &t1, &mut t2);
    sub(b22, b12, &mut t3);
    sub(&t2, b21, &mut t4);

    // Seven products (Winograd form).
    let mut p1 = vec![0.0; q]; // A11 * B11
    let mut p2 = vec![0.0; q]; // A12 * B21
    let mut p3 = vec![0.0; q]; // S4 * B22
    let mut p4 = vec![0.0; q]; // A22 * T4
    let mut p5 = vec![0.0; q]; // S1 * T1
    let mut p6 = vec![0.0; q]; // S2 * T2
    let mut p7 = vec![0.0; q]; // S3 * T3
    if parallel {
        // Seven spawns via nested joins (no hints, per the paper).
        let (s1r, s2r, s3r, s4r) = (&s1, &s2, &s3, &s4);
        let (t1r, t2r, t3r, t4r) = (&t1, &t2, &t3, &t4);
        join(
            || {
                join(
                    || strassen_rec(a11, b11, &mut p1, h, block, true),
                    || strassen_rec(a12, b21, &mut p2, h, block, true),
                );
                strassen_rec(s4r, b22, &mut p3, h, block, true);
            },
            || {
                join(
                    || {
                        join(
                            || strassen_rec(a22, t4r, &mut p4, h, block, true),
                            || strassen_rec(s1r, t1r, &mut p5, h, block, true),
                        )
                    },
                    || {
                        join(
                            || strassen_rec(s2r, t2r, &mut p6, h, block, true),
                            || strassen_rec(s3r, t3r, &mut p7, h, block, true),
                        )
                    },
                );
            },
        );
    } else {
        strassen_rec(a11, b11, &mut p1, h, block, false);
        strassen_rec(a12, b21, &mut p2, h, block, false);
        strassen_rec(&s4, b22, &mut p3, h, block, false);
        strassen_rec(a22, &t4, &mut p4, h, block, false);
        strassen_rec(&s1, &t1, &mut p5, h, block, false);
        strassen_rec(&s2, &t2, &mut p6, h, block, false);
        strassen_rec(&s3, &t3, &mut p7, h, block, false);
    }

    // Recombination: U1 = P1 + P6, U2 = U1 + P7, U3 = U1 + P5,
    // C11 = P1 + P2, C12 = U3 + P3, C21 = U2 - P4, C22 = U2 + P5.
    let (c_top, c_bot) = out.split_at_mut(2 * q);
    let (c11, c12) = c_top.split_at_mut(q);
    let (c21, c22) = c_bot.split_at_mut(q);
    let mut u1 = vec![0.0; q];
    let mut u2 = vec![0.0; q];
    add(&p1, &p6, &mut u1);
    add(&u1, &p7, &mut u2);
    add(&p1, &p2, c11);
    for j in 0..q {
        c12[j] = u1[j] + p5[j] + p3[j];
        c21[j] = u2[j] - p4[j];
        c22[j] = u2[j] + p5[j];
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Serial elision of `strassen` on row-major inputs: transforms to
/// Z-quadrant form at the boundary (the layout penalty the `-z` variant
/// avoids), multiplies, transforms back.
pub fn mul_serial(a: &Matrix<f64>, b: &Matrix<f64>, params: Params) -> Matrix<f64> {
    let za = BlockedZ::from_matrix(a, params.block);
    let zb = BlockedZ::from_matrix(b, params.block);
    let mut zc = BlockedZ::zeros(params.n, params.block);
    strassen_rec(za.as_slice(), zb.as_slice(), zc.as_mut_slice(), params.n, params.block, false);
    zc.to_matrix()
}

/// Parallel `strassen` on row-major inputs (call inside
/// [`Pool::install`](numa_ws::Pool::install)).
pub fn mul_parallel(a: &Matrix<f64>, b: &Matrix<f64>, params: Params) -> Matrix<f64> {
    let za = BlockedZ::from_matrix(a, params.block);
    let zb = BlockedZ::from_matrix(b, params.block);
    let mut zc = BlockedZ::zeros(params.n, params.block);
    strassen_rec(za.as_slice(), zb.as_slice(), zc.as_mut_slice(), params.n, params.block, true);
    zc.to_matrix()
}

/// Serial elision of `strassen-z`: inputs and output stay in blocked
/// Z-Morton form (no boundary transforms).
pub fn mul_blocked_serial(a: &BlockedZ<f64>, b: &BlockedZ<f64>, params: Params) -> BlockedZ<f64> {
    let mut c = BlockedZ::zeros(params.n, params.block);
    strassen_rec(a.as_slice(), b.as_slice(), c.as_mut_slice(), params.n, params.block, false);
    c
}

/// Parallel `strassen-z` (call inside
/// [`Pool::install`](numa_ws::Pool::install)).
pub fn mul_blocked_parallel(a: &BlockedZ<f64>, b: &BlockedZ<f64>, params: Params) -> BlockedZ<f64> {
    let mut c = BlockedZ::zeros(params.n, params.block);
    strassen_rec(a.as_slice(), b.as_slice(), c.as_mut_slice(), params.n, params.block, true);
    c
}

// ---------------------------------------------------------------------------
// The top-eight-way variant (§V-A)
// ---------------------------------------------------------------------------

/// Simulator DAG for the paper's rejected alternative: an **eight-way
/// divide at the top level** (hintable, one quadrant product pair per
/// place) with the seven-way Strassen recursion only below. §V-A: "the
/// top-eight-way version indeed \[has\] less work inflation, but at the
/// expense of 15% increases in overall T1, because we are not getting the
/// O(n^lg7) work at the top level" — so the paper ships the hint-free
/// version instead. `reproduce`'s top-eight-way ablation table runs this
/// DAG to reproduce that trade-off: the eight half-size products are
/// ordinary Strassen subtrees, but the top level is hinted one quadrant
/// per place (and pays 8 products instead of 7).
pub fn dag_top8(params: Params, layout: Layout, places: usize) -> Dag {
    let n = params.n as u64;
    let pages = pages_for(n * n, 8);
    let mut b = DagBuilder::new();
    let ra = b.alloc("A", pages, PagePolicy::Chunked { chunks: places.max(1) });
    let rb = b.alloc("B", pages, PagePolicy::Chunked { chunks: places.max(1) });
    let rc = b.alloc("C", pages, PagePolicy::Chunked { chunks: places.max(1) });
    let temps = b.alloc("temps", pages_for(5 * n * n, 8), PagePolicy::Interleave);
    let ctx = DagCtx { a: ra, b: rb, c: rc, temps, block: params.block as u64, layout, n };
    let h = n / 2;
    let corners = [(0u64, 0u64), (0, h), (h, 0), (h, h)];
    let mut quads = Vec::new();
    for (i, &(dr, dc)) in corners.iter().enumerate() {
        // Two half-size strassen subtrees + the combining addition.
        let p1 = build(&mut b, &ctx, dr, dc, h, 1);
        let p2 = build(&mut b, &ctx, dr, dc, h, 1);
        let place = Place(i % places.max(1));
        let add = Strand {
            cycles: 2 * h * h,
            touches: vec![Touch {
                region: rc,
                start_page: (i as u64) * pages / 4,
                pages: (pages / 4).max(1),
                lines_per_page: 64,
            }],
        };
        let q = b.frame(place).spawn(p1).spawn(p2).sync().strand(add).finish();
        quads.push(q);
    }
    let mut fb = b.frame(Place(0));
    for q in quads {
        fb = fb.spawn(q);
    }
    let root = fb.sync().finish();
    b.build(root)
}

// ---------------------------------------------------------------------------
// Simulator DAG
// ---------------------------------------------------------------------------

struct DagCtx {
    a: RegionId,
    b: RegionId,
    c: RegionId,
    temps: RegionId,
    block: u64,
    layout: Layout,
    n: u64,
}

/// Builds the simulator DAG for strassen (`RowMajor`) / strassen-z
/// (`BlockedZ`). No locality hints (per the paper); temporaries live in an
/// interleaved scratch region. Tile coordinates are tracked so the leaf
/// touches hit the same pages the real algorithm would.
pub fn dag(params: Params, layout: Layout) -> Dag {
    let n = params.n as u64;
    let pages = pages_for(n * n, 8);
    let mut b = DagBuilder::new();
    let ra = b.alloc("A", pages, PagePolicy::Interleave);
    let rb = b.alloc("B", pages, PagePolicy::Interleave);
    let rc = b.alloc("C", pages, PagePolicy::Interleave);
    // Temps: at each level 15 quarter-size temporaries; total bounded by
    // 5 * n^2 elements. One shared interleaved region approximates them.
    let temps = b.alloc("temps", pages_for(5 * n * n, 8), PagePolicy::Interleave);
    let ctx = DagCtx { a: ra, b: rb, c: rc, temps, block: params.block as u64, layout, n };
    let root = build(&mut b, &ctx, 0, 0, n, 0);
    b.build(root)
}

fn quarter_touch(ctx: &DagCtx, region: RegionId, row: u64, col: u64, n: u64, out: &mut Vec<Touch>) {
    // Touch the n x n tile at (row, col) of `region`.
    match ctx.layout {
        Layout::RowMajor => {
            let lines = (n * 8).div_ceil(64).clamp(1, 64);
            // One page run per row (bounded: collapse to at most 32 runs).
            let step = (n / 32).max(1);
            for r in (row..row + n).step_by(step as usize) {
                let byte = (r * ctx.n + col) * 8;
                out.push(Touch {
                    region,
                    start_page: byte / 4096,
                    pages: ((step * n * 8) / 4096).max(1),
                    lines_per_page: lines,
                });
            }
        }
        Layout::BlockedZ => {
            let (br, bc) = (row / ctx.block, col / ctx.block);
            let z = nws_layout::zmorton::encode(br as u32, bc as u32);
            let byte = z * ctx.block * ctx.block * 8;
            let bytes = n * n * 8;
            out.push(Touch {
                region,
                start_page: byte / 4096,
                pages: bytes.div_ceil(4096).max(1),
                lines_per_page: 64,
            });
        }
    }
}

fn build(bd: &mut DagBuilder, ctx: &DagCtx, row: u64, col: u64, n: u64, depth: u64) -> FrameId {
    if n <= ctx.block {
        let mut touches = Vec::new();
        quarter_touch(ctx, ctx.a, row, col, n, &mut touches);
        quarter_touch(ctx, ctx.b, row, col, n, &mut touches);
        quarter_touch(ctx, ctx.c, row, col, n, &mut touches);
        return bd.frame(Place::ANY).strand(Strand { cycles: n * n * n + n * n, touches }).finish();
    }
    let h = n / 2;
    // Seven recursive products; their tile coordinates follow the operand
    // quadrants (approximated by the four quadrant corners cycling).
    let corners = [(0, 0), (0, h), (h, 0), (h, h), (0, 0), (h, h), (0, h)];
    let children: Vec<FrameId> =
        corners.iter().map(|&(dr, dc)| build(bd, ctx, row + dr, col + dc, h, depth + 1)).collect();
    // Additions before and after: ~15 quarter-size elementwise passes over
    // freshly allocated temporaries, which land wherever the allocator put
    // them — decorrelate the window from the computing socket.
    let temps_total = pages_for(5 * ctx.n * ctx.n, 8);
    let temp_pages = pages_for(h * h, 8).min(temps_total);
    let salt =
        (row.wrapping_mul(0x9E37_79B9) ^ col.wrapping_mul(0x85EB_CA6B) ^ depth) % temps_total;
    let add_strand = move |mult: u64| Strand {
        cycles: mult * h * h,
        touches: vec![Touch {
            region: ctx.temps,
            start_page: salt.min(temps_total - temp_pages),
            pages: temp_pages,
            lines_per_page: 64,
        }],
    };
    let mut fb = bd.frame(Place::ANY).strand(add_strand(8));
    for c in children {
        fb = fb.spawn(c);
    }
    fb.sync().strand(add_strand(7)).finish()
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
        let a = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 5) % 9) as f64 - 4.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 11) % 8) as f64 - 3.5);
        (a, b)
    }

    #[test]
    fn serial_matches_naive() {
        let p = Params::test();
        let (a, b) = inputs(p.n);
        let c = mul_serial(&a, &b, p);
        let expect = naive(&a, &b);
        for i in 0..p.n {
            for j in 0..p.n {
                assert!((c.get(i, j) - expect.get(i, j)).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let p = Params::test();
        let (a, b) = inputs(p.n);
        let pool = Pool::builder().workers(8).places(2).build().unwrap();
        let c_par = pool.install(|| mul_parallel(&a, &b, p));
        let c_ser = mul_serial(&a, &b, p);
        assert_eq!(c_par, c_ser);
    }

    #[test]
    fn blocked_variant_matches() {
        let p = Params::test();
        let (a, b) = inputs(p.n);
        let za = BlockedZ::from_matrix(&a, p.block);
        let zb = BlockedZ::from_matrix(&b, p.block);
        let pool = Pool::new(4).unwrap();
        let zc = pool.install(|| mul_blocked_parallel(&za, &zb, p));
        let expect = naive(&a, &b);
        let c = zc.to_matrix();
        for i in 0..p.n {
            for j in 0..p.n {
                assert!((c.get(i, j) - expect.get(i, j)).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn single_block_base_case() {
        let p = Params { n: 8, block: 8 };
        let (a, b) = inputs(8);
        let c = mul_serial(&a, &b, p);
        assert_eq!(c, naive(&a, &b));
    }

    #[test]
    fn top8_dag_does_more_work_than_plain() {
        // §V-A: the top-eight-way variant gives up the O(n^lg7) saving at
        // the top level — its DAG carries more compute.
        let p = Params { n: 256, block: 32 };
        let plain = dag(p, Layout::BlockedZ);
        let top8 = dag_top8(p, Layout::BlockedZ, 4);
        top8.validate().unwrap();
        assert!(
            top8.work() > plain.work(),
            "top8 {} must exceed plain strassen {}",
            top8.work(),
            plain.work()
        );
    }

    #[test]
    fn dag_has_sevenish_branching() {
        let p = Params { n: 256, block: 32 };
        let d = dag(p, Layout::BlockedZ);
        d.validate().unwrap();
        // 7^3 leaves + internals.
        assert!(d.num_frames() >= 343);
        assert!(d.work() / d.span().max(1) > 4, "strassen must expose parallelism");
    }
}
