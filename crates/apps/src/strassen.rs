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
use crate::fork::{self, ForkJoin, Serial};
use crate::matmul::{self, Layout};
use crate::record::Record;
use nws_layout::{BlockedZ, Matrix};
use nws_sim::{Dag, DagBuilder, PagePolicy, RegionId, Strand, Touch};
use nws_topology::Place;

/// Benchmark parameters: matmul's, which have the same shape (`n` must be
/// `block * 2^k`; below `block`, a product runs the 8-way kernel's leaf).
pub use crate::matmul::Params;

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

/// The tile corner, in quadrants, that the DAG model gives each of the
/// seven products: they cycle through the four corners, an approximation of
/// where their operands sit.
const CORNERS: [(usize, usize); 7] = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0), (1, 1), (0, 1)];

/// `out = a * b` on Z-quadrant buffers of side `n`. `site` is where the
/// DAG model puts the call: the top-left cell of its tile and its depth.
/// Temporaries are sized from the operands, so a walk over empty operands
/// allocates nothing.
fn strassen_rec<F: ForkJoin<Model>>(
    f: &mut F,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    n: usize,
    block: usize,
    site: [usize; 3],
) {
    if n <= block {
        // Row-major kernel at the base (buffers are row-major at block
        // granularity).
        f.leaf(
            |m| m.leaf_strand(site, n),
            || {
                out.fill(0.0);
                matmul::block_mul_add(a, b, out, n);
            },
        );
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
    f.leaf(
        |m| m.add_strand(site, n, 8),
        || {
            add(a21, a22, &mut s1);
            sub(&s1, a11, &mut s2);
            sub(a11, a21, &mut s3);
            sub(a12, &s2, &mut s4);
            sub(b12, b11, &mut t1);
            sub(b22, &t1, &mut t2);
            sub(b22, b12, &mut t3);
            sub(&t2, b21, &mut t4);
        },
    );

    // Seven products (Winograd form), as nested joins with no hints (per
    // the paper).
    let mut p1 = vec![0.0; q]; // A11 * B11
    let mut p2 = vec![0.0; q]; // A12 * B21
    let mut p3 = vec![0.0; q]; // S4 * B22
    let mut p4 = vec![0.0; q]; // A22 * T4
    let mut p5 = vec![0.0; q]; // S1 * T1
    let mut p6 = vec![0.0; q]; // S2 * T2
    let mut p7 = vec![0.0; q]; // S3 * T3
    let [row, col, depth] = site;
    let at = |k: usize| [row + CORNERS[k].0 * h, col + CORNERS[k].1 * h, depth + 1];
    f.join(
        |f| {
            f.join(
                |f| strassen_rec(f, a11, b11, &mut p1, h, block, at(0)),
                |f| strassen_rec(f, a12, b21, &mut p2, h, block, at(1)),
            );
            strassen_rec(f, &s4, b22, &mut p3, h, block, at(2));
        },
        |f| {
            f.join(
                |f| {
                    f.join(
                        |f| strassen_rec(f, a22, &t4, &mut p4, h, block, at(3)),
                        |f| strassen_rec(f, &s1, &t1, &mut p5, h, block, at(4)),
                    )
                },
                |f| {
                    f.join(
                        |f| strassen_rec(f, &s2, &t2, &mut p6, h, block, at(5)),
                        |f| strassen_rec(f, &s3, &t3, &mut p7, h, block, at(6)),
                    )
                },
            );
        },
    );

    // Recombination: U1 = P1 + P6, U2 = U1 + P7, U3 = U1 + P5,
    // C11 = P1 + P2, C12 = U3 + P3, C21 = U2 - P4, C22 = U2 + P5.
    f.leaf(
        |m| m.add_strand(site, n, 7),
        || {
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
        },
    );
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `a * b` on row-major inputs: transforms to Z-quadrant form at the
/// boundary (the layout penalty the `-z` variant avoids), multiplies,
/// transforms back.
fn mul<F: ForkJoin<Model>>(f: &mut F, a: &Matrix<f64>, b: &Matrix<f64>, p: Params) -> Matrix<f64> {
    p.validate();
    let za = BlockedZ::from_matrix(a, p.block);
    let zb = BlockedZ::from_matrix(b, p.block);
    mul_blocked(f, &za, &zb, p).to_matrix()
}

/// `a * b` in blocked Z-Morton form (no boundary transforms).
fn mul_blocked<F: ForkJoin<Model>>(
    f: &mut F,
    a: &BlockedZ<f64>,
    b: &BlockedZ<f64>,
    p: Params,
) -> BlockedZ<f64> {
    p.validate();
    let mut c = BlockedZ::zeros(p.n, p.block);
    strassen_rec(f, a.as_slice(), b.as_slice(), c.as_mut_slice(), p.n, p.block, [0; 3]);
    c
}

/// Serial elision of `strassen` on row-major inputs.
pub fn mul_serial(a: &Matrix<f64>, b: &Matrix<f64>, params: Params) -> Matrix<f64> {
    mul(&mut Serial, a, b, params)
}

/// Parallel `strassen` on row-major inputs (call inside
/// [`Pool::install`](numa_ws::Pool::install)).
pub fn mul_parallel(a: &Matrix<f64>, b: &Matrix<f64>, params: Params) -> Matrix<f64> {
    mul(&mut fork::Pool, a, b, params)
}

/// Serial elision of `strassen-z`: inputs and output stay in blocked
/// Z-Morton form (no boundary transforms).
pub fn mul_blocked_serial(a: &BlockedZ<f64>, b: &BlockedZ<f64>, params: Params) -> BlockedZ<f64> {
    mul_blocked(&mut Serial, a, b, params)
}

/// Parallel `strassen-z` (call inside
/// [`Pool::install`](numa_ws::Pool::install)).
pub fn mul_blocked_parallel(a: &BlockedZ<f64>, b: &BlockedZ<f64>, params: Params) -> BlockedZ<f64> {
    mul_blocked(&mut fork::Pool, a, b, params)
}

// ---------------------------------------------------------------------------
// Simulator DAG
// ---------------------------------------------------------------------------

/// What a strand is described against: the regions of `A`, `B` and `C` and
/// of the temporaries, and the layout and sizes that place tiles on pages.
struct Model {
    regions: [RegionId; 3],
    temps: RegionId,
    layout: Layout,
    n: u64,
    block: u64,
}

impl Model {
    /// Allocates `A`, `B` and `C` under `policy`. Each level has 15
    /// quarter-size temporaries, 5 n² elements in all; one shared
    /// interleaved region approximates them.
    fn alloc(bd: &mut DagBuilder, params: Params, layout: Layout, policy: PagePolicy) -> Model {
        let n = params.n as u64;
        let regions =
            ["A", "B", "C"].map(|name| bd.alloc(name, pages_for(n * n, 8), policy.clone()));
        let temps = bd.alloc("temps", pages_for(5 * n * n, 8), PagePolicy::Interleave);
        Model { regions, temps, layout, n, block: params.block as u64 }
    }

    /// Touches the `n × n` tile at `site` of `region`.
    fn tile_touch(&self, region: RegionId, site: [usize; 3], n: u64, out: &mut Vec<Touch>) {
        let (row, col) = (site[0] as u64, site[1] as u64);
        match self.layout {
            Layout::RowMajor => {
                let lines = (n * 8).div_ceil(64).clamp(1, 64);
                // One page run per row (bounded: collapse to at most 32 runs).
                let step = (n / 32).max(1);
                for r in (row..row + n).step_by(step as usize) {
                    let byte = (r * self.n + col) * 8;
                    out.push(Touch {
                        region,
                        start_page: byte / 4096,
                        pages: ((step * n * 8) / 4096).max(1),
                        lines_per_page: lines,
                    });
                }
            }
            Layout::BlockedZ => {
                let (br, bc) = (row / self.block, col / self.block);
                let z = nws_layout::zmorton::encode(br as u32, bc as u32);
                let byte = z * self.block * self.block * 8;
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

    /// The base-case product of side `n` at `site`.
    fn leaf_strand(&self, site: [usize; 3], n: usize) -> Strand {
        let n = n as u64;
        let mut touches = Vec::new();
        for region in self.regions {
            self.tile_touch(region, site, n, &mut touches);
        }
        Strand { cycles: n * n * n + n * n, touches }
    }

    /// `passes` quarter-size elementwise passes of a side-`n` call at
    /// `site`. They run over freshly allocated temporaries, which land
    /// wherever the allocator put them, so the window is salted by the
    /// site to decorrelate it from the computing socket.
    fn add_strand(&self, site: [usize; 3], n: usize, passes: u64) -> Strand {
        let h = (n / 2) as u64;
        let [row, col, depth] = site.map(|x| x as u64);
        let temps_total = pages_for(5 * self.n * self.n, 8);
        let temp_pages = pages_for(h * h, 8).min(temps_total);
        let salt =
            (row.wrapping_mul(0x9E37_79B9) ^ col.wrapping_mul(0x85EB_CA6B) ^ depth) % temps_total;
        Strand {
            cycles: passes * h * h,
            touches: vec![Touch {
                region: self.temps,
                start_page: salt.min(temps_total - temp_pages),
                pages: temp_pages,
                lines_per_page: 64,
            }],
        }
    }
}

/// Builds the simulator DAG for strassen (`RowMajor`) / strassen-z
/// (`BlockedZ`) by recording the recursion the pool runs, over empty
/// operands. No locality hints (per the paper); temporaries live in an
/// interleaved scratch region. Tile coordinates are tracked so the leaf
/// touches hit the same pages the real algorithm would.
pub fn dag(params: Params, layout: Layout) -> Dag {
    params.validate();
    let mut bd = DagBuilder::new();
    let model = Model::alloc(&mut bd, params, layout, PagePolicy::Interleave);
    Record::dag(bd, model, Place::ANY, |f| {
        strassen_rec(f, &[], &[], &mut [], params.n, params.block, [0; 3]);
    })
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
/// DAG to reproduce that trade-off.
///
/// It is a simulator model: no pool run has this top level. Each quadrant
/// is a frame hinted at one place, and its two half-size products are
/// walks of `strassen_rec` inside it (8 products instead of 7).
pub fn dag_top8(params: Params, layout: Layout, places: usize) -> Dag {
    params.validate();
    let mut bd = DagBuilder::new();
    let model =
        Model::alloc(&mut bd, params, layout, PagePolicy::Chunked { chunks: places.max(1) });
    let (c, pages) = (model.regions[2], pages_for(model.n * model.n, 8));
    let h = params.n / 2;
    let corners = [(0, 0), (0, h), (h, 0), (h, h)];
    Record::dag(bd, model, Place(0), |f| {
        for (i, &(row, col)) in corners.iter().enumerate() {
            // Two half-size strassen subtrees + the combining addition.
            f.frame(Place(i % places.max(1)), |f| {
                for _ in 0..2 {
                    f.frame(Place::ANY, |f| {
                        strassen_rec(f, &[], &[], &mut [], h, params.block, [row, col, 1]);
                    });
                }
                let add = Touch {
                    region: c,
                    start_page: (i as u64) * pages / 4,
                    pages: (pages / 4).max(1),
                    lines_per_page: 64,
                };
                f.builder.sync().strand(Strand { cycles: 2 * (h * h) as u64, touches: vec![add] });
            });
        }
        f.builder.sync();
    })
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
    fn dag_forks_as_often_as_the_pool_run() {
        // A 2-way fork is 2 DAG spawns (one child frame per branch) and 1
        // pool spawn. Each of the 1 + 7 + 49 calls above the leaves of a
        // 64 / 8 recursion forks its seven products with five joins.
        let p = Params::test();
        let (a, b) = inputs(p.n);
        let (za, zb) = (BlockedZ::from_matrix(&a, p.block), BlockedZ::from_matrix(&b, p.block));
        for layout in [Layout::RowMajor, Layout::BlockedZ] {
            let pool = Pool::new(1).unwrap();
            match layout {
                Layout::RowMajor => drop(pool.install(|| mul_parallel(&a, &b, p))),
                Layout::BlockedZ => drop(pool.install(|| mul_blocked_parallel(&za, &zb, p))),
            }
            let stats = pool.stats();
            let pool_spawns = stats.total_spawns() + stats.total_spawn_overflows();
            let dag_spawns = dag(p, layout).num_spawns();
            assert_eq!(dag_spawns, 2 * 5 * 57, "{layout:?}");
            assert_eq!(pool_spawns * 2, dag_spawns, "{layout:?}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn dag_rejects_bad_shape() {
        // 3 blocks per side: the quadrant recursion cannot halve it.
        dag(Params { n: 96, block: 32 }, Layout::BlockedZ);
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
