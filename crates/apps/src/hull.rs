//! `hull`: quickhull convex hull (from the problem-based benchmark suite).
//!
//! Quickhull repeatedly draws maximum triangles and eliminates interior
//! points. Its profile depends dramatically on the input: for points
//! *inside* a disk (`hull1`) elimination is fast and the runtime is
//! dominated by data-parallel scans with poor locality (the paper: high
//! inflation, modest NUMA-WS gain 4.05× → 3.53×); for points *on* a circle
//! (`hull2`) nothing can be eliminated and the deep recursion gives
//! NUMA-WS more to work with (2.28× → 1.56×).

use crate::common::{pages_for, Point};
use numa_ws::{join, scope_at, Place};
use nws_sim::{Dag, DagBuilder, FrameId, PagePolicy, RegionId, Strand, Touch};

/// Which of the paper's two data sets to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// `hull1`: random points in the unit disk.
    InDisk,
    /// `hull2`: random points on the unit circle.
    OnCircle,
}

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of points.
    pub n: usize,
    /// Below this segment size, run sequentially.
    pub base: usize,
}

impl Params {
    /// Simulator-scale configuration.
    pub fn sim() -> Self {
        Params { n: 1 << 20, base: 1 << 12 }
    }

    /// Tiny configuration for tests.
    pub fn test() -> Self {
        Params { n: 4096, base: 128 }
    }
}

#[inline]
fn cross(o: Point, a: Point, b: Point) -> f64 {
    (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
}

// ---------------------------------------------------------------------------
// Serial elision
// ---------------------------------------------------------------------------

/// Computes the convex hull serially; returns hull points in
/// counter-clockwise order starting from the leftmost point.
pub fn hull_serial(pts: &[Point]) -> Vec<Point> {
    assert!(pts.len() >= 2, "hull needs at least two points");
    let (lo, hi) = extremes_serial(pts);
    let mut out = Vec::new();
    out.push(lo);
    let above: Vec<Point> = pts.iter().copied().filter(|&p| cross(lo, hi, p) > 0.0).collect();
    rec_serial(lo, hi, &above, &mut out);
    out.push(hi);
    let below: Vec<Point> = pts.iter().copied().filter(|&p| cross(hi, lo, p) > 0.0).collect();
    rec_serial(hi, lo, &below, &mut out);
    out
}

fn extremes_serial(pts: &[Point]) -> (Point, Point) {
    let mut lo = pts[0];
    let mut hi = pts[0];
    for &p in pts {
        if (p.x, p.y) < (lo.x, lo.y) {
            lo = p;
        }
        if (p.x, p.y) > (hi.x, hi.y) {
            hi = p;
        }
    }
    (lo, hi)
}

fn rec_serial(a: Point, b: Point, pts: &[Point], out: &mut Vec<Point>) {
    if pts.is_empty() {
        return;
    }
    // Farthest point from line a-b.
    let far = *pts
        .iter()
        .max_by(|&&p, &&q| cross(a, b, p).partial_cmp(&cross(a, b, q)).unwrap())
        .unwrap();
    let left: Vec<Point> = pts.iter().copied().filter(|&p| cross(a, far, p) > 0.0).collect();
    let right: Vec<Point> = pts.iter().copied().filter(|&p| cross(far, b, p) > 0.0).collect();
    rec_serial(a, far, &left, out);
    out.push(far);
    rec_serial(far, b, &right, out);
}

// ---------------------------------------------------------------------------
// Parallel version (real runtime)
// ---------------------------------------------------------------------------

/// Parallel reduce for the two x-extremes.
fn extremes_parallel(pts: &[Point], base: usize) -> (Point, Point) {
    if pts.len() <= base {
        return extremes_serial(pts);
    }
    let (l, r) = pts.split_at(pts.len() / 2);
    let ((lo1, hi1), (lo2, hi2)) =
        join(|| extremes_parallel(l, base), || extremes_parallel(r, base));
    (
        if (lo1.x, lo1.y) < (lo2.x, lo2.y) { lo1 } else { lo2 },
        if (hi1.x, hi1.y) > (hi2.x, hi2.y) { hi1 } else { hi2 },
    )
}

/// Parallel filter keeping points strictly left of `a`→`b` (a
/// divide-and-concat rendering of the PBBS parallel pack/prefix-sum).
fn filter_parallel(a: Point, b: Point, pts: &[Point], base: usize) -> Vec<Point> {
    if pts.len() <= base {
        return pts.iter().copied().filter(|&p| cross(a, b, p) > 0.0).collect();
    }
    let (l, r) = pts.split_at(pts.len() / 2);
    let (mut vl, vr) = join(|| filter_parallel(a, b, l, base), || filter_parallel(a, b, r, base));
    vl.extend_from_slice(&vr);
    vl
}

/// Parallel max-cross-distance reduce.
fn farthest_parallel(a: Point, b: Point, pts: &[Point], base: usize) -> Point {
    if pts.len() <= base {
        return *pts
            .iter()
            .max_by(|&&p, &&q| cross(a, b, p).partial_cmp(&cross(a, b, q)).unwrap())
            .unwrap();
    }
    let (l, r) = pts.split_at(pts.len() / 2);
    let (p1, p2) = join(|| farthest_parallel(a, b, l, base), || farthest_parallel(a, b, r, base));
    if cross(a, b, p1) >= cross(a, b, p2) {
        p1
    } else {
        p2
    }
}

/// One quickhull node on the scope subsystem: the two flank children are
/// *spawned* into a nested [`scope_at`] and write their results into this
/// frame's buffers (a `'scope` borrow — exactly the dynamic-children shape
/// binary `join` cannot express). The place hint alternates down the
/// recursion as before: the scope's default hint tags both flanks, and
/// deeper levels re-hint through their own nested scopes.
fn rec_parallel_scope(a: Point, b: Point, pts: &[Point], base: usize, depth: usize) -> Vec<Point> {
    if pts.is_empty() {
        return Vec::new();
    }
    if pts.len() <= base {
        let mut out = Vec::new();
        rec_serial(a, b, pts, &mut out);
        return out;
    }
    let far = farthest_parallel(a, b, pts, base);
    let (left, right) =
        join(|| filter_parallel(a, far, pts, base), || filter_parallel(far, b, pts, base));
    let mut out_l = Vec::new();
    let mut out_r = Vec::new();
    scope_at(Place(depth % 4), |s| {
        // The right flank is the spawned (stealable, place-hinted) child,
        // the left runs inline in the body — the paper's
        // first-child-runs-where-its-parent-runs rule, and one heap job per
        // node instead of two.
        s.spawn(|_| out_r = rec_parallel_scope(far, b, &right, base, depth + 1));
        out_l = rec_parallel_scope(a, far, &left, base, depth + 1);
    });
    out_l.push(far);
    out_l.extend(out_r);
    out_l
}

/// Computes the convex hull in parallel (call inside
/// [`Pool::install`](numa_ws::Pool::install)); same output order as
/// [`hull_serial`].
///
/// The elimination recursion — quickhull's *dynamic* phase, where the
/// number and size of surviving segments is data-dependent — runs on the
/// structured [`scope_at`] subsystem; the data-parallel
/// scans (extremes, filters) keep their regular binary [`join`] shape.
pub fn hull_parallel(pts: &[Point], params: Params) -> Vec<Point> {
    assert!(pts.len() >= 2, "hull needs at least two points");
    let base = params.base;
    let (lo, hi) = extremes_parallel(pts, base);
    let (above, below) =
        join(|| filter_parallel(lo, hi, pts, base), || filter_parallel(hi, lo, pts, base));
    let mut upper = Vec::new();
    let mut lower = Vec::new();
    scope_at(Place(2), |s| {
        // The lower flank is the stealable half hinted at Place(2); the
        // upper flank runs inline.
        s.spawn(|_| lower = rec_parallel_scope(hi, lo, &below, base, 2));
        upper = rec_parallel_scope(lo, hi, &above, base, 0);
    });
    let mut out = Vec::with_capacity(upper.len() + lower.len() + 2);
    out.push(lo);
    out.append(&mut upper);
    out.push(hi);
    out.extend(lower);
    out
}

// ---------------------------------------------------------------------------
// Simulator DAG
// ---------------------------------------------------------------------------

/// How a scan's pack output lands in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scatter {
    /// Pure reduce — no output array.
    None,
    /// Output window decorrelated from the reader (top-level prefix sums).
    Global,
    /// Output stays within the segment's own window (recursion packs).
    Segment,
}

struct DagCtx {
    pts: RegionId,
    scratch: RegionId,
    base: u64,
    places: usize,
    total_pages: u64,
    dataset: Dataset,
}

/// Builds the simulator DAG for quickhull on either dataset. The model
/// mirrors the phase structure: full-array scans (extremes + packs) whose
/// scatter outputs have weak locality, then a recursion whose surviving
/// point counts shrink fast for [`Dataset::InDisk`] and slowly for
/// [`Dataset::OnCircle`].
pub fn dag(params: Params, places: usize, dataset: Dataset) -> Dag {
    let places = places.max(1);
    let n = params.n as u64;
    let mut b = DagBuilder::new();
    let total_pages = pages_for(n, 16); // Point = 2 f64
    let pts = b.alloc("points", total_pages, PagePolicy::Chunked { chunks: places });
    let scratch = b.alloc("scratch", total_pages, PagePolicy::Chunked { chunks: places });
    let ctx = DagCtx { pts, scratch, base: params.base as u64, places, total_pages, dataset };

    // Top: extremes reduce + two packs over the full array, then two
    // flank recursions.
    // Top-level scans: the extremes reduce reads by position (hintable),
    // but the pack phases chase data-dependent destinations and cannot be
    // hinted usefully — the paper's "majority of the computation time is
    // spent doing parallel prefix sum [which] simply does not have much
    // locality" (hull1).
    let reduce = build_scan(&mut b, &ctx, 0, n, 3, Scatter::None, Place(0));
    let pack1 = build_scan(&mut b, &ctx, 0, n, 6, Scatter::Global, Place::ANY);
    let pack2 = build_scan(&mut b, &ctx, 0, n, 6, Scatter::Global, Place::ANY);
    let surv0 = survivors(&ctx, n);
    let flank1 = build_rec(&mut b, &ctx, 0, surv0);
    let flank2 = build_rec(&mut b, &ctx, n / 2, surv0);
    let root = b
        .frame(Place(0))
        .spawn(reduce)
        .sync()
        .spawn(pack1)
        .spawn(pack2)
        .sync()
        .spawn(flank1)
        .spawn(flank2)
        .sync()
        .finish();
    b.build(root)
}

/// Surviving points after one elimination round.
fn survivors(ctx: &DagCtx, n: u64) -> u64 {
    match ctx.dataset {
        // Interior points are eliminated fast (~an eighth survive), so the
        // full-array top scans dominate — the paper's "majority of the
        // computation time is spent doing parallel prefix sum".
        Dataset::InDisk => n / 8,
        // Circle points all survive; the segment merely halves.
        Dataset::OnCircle => n / 2,
    }
}

/// A data-parallel scan over `[lo, lo+len)` elements: reduce (extremes /
/// farthest) or pack (filter + scatter into scratch).
#[allow(clippy::too_many_arguments)]
fn build_scan(
    b: &mut DagBuilder,
    ctx: &DagCtx,
    lo: u64,
    len: u64,
    cycles_per_elem: u64,
    scatter: Scatter,
    place: Place,
) -> FrameId {
    // Reads are position-hintable: when the caller passes a concrete
    // place the subtree follows the position's chunk; pack destinations
    // (Scatter::Global) stay data-dependent regardless.
    let place_of = |elem: u64| {
        if place.is_any() {
            place
        } else {
            let points_total = ctx.total_pages * 256;
            Place(((elem * ctx.places as u64 / points_total.max(1)) as usize).min(ctx.places - 1))
        }
    };
    if len <= ctx.base {
        let start_page = (lo * 16 / 4096).min(ctx.total_pages - 1);
        let pages = ((len * 16).div_ceil(4096)).clamp(1, ctx.total_pages - start_page);
        let mut touches = vec![Touch { region: ctx.pts, start_page, pages, lines_per_page: 64 }];
        match scatter {
            Scatter::None => {}
            Scatter::Global => {
                // Top-level pack destinations depend on the prefix sum, not
                // on the reader's position: decorrelated from the leaf's
                // place (why the paper calls hull's prefix-sum phase
                // locality-poor). Model with a hashed destination window.
                let hashed = (lo.wrapping_mul(0x9E37_79B9) >> 3) % ctx.total_pages.max(1);
                let dst_start = hashed.min(ctx.total_pages - 1);
                let dst_pages = pages.min(ctx.total_pages - dst_start);
                touches.push(Touch {
                    region: ctx.scratch,
                    start_page: dst_start,
                    pages: dst_pages,
                    lines_per_page: 64,
                });
            }
            Scatter::Segment => {
                // Recursion packs write within their own segment's window.
                touches.push(Touch { region: ctx.scratch, start_page, pages, lines_per_page: 64 });
            }
        }
        return b
            .frame(place_of(lo))
            .strand(Strand { cycles: cycles_per_elem * len, touches })
            .finish();
    }
    let l = build_scan(b, ctx, lo, len / 2, cycles_per_elem, scatter, place);
    let r = build_scan(b, ctx, lo + len / 2, len - len / 2, cycles_per_elem, scatter, place);
    b.frame(place_of(lo)).spawn(l).spawn(r).sync().finish()
}

/// One recursion level: farthest-reduce + two packs over the segment, then
/// two child segments of `survivors` size.
fn build_rec(b: &mut DagBuilder, ctx: &DagCtx, lo: u64, len: u64) -> FrameId {
    let place = Place(
        ((lo * ctx.places as u64) / (ctx.total_pages * 256).max(1)).min(ctx.places as u64 - 1)
            as usize,
    );
    if len <= ctx.base {
        // Sequential tail: a few passes over the small segment.
        let start_page = (lo * 16 / 4096).min(ctx.total_pages - 1);
        let pages = ((len * 16).div_ceil(4096)).clamp(1, ctx.total_pages - start_page);
        return b
            .frame(place)
            .strand(Strand {
                cycles: 12 * len,
                touches: vec![Touch { region: ctx.pts, start_page, pages, lines_per_page: 64 }],
            })
            .finish();
    }
    let reduce = build_scan(b, ctx, lo, len, 3, Scatter::None, place);
    let pack1 = build_scan(b, ctx, lo, len, 6, Scatter::Segment, place);
    let pack2 = build_scan(b, ctx, lo, len, 6, Scatter::Segment, place);
    let child_len = survivors(ctx, len).max(ctx.base / 2);
    let c1 = build_rec(b, ctx, lo, child_len);
    let c2 = build_rec(b, ctx, lo + len / 2, child_len);
    b.frame(place)
        .spawn(reduce)
        .sync()
        .spawn(pack1)
        .spawn(pack2)
        .sync()
        .spawn(c1)
        .spawn(c2)
        .sync()
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{points_in_disk, points_on_circle};
    use numa_ws::Pool;

    fn hull_set(h: &[Point]) -> Vec<(i64, i64)> {
        let mut v: Vec<(i64, i64)> =
            h.iter().map(|p| ((p.x * 1e9).round() as i64, (p.y * 1e9).round() as i64)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// O(n^2) oracle: a point is on the hull iff it is extreme for some
    /// half-plane — use gift wrapping for small inputs.
    fn gift_wrap(pts: &[Point]) -> Vec<Point> {
        let start =
            *pts.iter().min_by(|a, b| (a.x, a.y).partial_cmp(&(b.x, b.y)).unwrap()).unwrap();
        let mut hull = vec![start];
        let mut cur = start;
        loop {
            let mut next = pts[0];
            for &p in pts {
                if (p.x, p.y) == (cur.x, cur.y) {
                    continue;
                }
                let c = cross(cur, next, p);
                if (next.x, next.y) == (cur.x, cur.y) || c > 0.0 {
                    next = p;
                }
            }
            if (next.x, next.y) == (start.x, start.y) {
                break;
            }
            hull.push(next);
            cur = next;
            if hull.len() > pts.len() {
                panic!("gift wrapping did not terminate");
            }
        }
        hull
    }

    #[test]
    fn serial_matches_gift_wrap_on_small_inputs() {
        let pts = points_in_disk(200, 9);
        let ours = hull_set(&hull_serial(&pts));
        let oracle = hull_set(&gift_wrap(&pts));
        assert_eq!(ours, oracle);
    }

    #[test]
    fn square_corners() {
        let pts = vec![
            Point { x: 0.0, y: 0.0 },
            Point { x: 1.0, y: 0.0 },
            Point { x: 1.0, y: 1.0 },
            Point { x: 0.0, y: 1.0 },
            Point { x: 0.5, y: 0.5 },
            Point { x: 0.3, y: 0.7 },
        ];
        let h = hull_serial(&pts);
        assert_eq!(h.len(), 4, "hull of a square is its corners: {h:?}");
    }

    #[test]
    fn parallel_matches_serial_in_disk() {
        let pts = points_in_disk(Params::test().n, 5);
        let pool = Pool::builder().workers(8).places(4).build().unwrap();
        let hs = hull_set(&hull_serial(&pts));
        let hp = hull_set(&pool.install(|| hull_parallel(&pts, Params::test())));
        assert_eq!(hs, hp);
    }

    #[test]
    fn parallel_matches_serial_on_circle() {
        let pts = points_on_circle(Params::test().n, 6);
        let pool = Pool::builder().workers(8).places(4).build().unwrap();
        let hs = hull_set(&hull_serial(&pts));
        let hp = hull_set(&pool.install(|| hull_parallel(&pts, Params::test())));
        assert_eq!(hs, hp);
    }

    /// The parallel hull against the serial elision: not just the same
    /// point *set* but the same output *order* — the nested-scope
    /// recursion must preserve the left-flank/far/right-flank assembly
    /// exactly, on both datasets and under both scheduler modes.
    #[test]
    fn hull_parallel_matches_serial_order() {
        let p = Params::test();
        for pts in [points_in_disk(p.n, 5), points_on_circle(p.n, 6)] {
            let exact = |h: &[Point]| -> Vec<(i64, i64)> {
                h.iter().map(|q| ((q.x * 1e9).round() as i64, (q.y * 1e9).round() as i64)).collect()
            };
            let serial = exact(&hull_serial(&pts));
            for policy in [numa_ws::SchedPolicy::numa_ws(), numa_ws::SchedPolicy::vanilla()] {
                let pool = Pool::builder().workers(8).places(4).policy(policy).build().unwrap();
                let parallel = pool.install(|| hull_parallel(&pts, p));
                assert_eq!(exact(&parallel), serial, "parallel hull diverged under {policy}");
            }
        }
    }

    #[test]
    fn circle_keeps_most_points() {
        // Every point on the circle is a hull vertex (up to fp rounding).
        let pts = points_on_circle(500, 7);
        let h = hull_serial(&pts);
        assert!(h.len() > 450, "on-circle input must keep ~all points: {}", h.len());
    }

    #[test]
    fn dag_shapes_differ_by_dataset() {
        let p = Params { n: 1 << 16, base: 1 << 10 };
        let disk = dag(p, 4, Dataset::InDisk);
        let circle = dag(p, 4, Dataset::OnCircle);
        disk.validate().unwrap();
        circle.validate().unwrap();
        assert!(
            circle.work() > disk.work(),
            "on-circle survivors mean more total work: {} vs {}",
            circle.work(),
            disk.work()
        );
    }
}
