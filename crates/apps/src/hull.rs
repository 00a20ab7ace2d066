//! `hull`: quickhull convex hull (from the problem-based benchmark suite).
//!
//! Quickhull repeatedly draws maximum triangles and eliminates interior
//! points. Its profile depends dramatically on the input: for points
//! *inside* a disk (`hull1`) elimination is fast and the runtime is
//! dominated by data-parallel scans with poor locality (the paper: high
//! inflation, modest NUMA-WS gain 4.05× → 3.53×); for points *on* a circle
//! (`hull2`) nothing can be eliminated and the deep recursion gives
//! NUMA-WS more to work with (2.28× → 1.56×).
//!
//! The serial elision, the pool run and the simulator DAG read one
//! recursion, `hull` (DESIGN.md §3, "hull's survivor tree").

use crate::common::{pages_for, points_in_disk, points_on_circle, Point};
use crate::fork::{self, ForkJoin, Serial};
use crate::record::Record;
use nws_sim::{Dag, DagBuilder, PagePolicy, RegionId, Strand, Touch};
use nws_topology::Place;

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
    /// Below this segment size, run sequentially. At least 1:
    /// `hull_parallel`, `dag` and `Recording::new` panic otherwise.
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

    /// Panics unless the scans terminate: with a base of 0 points, a
    /// 1-point slice splits into itself and an empty slice forever.
    fn check(&self) {
        assert!(self.base >= 1, "hull: base must be >= 1, got {}", self.base);
    }
}

/// The input seed of the points `dag` walks.
const DAG_SEED: u64 = 1;

#[inline]
fn cross(o: Point, a: Point, b: Point) -> f64 {
    (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
}

/// Where a position of the points array lives: its 4 KiB pages of 256
/// points, bound in `places` equal chunks.
#[derive(Clone, Copy)]
struct Chunks {
    places: usize,
    positions: usize,
}

impl Chunks {
    fn new(n: usize, places: usize) -> Self {
        Chunks { places: places.max(1), positions: pages_for(n as u64, 16) as usize * 256 }
    }

    /// The place whose chunk holds position `pos`, or the last place.
    fn place(self, pos: usize) -> Place {
        Place((pos * self.places / self.positions).min(self.places - 1))
    }
}

/// How the recursion forks. Each segment of points sits at a position of
/// the points array, its window: the whole input at 0, and a segment at
/// `pos` puts its first flank at `pos` and its second halfway through
/// itself. A scan halves its segment down to leaves of at most `base`
/// points, and a segment of at most `base` points is one leaf. A scan's
/// fork and a flank fork hint the second half at the place whose chunk
/// holds its window, except in a [`Scan::TopPack`]; the fork of two packs
/// hints neither, so both keep the segment's place.
#[derive(Clone, Copy)]
struct Split {
    base: usize,
    chunks: Chunks,
}

/// A directed edge: the recursion keeps the points strictly left of it.
type Edge = (Point, Point);

/// A segment: its points and its window's position.
type Seg<'a> = (&'a [Point], usize);

/// A data-parallel pass over a segment, by what it writes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scan {
    /// A reduce (the extremes, the farthest point): no output.
    Reduce,
    /// A pack (a filter) inside the recursion, written within the
    /// segment's own window.
    Pack,
    /// A top-level pack, unhinted: its destinations follow a prefix sum,
    /// not the reader's position (the paper's hull1 "prefix sum [which]
    /// simply does not have much locality").
    TopPack,
}

impl Split {
    /// Runs `leaf` on each leaf of a `kind` scan over `pts`, a segment at
    /// `pos`, and combines the halves' results with `merge`. A leaf's body
    /// runs in every reading, `Record` too: what survives decides the fork
    /// tree.
    fn scan<F: ForkJoin<Model>, R: Send>(
        self,
        f: &mut F,
        kind: Scan,
        (pts, pos): (&[Point], usize),
        leaf: &(impl Fn(&[Point]) -> R + Sync),
        merge: &(impl Fn(R, R) -> R + Sync),
    ) -> R {
        if pts.len() <= self.base {
            return f.run_leaf(|m| m.scan(kind, pos, pts.len()), || leaf(pts));
        }
        let mid = pts.len() / 2;
        let (l, r) = pts.split_at(mid);
        let hint = if kind == Scan::TopPack { Place::ANY } else { self.chunks.place(pos + mid) };
        let (mut a, mut b) = (None, None);
        f.join_at(
            |f| a = Some(self.scan(f, kind, (l, pos), leaf, merge)),
            |f| b = Some(self.scan(f, kind, (r, pos + mid), leaf, merge)),
            hint,
        );
        let (a, b) = a.zip(b).expect("join ran both halves");
        merge(a, b)
    }

    /// The lexicographically smallest and largest of `pts`, which is not
    /// empty.
    fn extremes<F: ForkJoin<Model>>(self, f: &mut F, pts: &[Point]) -> (Point, Point) {
        let key = |p: Point| (p.x, p.y);
        let wider = |(lo, hi): (Point, Point), (l, h): (Point, Point)| {
            (if key(l) < key(lo) { l } else { lo }, if key(h) > key(hi) { h } else { hi })
        };
        let leaf = |pts: &[Point]| pts.iter().map(|&p| (p, p)).reduce(wider).expect("points");
        self.scan(f, Scan::Reduce, (pts, 0), &leaf, &wider)
    }

    /// The first of the points of `seg`, a nonempty segment, farthest left
    /// of `a`→`b`. The fold carries the best point's distance, so each step
    /// computes one cross product and waits on a compare, not on one.
    fn farthest<F: ForkJoin<Model>>(self, f: &mut F, (a, b): Edge, seg: Seg) -> Point {
        let further = |p: (f64, Point), q: (f64, Point)| if q.0 > p.0 { q } else { p };
        let leaf = |pts: &[Point]| {
            pts.iter().map(|&p| (cross(a, b, p), p)).reduce(further).expect("points")
        };
        self.scan(f, Scan::Reduce, seg, &leaf, &further).1
    }

    /// The points of `seg` strictly left of `a`→`b`, in order. A leaf writes
    /// every point and moves its cursor past the kept ones, so nothing
    /// branches on the data, and each leaf's pack stays a chunk of its own
    /// until one copy joins them.
    fn filter<F: ForkJoin<Model>>(self, f: &mut F, kind: Scan, e: Edge, seg: Seg) -> Vec<Point> {
        let (a, b) = e;
        let leaf = |pts: &[Point]| {
            let mut kept = pts.to_vec();
            let mut k = 0;
            for &p in pts {
                kept[k] = p;
                k += usize::from(cross(a, b, p) > 0.0);
            }
            kept.truncate(k);
            vec![kept]
        };
        let concat = |mut l: Vec<Vec<Point>>, mut r: Vec<Vec<Point>>| {
            l.append(&mut r);
            l
        };
        self.scan(f, kind, seg, &leaf, &concat).concat()
    }

    /// Packs the points of `seg` left of each of two edges (two `kind`
    /// scans, forked), then runs [`segment`](Self::segment) on both packs
    /// (forked, the second hinted at its window, halfway through `seg`).
    /// Returns each pack's hull points.
    fn flanks<F>(self, f: &mut F, kind: Scan, [e1, e2]: [Edge; 2], seg: Seg) -> [Vec<Point>; 2]
    where
        F: ForkJoin<Model>,
    {
        let (mut p1, mut p2) = (Vec::new(), Vec::new());
        let mut packs = |f: &mut F| {
            f.join(|f| p1 = self.filter(f, kind, e1, seg), |f| p2 = self.filter(f, kind, e2, seg))
        };
        if kind == Scan::TopPack {
            f.unhinted(packs);
        } else {
            packs(f);
        }
        let (mut h1, mut h2) = (Vec::new(), Vec::new());
        let mid = seg.1 + seg.0.len() / 2;
        f.join_at(
            |f| h1 = self.segment(f, e1, (&p1, seg.1)),
            |f| h2 = self.segment(f, e2, (&p2, mid)),
            self.chunks.place(mid),
        );
        [h1, h2]
    }

    /// The hull points strictly left of `edge` among those of `seg`, which
    /// all lie left of it, in order along it. A segment of at most `base`
    /// points is one leaf: its body is this recursion read serially, and
    /// `Record` skips it.
    fn segment<F: ForkJoin<Model>>(self, f: &mut F, edge: Edge, seg: Seg) -> Vec<Point> {
        let (pts, pos) = seg;
        if pts.len() > self.base {
            return self.round(f, edge, seg);
        }
        let mut out = Vec::new();
        if !pts.is_empty() {
            f.leaf(|m| m.base_case(pos, pts.len()), || out = self.round(&mut Serial, edge, seg));
        }
        out
    }

    /// One quickhull round on a nonempty segment: its farthest point `far`
    /// from `a`→`b`, then the [`flanks`](Self::flanks) left of `a`→`far` and
    /// `far`→`b`.
    fn round<F: ForkJoin<Model>>(self, f: &mut F, (a, b): Edge, seg: Seg) -> Vec<Point> {
        let far = self.farthest(f, (a, b), seg);
        let [mut left, right] = self.flanks(f, Scan::Pack, [(a, far), (far, b)], seg);
        left.push(far);
        left.extend(right);
        left
    }

    /// Quickhull on `pts`, at least two points: the lexicographically
    /// smallest point `lo`, the hull points left of `lo`→`hi`, the largest
    /// point `hi`, then those left of `hi`→`lo`.
    fn hull<F: ForkJoin<Model>>(self, f: &mut F, pts: &[Point]) -> Vec<Point> {
        assert!(pts.len() >= 2, "hull needs at least two points");
        let (lo, hi) = self.extremes(f, pts);
        let [upper, lower] = self.flanks(f, Scan::TopPack, [(lo, hi), (hi, lo)], (pts, 0));
        [&[lo][..], &upper, &[hi], &lower].concat()
    }
}

/// Computes the convex hull serially; returns hull points in
/// counter-clockwise order starting from the leftmost point. This is the
/// serial elision of [`hull_parallel`] with every scan one leaf.
pub fn hull_serial(pts: &[Point]) -> Vec<Point> {
    Split { base: usize::MAX, chunks: Chunks::new(pts.len(), 1) }.hull(&mut Serial, pts)
}

/// Computes the convex hull in parallel (call inside
/// [`Pool::install`](numa_ws::Pool::install)); same output as
/// [`hull_serial`]. Forks are hinted at the place of `places` whose chunk
/// of the points holds the forked half's window.
pub fn hull_parallel(pts: &[Point], params: Params, places: usize) -> Vec<Point> {
    params.check();
    Split { base: params.base, chunks: Chunks::new(pts.len(), places) }.hull(&mut fork::Pool, pts)
}

// ---------------------------------------------------------------------------
// Simulator DAG
// ---------------------------------------------------------------------------

/// What a leaf describes itself against: the points array and the packs'
/// scratch array, `pages` pages each.
struct Model {
    points: RegionId,
    scratch: RegionId,
    pages: u64,
}

impl Model {
    /// The pages of `len` points from position `pos`: at least one, within
    /// the array.
    fn window(&self, pos: usize, len: usize) -> (u64, u64) {
        let start = (pos as u64 * 16 / 4096).min(self.pages - 1);
        (start, (len as u64 * 16).div_ceil(4096).clamp(1, self.pages - start))
    }

    /// A scan leaf over `len` points at `pos`: a reduce spends 3 cycles a
    /// point and a pack 6. Each reads its window of the points; a pack
    /// writes the same window of scratch, and a top-level pack a window
    /// hashed from `pos`.
    fn scan(&self, kind: Scan, pos: usize, len: usize) -> Strand {
        let window = self.window(pos, len);
        let mut touches = vec![touch(self.points, window)];
        let cycles = match kind {
            Scan::Reduce => 3,
            Scan::Pack => {
                touches.push(touch(self.scratch, window));
                6
            }
            Scan::TopPack => {
                let start = ((pos as u64).wrapping_mul(0x9E37_79B9) >> 3) % self.pages;
                touches.push(touch(self.scratch, (start, window.1.min(self.pages - start))));
                6
            }
        };
        Strand { cycles: cycles * len as u64, touches }
    }

    /// A base-case leaf over `len` points at `pos`: a few passes, 12 cycles
    /// a point, over its window of the points.
    fn base_case(&self, pos: usize, len: usize) -> Strand {
        Strand { cycles: 12 * len as u64, touches: vec![touch(self.points, self.window(pos, len))] }
    }
}

/// Every line of `pages` pages of `region` from `start`.
fn touch(region: RegionId, (start_page, pages): (u64, u64)) -> Touch {
    Touch { region, start_page, pages, lines_per_page: 64 }
}

/// The recursion walked once on `dag`'s points, for any place count: every
/// hint is the position it stands for, one place per position.
pub struct Recording {
    dag: Dag,
    n: usize,
}

impl Recording {
    /// Records the recursion on `params.n` points of `dataset` from a fixed
    /// seed. Every reading runs the scans, so the fork tree and each
    /// segment's size are quickhull's on those points; only base-case
    /// bodies are skipped.
    pub fn new(params: Params, dataset: Dataset) -> Self {
        let positions = Chunks::new(params.n, 1).positions;
        let dag = record(params, dataset, Chunks { places: positions, positions });
        Recording { dag, n: params.n }
    }

    /// The DAG on `places` places: each hint folded to the place whose
    /// chunk holds its position, and both arrays bound chunkwise.
    pub fn dag(&self, places: usize) -> Dag {
        let chunks = Chunks::new(self.n, places);
        self.dag
            .map_places(|Place(pos)| chunks.place(pos))
            .with_policy(PagePolicy::Chunked { chunks: chunks.places })
    }
}

/// The recursion on `params.n` points of `dataset` from [`DAG_SEED`],
/// recorded with its hints on `chunks` and both arrays bound as one chunk.
fn record(params: Params, dataset: Dataset, chunks: Chunks) -> Dag {
    params.check();
    let pts = match dataset {
        Dataset::InDisk => points_in_disk(params.n, DAG_SEED),
        Dataset::OnCircle => points_on_circle(params.n, DAG_SEED),
    };
    let pages = pages_for(params.n as u64, 16);
    let mut bd = DagBuilder::new();
    let [points, scratch] =
        ["points", "scratch"].map(|name| bd.alloc(name, pages, PagePolicy::Chunked { chunks: 1 }));
    let split = Split { base: params.base, chunks };
    Record::dag(bd, Model { points, scratch, pages }, Place(0), |f| _ = split.hull(f, &pts))
}

/// Builds the simulator DAG for quickhull on either dataset by recording
/// the recursion the pool runs on `params.n` points of `dataset`, with both
/// arrays bound chunkwise to `places` places and the root hinted at place
/// 0. Build a [`Recording`] to share the walk between place counts.
pub fn dag(params: Params, places: usize, dataset: Dataset) -> Dag {
    Recording::new(params, dataset).dag(places)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_ws::Pool;
    use nws_sim::{FrameId, Step};

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
        let hp = hull_set(&pool.install(|| hull_parallel(&pts, Params::test(), 4)));
        assert_eq!(hs, hp);
    }

    #[test]
    fn parallel_matches_serial_on_circle() {
        let pts = points_on_circle(Params::test().n, 6);
        let pool = Pool::builder().workers(8).places(4).build().unwrap();
        let hs = hull_set(&hull_serial(&pts));
        let hp = hull_set(&pool.install(|| hull_parallel(&pts, Params::test(), 4)));
        assert_eq!(hs, hp);
    }

    /// The parallel hull against the serial elision: not just the same
    /// point *set* but the same output *order* — the recursion must
    /// preserve the left-flank/far/right-flank assembly exactly, on both
    /// datasets, under both scheduler modes and at the smallest base.
    #[test]
    fn hull_parallel_matches_serial_order() {
        for p in [Params::test(), Params { n: 300, base: 1 }] {
            for pts in [points_in_disk(p.n, 5), points_on_circle(p.n, 6)] {
                let exact = |h: &[Point]| -> Vec<(i64, i64)> {
                    h.iter()
                        .map(|q| ((q.x * 1e9).round() as i64, (q.y * 1e9).round() as i64))
                        .collect()
                };
                let serial = exact(&hull_serial(&pts));
                for policy in [numa_ws::SchedPolicy::numa_ws(), numa_ws::SchedPolicy::vanilla()] {
                    let pool = Pool::builder().workers(8).places(4).policy(policy).build().unwrap();
                    let parallel = pool.install(|| hull_parallel(&pts, p, 4));
                    assert_eq!(exact(&parallel), serial, "parallel hull diverged under {policy}");
                }
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

    /// The strand cycles of the subtree rooted at `frame`.
    fn subtree_work(d: &Dag, frame: FrameId) -> u64 {
        d.frame(frame)
            .steps
            .iter()
            .map(|s| match s {
                Step::Strand(s) => s.cycles,
                Step::Spawn(c) => subtree_work(d, *c),
                Step::Sync => 0,
            })
            .sum()
    }

    /// The frames `frame` spawns, in order.
    fn children(d: &Dag, frame: FrameId) -> Vec<FrameId> {
        let spawned = d.frame(frame).steps.iter().filter_map(|s| match s {
            Step::Spawn(c) => Some(*c),
            _ => None,
        });
        spawned.collect()
    }

    #[test]
    fn dag_forks_as_often_as_the_pool_run() {
        // A 2-way fork is 2 DAG spawns and 1 pool spawn; the pool runs the
        // recursion on the points `dag` walks.
        let p = Params::test();
        for ds in [Dataset::InDisk, Dataset::OnCircle] {
            let pts = match ds {
                Dataset::InDisk => points_in_disk(p.n, DAG_SEED),
                Dataset::OnCircle => points_on_circle(p.n, DAG_SEED),
            };
            let pool = Pool::new(1).unwrap();
            pool.install(|| hull_parallel(&pts, p, 4));
            let stats = pool.stats();
            let d = dag(p, 4, ds);
            d.validate().unwrap();
            assert_eq!(
                2 * (stats.total_spawns() + stats.total_spawn_overflows()),
                d.num_spawns(),
                "{ds:?}"
            );
            // The root forks the extremes' halves, the two top packs, then
            // the two flanks. Each flank is bigger than `base`, so it first
            // forks its farthest-point reduce (3 cycles a point) over the
            // points its pack kept, as the serial filters count them.
            let top = children(&d, d.root());
            assert_eq!(top.len(), 6, "{ds:?}");
            let key = |q: &&Point| (q.x, q.y);
            let lo = *pts.iter().min_by(|a, b| key(a).partial_cmp(&key(b)).unwrap()).unwrap();
            let hi = *pts.iter().max_by(|a, b| key(a).partial_cmp(&key(b)).unwrap()).unwrap();
            for (flank, edge) in [(top[4], (lo, hi)), (top[5], (hi, lo))] {
                let kept = pts.iter().filter(|&&q| cross(edge.0, edge.1, q) > 0.0).count() as u64;
                assert!(kept > p.base as u64, "{ds:?}: {kept} points");
                let reduce = &children(&d, flank)[..2];
                let work: u64 = reduce.iter().map(|&c| subtree_work(&d, c)).sum();
                assert_eq!(work, 3 * kept, "{ds:?}: flank {flank:?}");
            }
        }
    }

    #[test]
    fn a_recording_folds_to_the_walk_at_each_place_count() {
        // Hints recorded one place per position fold to the hints a walk at
        // that place count makes, frame for frame.
        let p = Params { n: 3000, base: 64 };
        let recording = Recording::new(p, Dataset::InDisk);
        for places in 1..=5 {
            let folded = recording.dag(places);
            let walked = record(p, Dataset::InDisk, Chunks::new(p.n, places));
            assert_eq!(folded.num_frames(), walked.num_frames());
            for f in (0..walked.num_frames()).map(FrameId) {
                assert_eq!(folded.frame(f).place, walked.frame(f).place, "{places} places, {f:?}");
            }
            let chunked = PagePolicy::Chunked { chunks: places };
            assert!(folded.regions().iter().all(|r| r.policy == chunked));
        }
    }

    #[test]
    #[should_panic(expected = "base must be >= 1")]
    fn parallel_base_zero_is_rejected() {
        // Unchecked, a 1-point scan splits into itself forever.
        let p = Params { n: 64, base: 0 };
        let pts = points_in_disk(p.n, 1);
        Pool::new(2).unwrap().install(|| hull_parallel(&pts, p, 2));
    }

    #[test]
    #[should_panic(expected = "base must be >= 1")]
    fn dag_base_zero_is_rejected() {
        dag(Params { n: 64, base: 0 }, 2, Dataset::InDisk);
    }

    #[test]
    #[should_panic(expected = "base must be >= 1")]
    fn recording_base_zero_is_rejected() {
        Recording::new(Params { n: 64, base: 0 }, Dataset::OnCircle);
    }
}
