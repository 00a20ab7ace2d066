//! `cg`: conjugate gradient solving `Ax = b` for a sparse SPD matrix in
//! CSR form (from the NAS parallel benchmarks).
//!
//! Each iteration performs one SpMV, two dot products, and three AXPYs.
//! Rows of `A` (the dominant data) and the vectors are partitioned into one
//! contiguous band per place; SpMV's column gathers into `x`/`p` are the
//! irregular accesses that make cg the paper's highest-leverage benchmark
//! for NUMA-WS (work inflation 2.33× → 1.21×, T32 29.4 s → 14.9 s).
//!
//! The serial elision, the pool run and the simulator DAG read one
//! recursion, `solve` (DESIGN.md §3, "One recursion per kernel").

use crate::common::{input_rng, pages_for};
use crate::fork::{self, ForkJoin, Serial};
use crate::record::Record;
use nws_sim::{Dag, DagBuilder, PagePolicy, RegionId, Strand, Touch};
use nws_topology::Place;
use rand::Rng;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of rows/columns.
    pub n: usize,
    /// Nonzeros per row.
    pub nnz_per_row: usize,
    /// CG iterations.
    pub iters: usize,
    /// Rows per SpMV leaf; an elementwise leaf takes [`VEC_GRAIN`] times
    /// as many. At least 1: `solve_serial`, `solve_parallel` and `dag` panic
    /// otherwise.
    pub rows_base: usize,
}

impl Params {
    /// Simulator-scale configuration.
    pub fn sim() -> Self {
        Params { n: 1 << 17, nnz_per_row: 48, iters: 8, rows_base: 1 << 10 }
    }

    /// Tiny configuration for tests.
    pub fn test() -> Self {
        Params { n: 512, nnz_per_row: 8, iters: 8, rows_base: 64 }
    }

    /// Panics unless the row recursions terminate: with a base of 0 rows, a
    /// 1-row range splits into itself and an empty range forever.
    fn check(&self) {
        assert!(self.rows_base >= 1, "cg: rows_base must be >= 1, got {}", self.rows_base);
    }
}

/// An elementwise leaf (a dot product or a vector update) covers
/// `VEC_GRAIN * rows_base` rows: it spends 2–4 cycles per row, where an
/// SpMV leaf spends ≈ 6 per nonzero.
pub const VEC_GRAIN: usize = 4;

/// A sparse matrix in compressed-sparse-row form.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Dimension.
    pub n: usize,
    /// Row start offsets (`n + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Column indices per nonzero.
    pub cols: Vec<usize>,
    /// Values per nonzero.
    pub vals: Vec<f64>,
}

impl Csr {
    /// A random symmetric positive-definite matrix: random off-diagonal
    /// entries (symmetrized) plus a dominant diagonal.
    pub fn random_spd(params: Params, seed: u64) -> Csr {
        let n = params.n;
        let mut rng = input_rng(seed);
        // Collect symmetric entries as (row, col, val).
        let mut entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let per_side = (params.nnz_per_row.saturating_sub(1)) / 2;
        for r in 0..n {
            for _ in 0..per_side {
                let c = rng.gen_range(0..n);
                if c == r {
                    continue;
                }
                let v = rng.gen_range(-1.0..1.0);
                entries[r].push((c, v));
                entries[c].push((r, v));
            }
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for (r, row) in entries.iter_mut().enumerate() {
            row.sort_by_key(|&(c, _)| c);
            row.dedup_by_key(|&mut (c, _)| c);
            // Dominant diagonal keeps A positive definite.
            let off_sum: f64 = row.iter().map(|&(_, v)| v.abs()).sum();
            let mut inserted_diag = false;
            for &(c, v) in row.iter() {
                if c > r && !inserted_diag {
                    cols.push(r);
                    vals.push(off_sum + 1.0);
                    inserted_diag = true;
                }
                cols.push(c);
                vals.push(v);
            }
            if !inserted_diag {
                cols.push(r);
                vals.push(off_sum + 1.0);
            }
            row_ptr.push(cols.len());
        }
        Csr { n, row_ptr, cols, vals }
    }

    /// `y = A·x` for rows `[r0, r1)`.
    fn spmv_rows(&self, x: &[f64], y: &mut [f64], r0: usize, r1: usize) {
        for r in r0..r1 {
            let mut acc = 0.0;
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.vals[i] * x[self.cols[i]];
            }
            y[r - r0] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// The recursion
// ---------------------------------------------------------------------------

/// Indices of CG's four vectors, in `solve`'s array and the DAG model.
const X: usize = 0;
const R: usize = 1;
const P: usize = 2;
const Q: usize = 3;

/// How a pass over rows `[0, n)` forks: it halves its rows, hinting the
/// second half at the place whose band holds its first row (one band per
/// place), down to leaves of at most `rows_base` rows for SpMV and
/// [`VEC_GRAIN`] times that for an elementwise pass.
#[derive(Clone, Copy)]
struct Split {
    n: usize,
    places: usize,
    rows_base: usize,
}

impl Split {
    /// The place whose band holds `row`.
    fn place(self, row: usize) -> Place {
        Place((row * self.places / self.n.max(1)).min(self.places - 1))
    }
}

/// The passes of a CG iteration.
#[derive(Clone, Copy)]
enum Pass<'a> {
    /// `q = A·p`, gathering from the whole of `p`.
    Spmv(&'a Csr, &'a [f64]),
    /// `p·q`.
    PQ,
    /// `x += αp; r -= αq`.
    Update(f64),
    /// `r·r`.
    RR,
    /// `p = r + βp`.
    Direction(f64),
}

impl Pass<'_> {
    /// Runs the pass over rows `[r0, r1)`, which `[x, r, p, q]` hold: a dot
    /// product returns its partial sum, the other passes 0.
    fn run(self, [x, r, p, q]: [&mut [f64]; 4], r0: usize, r1: usize) -> f64 {
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a * b).sum();
        match self {
            Pass::Spmv(a, whole_p) => a.spmv_rows(whole_p, q, r0, r1),
            Pass::PQ => return dot(p, q),
            Pass::RR => return dot(r, r),
            Pass::Update(alpha) => {
                for (((x, r), p), q) in x.iter_mut().zip(r).zip(&*p).zip(&*q) {
                    *x += alpha * p;
                    *r -= alpha * q;
                }
            }
            Pass::Direction(beta) => {
                for (p, r) in p.iter_mut().zip(&*r) {
                    *p = r + beta * *p;
                }
            }
        }
        0.0
    }
}

/// Runs `op` over rows `[r0, r1)` of `v`, `[x, r, p, q]`, each of which
/// holds those rows or nothing, and returns the sum of its leaves' results,
/// the left half's plus the right half's at every fork. A slice splits in
/// proportion to its length, so a walk over empty vectors splits empty
/// slices.
fn pass<F: ForkJoin<Model>>(
    f: &mut F,
    s: Split,
    v: [&mut [f64]; 4],
    r0: usize,
    r1: usize,
    op: Pass,
) -> f64 {
    let base = match op {
        Pass::Spmv(..) => s.rows_base,
        _ => s.rows_base.saturating_mul(VEC_GRAIN),
    };
    if r1 - r0 > base {
        let mid = (r0 + r1) / 2;
        let [x, r, p, q] = v.map(|v| v.split_at_mut(v.len() / (r1 - r0) * (mid - r0)));
        let (mut lo, mut hi) = (0.0, 0.0);
        f.join_at(
            |f| lo = pass(f, s, [x.0, r.0, p.0, q.0], r0, mid, op),
            |f| hi = pass(f, s, [x.1, r.1, p.1, q.1], mid, r1, op),
            s.place(mid),
        );
        lo + hi
    } else {
        let mut sum = 0.0;
        f.leaf(|m| m.strand(op, r0, r1), || sum = op.run(v, r0, r1));
        sum
    }
}

/// Up to `iters` CG iterations from `x = 0`, `r = p = b`; returns `x`.
/// After the initial `r·r`, each iteration runs SpMV, `p·q`, the fused
/// `x, r` update, `r·r` and `p = r + βp`, each a [`pass`] over all rows.
/// The loop stops before an update whose `|p·q|` is below `pq_floor`: the
/// solvers pass `f64::MIN_POSITIVE`, which for a `Csr::random_spd` matrix
/// stops it only when `p` is 0 (to within underflow), and `dag`, whose
/// sums are all 0, passes 0, so it records exactly `iters` iterations
/// (DESIGN.md §3, "cg's loop rule").
fn solve<F: ForkJoin<Model>>(
    f: &mut F,
    a: &Csr,
    b: &[f64],
    params: Params,
    places: usize,
    pq_floor: f64,
) -> Vec<f64> {
    fn rows(v: &mut [Vec<f64>; 4]) -> [&mut [f64]; 4] {
        v.each_mut().map(|v| v.as_mut_slice())
    }
    params.check();
    let (n, s) = (a.n, Split { n: a.n, places: places.max(1), rows_base: params.rows_base });
    let mut v = [vec![0.0; b.len()], b.to_vec(), b.to_vec(), vec![0.0; b.len()]];
    let mut rs_old = pass(f, s, rows(&mut v), 0, n, Pass::RR);
    for _ in 0..params.iters {
        let [_, _, p, q] = rows(&mut v);
        pass(f, s, [&mut [], &mut [], &mut [], q], 0, n, Pass::Spmv(a, p));
        let pq = pass(f, s, rows(&mut v), 0, n, Pass::PQ);
        if pq.abs() < pq_floor {
            break;
        }
        pass(f, s, rows(&mut v), 0, n, Pass::Update(rs_old / pq));
        let rs_new = pass(f, s, rows(&mut v), 0, n, Pass::RR);
        pass(f, s, rows(&mut v), 0, n, Pass::Direction(rs_new / rs_old));
        rs_old = rs_new;
    }
    let [x, ..] = v;
    x
}

/// Panics unless `b` has one entry per row of `a`.
fn check_input(a: &Csr, b: &[f64]) {
    assert_eq!(b.len(), a.n, "cg: b must have one entry per row of A");
}

/// Solves `Ax = b` with up to `iters` CG iterations, serially (the serial
/// elision of [`solve_parallel`]). Returns `x`.
pub fn solve_serial(a: &Csr, b: &[f64], params: Params) -> Vec<f64> {
    check_input(a, b);
    solve(&mut Serial, a, b, params, 1, f64::MIN_POSITIVE)
}

/// Parallel CG (call inside [`Pool::install`](numa_ws::Pool::install)),
/// each pass's halves hinted at the band of `places` that owns them.
/// Returns `x`, bit for bit [`solve_serial`]'s: the recursion fixes the
/// order of every floating-point addition, whatever the pool.
pub fn solve_parallel(a: &Csr, b: &[f64], params: Params, places: usize) -> Vec<f64> {
    check_input(a, b);
    solve(&mut fork::Pool, a, b, params, places, f64::MIN_POSITIVE)
}

/// Max-norm residual `||Ax - b||∞` (for verification).
pub fn residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut q = vec![0.0; a.n];
    a.spmv_rows(x, &mut q, 0, a.n);
    q.iter().zip(b).map(|(ax, bi)| (ax - bi).abs()).fold(0.0, f64::max)
}

// ---------------------------------------------------------------------------
// Simulator DAG
// ---------------------------------------------------------------------------

/// What a leaf describes itself against: the regions of `A` and of the
/// four vectors, and the matrix's shape.
struct Model {
    a: RegionId,
    vecs: [RegionId; 4],
    n: u64,
    nnz: u64,
}

impl Model {
    /// The strand of a leaf of `op` over rows `[r0, r1)`: its cycles per
    /// row, and a touch of every line of those rows of each array it uses.
    /// An SpMV leaf spends ≈ 6 cycles per nonzero, streams its band of `A`
    /// (12 bytes per nonzero), gathers from the whole of `p` (random
    /// columns, 48 lines a page) and writes its band of `q`.
    fn strand(&self, op: Pass, r0: usize, r1: usize) -> Strand {
        let (r0, r1) = (r0 as u64, r1 as u64);
        let rows = |region, row_bytes| Touch {
            region,
            start_page: r0 * row_bytes / 4096,
            pages: pages_for(r1 - r0, row_bytes),
            lines_per_page: 64,
        };
        let bands = |vecs: &[usize]| vecs.iter().map(|&v| rows(self.vecs[v], 8)).collect();
        let (cycles, touches) = match op {
            Pass::Spmv(..) => {
                let gather = Touch {
                    region: self.vecs[P],
                    start_page: 0,
                    pages: pages_for(self.n, 8),
                    lines_per_page: 48,
                };
                (6 * self.nnz, vec![rows(self.a, 12 * self.nnz), gather, rows(self.vecs[Q], 8)])
            }
            Pass::PQ => (2, bands(&[P, Q])),
            Pass::Update(_) => (4, bands(&[X, R, P, Q])),
            Pass::RR => (2, bands(&[R])),
            Pass::Direction(_) => (3, bands(&[R, P])),
        };
        Strand { cycles: cycles * (r1 - r0), touches }
    }
}

/// Builds the simulator DAG by recording the recursion the pool runs, all
/// `iters` iterations of it, with `A` and the vectors bound bandwise to the
/// places and the root hinted at place 0. The walk reads no value, so it
/// runs over a `Csr` of `n` rows and no entries, and empty vectors.
pub fn dag(params: Params, places: usize) -> Dag {
    params.check();
    let places = places.max(1);
    let (n, nnz) = (params.n as u64, params.nnz_per_row as u64);
    let chunked = PagePolicy::Chunked { chunks: places };
    let mut bd = DagBuilder::new();
    let a = bd.alloc("A", pages_for(n * nnz * 12, 1), chunked.clone());
    let vecs = ["x", "r", "p", "q"].map(|name| bd.alloc(name, pages_for(n, 8), chunked.clone()));
    let shell = Csr { n: params.n, row_ptr: Vec::new(), cols: Vec::new(), vals: Vec::new() };
    Record::dag(bd, Model { a, vecs, n, nnz }, Place(0), |f| {
        solve(f, &shell, &[], params, places, 0.0);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_ws::{Pool, SchedPolicy};

    #[test]
    fn spd_matrix_is_symmetric_with_dominant_diagonal() {
        let p = Params::test();
        let a = Csr::random_spd(p, 42);
        assert_eq!(a.row_ptr.len(), p.n + 1);
        // Symmetry: collect entries into a map and compare (r,c) vs (c,r).
        let mut entries = std::collections::HashMap::new();
        for r in 0..a.n {
            for i in a.row_ptr[r]..a.row_ptr[r + 1] {
                entries.insert((r, a.cols[i]), a.vals[i]);
            }
        }
        for (&(r, c), &v) in &entries {
            let sym = entries.get(&(c, r)).copied();
            assert_eq!(sym, Some(v), "A[{r}][{c}] has no symmetric partner");
        }
        // Diagonal dominance per row.
        for r in 0..a.n {
            let mut diag = 0.0;
            let mut off = 0.0;
            for i in a.row_ptr[r]..a.row_ptr[r + 1] {
                if a.cols[i] == r {
                    diag = a.vals[i];
                } else {
                    off += a.vals[i].abs();
                }
            }
            assert!(diag > off, "row {r} not dominant: {diag} <= {off}");
        }
    }

    #[test]
    fn serial_cg_reduces_residual() {
        let p = Params::test();
        let a = Csr::random_spd(p, 1);
        let b: Vec<f64> = (0..p.n).map(|i| ((i % 17) as f64) - 8.0).collect();
        let x = solve_serial(&a, &b, p);
        let r0 = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
        let r = residual(&a, &x, &b);
        assert!(r < r0 * 0.5, "CG must reduce the residual: {r} vs {r0}");
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for p in [Params::test(), Params { n: 300, rows_base: 7, ..Params::test() }] {
            let a = Csr::random_spd(p, 2);
            let b: Vec<f64> = (0..p.n).map(|i| (i as f64).sin()).collect();
            let xs = bits(solve_serial(&a, &b, p));
            for policy in [SchedPolicy::numa_ws(), SchedPolicy::vanilla()] {
                for (workers, places) in [(2, 1), (2, 2), (2, 4), (4, 1), (4, 2), (4, 4)] {
                    // At most one place per worker: 4 bands on 2 places wrap.
                    let pool = Pool::builder()
                        .workers(workers)
                        .places(places.min(workers))
                        .policy(policy)
                        .build()
                        .unwrap();
                    let xp = bits(pool.install(|| solve_parallel(&a, &b, p, places)));
                    assert_eq!(xp, xs, "{p:?}, {workers} workers, {places} places, {policy}");
                }
            }
        }
    }

    #[test]
    fn zero_b_stops_before_the_first_update() {
        // `p = b = 0`, so `p·q` is 0 and the loop breaks with `x = 0`;
        // without the break, `α = 0 / 0` would make `x` NaN.
        let p = Params::test();
        let (a, b) = (Csr::random_spd(p, 5), vec![0.0; p.n]);
        assert_eq!(solve_serial(&a, &b, p), b);
        assert_eq!(Pool::new(2).unwrap().install(|| solve_parallel(&a, &b, p, 2)), b);
    }

    #[test]
    fn dag_forks_as_often_as_the_pool_run() {
        // A 2-way fork is 2 DAG spawns and 1 pool spawn. At `Params::test()`
        // (512 rows; 64-row SpMV leaves, 256-row elementwise leaves) SpMV
        // forks 7 times and an elementwise pass once: once for the initial
        // `r·r`, then 7 + 4 times per iteration.
        let p = Params::test();
        let a = Csr::random_spd(p, 2);
        let pool = Pool::new(1).unwrap();
        pool.install(|| solve_parallel(&a, &vec![1.0; p.n], p, 4));
        let stats = pool.stats();
        let d = dag(p, 4);
        d.validate().unwrap();
        assert_eq!(d.num_spawns(), 2 * (1 + 8 * (7 + 4)));
        assert_eq!(2 * (stats.total_spawns() + stats.total_spawn_overflows()), d.num_spawns());
        // Each leaf sits at its band's place, 128 rows a band. Frame ids
        // follow the walk's post-order, so a pass's leaves come in row order.
        let leaves: Vec<usize> = (0..d.num_frames())
            .map(|f| d.frame(nws_sim::FrameId(f)))
            .filter(|f| f.steps.iter().any(|s| matches!(s, nws_sim::Step::Strand(_))))
            .map(|f| f.place.0)
            .collect();
        let iteration = [&[0, 0, 1, 1, 2, 2, 3, 3][..], &[0, 2].repeat(4)].concat();
        assert_eq!(leaves, [vec![0, 2], iteration.repeat(8)].concat());
        // `dag` records the initial `r·r` (2 cycles a row), then exactly
        // `iters` iterations (6 cycles a nonzero, then 2 + 4 + 2 + 3 a row).
        let (n, nnz) = (p.n as u64, p.nnz_per_row as u64);
        for k in [0, 1, 3] {
            let work = dag(Params { iters: k, ..p }, 4).work();
            assert_eq!(work, 2 * n + k as u64 * (6 * n * nnz + 11 * n), "iters = {k}");
        }
    }

    #[test]
    fn dag_chains_iterations() {
        let p = Params { n: 1 << 13, nnz_per_row: 8, iters: 3, rows_base: 1 << 10 };
        let d = dag(p, 4);
        d.validate().unwrap();
        // Serial chaining: span grows with iterations.
        let d1 = dag(Params { iters: 1, ..p }, 4);
        assert!(d.span() > 2 * d1.span(), "iterations must be serialized");
    }

    #[test]
    #[should_panic(expected = "b must have one entry per row of A")]
    fn b_longer_than_a_is_rejected() {
        // Unchecked, `r`'s extra entries were never updated but fed `r·r`;
        // a shorter `b` indexed out of bounds.
        let p = Params::test();
        solve_serial(&Csr::random_spd(p, 42), &vec![1.0; p.n + 1], p);
    }

    #[test]
    #[should_panic(expected = "rows_base must be >= 1")]
    fn rows_base_zero_is_rejected() {
        // Unchecked, a 1-row range splits into itself forever.
        let p = Params { rows_base: 0, ..Params::test() };
        let a = Csr::random_spd(p, 42);
        let pool = Pool::new(2).unwrap();
        pool.install(|| solve_parallel(&a, &vec![1.0; p.n], p, 2));
    }
}
