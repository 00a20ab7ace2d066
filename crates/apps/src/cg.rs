//! `cg`: conjugate gradient solving `Ax = b` for a sparse SPD matrix in
//! CSR form (from the NAS parallel benchmarks).
//!
//! Each iteration performs one SpMV, two dot products, and three AXPYs.
//! Rows of `A` (the dominant data) and the vectors are partitioned into one
//! contiguous band per place; SpMV's column gathers into `x`/`p` are the
//! irregular accesses that make cg the paper's highest-leverage benchmark
//! for NUMA-WS (work inflation 2.33× → 1.21×, T32 29.4 s → 14.9 s).

use crate::common::{input_rng, pages_for};
use numa_ws::{join_at, Place};
use nws_sim::{Dag, DagBuilder, FrameId, PagePolicy, RegionId, Strand, Touch};
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
    /// Rows per sequential leaf. At least 1: `solve_serial`,
    /// `solve_parallel` and `dag` panic otherwise.
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
// Serial elision
// ---------------------------------------------------------------------------

/// Solves `Ax = b` with `iters` CG iterations, serially. Returns `x`.
pub fn solve_serial(a: &Csr, b: &[f64], params: Params) -> Vec<f64> {
    params.check();
    let n = a.n;
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rs_old: f64 = r.iter().map(|v| v * v).sum();
    for _ in 0..params.iters {
        a.spmv_rows(&p, &mut q, 0, n);
        let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
        if pq.abs() < f64::MIN_POSITIVE {
            break;
        }
        let alpha = rs_old / pq;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rs_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    x
}

// ---------------------------------------------------------------------------
// Parallel version (real runtime)
// ---------------------------------------------------------------------------

fn band_place(r0: usize, n: usize, places: usize) -> Place {
    Place((r0 * places / n.max(1)).min(places.saturating_sub(1)))
}

/// Parallel SpMV: `y[r0..r1] = (A·x)[r0..r1]`, binary row split hinted at
/// the band owning each half.
fn par_spmv(
    a: &Csr,
    x: &[f64],
    y: &mut [f64],
    r0: usize,
    r1: usize,
    params: &Params,
    places: usize,
) {
    if r1 - r0 <= params.rows_base {
        a.spmv_rows(x, y, r0, r1);
        return;
    }
    let mid = (r0 + r1) / 2;
    let (lo, hi) = y.split_at_mut(mid - r0);
    join_at(
        || par_spmv(a, x, lo, r0, mid, params, places),
        || par_spmv(a, x, hi, mid, r1, params, places),
        band_place(mid, a.n, places),
    );
}

/// Parallel dot product over chunks.
fn par_dot(a: &[f64], b: &[f64], base: usize, offset: usize, n: usize, places: usize) -> f64 {
    if a.len() <= base {
        return a.iter().zip(b).map(|(x, y)| x * y).sum();
    }
    let mid = a.len() / 2;
    let (a1, a2) = a.split_at(mid);
    let (b1, b2) = b.split_at(mid);
    let (s1, s2) = join_at(
        || par_dot(a1, b1, base, offset, n, places),
        || par_dot(a2, b2, base, offset + mid, n, places),
        band_place(offset + mid, n, places),
    );
    s1 + s2
}

/// Parallel `x += alpha * p; r -= alpha * q` fused update.
#[allow(clippy::too_many_arguments)] // mirrors the banded-recursion signature of its siblings
fn par_update(
    x: &mut [f64],
    p: &[f64],
    r: &mut [f64],
    q: &[f64],
    alpha: f64,
    base: usize,
    offset: usize,
    n: usize,
    places: usize,
) {
    if x.len() <= base {
        for i in 0..x.len() {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        return;
    }
    let mid = x.len() / 2;
    let (x1, x2) = x.split_at_mut(mid);
    let (r1, r2) = r.split_at_mut(mid);
    let (p1, p2) = p.split_at(mid);
    let (q1, q2) = q.split_at(mid);
    join_at(
        || par_update(x1, p1, r1, q1, alpha, base, offset, n, places),
        || par_update(x2, p2, r2, q2, alpha, base, offset + mid, n, places),
        band_place(offset + mid, n, places),
    );
}

/// Parallel `p = r + beta * p`.
fn par_pupdate(
    p: &mut [f64],
    r: &[f64],
    beta: f64,
    base: usize,
    offset: usize,
    n: usize,
    places: usize,
) {
    if p.len() <= base {
        for i in 0..p.len() {
            p[i] = r[i] + beta * p[i];
        }
        return;
    }
    let mid = p.len() / 2;
    let (p1, p2) = p.split_at_mut(mid);
    let (r1, r2) = r.split_at(mid);
    join_at(
        || par_pupdate(p1, r1, beta, base, offset, n, places),
        || par_pupdate(p2, r2, beta, base, offset + mid, n, places),
        band_place(offset + mid, n, places),
    );
}

/// Parallel CG (call inside [`Pool::install`](numa_ws::Pool::install)).
/// Returns `x` after `iters` iterations — bitwise reproducible against
/// [`solve_serial`]? No: floating-point reductions associate differently in
/// parallel, so compare with a tolerance.
pub fn solve_parallel(a: &Csr, b: &[f64], params: Params, places: usize) -> Vec<f64> {
    params.check();
    let n = a.n;
    let base = params.rows_base;
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rs_old = par_dot(&r, &r, base, 0, n, places);
    for _ in 0..params.iters {
        par_spmv(a, &p, &mut q, 0, n, &params, places);
        let pq = par_dot(&p, &q, base, 0, n, places);
        if pq.abs() < f64::MIN_POSITIVE {
            break;
        }
        let alpha = rs_old / pq;
        par_update(&mut x, &p, &mut r, &q, alpha, base, 0, n, places);
        let rs_new = par_dot(&r, &r, base, 0, n, places);
        let beta = rs_new / rs_old;
        par_pupdate(&mut p, &r, beta, base, 0, n, places);
        rs_old = rs_new;
    }
    x
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

struct DagCtx {
    a: RegionId,
    vecs: [RegionId; 4], // x, r, p, q
    n: u64,
    rows_base: u64,
    nnz: u64,
    places: usize,
}

/// Builds the simulator DAG for cg: `iters` chained phases of
/// SpMV + dots + AXPYs; `A` and the vectors are band-bound, SpMV leaves
/// gather from the whole `p` vector (the irregular NUMA traffic).
pub fn dag(params: Params, places: usize) -> Dag {
    params.check();
    let places = places.max(1);
    let n = params.n as u64;
    let nnz = params.nnz_per_row as u64;
    let mut b = DagBuilder::new();
    // CSR arrays: vals (8B) + cols (4B) per nonzero.
    let a = b.alloc("A", pages_for(n * nnz * 12, 1), PagePolicy::Chunked { chunks: places });
    let vecs = [
        b.alloc("x", pages_for(n, 8), PagePolicy::Chunked { chunks: places }),
        b.alloc("r", pages_for(n, 8), PagePolicy::Chunked { chunks: places }),
        b.alloc("p", pages_for(n, 8), PagePolicy::Chunked { chunks: places }),
        b.alloc("q", pages_for(n, 8), PagePolicy::Chunked { chunks: places }),
    ];
    let ctx = DagCtx { a, vecs, n, rows_base: params.rows_base as u64, nnz, places };

    let mut iter_frames = Vec::new();
    for _ in 0..params.iters {
        let spmv = build_spmv(&mut b, &ctx, 0, n);
        let dot1 = build_vec_pass(&mut b, &ctx, 0, n, &[2, 3], 2); // p·q
        let axpy = build_vec_pass(&mut b, &ctx, 0, n, &[0, 1, 2, 3], 4); // x,r update
        let dot2 = build_vec_pass(&mut b, &ctx, 0, n, &[1], 2); // r·r
        let pup = build_vec_pass(&mut b, &ctx, 0, n, &[1, 2], 3); // p = r + βp
        let iter = b
            .frame(Place(0))
            .spawn(spmv)
            .sync()
            .spawn(dot1)
            .sync()
            .spawn(axpy)
            .sync()
            .spawn(dot2)
            .sync()
            .spawn(pup)
            .sync()
            .finish();
        iter_frames.push(iter);
    }
    let mut fb = b.frame(Place(0));
    for f in iter_frames {
        fb = fb.spawn(f).sync();
    }
    let root = fb.finish();
    b.build(root)
}

fn vec_pages(ctx: &DagCtx) -> u64 {
    pages_for(ctx.n, 8)
}

fn band_place_u(ctx: &DagCtx, row: u64) -> Place {
    Place(((row * ctx.places as u64) / ctx.n.max(1)).min(ctx.places as u64 - 1) as usize)
}

fn build_spmv(b: &mut DagBuilder, ctx: &DagCtx, r0: u64, r1: u64) -> FrameId {
    if r1 - r0 <= ctx.rows_base {
        let a_pages = pages_for(ctx.n * ctx.nnz * 12, 1);
        let a_start = r0 * ctx.nnz * 12 / 4096;
        let a_len = ((r1 - r0) * ctx.nnz * 12)
            .div_ceil(4096)
            .max(1)
            .min(a_pages - a_start.min(a_pages - 1));
        let vp = vec_pages(ctx);
        let rows = r1 - r0;
        let strand = Strand {
            // ~6 cycles per nonzero of multiply-add and index math.
            cycles: 6 * rows * ctx.nnz,
            touches: vec![
                // Stream the local CSR band.
                Touch { region: ctx.a, start_page: a_start, pages: a_len, lines_per_page: 64 },
                // Gather from the whole p vector (random columns).
                Touch { region: ctx.vecs[2], start_page: 0, pages: vp, lines_per_page: 48 },
                // Write the local q band.
                Touch {
                    region: ctx.vecs[3],
                    start_page: r0 * 8 / 4096,
                    pages: (rows * 8).div_ceil(4096).max(1),
                    lines_per_page: 64,
                },
            ],
        };
        return b.frame(band_place_u(ctx, r0)).strand(strand).finish();
    }
    let mid = (r0 + r1) / 2;
    let l = build_spmv(b, ctx, r0, mid);
    let r = build_spmv(b, ctx, mid, r1);
    b.frame(band_place_u(ctx, r0)).spawn(l).spawn(r).sync().finish()
}

/// An elementwise pass (dot/AXPY) over rows `[r0, r1)` touching the listed
/// vectors, `cycles_per_elem` cycles each.
fn build_vec_pass(
    b: &mut DagBuilder,
    ctx: &DagCtx,
    r0: u64,
    r1: u64,
    vecs: &[usize],
    cycles_per_elem: u64,
) -> FrameId {
    if r1 - r0 <= ctx.rows_base * 4 {
        let rows = r1 - r0;
        let touches = vecs
            .iter()
            .map(|&v| Touch {
                region: ctx.vecs[v],
                start_page: r0 * 8 / 4096,
                pages: (rows * 8).div_ceil(4096).max(1),
                lines_per_page: 64,
            })
            .collect();
        let strand = Strand { cycles: cycles_per_elem * rows, touches };
        return b.frame(band_place_u(ctx, r0)).strand(strand).finish();
    }
    let mid = (r0 + r1) / 2;
    let l = build_vec_pass(b, ctx, r0, mid, vecs, cycles_per_elem);
    let r = build_vec_pass(b, ctx, mid, r1, vecs, cycles_per_elem);
    b.frame(band_place_u(ctx, r0)).spawn(l).spawn(r).sync().finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_ws::Pool;

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
    fn parallel_matches_serial_within_tolerance() {
        let p = Params::test();
        let a = Csr::random_spd(p, 2);
        let b: Vec<f64> = (0..p.n).map(|i| (i as f64).sin()).collect();
        let xs = solve_serial(&a, &b, p);
        for places in [1usize, 2, 4] {
            let pool = Pool::builder().workers(4).places(places).build().unwrap();
            let xp = pool.install(|| solve_parallel(&a, &b, p, places));
            let diff = crate::common::max_abs_diff(&xs, &xp);
            assert!(diff < 1e-6, "places={places}: diff {diff}");
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
    #[should_panic(expected = "rows_base must be >= 1")]
    fn rows_base_zero_is_rejected() {
        // Unchecked, a 1-row range splits into itself forever.
        let p = Params { rows_base: 0, ..Params::test() };
        let a = Csr::random_spd(p, 42);
        let pool = Pool::new(2).unwrap();
        pool.install(|| solve_parallel(&a, &vec![1.0; p.n], p, 2));
    }
}
