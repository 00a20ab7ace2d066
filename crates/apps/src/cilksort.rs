//! `cilksort`: parallel mergesort with parallel merge (paper Figure 4).
//!
//! The top-level function sorts the four quarters of the input in place
//! (hinted `@p0..@p3`), merges quarter pairs at `@p0`/`@p2`, and performs
//! the final merge unconstrained — exactly the structure of the paper's
//! pseudocode. Recursive calls inherit their parent's hint.

use crate::common::pages_for;
use numa_ws::{join4_at, join_at, Place};
use nws_sim::{Dag, DagBuilder, FrameId, PagePolicy, RegionId, Strand, Touch};

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of 64-bit keys to sort.
    pub n: usize,
    /// Below this size, sort sequentially (the paper's coarsening). At
    /// least 3: `sort_serial`, `sort_parallel` and `dag` panic otherwise.
    pub sort_base: usize,
    /// Below this output size, merge sequentially. At least 2, likewise.
    pub merge_base: usize,
}

impl Params {
    /// A smaller configuration for the simulator (same recursive shape).
    pub fn sim() -> Self {
        Params { n: 1 << 20, sort_base: 1 << 13, merge_base: 1 << 13 }
    }

    /// A tiny configuration for tests.
    pub fn test() -> Self {
        Params { n: 1 << 12, sort_base: 1 << 7, merge_base: 1 << 7 }
    }

    /// Panics unless the recursion terminates. Below a sort base of 3,
    /// `n / 4` can be 0 and the fourth quarter is the whole input; below a
    /// merge base of 2, a 2-key merge can split into itself.
    fn check(&self) {
        assert!(self.sort_base >= 3, "cilksort: sort_base must be >= 3, got {}", self.sort_base);
        assert!(self.merge_base >= 2, "cilksort: merge_base must be >= 2, got {}", self.merge_base);
    }
}

// ---------------------------------------------------------------------------
// Serial elision
// ---------------------------------------------------------------------------

/// Sorts `data` with the serial elision of the parallel algorithm: the same
/// 4-way recursion and merges, minus the parallel keywords.
pub fn sort_serial(data: &mut [u64], tmp: &mut [u64], params: Params) {
    params.check();
    assert_eq!(data.len(), tmp.len(), "tmp must match data length");
    serial_rec(data, tmp, params.sort_base);
}

fn serial_rec(data: &mut [u64], tmp: &mut [u64], base: usize) {
    let n = data.len();
    if n <= base {
        data.sort_unstable(); // the paper's in-place sequential sort
        return;
    }
    let q = n / 4;
    {
        let (a, rest) = data.split_at_mut(q);
        let (b, rest) = rest.split_at_mut(q);
        let (c, d) = rest.split_at_mut(q);
        let (ta, trest) = tmp.split_at_mut(q);
        let (tb, trest) = trest.split_at_mut(q);
        let (tc, td) = trest.split_at_mut(q);
        serial_rec(a, ta, base);
        serial_rec(b, tb, base);
        serial_rec(c, tc, base);
        serial_rec(d, td, base);
    }
    // Merge quarters pairwise into tmp, then tmp halves back into data.
    let h = 2 * q;
    merge_serial(&data[..q], &data[q..h], &mut tmp[..h]);
    merge_serial(&data[h..h + q], &data[h + q..], &mut tmp[h..]);
    let (t1, t2) = tmp.split_at(h);
    merge_serial(t1, t2, data);
}

/// Merges the sorted runs `a` and `b` into `out`; on equal keys `a`'s go
/// first. Two-ended and branch-free: while both remaining ranges
/// `a[i..ia]` and `b[j..jb]` are non-empty, a front cursor writes the
/// smaller head (a tie takes `a`) and a back cursor the larger tail (a tie
/// takes `b`), each advancing its own indices by its comparison's result.
/// The two cursors are independent dependency chains, so their loads and
/// compares overlap. They never take the same key: the front takes `a`'s
/// last key `x` only if `x <= b[j]`, the back only if `x > b[jb - 1] >=
/// b[j]`, and the tie rules make the same hold for `b`. The leftover range
/// is one copy.
fn merge_serial(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    let (mut ia, mut jb) = (a.len(), b.len());
    while i < ia && j < jb {
        let (x, y) = (a[i], b[j]);
        let front_a = x <= y;
        out[i + j] = if front_a { x } else { y };
        i += usize::from(front_a);
        j += usize::from(!front_a);
        let (x, y) = (a[ia - 1], b[jb - 1]);
        let back_b = x <= y;
        out[ia + jb - 1] = if back_b { y } else { x };
        ia -= usize::from(!back_b);
        jb -= usize::from(back_b);
    }
    let rest = if i < ia { &a[i..ia] } else { &b[j..jb] };
    out[i + j..ia + jb].copy_from_slice(rest);
}

// ---------------------------------------------------------------------------
// Parallel version (real runtime)
// ---------------------------------------------------------------------------

/// Sorts `data` in parallel on the current pool (call inside
/// [`Pool::install`](numa_ws::Pool::install)), with Figure 4's locality
/// hints. `places` is the pool's place count (hints wrap regardless; passing
/// the real count just names the quarters as the paper does).
pub fn sort_parallel(data: &mut [u64], tmp: &mut [u64], params: Params, places: usize) {
    params.check();
    assert_eq!(data.len(), tmp.len(), "tmp must match data length");
    let p = |i: usize| Place(i % places.max(1));
    sort_rec(data, tmp, params, [p(0), p(1), p(2), p(3)]);
}

/// The paper's MERGESORTTOP and MERGESORT as one recursion: the quarters
/// fork at `places[0..4]`, the pair-merges at `places[0]`/`places[2]`, and
/// the final merge runs anywhere. The top level passes Figure 4's
/// `@p0..@p3`; deeper levels set no hints (`Place::ANY`, i.e. plain
/// `join4`/`join`), so they inherit where their parent ran. Every merge
/// splits down to `params.merge_base`.
fn sort_rec(data: &mut [u64], tmp: &mut [u64], params: Params, places: [Place; 4]) {
    let n = data.len();
    if n <= params.sort_base {
        data.sort_unstable();
        return;
    }
    let q = n / 4;
    let h = 2 * q;
    let any = [Place::ANY; 4];
    {
        let (a, rest) = data.split_at_mut(q);
        let (b, rest) = rest.split_at_mut(q);
        let (c, d) = rest.split_at_mut(q);
        let (ta, trest) = tmp.split_at_mut(q);
        let (tb, trest) = trest.split_at_mut(q);
        let (tc, td) = trest.split_at_mut(q);
        join4_at(
            places,
            || sort_rec(a, ta, params, any),
            || sort_rec(b, tb, params, any),
            || sort_rec(c, tc, params, any),
            || sort_rec(d, td, params, any),
        );
    }
    let base = params.merge_base;
    {
        let (t12, t34) = tmp.split_at_mut(h);
        let (d1, rest) = data.split_at(q);
        let (d2, rest) = rest.split_at(q);
        let (d3, d4) = rest.split_at(q);
        join_at(
            || merge_parallel(d1, d2, t12, base),
            || merge_parallel(d3, d4, t34, base),
            places[2],
        );
    }
    let (t1, t2) = tmp.split_at(h);
    merge_parallel(t1, t2, data, base); // @ANY
}

/// PARMERGE: parallel merge by splitting the larger input at its median and
/// binary-searching the split point in the other.
fn merge_parallel(a: &[u64], b: &[u64], out: &mut [u64], base: usize) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    if out.len() <= base {
        merge_serial(a, b, out);
        return;
    }
    // Ensure `a` is the larger run.
    let (a, b) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    if a.is_empty() {
        return;
    }
    let ma = a.len() / 2;
    let pivot = a[ma];
    let mb = b.partition_point(|&x| x < pivot);
    let (a1, a2) = a.split_at(ma);
    let (b1, b2) = b.split_at(mb);
    let (o1, o2) = out.split_at_mut(ma + mb);
    numa_ws::join(|| merge_parallel(a1, b1, o1, base), || merge_parallel(a2, b2, o2, base));
}

// ---------------------------------------------------------------------------
// Simulator DAG
// ---------------------------------------------------------------------------

/// Cycle model: coarsened sequential sort of `n` keys.
fn sort_leaf_cycles(n: u64) -> u64 {
    // ~c * n * log2(base) comparisons-and-moves.
    let log = 64 - (n.max(2) - 1).leading_zeros() as u64;
    6 * n * log
}

/// Cycle model: serial merge producing `n` keys.
fn merge_leaf_cycles(n: u64) -> u64 {
    8 * n
}

struct DagCtx {
    array: RegionId,
    tmp: RegionId,
    sort_base: u64,
    merge_base: u64,
}

/// Builds the simulator DAG for cilksort: same recursion, hints, and
/// footprints as the real code, with elements mapped onto pages (512 keys
/// per page).
pub fn dag(params: Params, places: usize) -> Dag {
    params.check();
    let n = params.n as u64;
    let mut b = DagBuilder::new();
    let pages = pages_for(n, 8);
    // The paper binds the i-th quarter of both arrays at the i-th place.
    let array = b.alloc("array", pages, PagePolicy::Chunked { chunks: places.max(1) });
    let tmp = b.alloc("tmp", pages, PagePolicy::Chunked { chunks: places.max(1) });
    let ctx = DagCtx {
        array,
        tmp,
        sort_base: params.sort_base as u64,
        merge_base: params.merge_base as u64,
    };
    let root = build_sort(&mut b, &ctx, 0, n, Place(0), true, places);
    b.build(root)
}

fn touch(region: RegionId, first_elem: u64, n: u64) -> Touch {
    let first_page = first_elem / 512;
    let last_page = (first_elem + n).div_ceil(512).max(first_page + 1);
    Touch { region, start_page: first_page, pages: last_page - first_page, lines_per_page: 64 }
}

fn build_sort(
    b: &mut DagBuilder,
    ctx: &DagCtx,
    lo: u64,
    n: u64,
    place: Place,
    top: bool,
    places: usize,
) -> FrameId {
    if n <= ctx.sort_base {
        return b
            .frame(place)
            .strand(Strand { cycles: sort_leaf_cycles(n), touches: vec![touch(ctx.array, lo, n)] })
            .finish();
    }
    let q = n / 4;
    let h = 2 * q;
    let quarter_place = |i: usize| -> Place {
        if top {
            Place(i % places.max(1))
        } else {
            place
        }
    };
    let s0 = build_sort(b, ctx, lo, q, quarter_place(0), false, places);
    let s1 = build_sort(b, ctx, lo + q, q, quarter_place(1), false, places);
    let s2 = build_sort(b, ctx, lo + h, q, quarter_place(2), false, places);
    let s3 = build_sort(b, ctx, lo + h + q, n - h - q, quarter_place(3), false, places);
    let m1 = build_merge(b, ctx, lo, h, quarter_place(0), false);
    let m2 = build_merge(b, ctx, lo + h, n - h, quarter_place(2), false);
    let m3 = build_merge(b, ctx, lo, n, if top { Place::ANY } else { place }, true);
    b.frame(place)
        .spawn(s0)
        .spawn(s1)
        .spawn(s2)
        .spawn(s3)
        .sync()
        .spawn(m1)
        .spawn(m2)
        .sync()
        .spawn(m3)
        .sync()
        .finish()
}

/// A parallel-merge subtree producing `n` keys at `array[lo..lo+n]` (or
/// into tmp when `to_array` is false; the traffic is symmetric, so both
/// arrays are touched either way).
fn build_merge(
    b: &mut DagBuilder,
    ctx: &DagCtx,
    lo: u64,
    n: u64,
    place: Place,
    to_array: bool,
) -> FrameId {
    if n <= ctx.merge_base {
        let (src, dst) = if to_array { (ctx.tmp, ctx.array) } else { (ctx.array, ctx.tmp) };
        return b
            .frame(place)
            .strand(Strand {
                cycles: merge_leaf_cycles(n),
                touches: vec![touch(src, lo, n), touch(dst, lo, n)],
            })
            .finish();
    }
    let l = build_merge(b, ctx, lo, n / 2, place, to_array);
    let r = build_merge(b, ctx, lo + n / 2, n - n / 2, place, to_array);
    b.frame(place)
        .compute(60) // binary-search split
        .spawn(l)
        .spawn(r)
        .sync()
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::random_keys;
    use numa_ws::Pool;

    #[test]
    fn serial_sorts_correctly() {
        let mut data = random_keys(5000, 1);
        let mut expect = data.clone();
        let mut tmp = vec![0u64; data.len()];
        sort_serial(&mut data, &mut tmp, Params::test());
        expect.sort_unstable();
        assert_eq!(data, expect);
    }

    #[test]
    fn serial_handles_non_power_of_four() {
        for n in [1usize, 2, 3, 129, 1000, 4097] {
            let mut data = random_keys(n, 2);
            let mut expect = data.clone();
            let mut tmp = vec![0u64; n];
            sort_serial(&mut data, &mut tmp, Params::test());
            expect.sort_unstable();
            assert_eq!(data, expect, "n={n}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let pool = Pool::builder().workers(8).places(4).build().unwrap();
        let mut data = random_keys(1 << 14, 3);
        let mut expect = data.clone();
        let mut tmp = vec![0u64; data.len()];
        pool.install(|| sort_parallel(&mut data, &mut tmp, Params::test(), 4));
        expect.sort_unstable();
        assert_eq!(data, expect);
    }

    #[test]
    fn parallel_merge_correct() {
        let pool = Pool::new(4).unwrap();
        let check = |a: &[u64], b: &[u64], base: usize| {
            let mut out = vec![u64::MAX; a.len() + b.len()];
            pool.install(|| merge_parallel(a, b, &mut out, base));
            let mut expect = [a, b].concat();
            expect.sort_unstable();
            assert_eq!(out, expect, "a={} keys, b={} keys, base={base}", a.len(), b.len());
        };
        check(&sorted_keys(1000, 4, u64::MAX), &sorted_keys(1500, 5, u64::MAX), 64);
        // Duplicate-heavy runs, split down to the smallest merge base.
        for (la, lb) in [(1000, 1500), (1500, 1000), (37, 64), (1, 2), (2, 1), (0, 5), (64, 64)] {
            check(&sorted_keys(la, 10, 4), &sorted_keys(lb, 11, 4), 2);
        }
    }

    /// perfbench's shape scaled down 16-fold: the same four levels of
    /// recursion over leaves of 256 keys, with merges split to 512 keys.
    #[test]
    fn parallel_sorts_a_scaled_perfbench_shape() {
        let pool = Pool::builder()
            .workers(2)
            .places(2)
            .policy(numa_ws::SchedPolicy::numa_ws())
            .build()
            .unwrap();
        let params = Params { n: 1 << 16, sort_base: 1 << 9, merge_base: 1 << 9 };
        let mut data = random_keys(params.n, 12);
        let mut expect = data.clone();
        let mut tmp = vec![0u64; params.n];
        pool.install(|| sort_parallel(&mut data, &mut tmp, params, 2));
        expect.sort_unstable();
        assert_eq!(data, expect);
    }

    /// Every merge splits down to `merge_base`, the ones below the top
    /// level too. A merge producing `m` keys ends in at least
    /// `ceil(m / merge_base)` serial leaves, so it forks at least one time
    /// fewer; a merge split only down to `sort_base` forks far less.
    #[test]
    fn merges_below_the_top_split_down_to_merge_base() {
        /// The fewest forks the recursion can make: three per `join4`, one
        /// per pair-merge `join`, and each merge's splits.
        fn min_forks(n: usize, p: Params) -> u64 {
            if n <= p.sort_base {
                return 0;
            }
            let q = n / 4;
            let merge = |m: usize| (m.div_ceil(p.merge_base) - 1) as u64;
            let sorts = 3 * min_forks(q, p) + min_forks(n - 3 * q, p);
            4 + sorts + merge(2 * q) + merge(n - 2 * q) + merge(n)
        }
        let params = Params { n: 1 << 14, sort_base: 1 << 8, merge_base: 1 << 4 };
        let pool = Pool::new(1).unwrap();
        let mut data = random_keys(params.n, 14);
        let mut tmp = vec![0u64; params.n];
        pool.install(|| sort_parallel(&mut data, &mut tmp, params, 1));
        assert!(data.windows(2).all(|w| w[0] <= w[1]));
        let stats = pool.stats();
        let forks = stats.total_spawns() + stats.total_spawn_overflows();
        let min = min_forks(params.n, params);
        assert!(forks >= min, "{forks} forks, at least {min} expected");
    }

    #[test]
    #[should_panic(expected = "sort_base must be >= 3")]
    fn sort_base_below_three_is_rejected() {
        // Unchecked, 3 keys over a base of 2 recurse forever: `n / 4 = 0`.
        let mut data = random_keys(3, 13);
        let mut tmp = vec![0u64; 3];
        sort_serial(&mut data, &mut tmp, Params { n: 3, sort_base: 2, merge_base: 2 });
    }

    #[test]
    #[should_panic(expected = "merge_base must be >= 2")]
    fn merge_base_below_two_is_rejected() {
        let pool = Pool::new(2).unwrap();
        let mut data = vec![7u64; 64];
        let mut tmp = vec![0u64; 64];
        let params = Params { n: 64, sort_base: 3, merge_base: 1 };
        pool.install(|| sort_parallel(&mut data, &mut tmp, params, 2));
    }

    #[test]
    fn smallest_legal_bases_sort_correctly() {
        let pool = Pool::new(2).unwrap();
        for n in (0..=20).chain([64, 1000]) {
            let params = Params { n, sort_base: 3, merge_base: 2 };
            for keys in [random_keys(n, 14), vec![7; n], sorted_keys(n, 15, 4)] {
                let mut expect = keys.clone();
                expect.sort_unstable();
                let mut tmp = vec![0u64; n];
                let mut data = keys.clone();
                sort_serial(&mut data, &mut tmp, params);
                assert_eq!(data, expect, "serial, n={n}");
                let mut data = keys;
                pool.install(|| sort_parallel(&mut data, &mut tmp, params, 2));
                assert_eq!(data, expect, "parallel, n={n}");
            }
            dag(params, 2).validate().unwrap();
        }
    }

    /// `merge_serial` against the oracle: the sorted concatenation.
    fn check_merge(a: &[u64], b: &[u64]) {
        let mut out = vec![u64::MAX; a.len() + b.len()];
        merge_serial(a, b, &mut out);
        let mut expect = [a, b].concat();
        expect.sort_unstable();
        assert_eq!(out, expect, "a={} keys, b={} keys", a.len(), b.len());
    }

    fn sorted_keys(n: usize, seed: u64, modulus: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = random_keys(n, seed).into_iter().map(|k| k % modulus).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn merge_serial_matches_sorted_concatenation() {
        let run = sorted_keys(300, 6, u64::MAX);
        // Empty and one-sided runs.
        check_merge(&[], &[]);
        check_merge(&run, &[]);
        check_merge(&[], &run);
        // All-equal keys, and heavy duplicates on both sides.
        check_merge(&[7; 40], &[7; 25]);
        check_merge(&sorted_keys(500, 7, 4), &sorted_keys(700, 8, 4));
        // Strictly interleaved runs: evens against odds.
        let evens: Vec<u64> = (0..200).map(|k| 2 * k).collect();
        let odds: Vec<u64> = (0..200).map(|k| 2 * k + 1).collect();
        check_merge(&evens, &odds);
        check_merge(&odds, &evens);
        // One key against a thousand, at both ends and in the middle.
        let long = sorted_keys(1000, 9, 1 << 20);
        for single in [0, long[500], u64::MAX] {
            check_merge(&[single], &long);
            check_merge(&long, &[single]);
        }
        // One run entirely below the other.
        check_merge(&evens[..100], &evens[100..]);
        check_merge(&evens[100..], &evens[..100]);
    }

    /// Every pair of run lengths up to 8, keys from {0, 1, 2}: odd and even
    /// totals, ties on both sides, and each step where the two cursors meet.
    #[test]
    fn merge_serial_matches_sorted_concatenation_on_every_small_shape() {
        for seed in 0..4 {
            for la in 0..=8 {
                for lb in 0..=8 {
                    let s = 100 * seed + 10 * la as u64 + lb as u64;
                    check_merge(&sorted_keys(la, s, 3), &sorted_keys(lb, s + 5000, 3));
                }
            }
        }
    }

    #[test]
    fn dag_builds_with_sensible_shape() {
        let d = dag(Params { n: 1 << 16, sort_base: 1 << 10, merge_base: 1 << 10 }, 4);
        d.validate().unwrap();
        assert!(d.num_frames() > 100);
        // Parallelism should be ample: work/span >> 4.
        assert!(d.work() / d.span().max(1) > 8, "parallelism too low");
    }

    #[test]
    fn dag_quarters_carry_distinct_hints() {
        let d = dag(Params { n: 1 << 14, sort_base: 1 << 10, merge_base: 1 << 10 }, 4);
        let root = d.frame(d.root());
        let mut places = Vec::new();
        for s in &root.steps {
            if let nws_sim::Step::Spawn(c) = s {
                places.push(d.frame(*c).place);
            }
        }
        // First four spawns are the hinted quarters.
        assert_eq!(&places[..4], &[Place(0), Place(1), Place(2), Place(3)]);
    }
}
