//! `cilksort`: parallel mergesort with parallel merge (paper Figure 4).
//!
//! The top-level function sorts the four quarters of the input in place
//! (hinted `@p0..@p3`), merges quarter pairs at `@p0`/`@p2`, and performs
//! the final merge unconstrained — exactly the structure of the paper's
//! pseudocode. Recursive calls inherit their parent's hint. PARMERGE is a
//! co-rank split: each merge halves its output and searches for the input
//! split that fills the lower half, so its fork tree depends only on sizes.
//!
//! The pool run and the simulator DAG read one recursion, `sort`, over
//! `fork::ForkJoin` (DESIGN.md §6, "One recursion per kernel").

use crate::common::pages_for;
use crate::fork::{self, ForkJoin};
use crate::record::Record;
use nws_sim::{Dag, DagBuilder, PagePolicy, RegionId, Strand, Touch};
use nws_topology::Place;
use std::ops::Range;

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
    /// merge base of 2, a 1-key merge splits into itself.
    fn check(&self) {
        assert!(self.sort_base >= 3, "cilksort: sort_base must be >= 3, got {}", self.sort_base);
        assert!(self.merge_base >= 2, "cilksort: merge_base must be >= 2, got {}", self.merge_base);
    }
}

// ---------------------------------------------------------------------------
// Serial elision
// ---------------------------------------------------------------------------

/// Sorts `data` with the serial elision of the parallel algorithm: the same
/// 4-way recursion, minus the parallel keywords, with each merge done in
/// one serial pass rather than split down to `merge_base`. This is the `TS`
/// perfbench times; making it the exact elision (`sort` under
/// `fork::Serial`) would change that benchmark's oracle.
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
    let [a, b, c, d] = quarters(data, q);
    let [ta, tb, tc, td] = quarters(tmp, q);
    serial_rec(a, ta, base);
    serial_rec(b, tb, base);
    serial_rec(c, tc, base);
    serial_rec(d, td, base);
    // Merge quarters pairwise into tmp, then tmp halves back into data.
    let h = 2 * q;
    merge_serial(&data[..q], &data[q..h], &mut tmp[..h]);
    merge_serial(&data[h..h + q], &data[h + q..], &mut tmp[h..]);
    let (t1, t2) = tmp.split_at(h);
    merge_serial(t1, t2, data);
}

/// Splits `keys` into three quarters of `q` keys and the rest.
fn quarters<K>(keys: &mut [K], q: usize) -> [&mut [K]; 4] {
    let (a, rest) = keys.split_at_mut(q);
    let (b, rest) = rest.split_at_mut(q);
    let (c, d) = rest.split_at_mut(q);
    [a, b, c, d]
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
fn merge_serial<K: Copy + Ord>(a: &[K], b: &[K], out: &mut [K]) {
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
// The recursion
// ---------------------------------------------------------------------------

/// Sorts `data` in parallel on the current pool (call inside
/// [`Pool::install`](numa_ws::Pool::install)), with Figure 4's locality
/// hints. `places` is the pool's place count (hints wrap regardless; passing
/// the real count just names the quarters as the paper does).
pub fn sort_parallel(data: &mut [u64], tmp: &mut [u64], params: Params, places: usize) {
    params.check();
    assert_eq!(data.len(), tmp.len(), "tmp must match data length");
    sort(&mut fork::Pool, data, tmp, params, quarter_places(places));
}

/// Figure 4's `@p0..@p3` on `places` places.
fn quarter_places(places: usize) -> [Place; 4] {
    [0, 1, 2, 3].map(|i| Place(i % places.max(1)))
}

/// What `sort` sorts: `u64`s on the pool, and one byte per key in `dag`'s
/// walk, which reads no key.
trait Key: Copy + Ord + Send + Sync {}
impl<K: Copy + Ord + Send + Sync> Key for K {}

/// The paper's MERGESORTTOP and MERGESORT as one recursion: the quarters
/// fork at `places[0..4]`, the pair-merges at `places[0]`/`places[2]`, and
/// the final merge runs inline. The top level passes Figure 4's
/// `@p0..@p3` and runs its final merge as `@ANY` ([`ForkJoin::unhinted`]);
/// deeper levels set no hints (`Place::ANY`), so they and their merges
/// inherit where their parent ran. Each merge halves until below
/// `merge_base`.
fn sort<F: ForkJoin<Model>, K: Key>(
    f: &mut F,
    data: &mut [K],
    tmp: &mut [K],
    params: Params,
    places: [Place; 4],
) {
    let n = data.len();
    if n <= params.sort_base {
        let keys = data.as_ptr_range();
        f.leaf(
            |m| Strand { cycles: sort_leaf_cycles(n as u64), touches: vec![m.touch(keys)] },
            || data.sort_unstable(), // the paper's in-place sequential sort
        );
        return;
    }
    let q = n / 4;
    let h = 2 * q;
    let any = [Place::ANY; 4];
    let [a, b, c, d] = quarters(data, q);
    let [ta, tb, tc, td] = quarters(tmp, q);
    f.join4_at(
        places,
        |f| sort(f, a, ta, params, any),
        |f| sort(f, b, tb, params, any),
        |f| sort(f, c, tc, params, any),
        |f| sort(f, d, td, params, any),
    );
    let base = params.merge_base;
    let (t12, t34) = tmp.split_at_mut(h);
    let [d1, d2, d3, d4] = quarters(data, q);
    f.join_at(|f| merge(f, d1, d2, t12, base), |f| merge(f, d3, d4, t34, base), places[2]);
    let (t1, t2) = tmp.split_at(h);
    let mut last = |f: &mut F| merge(f, t1, t2, data, base);
    if places == any {
        last(f);
    } else {
        f.unhinted(last);
    }
}

/// PARMERGE: merges the sorted runs `a` and `b` into `out` (a tie takes
/// `a`), halving the output until it is below `base` keys. The split's
/// search is a 60-cycle leaf. It starts from `i = min(k, |a|)`, which is
/// where it lands on all-equal keys, so a walk that runs no leaf body
/// still splits consistent slices.
fn merge<F: ForkJoin<Model>, K: Key>(f: &mut F, a: &[K], b: &[K], out: &mut [K], base: usize) {
    if out.len() < base {
        let dst = out.as_ptr_range();
        f.leaf(|m| m.merge_strand([a, b], dst), || merge_serial(a, b, out));
        return;
    }
    let k = out.len() / 2;
    let mut i = k.min(a.len());
    f.leaf(|_| Strand::compute(60), || i = co_rank(a, b, k));
    let (a1, a2) = a.split_at(i);
    let (b1, b2) = b.split_at(k - i);
    let (o1, o2) = out.split_at_mut(k);
    f.join(|f| merge(f, a1, b1, o1, base), |f| merge(f, a2, b2, o2, base));
}

/// The co-rank of output position `k`: the `i` for which `a[..i]` and
/// `b[..k - i]` are the `k` smallest keys of the two sorted runs, a tie
/// taking `a`'s key first: a binary search for the first `i` whose next
/// key `a[i]` is greater than the last `b` key it admits, `b[k - i - 1]`.
fn co_rank<K: Ord>(a: &[K], b: &[K], k: usize) -> usize {
    debug_assert!(k <= a.len() + b.len());
    let (mut lo, mut hi) = (k.saturating_sub(b.len()), k.min(a.len()));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if a[mid] <= b[k - mid - 1] {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
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

/// What a leaf describes itself against: the regions of the key array and
/// its scratch buffer, and the addresses of the zero buffers a recording
/// walks in their place. A leaf touches the pages its slices occupy.
struct Model {
    regions: [RegionId; 2],
    bases: [usize; 2],
    keys: usize,
}

impl Model {
    /// The touch of the keys `run` spans, 512 keys per page, in `tmp` if
    /// the run starts inside it and in the key array otherwise.
    fn touch<K>(&self, run: Range<*const K>) -> Touch {
        let (start, size) = (run.start.addr(), size_of::<K>());
        let in_tmp =
            usize::from((self.bases[1]..self.bases[1] + size * self.keys).contains(&start));
        let index = |p: *const K| ((p.addr() - self.bases[in_tmp]) / size) as u64;
        let [first, end] = [run.start, run.end].map(index);
        let start_page = first / 512;
        let pages = end.div_ceil(512).max(start_page + 1) - start_page;
        Touch { region: self.regions[in_tmp], start_page, pages, lines_per_page: 64 }
    }

    /// The strand of a serial merge of `runs` into `dst`: it reads each
    /// non-empty run and writes `dst`.
    fn merge_strand<K>(&self, runs: [&[K]; 2], dst: Range<*const K>) -> Strand {
        let n = runs.iter().map(|r| r.len() as u64).sum();
        let reads = runs.iter().filter(|r| !r.is_empty()).map(|r| self.touch(r.as_ptr_range()));
        let touches = reads.chain([self.touch(dst)]).collect();
        Strand { cycles: merge_leaf_cycles(n), touches }
    }
}

/// Builds the simulator DAG for cilksort by recording the recursion the
/// pool runs. The walk reads no key, so it runs over zero buffers of one
/// byte per key (`u64` buffers would cost `sim_replay`'s set-up a fresh
/// zeroing of 4 MiB per build), and a tie takes `a`, so every merge splits
/// its runs where the real merge splits all-equal keys. Both arrays are
/// bound quarter by quarter to the places, as the paper binds them, and
/// the root is hinted at place 0.
pub fn dag(params: Params, places: usize) -> Dag {
    params.check();
    let n = params.n;
    let pages = pages_for(n as u64, 8);
    let mut bd = DagBuilder::new();
    let policy = PagePolicy::Chunked { chunks: places.max(1) };
    let regions = ["array", "tmp"].map(|name| bd.alloc(name, pages, policy.clone()));
    let (mut data, mut tmp) = (vec![0u8; n], vec![0u8; n]);
    let bases = [&data, &tmp].map(|v| v.as_ptr().addr());
    Record::dag(bd, Model { regions, bases, keys: n }, Place(0), |f| {
        sort(f, &mut data, &mut tmp, params, quarter_places(places));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::random_keys;
    use numa_ws::Pool;
    use nws_sim::{FrameId, Step};

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
            pool.install(|| merge(&mut fork::Pool, a, b, &mut out, base));
            let mut expect = [a, b].concat();
            expect.sort_unstable();
            assert_eq!(out, expect, "a={} keys, b={} keys, base={base}", a.len(), b.len());
        };
        check(&sorted_keys(1000, 4, u64::MAX), &sorted_keys(1500, 5, u64::MAX), 64);
        // Duplicate-heavy and all-equal runs, and one run entirely below
        // the other, split down to the smallest merge base.
        let shapes =
            [(1000, 1500), (1500, 1000), (37, 64), (1, 2), (2, 1), (0, 5), (5, 0), (64, 64)];
        for (la, lb) in shapes {
            check(&sorted_keys(la, 10, 4), &sorted_keys(lb, 11, 4), 2);
            check(&vec![7; la], &vec![7; lb], 2);
            check(&vec![1; la], &vec![0; lb], 2);
        }
    }

    /// perfbench's shape scaled down 16-fold: the same four levels of
    /// recursion over leaves of 256 keys, with merges split below 512 keys.
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

    /// The forks `sort` makes: three per `join4_at`, one per pair-merge
    /// `join_at`, and one per merge split.
    fn forks(n: usize, p: Params) -> u64 {
        fn merge_forks(m: usize, base: usize) -> u64 {
            if m < base {
                return 0;
            }
            1 + merge_forks(m / 2, base) + merge_forks(m - m / 2, base)
        }
        if n <= p.sort_base {
            return 0;
        }
        let q = n / 4;
        let merges = [2 * q, n - 2 * q, n].map(|m| merge_forks(m, p.merge_base));
        4 + 3 * forks(q, p) + forks(n - 3 * q, p) + merges.iter().sum::<u64>()
    }

    /// Sorts `keys` on a 1-worker pool and returns its forks.
    fn pool_forks(mut keys: Vec<u64>, params: Params) -> u64 {
        let pool = Pool::new(1).unwrap();
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut tmp = vec![0u64; keys.len()];
        pool.install(|| sort_parallel(&mut keys, &mut tmp, params, 4));
        assert_eq!(keys, expect);
        let stats = pool.stats();
        stats.total_spawns() + stats.total_spawn_overflows()
    }

    /// Every merge splits down to `merge_base`, the ones below the top
    /// level too, so the pool forks exactly as often as [`forks`] counts; a
    /// merge split only down to `sort_base` forks far less.
    #[test]
    fn merges_below_the_top_split_down_to_merge_base() {
        for n in [1 << 14, 10_007] {
            let params = Params { n, sort_base: 1 << 8, merge_base: 1 << 4 };
            assert_eq!(pool_forks(random_keys(n, 14), params), forks(n, params), "n={n}");
        }
    }

    /// A 2-way fork is 2 DAG spawns (one child frame per branch) and 1 pool
    /// spawn, and `sort` forks only 2 ways. The merges split their output in
    /// half, so the pool forks as often whatever the keys.
    #[test]
    fn dag_forks_as_often_as_the_pool_run() {
        let p = Params::test();
        let random = random_keys(p.n, 16);
        let mut sorted = random.clone();
        sorted.sort_unstable();
        let reversed = sorted.iter().rev().copied().collect();
        let spawns = [random, vec![7; p.n], sorted, reversed].map(|keys| pool_forks(keys, p));
        assert_eq!(spawns, [forks(p.n, p); 4]);
        assert_eq!(forks(p.n, p), 405);
        let d = dag(p, 4);
        d.validate().unwrap();
        assert_eq!(d.num_spawns(), 2 * forks(p.n, p));
    }

    #[test]
    fn the_recursion_sorts_under_serial() {
        for n in [0, 3, 64, 1000, 4097] {
            let params = Params { n, ..Params::test() };
            for keys in [random_keys(n, 17), vec![7; n], sorted_keys(n, 18, 4)] {
                let mut expect = keys.clone();
                expect.sort_unstable();
                let mut data = keys;
                let mut tmp = vec![0u64; n];
                sort(&mut fork::Serial, &mut data, &mut tmp, params, quarter_places(4));
                assert_eq!(data, expect, "n={n}");
            }
        }
    }

    /// Every sorted run of `len` keys from {0, 1, 2}.
    fn runs_of_three_keys(len: usize) -> Vec<Vec<u64>> {
        let mut runs = Vec::new();
        for zeros in 0..=len {
            for ones in 0..=len - zeros {
                runs.push([vec![0; zeros], vec![1; ones], vec![2; len - zeros - ones]].concat());
            }
        }
        runs
    }

    /// `co_rank` against the oracle, a sort of the keys tagged by run with
    /// `a`'s before `b`'s on ties: its first `k` entries are the `k`
    /// smallest keys, `a` first on ties, and hold `co_rank(a, b, k)` of
    /// `a`'s. Every pair of runs up to 8 keys from {0, 1, 2}, every `k`.
    #[test]
    fn co_rank_splits_at_the_k_smallest_keys_a_first_on_ties() {
        for la in 0..=8 {
            for lb in 0..=8 {
                for a in runs_of_three_keys(la) {
                    for b in runs_of_three_keys(lb) {
                        let mut tagged: Vec<(u64, bool)> = a.iter().map(|&x| (x, false)).collect();
                        tagged.extend(b.iter().map(|&x| (x, true)));
                        tagged.sort_unstable();
                        for k in 0..=la + lb {
                            let want = tagged[..k].iter().filter(|&&(_, from_b)| !from_b).count();
                            assert_eq!(co_rank(&a, &b, k), want, "a={a:?} b={b:?} k={k}");
                        }
                    }
                }
            }
        }
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

    /// The top level's `join4_at` nests as `numa_ws::join4_at` does: the
    /// root forks two halves hinted at places 0 and 2, which fork quarters
    /// 0 and 1 and quarters 2 and 3, and every frame under a quarter
    /// inherits its place. Then the pair-merges fork at places 0 and 2, and
    /// the final merge splits in the root's own frame into halves hinted
    /// `ANY`, as the pool forks them.
    #[test]
    fn dag_quarters_carry_distinct_hints() {
        let d = dag(Params { n: 1 << 14, sort_base: 1 << 10, merge_base: 1 << 10 }, 4);
        let children = |f: FrameId| -> Vec<FrameId> {
            let steps = d.frame(f).steps.iter();
            steps.filter_map(|s| if let Step::Spawn(c) = s { Some(*c) } else { None }).collect()
        };
        let places = |fs: &[FrameId]| fs.iter().map(|&f| d.frame(f).place).collect::<Vec<_>>();
        let root = d.root();
        assert_eq!(d.frame(root).place, Place(0));
        let shape: Vec<&str> = (d.frame(root).steps.iter())
            .map(|s| match s {
                Step::Spawn(_) => "spawn",
                Step::Sync => "sync",
                Step::Strand(_) => "strand",
            })
            .collect();
        let fork2 = ["spawn", "spawn", "sync"];
        assert_eq!(shape, [&fork2[..], &fork2, &["strand"], &fork2].concat());
        // The halves, the pair-merges and the final merge's two halves.
        let top = children(root);
        let hints = [0, 2, 0, 2].map(Place);
        assert_eq!(places(&top), [&hints[..], &[Place::ANY; 2]].concat());
        let quarters: Vec<FrameId> = top[..2].iter().flat_map(|&h| children(h)).collect();
        assert_eq!(places(&quarters), [Place(0), Place(1), Place(2), Place(3)]);
        for q in quarters {
            let mut subtree = vec![q];
            while let Some(f) = subtree.pop() {
                assert_eq!(d.frame(f).place, d.frame(q).place, "frame {f:?} under {q:?}");
                subtree.extend(children(f));
            }
        }
    }
}
