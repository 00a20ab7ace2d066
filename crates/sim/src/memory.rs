//! The simulated memory subsystem: pages, homes, caches, and latencies.
//!
//! Work inflation on NUMA machines (paper §I) is a placement phenomenon:
//! the *same* instruction stream costs more when its loads are serviced by
//! a remote DRAM or a remote LLC instead of the local ones, or when work
//! migration destroys cache reuse. This module models exactly that, at
//! page/cache-line granularity:
//!
//! - every simulated array is a [`Region`] of 4 KiB pages;
//! - each page has a *home* socket decided by the region's [`PagePolicy`]
//!   (the stand-in for `mmap`/`mbind` and the OS first-touch/interleave
//!   policies the paper evaluates vanilla Cilk Plus under);
//! - each socket has a shared last-level cache and each worker a private
//!   cache, both modeled as FIFO page sets (a standard O(1) approximation
//!   of LRU — reuse shapes at this granularity are driven by working-set
//!   fit, not replacement nuance). Each set is a ring of its pages in
//!   arrival order plus residency bits over every page of the run: a
//!   bitset per private cache, and one mask per page naming the LLCs that
//!   hold it, so a lookup is one load and a miss costs no hashing;
//! - an access is charged per cache line according to where it is serviced:
//!   private cache, local LLC, a remote LLC (probe across `h` hops), local
//!   DRAM, or remote DRAM across `h` hops — the five latency classes §I
//!   describes.

use nws_topology::{Place, Topology, WorkerMap};

/// Bytes per simulated page (4 KiB, the Linux default the paper binds).
pub const PAGE_BYTES: u64 = 4096;
/// Bytes per cache line.
pub const LINE_BYTES: u64 = 64;
/// Cache lines per page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

/// A machine-wide page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PageId(pub(crate) u64);

/// Identifier of an allocated region (a simulated array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// Where the pages of a region live — the simulated analogue of the
/// allocation-time binding the paper's library functions perform with
/// `mmap`/`mbind` (§III-A).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// All pages home on the socket backing one place — `mbind` to a node.
    Bind(usize),
    /// Pages round-robin across the sockets in use — the OS `interleave`
    /// policy the paper uses as one of the two vanilla baselines.
    Interleave,
    /// Page homes resolve dynamically to the socket of the first accessor
    /// (the Linux default policy, the paper's other vanilla baseline).
    /// Under a serial initialization everything lands on socket 0; under a
    /// parallel first pass, wherever the scheduler happened to place it.
    FirstTouch,
    /// Pages split into `chunks` equal contiguous chunks, chunk `i` bound to
    /// place `i % places` — the paper's partitioned allocation where the
    /// i-th quarter of an array lives at the i-th place.
    Chunked {
        /// Number of contiguous chunks to split the region into.
        chunks: usize,
    },
}

/// A named allocation of contiguous pages.
#[derive(Debug, Clone)]
pub struct Region {
    /// Human-readable name (for reports).
    pub name: String,
    /// First machine-wide page of the region.
    pub first_page: u64,
    /// Length in pages.
    pub pages: u64,
    /// Placement policy.
    pub policy: PagePolicy,
}

// The memory model of the one simulated machine, the paper's four-socket
// E5-4620 (DESIGN.md §2 "One simulated machine").
//
// Latencies are cycles **per cache line** for each service class. They
// follow the paper's §I characterization of the Figure 1 machine: tens of
// cycles from the local LLC, over a hundred from local DRAM or a remote
// LLC, a few hundred from remote DRAM, scaled to per-line stream costs
// (hardware prefetching hides part of raw latency on the streaming access
// patterns the benchmarks use).

/// Hit in the worker's private (L1/L2) cache.
const PRIVATE_HIT: u64 = 2;
/// Hit in the local shared LLC.
const LLC_LOCAL: u64 = 12;
/// Line found in a remote LLC: base cost, plus [`LLC_REMOTE_PER_HOP`] per
/// QPI hop.
const LLC_REMOTE_BASE: u64 = 60;
/// Extra cycles per QPI hop for a remote LLC probe.
const LLC_REMOTE_PER_HOP: u64 = 40;
/// Local DRAM service.
const DRAM_LOCAL: u64 = 70;
/// Extra cycles per QPI hop for remote DRAM.
const DRAM_REMOTE_PER_HOP: u64 = 90;
/// Per-page cost (TLB fill / page walk) charged when a *non-streaming*
/// touch misses the private cache: short scattered runs pay it, long
/// prefetchable streams amortize it away. This is what penalizes row-major
/// blocks whose rows land on distinct pages (§III-C).
const PAGE_PENALTY: u64 = 40;

// Cache capacities in pages: 32 KiB L1d + 256 KiB L2 per core (~72 pages,
// rounded to 64) and a 16 MiB LLC per socket.

/// Private per-worker cache capacity in pages.
const PRIVATE_PAGES: usize = 64;
/// Shared per-socket LLC capacity in pages.
const LLC_PAGES: usize = 4096;

// Interconnect bandwidth contention: remote lines flow over per-socket QPI
// links of finite bandwidth, so remote traffic beyond the link capacity
// inflates remote costs. This is the second-order effect behind the
// paper's largest inflation numbers (many workers streaming remote bands
// saturate the links, not just the latency). Modeled per epoch: each
// socket's remote-line count within an epoch window sets a cost multiplier
// for further remote lines from that socket.

/// Epoch window in cycles.
const EPOCH_CYCLES: u64 = 100_000;
/// Remote lines per epoch a socket's links absorb at full speed: 0.03
/// lines/cycle, which with 64-byte lines at 2.2 GHz models ≈ 4.2 GB/s of
/// remote bandwidth per socket. A 16 GB/s QPI link would be ≈ 11,000
/// lines per epoch.
const QPI_LINES_PER_EPOCH: u64 = 3_000;
/// Cost multiplier slope beyond capacity: `m = 1 + slope · excess`.
const QPI_SLOPE: f64 = 3.0;
/// Upper bound on the multiplier.
const QPI_MAX_MULTIPLIER: f64 = 5.0;

/// Fraction (percent) of the memory cost paid by *streaming* touches —
/// whole-page, multi-page runs that the hardware prefetcher can pipeline.
/// Short scattered runs (e.g. one row of a row-major matrix block) pay
/// full cost; this is the §III-C mechanism that makes the blocked Z-Morton
/// layout "traverse the matrices in a way that enables the prefetcher".
pub const STREAM_DISCOUNT_PCT: u64 = 45;

/// A cache's pages in arrival order: a ring of `cap` slots, allocated
/// once, that fills up and then replaces its oldest page.
#[derive(Debug, Clone)]
struct Fifo {
    pages: Vec<PageId>,
    cap: usize,
    /// The oldest page's slot once the ring is full.
    oldest: usize,
}

impl Fifo {
    fn new(cap: usize) -> Self {
        Fifo { pages: Vec::with_capacity(cap), cap, oldest: 0 }
    }

    /// Appends `p`, a page not in the ring, and returns the page it
    /// evicts when the ring is full. `cap` must be above 0.
    #[inline]
    fn push(&mut self, p: PageId) -> Option<PageId> {
        if self.pages.len() < self.cap {
            self.pages.push(p);
            return None;
        }
        let old = std::mem::replace(&mut self.pages[self.oldest], p);
        self.oldest = if self.oldest + 1 == self.cap { 0 } else { self.oldest + 1 };
        Some(old)
    }
}

/// A FIFO page set approximating an LRU cache: `resident` has one bit per
/// page of the run, and `order` holds the resident pages oldest first.
#[derive(Debug, Clone)]
pub(crate) struct FifoCache {
    resident: Vec<u64>,
    order: Fifo,
}

impl FifoCache {
    /// Creates a cache holding at most `cap` of the pages `0..pages`.
    pub(crate) fn new(cap: usize, pages: u64) -> Self {
        let words = pages.div_ceil(64) as usize;
        FifoCache { resident: vec![0; words], order: Fifo::new(cap) }
    }

    /// The word of `resident` holding page `p`'s bit, and the bit.
    #[inline]
    fn slot(p: PageId) -> (usize, u64) {
        ((p.0 / 64) as usize, 1 << (p.0 % 64))
    }

    /// Whether the page is currently resident.
    #[inline]
    pub(crate) fn contains(&self, p: PageId) -> bool {
        let (word, bit) = Self::slot(p);
        self.resident[word] & bit != 0
    }

    /// Inserts a page, evicting the oldest resident if full. Inserting a
    /// resident page is a no-op (FIFO, not LRU: no refresh).
    #[inline]
    pub(crate) fn insert(&mut self, p: PageId) {
        if self.contains(p) || self.order.cap == 0 {
            return;
        }
        if let Some(old) = self.order.push(p) {
            let (word, bit) = Self::slot(old);
            self.resident[word] &= !bit;
        }
        let (word, bit) = Self::slot(p);
        self.resident[word] |= bit;
    }

    /// Number of resident pages.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.order.pages.len()
    }
}

/// One contiguous range of pages accessed by a strand, with an access
/// density (how many distinct lines per page the strand touches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// Region being accessed.
    pub region: RegionId,
    /// First page within the region.
    pub start_page: u64,
    /// Number of consecutive pages.
    pub pages: u64,
    /// Cache lines touched per page (1..=64).
    pub lines_per_page: u64,
}

/// A first-touch page whose home is not resolved yet, in
/// [`MemorySystem`]'s `homes`.
const UNRESOLVED: u8 = u8::MAX;

/// The whole memory subsystem state for one simulation run.
#[derive(Debug)]
pub(crate) struct MemorySystem {
    regions: Vec<Region>,
    /// Home place of every page, indexed by machine-wide page number;
    /// [`UNRESOLVED`] for a first-touch page until its first access.
    homes: Vec<u8>,
    /// Per page, bit `s` set while socket `s`'s shared LLC holds it.
    llc_holders: Vec<u64>,
    /// Each socket's shared LLC pages, oldest first.
    llc_order: Vec<Fifo>,
    /// One private cache per worker.
    privates: Vec<FifoCache>,
    /// Sockets in use.
    sockets: usize,
    /// numactl distance from socket `a` to socket `b` at `a * sockets + b`.
    distances: Vec<u32>,
    /// Each worker's place, which is the index of its socket's LLC.
    worker_socket: Vec<usize>,
    /// Per-socket (epoch id, remote lines this epoch).
    qpi_load: Vec<(u64, u64)>,
    /// Count of accesses per service class: [private, llc_local,
    /// llc_remote, dram_local, dram_remote] (line granularity).
    pub(crate) class_lines: [u64; 5],
}

impl MemorySystem {
    /// Builds the memory system for a run: resolves page homes from each
    /// region's policy given the number of places in use.
    ///
    /// # Panics
    ///
    /// Panics if the run uses more than 64 places, the width of a page's
    /// LLC mask.
    pub(crate) fn new(topo: &Topology, map: &WorkerMap, regions: Vec<Region>) -> Self {
        let places = map.num_places();
        assert!(places <= 64, "{places} places: the memory model holds at most 64");
        let total_pages: u64 = regions.iter().map(|r| r.pages).sum();
        let mut homes = Vec::with_capacity(total_pages as usize);
        for r in &regions {
            homes.extend((0..r.pages).map(|p| match &r.policy {
                PagePolicy::Bind(pl) => (pl % places) as u8,
                PagePolicy::Interleave => (p % places as u64) as u8,
                PagePolicy::FirstTouch => UNRESOLVED,
                PagePolicy::Chunked { chunks } => {
                    let chunk = (p * *chunks as u64 / r.pages) as usize;
                    (chunk % places) as u8
                }
            }));
        }
        MemorySystem {
            homes,
            llc_holders: vec![0; total_pages as usize],
            llc_order: (0..places).map(|_| Fifo::new(LLC_PAGES)).collect(),
            privates: (0..map.num_workers())
                .map(|_| FifoCache::new(PRIVATE_PAGES, total_pages))
                .collect(),
            sockets: places,
            distances: (0..places * places)
                .map(|i| topo.distances().distance(Place(i / places), Place(i % places)))
                .collect(),
            worker_socket: (0..map.num_workers()).map(|w| map.place_of(w).0).collect(),
            qpi_load: vec![(0, 0); places],
            class_lines: [0; 5],
            regions,
        }
    }

    /// Hop count between two sockets derived from the numactl distance,
    /// rounding to the nearest tier (10 → 0 hops, 21 → 1, 31 → 2, ...).
    #[inline]
    fn hops(&self, a: usize, b: usize) -> u64 {
        let d = u64::from(self.distances[a * self.sockets + b]);
        ((d.saturating_sub(10) + 5) / 10).min(4)
    }

    /// Charges one [`Touch`] performed by `worker` at simulated time `now`
    /// and returns its cost in cycles. Updates cache state and
    /// interconnect load.
    ///
    /// # Panics
    ///
    /// Panics if the touch reaches past its region.
    pub(crate) fn access(&mut self, worker: usize, touch: &Touch, now: u64) -> u64 {
        let r = &self.regions[touch.region.0];
        let end = touch.start_page + touch.pages;
        if touch.pages > 0 && end > r.pages {
            let page = touch.start_page.max(r.pages);
            panic!("page {page} outside region '{}' ({} pages)", r.name, r.pages);
        }
        let first = r.first_page + touch.start_page;
        let mut cost = 0u64;
        let my_socket = self.worker_socket[worker];
        let lines = touch.lines_per_page.clamp(1, LINES_PER_PAGE);
        // Streaming runs (full pages, several in a row) are prefetchable.
        let streaming = touch.pages >= 2 && lines == LINES_PER_PAGE;
        for page in first..first + touch.pages {
            cost += self.access_page(worker, my_socket, PageId(page), lines, streaming, now);
        }
        cost
    }

    /// The current QPI multiplier for remote lines leaving `socket`
    /// (in hundredths, so 100 = no slowdown), charging `lines` to the
    /// epoch counter.
    fn qpi_multiplier(&mut self, socket: usize, lines: u64, now: u64) -> u64 {
        let epoch = now / EPOCH_CYCLES;
        let (cur, load) = &mut self.qpi_load[socket];
        if epoch > *cur {
            // Decay rather than hard-reset so bursts straddling an epoch
            // boundary still count.
            let gap = epoch - *cur;
            *load = if gap >= 8 { 0 } else { *load >> gap };
            *cur = epoch;
        }
        *load += lines;
        let ratio = *load as f64 / QPI_LINES_PER_EPOCH as f64;
        let m = (1.0 + QPI_SLOPE * (ratio - 1.0).max(0.0)).min(QPI_MAX_MULTIPLIER);
        (m * 100.0) as u64
    }

    fn access_page(
        &mut self,
        worker: usize,
        my_socket: usize,
        page: PageId,
        lines: u64,
        streaming: bool,
        now: u64,
    ) -> u64 {
        if self.privates[worker].contains(page) {
            self.class_lines[0] += lines;
            return lines * PRIVATE_HIT;
        }
        let mut remote = false;
        let holders = self.llc_holders[page.0 as usize];
        let per_line = if holders & (1 << my_socket) != 0 {
            self.class_lines[1] += lines;
            LLC_LOCAL
        } else {
            let per_line = if holders != 0 {
                self.class_lines[2] += lines;
                remote = true;
                let h = self.hops(my_socket, self.nearest(holders, my_socket));
                LLC_REMOTE_BASE + LLC_REMOTE_PER_HOP * h
            } else {
                // First-touch pages home on their first accessor's socket.
                let home = &mut self.homes[page.0 as usize];
                if *home == UNRESOLVED {
                    *home = my_socket as u8;
                }
                let home = usize::from(*home);
                let h = self.hops(my_socket, home);
                if h == 0 {
                    self.class_lines[3] += lines;
                    DRAM_LOCAL
                } else {
                    self.class_lines[4] += lines;
                    remote = true;
                    DRAM_LOCAL + DRAM_REMOTE_PER_HOP * h
                }
            };
            // The fetched page becomes resident in the local LLC.
            if let Some(old) = self.llc_order[my_socket].push(page) {
                self.llc_holders[old.0 as usize] &= !(1 << my_socket);
            }
            self.llc_holders[page.0 as usize] |= 1 << my_socket;
            per_line
        };
        self.privates[worker].insert(page);
        let mut cost = lines * per_line;
        if streaming {
            cost = cost * STREAM_DISCOUNT_PCT / 100;
        } else {
            cost += PAGE_PENALTY;
        }
        if remote {
            cost = cost * self.qpi_multiplier(my_socket, lines, now) / 100;
        }
        cost
    }

    /// The socket of `holders`, a nonempty LLC mask without `my_socket`,
    /// nearest to `my_socket`; a tie goes to the lowest socket.
    #[inline]
    fn nearest(&self, mut holders: u64, my_socket: usize) -> usize {
        let row = &self.distances[my_socket * self.sockets..][..self.sockets];
        let mut best = holders.trailing_zeros() as usize;
        holders &= holders - 1;
        while holders != 0 {
            let s = holders.trailing_zeros() as usize;
            if row[s] < row[best] {
                best = s;
            }
            holders &= holders - 1;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_topology::presets;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::{HashSet, VecDeque};

    fn system(workers: usize, regions: Vec<Region>) -> MemorySystem {
        let topo = presets::paper_machine();
        let map = WorkerMap::new(&topo, workers, topo.packed_places(workers)).unwrap();
        MemorySystem::new(&topo, &map, regions)
    }

    fn one_region(pages: u64, policy: PagePolicy) -> Vec<Region> {
        vec![Region { name: "a".into(), first_page: 0, pages, policy }]
    }

    #[test]
    fn fifo_cache_evicts_oldest() {
        let mut c = FifoCache::new(2, 8);
        c.insert(PageId(1));
        c.insert(PageId(2));
        c.insert(PageId(3));
        assert!(!c.contains(PageId(1)));
        assert!(c.contains(PageId(2)));
        assert!(c.contains(PageId(3)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn fifo_cache_reinsert_is_noop() {
        let mut c = FifoCache::new(2, 8);
        c.insert(PageId(1));
        c.insert(PageId(1));
        c.insert(PageId(2));
        c.insert(PageId(3)); // evicts 1, not 2
        assert!(c.contains(PageId(2)));
        assert!(c.contains(PageId(3)));
    }

    #[test]
    fn zero_capacity_cache_never_holds() {
        let mut c = FifoCache::new(0, 8);
        c.insert(PageId(1));
        assert!(!c.contains(PageId(1)));
        assert_eq!(c.len(), 0);
    }

    /// The hashed FIFO the bitset cache replaced, kept as its oracle.
    struct HashFifo {
        set: HashSet<PageId>,
        order: VecDeque<PageId>,
        cap: usize,
    }

    impl HashFifo {
        fn insert(&mut self, p: PageId) {
            if self.set.contains(&p) {
                return;
            }
            if self.set.len() == self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
            if self.cap > 0 {
                self.set.insert(p);
                self.order.push_back(p);
            }
        }
    }

    #[test]
    fn fifo_cache_matches_hashed_oracle() {
        let mut rng = SmallRng::seed_from_u64(0xF1F0);
        for cap in [0, 1, 2, 64, 4096] {
            // `(pages, ids, stride)`: ids `0, stride, 2·stride, ...` out of
            // a run of `pages`. Dense ids revisit neighbouring bits of few
            // words; sparse ones sit one per word, far apart.
            let runs = [
                (96u64, 96u64, 1u64),
                (65, 65, 1),
                (4096, 4096, 1),
                (5000, 80, 61),
                (4096, 61, 67),
            ];
            for (pages, ids, stride) in runs {
                let mut fast = FifoCache::new(cap, pages);
                let mut oracle = HashFifo { set: HashSet::new(), order: VecDeque::new(), cap };
                for _ in 0..20_000 {
                    let p = PageId(rng.next_u64() % ids * stride);
                    if rng.next_u32() % 4 == 0 {
                        assert_eq!(fast.contains(p), oracle.set.contains(&p), "cap {cap}");
                    } else {
                        fast.insert(p);
                        oracle.insert(p);
                    }
                    assert_eq!(fast.len(), oracle.set.len(), "cap {cap}");
                    assert_eq!(fast.contains(p), oracle.set.contains(&p), "cap {cap}");
                }
                for q in 0..pages {
                    assert_eq!(fast.contains(PageId(q)), oracle.set.contains(&PageId(q)));
                }
            }
        }
    }

    #[test]
    fn nearest_llc_holder_breaks_ties_by_lowest_socket() {
        // On the paper machine's index ring, sockets 1 and 3 are both one
        // hop from socket 0.
        let mut sys = system(32, one_region(1, PagePolicy::Bind(1)));
        assert_eq!(sys.distances[1], sys.distances[3]);
        let t = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 1 };
        // Workers 3 and 1 fault the page into sockets 3 and 1, higher first.
        sys.access(3, &t, 0);
        sys.access(1, &t, 0);
        assert_eq!(sys.llc_holders[0], 0b1010, "sockets 1 and 3 hold the page");
        assert_eq!(sys.nearest(sys.llc_holders[0], 0), 1);
        assert_eq!(sys.nearest(sys.llc_holders[0], 2), 1);
    }

    #[test]
    fn bind_policy_homes_on_bound_socket() {
        let sys = system(32, one_region(8, PagePolicy::Bind(2)));
        for p in 0..8 {
            assert_eq!(sys.homes[p], 2);
        }
    }

    #[test]
    fn first_touch_resolves_to_first_accessor() {
        let mut sys = system(32, one_region(8, PagePolicy::FirstTouch));
        assert_eq!(sys.homes[0], UNRESOLVED, "unresolved before any access");
        // Worker 2 (socket 2 under packed round-robin) touches page 0 first.
        let t = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 1 };
        sys.access(2, &t, 0);
        assert_eq!(sys.homes[0], 2);
        // A later accessor does not move the page.
        sys.access(0, &t, 0);
        assert_eq!(sys.homes[0], 2);
    }

    #[test]
    fn first_touch_is_local_for_the_toucher() {
        let mut sys = system(32, one_region(2, PagePolicy::FirstTouch));
        let t = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 1 };
        // First access pays local DRAM (it homes the page right here).
        assert_eq!(sys.access(5, &t, 0), DRAM_LOCAL + PAGE_PENALTY);
    }

    #[test]
    fn interleave_round_robins() {
        let sys = system(32, one_region(8, PagePolicy::Interleave));
        assert_eq!(sys.homes, [0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn chunked_splits_contiguously() {
        let sys = system(32, one_region(8, PagePolicy::Chunked { chunks: 4 }));
        assert_eq!(sys.homes, [0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn chunked_wraps_when_more_chunks_than_places() {
        let topo = presets::paper_machine();
        let map = WorkerMap::new(&topo, 4, 2).unwrap();
        let sys = MemorySystem::new(&topo, &map, one_region(4, PagePolicy::Chunked { chunks: 4 }));
        assert_eq!(sys.homes, [0, 1, 0, 1]);
    }

    #[test]
    fn local_dram_then_llc_then_private() {
        let mut sys = system(32, one_region(1, PagePolicy::Bind(0)));
        let touch = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 64 };
        // Worker 0 is on socket 0: first access from local DRAM (plus the
        // page penalty — a single page is not a prefetchable stream)...
        assert_eq!(sys.access(0, &touch, 0), 64 * DRAM_LOCAL + PAGE_PENALTY);
        // ...then from the private cache (no penalty on private hits)...
        assert_eq!(sys.access(0, &touch, 0), 64 * PRIVATE_HIT);
        // ...and a different worker on the same socket hits the LLC.
        let w_same_socket = 4; // packed round-robin: worker 4 is on socket 0
        assert_eq!(sys.access(w_same_socket, &touch, 0), 64 * LLC_LOCAL + PAGE_PENALTY);
    }

    #[test]
    fn remote_dram_costs_more_with_hops() {
        let mut sys = system(32, one_region(2, PagePolicy::Bind(0)));
        // Worker 1 is on socket 1 (one hop), worker 2 on socket 2 (two hops
        // on the index ring).
        let t0 = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 1 };
        let one_hop = sys.access(1, &t0, 0);
        let t1 = Touch { region: RegionId(0), start_page: 1, pages: 1, lines_per_page: 1 };
        let two_hop = sys.access(2, &t1, 0);
        assert_eq!(one_hop, DRAM_LOCAL + DRAM_REMOTE_PER_HOP + PAGE_PENALTY);
        assert_eq!(two_hop, DRAM_LOCAL + 2 * DRAM_REMOTE_PER_HOP + PAGE_PENALTY);
    }

    #[test]
    fn remote_llc_probe_cheaper_than_remote_dram() {
        let mut sys = system(32, one_region(1, PagePolicy::Bind(2)));
        let t = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 1 };
        // Socket-2 worker faults it into socket 2's LLC from local DRAM.
        assert_eq!(sys.access(2, &t, 0), DRAM_LOCAL + PAGE_PENALTY);
        // A socket-0 worker now finds it in socket 2's (remote) LLC, 2 hops.
        let remote_llc = sys.access(0, &t, 0);
        assert_eq!(remote_llc, LLC_REMOTE_BASE + 2 * LLC_REMOTE_PER_HOP + PAGE_PENALTY);
        assert!(remote_llc < DRAM_LOCAL + 2 * DRAM_REMOTE_PER_HOP + PAGE_PENALTY);
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn out_of_region_access_panics() {
        let mut sys = system(4, one_region(1, PagePolicy::Bind(0)));
        let t = Touch { region: RegionId(0), start_page: 5, pages: 1, lines_per_page: 1 };
        sys.access(0, &t, 0);
    }
}

#[cfg(test)]
mod contention_tests {
    use super::*;
    use nws_topology::presets;

    /// Pages of the region bound to socket 0; the socket-1 region follows.
    const NEAR_PAGES: u64 = 40_000;

    /// 32 packed workers over a large socket-0 region `a` and a small
    /// socket-1 region `b`. Each touch below reads a page no worker has
    /// read before, so no cache holds it and DRAM serves it.
    fn system() -> MemorySystem {
        let topo = presets::paper_machine();
        let map = WorkerMap::new(&topo, 32, 4).unwrap();
        let region = |name: &str, first_page, pages, socket| Region {
            name: name.into(),
            first_page,
            pages,
            policy: PagePolicy::Bind(socket),
        };
        MemorySystem::new(
            &topo,
            &map,
            vec![region("a", 0, NEAR_PAGES, 0), region("b", NEAR_PAGES, 1_000, 1)],
        )
    }

    /// One full page of region `region`, not streamed.
    fn page(region: usize, page: u64) -> Touch {
        Touch { region: RegionId(region), start_page: page, pages: 1, lines_per_page: 64 }
    }

    /// Worker 1 (socket 1) reads `pages` fresh socket-0 pages from `first`
    /// at `now`: `64 · pages` remote lines over its link.
    fn flood(sys: &mut MemorySystem, first: u64, pages: u64, now: u64) {
        for p in first..first + pages {
            sys.access(1, &page(0, p), now);
        }
    }

    /// One fresh full page of remote DRAM one hop away, at full speed.
    const ONE_HOP_PAGE: u64 = 64 * (DRAM_LOCAL + DRAM_REMOTE_PER_HOP) + PAGE_PENALTY;

    #[test]
    fn remote_cost_grows_under_saturation() {
        // Worker 1 (socket 1) reads socket-0 pages: remote, 1 hop.
        let mut sys = system();
        let early = sys.access(1, &page(0, 0), 0);
        assert_eq!(early, ONE_HOP_PAGE, "an idle link runs at full speed");
        // Well past the link's lines per epoch.
        let pages = 4 * QPI_LINES_PER_EPOCH / 64;
        flood(&mut sys, 1, pages, 0);
        let late = sys.access(1, &page(0, pages + 1), 0);
        assert!(late > early, "saturated link must cost more: {late} vs {early}");
        assert_eq!(late, early * QPI_MAX_MULTIPLIER as u64, "multiplier must be capped");
    }

    #[test]
    fn local_accesses_never_pay_contention() {
        // Worker 1 (socket 1) reads socket-1 pages: local DRAM, 1 page at
        // a time (not streaming), before and after saturating its link.
        let mut sys = system();
        let a = sys.access(1, &page(1, 0), 0);
        flood(&mut sys, 0, 4 * QPI_LINES_PER_EPOCH / 64, 0);
        let saturated = sys.access(1, &page(0, NEAR_PAGES - 1), 0);
        assert!(saturated > ONE_HOP_PAGE, "the link is saturated");
        let b = sys.access(1, &page(1, 1), 0);
        assert_eq!(a, b, "local DRAM cost must not inflate");
        assert_eq!(a, 64 * DRAM_LOCAL + PAGE_PENALTY);
    }

    #[test]
    fn epoch_rollover_decays_load() {
        // Saturate in epoch 0.
        let mut sys = system();
        let pages = 4 * QPI_LINES_PER_EPOCH / 64;
        flood(&mut sys, 0, pages, 0);
        let saturated = sys.access(1, &page(0, pages), 0);
        // One epoch later the load has halved; far in the future it is 0.
        let halved = sys.access(1, &page(0, pages + 1), EPOCH_CYCLES);
        let relaxed = sys.access(1, &page(0, pages + 2), 1_000 * EPOCH_CYCLES);
        assert!(relaxed < halved && halved < saturated, "load must decay across epochs");
        assert_eq!(relaxed, ONE_HOP_PAGE);
    }

    #[test]
    fn streaming_touch_discounted() {
        // 8 full pages in one streaming run vs the same pages one by one.
        let mut sys = system();
        let streamed = sys.access(
            0,
            &Touch { region: RegionId(0), start_page: 0, pages: 8, lines_per_page: 64 },
            0,
        );
        let mut sys = system();
        let scattered: u64 = (0..8).map(|i| sys.access(0, &page(0, i), 0)).sum();
        assert_eq!(streamed, 8 * 64 * DRAM_LOCAL * STREAM_DISCOUNT_PCT / 100);
        assert_eq!(scattered, 8 * (64 * DRAM_LOCAL + PAGE_PENALTY));
        assert!(streamed < scattered);
    }

    #[test]
    fn partial_line_touches_not_discounted() {
        // Multi-page but sparse (4 lines/page): no prefetch credit.
        let mut sys = system();
        let c = sys.access(
            0,
            &Touch { region: RegionId(0), start_page: 0, pages: 4, lines_per_page: 4 },
            0,
        );
        assert_eq!(c, 4 * (4 * DRAM_LOCAL + PAGE_PENALTY));
    }
}
