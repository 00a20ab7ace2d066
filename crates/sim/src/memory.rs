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
//!   fit, not replacement nuance). Each set is a residency bitset over
//!   every page of the run plus a ring of its pages in arrival order, so
//!   a lookup is one word load and a miss costs no hashing;
//! - an access is charged per cache line according to where it is serviced:
//!   private cache, local LLC, a remote LLC (probe across `h` hops), local
//!   DRAM, or remote DRAM across `h` hops — the five latency classes §I
//!   describes.

use nws_topology::{Place, SocketId, Topology, WorkerMap};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

/// Latency model, in cycles **per cache line**, for each service class.
///
/// Defaults follow the paper's §I characterization of the Figure 1 machine:
/// tens of cycles from the local LLC, over a hundred from local DRAM or a
/// remote LLC, a few hundred from remote DRAM — scaled to per-line stream
/// costs (hardware prefetching hides part of raw latency on the streaming
/// access patterns the benchmarks use).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Hit in the worker's private (L1/L2) cache.
    pub private_hit: u64,
    /// Hit in the local shared LLC.
    pub llc_local: u64,
    /// Line found in a remote LLC: base cost plus per-hop cost.
    pub llc_remote_base: u64,
    /// Extra cycles per QPI hop for a remote LLC probe.
    pub llc_remote_per_hop: u64,
    /// Local DRAM service.
    pub dram_local: u64,
    /// Extra cycles per QPI hop for remote DRAM.
    pub dram_remote_per_hop: u64,
    /// Per-page cost (TLB fill / page walk) charged when a *non-streaming*
    /// touch misses the private cache — short scattered runs pay it, long
    /// prefetchable streams amortize it away. This is what penalizes
    /// row-major blocks whose rows land on distinct pages (§III-C).
    pub page_penalty: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            private_hit: 2,
            llc_local: 12,
            llc_remote_base: 60,
            llc_remote_per_hop: 40,
            dram_local: 70,
            dram_remote_per_hop: 90,
            page_penalty: 40,
        }
    }
}

/// Interconnect bandwidth contention: remote lines flow over per-socket
/// QPI links of finite bandwidth, so remote traffic beyond the link
/// capacity inflates remote costs. This is the second-order effect behind
/// the paper's largest inflation numbers (many workers streaming remote
/// bands saturate the links, not just the latency). Modeled per epoch:
/// each socket's remote-line count within an epoch window sets a cost
/// multiplier for further remote lines from that socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionModel {
    /// Epoch window in cycles.
    pub epoch_cycles: u64,
    /// Remote lines per epoch a socket's links absorb at full speed
    /// (~16 GB/s QPI at 2.2 GHz ≈ 0.11 lines/cycle).
    pub qpi_lines_per_epoch: u64,
    /// Cost multiplier slope beyond capacity: `m = 1 + coeff * excess`.
    pub coefficient: f64,
    /// Upper bound on the multiplier.
    pub max_multiplier: f64,
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel {
            epoch_cycles: 100_000,
            qpi_lines_per_epoch: 3_000,
            coefficient: 3.0,
            max_multiplier: 5.0,
        }
    }
}

impl ContentionModel {
    /// A model with contention disabled (multiplier always 1).
    pub fn off() -> Self {
        ContentionModel { coefficient: 0.0, ..Self::default() }
    }
}

/// Fraction (percent) of the memory cost paid by *streaming* touches —
/// whole-page, multi-page runs that the hardware prefetcher can pipeline.
/// Short scattered runs (e.g. one row of a row-major matrix block) pay
/// full cost; this is the §III-C mechanism that makes the blocked Z-Morton
/// layout "traverse the matrices in a way that enables the prefetcher".
pub const STREAM_DISCOUNT_PCT: u64 = 45;

/// Capacities of the modeled caches, in pages.
///
/// Defaults match the paper's machine: 32 KiB L1d + 256 KiB L2 per core
/// (~72 pages, rounded to 64) and a 16 MiB LLC per socket (4096 pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Private per-worker cache capacity in pages.
    pub private_pages: usize,
    /// Shared per-socket LLC capacity in pages.
    pub llc_pages: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { private_pages: 64, llc_pages: 4096 }
    }
}

/// A FIFO page set approximating an LRU cache: `resident` has one bit per
/// page of the run, and `order` holds the resident pages oldest first.
#[derive(Debug, Clone)]
pub(crate) struct FifoCache {
    resident: Vec<u64>,
    order: VecDeque<PageId>,
    cap: usize,
}

impl FifoCache {
    /// Creates a cache holding at most `cap` of the pages `0..pages`.
    pub(crate) fn new(cap: usize, pages: u64) -> Self {
        let words = pages.div_ceil(64) as usize;
        FifoCache { resident: vec![0; words], order: VecDeque::new(), cap }
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
        if self.contains(p) || self.cap == 0 {
            return;
        }
        if self.order.len() == self.cap {
            let (word, bit) =
                Self::slot(self.order.pop_front().expect("a full cache holds a page"));
            self.resident[word] &= !bit;
        }
        let (word, bit) = Self::slot(p);
        self.resident[word] |= bit;
        self.order.push_back(p);
    }

    /// Number of resident pages.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.order.len()
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

/// The whole memory subsystem state for one simulation run.
#[derive(Debug)]
pub(crate) struct MemorySystem {
    regions: Vec<Region>,
    /// Home socket of every page, indexed by machine-wide page number;
    /// `None` = unresolved first-touch page (homes on first access).
    homes: Vec<Option<SocketId>>,
    /// One shared LLC per socket.
    llcs: Vec<FifoCache>,
    /// One private cache per worker.
    privates: Vec<FifoCache>,
    latency: LatencyModel,
    contention: ContentionModel,
    topo_distances: Vec<Vec<u32>>, // [socket][socket] hop-scaled distance
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
    pub(crate) fn new(
        topo: &Topology,
        map: &WorkerMap,
        regions: Vec<Region>,
        latency: LatencyModel,
        caches: CacheConfig,
        contention: ContentionModel,
    ) -> Self {
        let places = map.num_places();
        let total_pages: u64 = regions.iter().map(|r| r.pages).sum();
        let mut homes = Vec::with_capacity(total_pages as usize);
        for r in &regions {
            for p in 0..r.pages {
                let place_idx = match &r.policy {
                    PagePolicy::Bind(pl) => pl % places,
                    PagePolicy::Interleave => (p % places as u64) as usize,
                    PagePolicy::FirstTouch => {
                        homes.push(None); // resolved on first access
                        continue;
                    }
                    PagePolicy::Chunked { chunks } => {
                        let chunk = (p * *chunks as u64 / r.pages) as usize;
                        chunk % places
                    }
                };
                homes.push(Some(map.socket_of_place(Place(place_idx))));
            }
        }
        let n_sockets = topo.num_sockets();
        let mut dist = vec![vec![0u32; n_sockets]; n_sockets];
        for (a, row) in dist.iter_mut().enumerate() {
            for (b, cell) in row.iter_mut().enumerate() {
                *cell = topo.distances().distance(SocketId(a), SocketId(b));
            }
        }
        MemorySystem {
            homes,
            llcs: (0..n_sockets).map(|_| FifoCache::new(caches.llc_pages, total_pages)).collect(),
            privates: (0..map.num_workers())
                .map(|_| FifoCache::new(caches.private_pages, total_pages))
                .collect(),
            latency,
            contention,
            topo_distances: dist,
            worker_socket: (0..map.num_workers()).map(|w| map.socket_of(w).0).collect(),
            qpi_load: vec![(0, 0); n_sockets],
            class_lines: [0; 5],
            regions,
        }
    }

    /// Hop count between two sockets derived from the numactl distance,
    /// rounding to the nearest tier (10 → 0 hops, 21 → 1, 31 → 2, ...).
    #[inline]
    fn hops(&self, a: usize, b: usize) -> u64 {
        let d = u64::from(self.topo_distances[a][b]);
        ((d.saturating_sub(10) + 5) / 10).min(4)
    }

    /// Machine-wide page id for `(region, page_within_region)`.
    ///
    /// # Panics
    ///
    /// Panics if the page is outside the region.
    #[inline]
    fn page_id(&self, region: RegionId, page: u64) -> PageId {
        let r = &self.regions[region.0];
        assert!(page < r.pages, "page {page} outside region '{}' ({} pages)", r.name, r.pages);
        PageId(r.first_page + page)
    }

    /// Charges one [`Touch`] performed by `worker` at simulated time `now`
    /// and returns its cost in cycles. Updates cache state and
    /// interconnect load.
    pub(crate) fn access(&mut self, worker: usize, touch: &Touch, now: u64) -> u64 {
        let mut cost = 0u64;
        let my_socket = self.worker_socket[worker];
        let lines = touch.lines_per_page.clamp(1, LINES_PER_PAGE);
        // Streaming runs (full pages, several in a row) are prefetchable.
        let streaming = touch.pages >= 2 && lines == LINES_PER_PAGE;
        for p in touch.start_page..touch.start_page + touch.pages {
            let page = self.page_id(touch.region, p);
            cost += self.access_page(worker, my_socket, page, lines, streaming, now);
        }
        cost
    }

    /// The current QPI multiplier for remote lines leaving `socket`
    /// (in hundredths, so 100 = no slowdown), charging `lines` to the
    /// epoch counter.
    fn qpi_multiplier(&mut self, socket: usize, lines: u64, now: u64) -> u64 {
        if self.contention.coefficient == 0.0 {
            return 100;
        }
        let epoch = now / self.contention.epoch_cycles.max(1);
        let (cur, load) = &mut self.qpi_load[socket];
        if epoch > *cur {
            // Decay rather than hard-reset so bursts straddling an epoch
            // boundary still count.
            let gap = epoch - *cur;
            *load = if gap >= 8 { 0 } else { *load >> gap };
            *cur = epoch;
        }
        *load += lines;
        let ratio = *load as f64 / self.contention.qpi_lines_per_epoch.max(1) as f64;
        let m = (1.0 + self.contention.coefficient * (ratio - 1.0).max(0.0))
            .min(self.contention.max_multiplier);
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
            return lines * self.latency.private_hit;
        }
        let mut remote = false;
        let per_line = if self.llcs[my_socket].contains(page) {
            self.class_lines[1] += lines;
            self.latency.llc_local
        } else if let Some(holder) = self.nearest_llc_holder(page, my_socket) {
            self.class_lines[2] += lines;
            remote = true;
            let h = self.hops(my_socket, holder);
            self.latency.llc_remote_base + self.latency.llc_remote_per_hop * h
        } else {
            // First-touch pages home on their first accessor's socket.
            let home = self.homes[page.0 as usize].get_or_insert(SocketId(my_socket)).0;
            let h = self.hops(my_socket, home);
            if h == 0 {
                self.class_lines[3] += lines;
                self.latency.dram_local
            } else {
                self.class_lines[4] += lines;
                remote = true;
                self.latency.dram_local + self.latency.dram_remote_per_hop * h
            }
        };
        // The fetched page becomes resident locally.
        self.llcs[my_socket].insert(page);
        self.privates[worker].insert(page);
        let mut cost = lines * per_line;
        if streaming {
            cost = cost * STREAM_DISCOUNT_PCT / 100;
        } else {
            cost += self.latency.page_penalty;
        }
        if remote {
            cost = cost * self.qpi_multiplier(my_socket, lines, now) / 100;
        }
        cost
    }

    fn nearest_llc_holder(&self, page: PageId, my_socket: usize) -> Option<usize> {
        (0..self.llcs.len())
            .filter(|&s| s != my_socket && self.llcs[s].contains(page))
            .min_by_key(|&s| self.topo_distances[my_socket][s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_topology::{presets, Placement};
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::HashSet;

    fn system(workers: usize, regions: Vec<Region>) -> MemorySystem {
        let topo = presets::paper_machine();
        let map = Placement::Packed.assign(&topo, workers).unwrap();
        MemorySystem::new(
            &topo,
            &map,
            regions,
            LatencyModel::default(),
            CacheConfig::default(),
            ContentionModel::off(),
        )
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
        assert_eq!(sys.topo_distances[0][1], sys.topo_distances[0][3]);
        let t = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 1 };
        // Workers 3 and 1 fault the page into sockets 3 and 1, higher first.
        sys.access(3, &t, 0);
        sys.access(1, &t, 0);
        assert!(sys.llcs[1].contains(PageId(0)) && sys.llcs[3].contains(PageId(0)));
        assert!(!sys.llcs[2].contains(PageId(0)));
        assert_eq!(sys.nearest_llc_holder(PageId(0), 0), Some(1));
        assert_eq!(sys.nearest_llc_holder(PageId(0), 2), Some(1));
    }

    #[test]
    fn bind_policy_homes_on_bound_socket() {
        let sys = system(32, one_region(8, PagePolicy::Bind(2)));
        for p in 0..8 {
            assert_eq!(sys.homes[p], Some(SocketId(2)));
        }
    }

    #[test]
    fn first_touch_resolves_to_first_accessor() {
        let mut sys = system(32, one_region(8, PagePolicy::FirstTouch));
        assert_eq!(sys.homes[0], None, "unresolved before any access");
        // Worker 2 (socket 2 under packed round-robin) touches page 0 first.
        let t = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 1 };
        sys.access(2, &t, 0);
        assert_eq!(sys.homes[0], Some(SocketId(2)));
        // A later accessor does not move the page.
        sys.access(0, &t, 0);
        assert_eq!(sys.homes[0], Some(SocketId(2)));
    }

    #[test]
    fn first_touch_is_local_for_the_toucher() {
        let mut sys = system(32, one_region(2, PagePolicy::FirstTouch));
        let lat = LatencyModel::default();
        let t = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 1 };
        // First access pays local DRAM (it homes the page right here).
        assert_eq!(sys.access(5, &t, 0), lat.dram_local + lat.page_penalty);
    }

    #[test]
    fn interleave_round_robins() {
        let sys = system(32, one_region(8, PagePolicy::Interleave));
        let homes: Vec<usize> = (0..8).map(|p| sys.homes[p].unwrap().0).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn chunked_splits_contiguously() {
        let sys = system(32, one_region(8, PagePolicy::Chunked { chunks: 4 }));
        let homes: Vec<usize> = (0..8).map(|p| sys.homes[p].unwrap().0).collect();
        assert_eq!(homes, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn chunked_wraps_when_more_chunks_than_places() {
        let topo = presets::paper_machine();
        let map = Placement::Spread { sockets: 2 }.assign(&topo, 4).unwrap();
        let sys = MemorySystem::new(
            &topo,
            &map,
            one_region(4, PagePolicy::Chunked { chunks: 4 }),
            LatencyModel::default(),
            CacheConfig::default(),
            ContentionModel::off(),
        );
        let homes: Vec<usize> = (0..4).map(|p| sys.homes[p].unwrap().0).collect();
        assert_eq!(homes, vec![0, 1, 0, 1]);
    }

    #[test]
    fn local_dram_then_llc_then_private() {
        let mut sys = system(32, one_region(1, PagePolicy::Bind(0)));
        let touch = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 64 };
        let lat = LatencyModel::default();
        // Worker 0 is on socket 0: first access from local DRAM (plus the
        // page penalty — a single page is not a prefetchable stream)...
        assert_eq!(sys.access(0, &touch, 0), 64 * lat.dram_local + lat.page_penalty);
        // ...then from the private cache (no penalty on private hits)...
        assert_eq!(sys.access(0, &touch, 0), 64 * lat.private_hit);
        // ...and a different worker on the same socket hits the LLC.
        let w_same_socket = 4; // packed round-robin: worker 4 is on socket 0
        assert_eq!(sys.access(w_same_socket, &touch, 0), 64 * lat.llc_local + lat.page_penalty);
    }

    #[test]
    fn remote_dram_costs_more_with_hops() {
        let mut sys = system(32, one_region(2, PagePolicy::Bind(0)));
        let lat = LatencyModel::default();
        // Worker 1 is on socket 1 (one hop), worker 2 on socket 2 (two hops
        // on the index ring).
        let t0 = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 1 };
        let one_hop = sys.access(1, &t0, 0);
        let t1 = Touch { region: RegionId(0), start_page: 1, pages: 1, lines_per_page: 1 };
        let two_hop = sys.access(2, &t1, 0);
        assert_eq!(one_hop, lat.dram_local + lat.dram_remote_per_hop + lat.page_penalty);
        assert_eq!(two_hop, lat.dram_local + 2 * lat.dram_remote_per_hop + lat.page_penalty);
    }

    #[test]
    fn remote_llc_probe_cheaper_than_remote_dram() {
        let mut sys = system(32, one_region(1, PagePolicy::Bind(2)));
        let lat = LatencyModel::default();
        let t = Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 1 };
        // Socket-2 worker faults it into socket 2's LLC from local DRAM.
        assert_eq!(sys.access(2, &t, 0), lat.dram_local + lat.page_penalty);
        // A socket-0 worker now finds it in socket 2's (remote) LLC, 2 hops.
        let remote_llc = sys.access(0, &t, 0);
        assert_eq!(remote_llc, lat.llc_remote_base + 2 * lat.llc_remote_per_hop + lat.page_penalty);
        assert!(remote_llc < lat.dram_local + 2 * lat.dram_remote_per_hop + lat.page_penalty);
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
    use nws_topology::{presets, Placement};

    fn system_with(contention: ContentionModel) -> MemorySystem {
        let topo = presets::paper_machine();
        let map = Placement::Packed.assign(&topo, 32).unwrap();
        MemorySystem::new(
            &topo,
            &map,
            vec![Region {
                name: "a".into(),
                first_page: 0,
                pages: 40_000,
                policy: PagePolicy::Bind(0),
            }],
            LatencyModel::default(),
            // Tiny caches so every access goes to DRAM.
            CacheConfig { private_pages: 0, llc_pages: 0 },
            contention,
        )
    }

    #[test]
    fn remote_cost_grows_under_saturation() {
        let mut sys = system_with(ContentionModel {
            epoch_cycles: 1_000_000,
            qpi_lines_per_epoch: 1_000,
            coefficient: 2.0,
            max_multiplier: 5.0,
        });
        // Worker 1 (socket 1) hammers socket-0 pages: remote, 1 hop.
        let early = sys.access(
            1,
            &Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 64 },
            0,
        );
        // Push the epoch counter far past capacity.
        for i in 1..200u64 {
            sys.access(
                1,
                &Touch { region: RegionId(0), start_page: i, pages: 1, lines_per_page: 64 },
                0,
            );
        }
        let late = sys.access(
            1,
            &Touch { region: RegionId(0), start_page: 300, pages: 1, lines_per_page: 64 },
            0,
        );
        assert!(late > early, "saturated link must cost more: {late} vs {early}");
        assert!(late <= early * 6, "multiplier must be capped");
    }

    #[test]
    fn local_accesses_never_pay_contention() {
        let mut sys = system_with(ContentionModel {
            epoch_cycles: 1_000_000,
            qpi_lines_per_epoch: 10,
            coefficient: 4.0,
            max_multiplier: 5.0,
        });
        // Worker 0 (socket 0) reads socket-0 pages: local DRAM, 1 page at a
        // time (not streaming).
        let a = sys.access(
            0,
            &Touch { region: RegionId(0), start_page: 0, pages: 1, lines_per_page: 64 },
            0,
        );
        let b = sys.access(
            0,
            &Touch { region: RegionId(0), start_page: 5_000, pages: 1, lines_per_page: 64 },
            0,
        );
        assert_eq!(a, b, "local DRAM cost must not inflate");
    }

    #[test]
    fn epoch_rollover_decays_load() {
        let c = ContentionModel {
            epoch_cycles: 1_000,
            qpi_lines_per_epoch: 100,
            coefficient: 2.0,
            max_multiplier: 5.0,
        };
        let mut sys = system_with(c);
        // Saturate in epoch 0.
        for i in 0..20u64 {
            sys.access(
                1,
                &Touch { region: RegionId(0), start_page: i, pages: 1, lines_per_page: 64 },
                0,
            );
        }
        let saturated = sys.access(
            1,
            &Touch { region: RegionId(0), start_page: 30, pages: 1, lines_per_page: 64 },
            0,
        );
        // Far future epoch: load decayed to zero.
        let relaxed = sys.access(
            1,
            &Touch { region: RegionId(0), start_page: 31, pages: 1, lines_per_page: 64 },
            1_000_000_000,
        );
        assert!(relaxed < saturated, "load must decay across epochs");
    }

    #[test]
    fn streaming_touch_discounted() {
        let topo = presets::paper_machine();
        let map = Placement::Packed.assign(&topo, 4).unwrap();
        let mk = || {
            MemorySystem::new(
                &topo,
                &map,
                vec![Region {
                    name: "a".into(),
                    first_page: 0,
                    pages: 64,
                    policy: PagePolicy::Bind(0),
                }],
                LatencyModel::default(),
                CacheConfig { private_pages: 0, llc_pages: 0 },
                ContentionModel::off(),
            )
        };
        // 8 full pages in one streaming run vs the same pages one by one.
        let mut sys = mk();
        let streamed = sys.access(
            0,
            &Touch { region: RegionId(0), start_page: 0, pages: 8, lines_per_page: 64 },
            0,
        );
        let mut sys = mk();
        let mut scattered = 0;
        for i in 0..8u64 {
            scattered += sys.access(
                0,
                &Touch { region: RegionId(0), start_page: i, pages: 1, lines_per_page: 64 },
                0,
            );
        }
        let lat = LatencyModel::default();
        assert_eq!(streamed, 8 * 64 * lat.dram_local * STREAM_DISCOUNT_PCT / 100);
        assert_eq!(scattered, 8 * (64 * lat.dram_local + lat.page_penalty));
        assert!(streamed < scattered);
    }

    #[test]
    fn partial_line_touches_not_discounted() {
        let topo = presets::paper_machine();
        let map = Placement::Packed.assign(&topo, 4).unwrap();
        let mut sys = MemorySystem::new(
            &topo,
            &map,
            vec![Region { name: "a".into(), first_page: 0, pages: 8, policy: PagePolicy::Bind(0) }],
            LatencyModel::default(),
            CacheConfig { private_pages: 0, llc_pages: 0 },
            ContentionModel::off(),
        );
        // Multi-page but sparse (4 lines/page): no prefetch credit.
        let c = sys.access(
            0,
            &Touch { region: RegionId(0), start_page: 0, pages: 4, lines_per_page: 4 },
            0,
        );
        let lat = LatencyModel::default();
        assert_eq!(c, 4 * (4 * lat.dram_local + lat.page_penalty));
    }
}
