//! `gcmark`: a GC mark-phase flood over a random object graph.
//!
//! The tracing half of a mark-sweep collector is the canonical *irregular*
//! work-stealing load: the frontier explodes and collapses with the graph's
//! shape, tasks touch pointer-chasing pages with no streaming pattern, and
//! duplicate discoveries race on the mark bitmap. None of the paper's seven
//! regular benchmarks exercises this; `gcmark` adds it to the suite so the
//! repo benchmark (perfbench's `fine_grain` and `sim_replay` workloads)
//! covers flood-style traversal too.
//!
//! The parallel marker floods a local worklist: a task pops nodes, sets
//! their mark bit (a load, then an atomic fetch-or through the `nws_sync`
//! facade only if the bit was clear — losing the race means someone else
//! owns the node), and appends the successors. Splitting is demand-driven:
//! the task hands the newest `chunk` entries to a fresh scope task only
//! when its list holds at least two chunks **and** its worker's deque is
//! empty ([`numa_ws::split_wanted`]). A thief thus finds one split to take
//! whenever the list is long enough, and a flood nobody steals runs as its
//! serial elision plus one split. The simulator DAG replays the *exact* BFS
//! wavefront of the same seeded graph: one serial phase per BFS level, each
//! fanning out over frontier chunks whose cycle counts and page touches
//! follow the real (irregular) frontier sizes.

use crate::common::{input_rng, pages_for};
use numa_ws::sync::atomic::{AtomicU64, Ordering};
use numa_ws::{scope, Place, Scope};
use nws_sim::{Dag, DagBuilder, PagePolicy, Strand, Touch};
use rand::Rng;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of heap objects (graph nodes).
    pub nodes: usize,
    /// Average out-degree; per-node degrees vary uniformly in
    /// `0..=2*avg_degree`, which is what makes the flood irregular.
    pub avg_degree: usize,
    /// Number of root nodes (first `roots` node ids).
    pub roots: usize,
    /// Worklist entries handed to a thief per split (the real runtime),
    /// and frontier nodes per leaf task (the simulator DAG).
    pub chunk: usize,
    /// Input seed.
    pub seed: u64,
}

impl Params {
    /// Simulator-scale configuration.
    pub fn sim() -> Self {
        Params { nodes: 1 << 15, avg_degree: 4, roots: 4, chunk: 128, seed: 0xC0FFEE }
    }

    /// Tiny configuration for tests.
    pub fn test() -> Self {
        Params { nodes: 2_000, avg_degree: 3, roots: 3, chunk: 32, seed: 7 }
    }
}

/// A heap snapshot in CSR form: `successors(v)` are the objects `v` points
/// to.
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<usize>,
    edges: Vec<u32>,
}

impl Graph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-neighbours of `v`.
    fn successors(&self, v: u32) -> &[u32] {
        &self.edges[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// A seeded random object graph with irregular out-degrees.
pub fn random_graph(p: Params) -> Graph {
    let mut rng = input_rng(p.seed);
    let mut offsets = Vec::with_capacity(p.nodes + 1);
    let mut edges = Vec::new();
    offsets.push(0);
    for _ in 0..p.nodes {
        let deg = rng.gen_range(0..=2 * p.avg_degree);
        for _ in 0..deg {
            edges.push(rng.gen_range(0..p.nodes as u32));
        }
        offsets.push(edges.len());
    }
    Graph { offsets, edges }
}

// ---------------------------------------------------------------------------
// Serial elision
// ---------------------------------------------------------------------------

/// Serial mark: depth-first flood from the roots; returns the mark vector.
pub fn run_serial(g: &Graph, p: Params) -> Vec<bool> {
    let mut marked = vec![false; g.num_nodes()];
    let mut stack: Vec<u32> = (0..p.roots.min(g.num_nodes()) as u32).collect();
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut marked[v as usize], true) {
            continue;
        }
        stack.extend_from_slice(g.successors(v));
    }
    marked
}

// ---------------------------------------------------------------------------
// Parallel version (real runtime)
// ---------------------------------------------------------------------------

/// Sets node `v`'s mark bit; `true` if this call won the marking race.
/// Bits only ever go from clear to set, so a set bit seen by the plain
/// load is final: most pops find their node already marked and skip the
/// read-modify-write (test-and-test-and-set).
fn try_mark(bits: &[AtomicU64], v: u32) -> bool {
    let word = &bits[v as usize / 64];
    let mask = 1u64 << (v % 64);
    word.load(Ordering::Relaxed) & mask == 0 && word.fetch_or(mask, Ordering::Relaxed) & mask == 0
}

fn flood<'s>(
    s: &Scope<'s>,
    g: &'s Graph,
    bits: &'s [AtomicU64],
    mut pending: Vec<u32>,
    chunk: usize,
) {
    while let Some(v) = pending.pop() {
        if !try_mark(bits, v) {
            continue;
        }
        pending.extend_from_slice(g.successors(v));
        // Spill the newest `chunk` entries (the tail, at most half) into a
        // sibling task, but only when a thief could take it: our deque is
        // empty. We keep flooding locally from the older entries.
        if pending.len() >= 2 * chunk && numa_ws::split_wanted() {
            let spill = pending.split_off(pending.len() - chunk);
            s.spawn(move |s| flood(s, g, bits, spill, chunk));
        }
    }
}

/// Parallel mark (call inside [`Pool::install`](numa_ws::Pool::install));
/// returns the mark vector, bit-identical to [`run_serial`]'s.
pub fn run_parallel(g: &Graph, p: Params, places: usize) -> Vec<bool> {
    let places = places.max(1);
    let chunk = p.chunk.max(1);
    let bits: Vec<AtomicU64> = (0..g.num_nodes().div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
    let roots: Vec<u32> = (0..p.roots.min(g.num_nodes()) as u32).collect();
    scope(|s| {
        // Seed one flood per root batch, spread over the places; the
        // spills rebalance from there.
        for (i, batch) in roots.chunks(chunk.max(1)).enumerate() {
            let batch = batch.to_vec();
            let (g, bits) = (&*g, &bits[..]);
            s.spawn_at(Place(i % places), move |s| flood(s, g, bits, batch, chunk));
        }
    });
    (0..g.num_nodes())
        .map(|v| bits[v / 64].load(Ordering::Relaxed) & (1 << (v % 64)) != 0)
        .collect()
}

// ---------------------------------------------------------------------------
// Simulator DAG
// ---------------------------------------------------------------------------

/// BFS levels of the seeded graph (deduplicated frontiers) — the wave
/// structure the DAG mirrors.
fn bfs_levels(g: &Graph, p: Params) -> Vec<Vec<u32>> {
    let mut seen = vec![false; g.num_nodes()];
    let mut frontier: Vec<u32> = (0..p.roots.min(g.num_nodes()) as u32).collect();
    for &v in &frontier {
        seen[v as usize] = true;
    }
    let mut levels = Vec::new();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in g.successors(v) {
                if !std::mem::replace(&mut seen[w as usize], true) {
                    next.push(w);
                }
            }
        }
        levels.push(std::mem::replace(&mut frontier, next));
    }
    levels
}

/// Builds the simulator DAG: one serial phase per BFS wave of the seeded
/// graph, each wave fanning out over frontier chunks. Chunk leaves touch
/// the page span their nodes actually occupy — pointer-chasing spans, not
/// streaming bands — with cycles proportional to the edges they scan.
///
/// It is a simulator model, as `strassen::dag_top8` is, not a walk of the
/// pool run: the pool's flood splits when a thief asks, and a serial walk
/// that splits whenever allowed marks nodes in walk order, which at
/// `sim_replay`'s size nests 203 spills 204 deep — a chain, not the pool's
/// fork tree.
pub fn dag(params: Params, places: usize) -> Dag {
    let places = places.max(1);
    let g = random_graph(params);
    let levels = bfs_levels(&g, params);
    let mut b = DagBuilder::new();
    // ~16 bytes of header+mark per object plus 4 bytes per edge reference.
    let heap =
        b.alloc("heap", pages_for(16 * g.num_nodes() as u64 + 4 * g.num_edges() as u64, 1), {
            PagePolicy::Chunked { chunks: places }
        });
    let nodes_per_page = (4096 / 16) as u32;

    // Waves are serial phases (level k+1's frontier comes out of level k).
    b.frame(Place(0), |b| {
        for level in &levels {
            b.frame(Place(0), |b| {
                for (i, chunk) in level.chunks(params.chunk.max(1)).enumerate() {
                    let scanned: u64 =
                        chunk.iter().map(|&v| g.successors(v).len() as u64 + 1).sum();
                    let lo = *chunk.iter().min().unwrap() / nodes_per_page;
                    let hi = *chunk.iter().max().unwrap() / nodes_per_page;
                    let strand = Strand {
                        cycles: 12 * scanned, // mark + pointer chase per object/edge
                        touches: vec![Touch {
                            region: heap,
                            start_page: lo as u64,
                            pages: (hi - lo + 1) as u64,
                            // Sparse within the span: a few lines per page,
                            // not a streaming read.
                            lines_per_page: 8,
                        }],
                    };
                    b.frame(Place(i % places), |b| _ = b.strand(strand));
                }
                b.sync();
            });
            b.sync();
        }
        b.compute(1);
    });
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_ws::Pool;

    #[test]
    fn serial_marks_exactly_the_reachable_set() {
        let p = Params::test();
        let g = random_graph(p);
        let marked = run_serial(&g, p);
        let levels = bfs_levels(&g, p);
        let reach: usize = levels.iter().map(Vec::len).sum();
        assert_eq!(marked.iter().filter(|&&m| m).count(), reach);
    }

    #[test]
    fn parallel_matches_serial() {
        let p = Params::test();
        let g = random_graph(p);
        let want = run_serial(&g, p);
        for workers in [2usize, 4] {
            for places in [1usize, 4] {
                // Hints wrap modulo the pool's places, so 4-place hints
                // also run on a 2-worker, 2-place pool.
                let pool =
                    Pool::builder().workers(workers).places(places.min(workers)).build().unwrap();
                let got = pool.install(|| run_parallel(&g, p, places));
                assert_eq!(got, want, "workers={workers} places={places}");
            }
        }
    }

    #[test]
    fn single_worker_flood_barely_spawns() {
        // With no thief the deque keeps the first split exposed, so the
        // flood runs as its serial elision: the root batch plus a split or
        // two, not one spawn per chunk.
        let p = Params::test();
        let g = random_graph(p);
        let pool = Pool::builder().workers(1).build().unwrap();
        let got = pool.install(|| run_parallel(&g, p, 1));
        assert_eq!(got, run_serial(&g, p));
        let spawns = pool.stats().total_scope_spawns();
        assert!(spawns <= 4, "{spawns} scope spawns on one worker");
    }

    #[test]
    fn graph_is_seed_deterministic_and_irregular() {
        let p = Params::test();
        let a = random_graph(p);
        let b = random_graph(p);
        assert_eq!(a.edges, b.edges);
        let degs: Vec<usize> = (0..a.num_nodes() as u32).map(|v| a.successors(v).len()).collect();
        assert!(degs.contains(&0) && degs.iter().any(|&d| d >= p.avg_degree));
    }

    #[test]
    fn dag_mirrors_the_wavefront() {
        let p = Params::test();
        let d = dag(p, 4);
        d.validate().unwrap();
        let g = random_graph(p);
        let levels = bfs_levels(&g, p);
        assert!(!levels.is_empty());
        // One wave frame + its chunk leaves per level, plus the root.
        let chunks: usize = levels.iter().map(|l| l.len().div_ceil(p.chunk)).sum();
        assert_eq!(d.num_frames(), 1 + levels.len() + chunks);
        assert!(d.span() as usize >= levels.len(), "waves serialize the span");
    }
}
