//! Series-parallel task DAGs — the simulator's computation model.
//!
//! A computation is a tree of **frames** (Cilk functions). Each frame is a
//! sequence of [`Step`]s: strands (compute + memory touches), spawns of
//! child frames, and syncs. This mirrors the ABP dag model the paper's §IV
//! analysis uses: a spawn is a node with out-degree two (child +
//! continuation), a sync joins all children spawned since the previous
//! sync, and every frame ends with an implicit sync.
//!
//! Frames carry the **place hint** of the paper's locality API: the hint is
//! assigned when the frame is built and, by convention, builders propagate
//! the parent's hint to children unless overridden — the inheritance rule
//! of §III-A.
//!
//! DAGs are built bottom-up (children before parents), so frame indices are
//! in topological order and [`Dag::work`]/[`Dag::span`] are simple forward
//! passes.

use crate::memory::{PagePolicy, Region, RegionId, Touch};
use nws_topology::Place;

/// Index of a frame within a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub usize);

/// One strand: straight-line computation with its memory footprint.
#[derive(Debug, Clone, Default)]
pub struct Strand {
    /// Pure compute cycles (what the strand costs with a perfect memory
    /// system).
    pub cycles: u64,
    /// Memory ranges touched, charged through the cache model.
    pub touches: Vec<Touch>,
}

impl Strand {
    /// A compute-only strand.
    pub fn compute(cycles: u64) -> Self {
        Strand { cycles, touches: Vec::new() }
    }
}

/// One step in a frame's instruction sequence.
#[derive(Debug, Clone)]
pub enum Step {
    /// Execute a strand.
    Strand(Strand),
    /// Spawn a child frame; the continuation (next step) becomes stealable.
    Spawn(FrameId),
    /// Wait for all children spawned since the last sync.
    Sync,
}

/// Definition of one frame (Cilk function instance).
#[derive(Debug, Clone)]
pub struct FrameDef {
    /// Locality hint (may be [`Place::ANY`]).
    pub place: Place,
    /// The frame's steps in program order.
    pub steps: Vec<Step>,
    /// The spawning parent, filled in by the builder.
    pub parent: Option<FrameId>,
}

/// A complete computation: frames plus the regions they touch.
#[derive(Debug, Clone)]
pub struct Dag {
    frames: Vec<FrameDef>,
    regions: Vec<Region>,
    root: FrameId,
}

/// Builds a [`Dag`] bottom-up.
///
/// # Example
///
/// ```
/// use nws_sim::{DagBuilder, PagePolicy, Strand, Touch};
/// use nws_topology::Place;
///
/// let mut b = DagBuilder::new();
/// let data = b.alloc("data", 8, PagePolicy::Chunked { chunks: 2 });
/// let child = b
///     .frame(Place(1))
///     .strand_touching(100, Touch { region: data, start_page: 4, pages: 4, lines_per_page: 64 })
///     .finish();
/// let root = b
///     .frame(Place(0))
///     .spawn(child)
///     .strand_touching(100, Touch { region: data, start_page: 0, pages: 4, lines_per_page: 64 })
///     .sync()
///     .finish();
/// let dag = b.build(root);
/// assert_eq!(dag.num_frames(), 2);
/// assert_eq!(dag.work(), 200);
/// assert_eq!(dag.span(), 100); // the two strands run in parallel
/// ```
#[derive(Debug, Default)]
pub struct DagBuilder {
    frames: Vec<FrameDef>,
    regions: Vec<Region>,
    next_page: u64,
    spawned: Vec<bool>,
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a region of `pages` pages under `policy`, returning its id.
    pub fn alloc(&mut self, name: impl Into<String>, pages: u64, policy: PagePolicy) -> RegionId {
        assert!(pages > 0, "region must have at least one page");
        let id = RegionId(self.regions.len());
        self.regions.push(Region { name: name.into(), first_page: self.next_page, pages, policy });
        self.next_page += pages;
        id
    }

    /// Starts a new frame with locality hint `place`. Children it spawns
    /// must already have been built.
    pub fn frame(&mut self, place: Place) -> FrameBuilder<'_> {
        FrameBuilder { dag: self, place, steps: Vec::new() }
    }

    /// Adds a finished frame: hint `place`, then `steps` in program order.
    /// This is what [`FrameBuilder::finish`] calls; a builder that collects
    /// a frame's steps itself hands them over here whole.
    ///
    /// # Panics
    ///
    /// Panics if a spawned child does not exist yet or has already been
    /// spawned elsewhere (each frame instance runs exactly once).
    pub fn push_frame(&mut self, place: Place, steps: Vec<Step>) -> FrameId {
        for step in &steps {
            if let Step::Spawn(child) = *step {
                assert!(child.0 < self.frames.len(), "spawned child must be built first");
                assert!(!self.spawned[child.0], "frame {child:?} spawned twice");
                self.spawned[child.0] = true;
            }
        }
        let id = FrameId(self.frames.len());
        self.frames.push(FrameDef { place, steps, parent: None });
        self.spawned.push(false);
        id
    }

    /// Convenience: a frame consisting of a single strand.
    pub fn leaf(&mut self, place: Place, strand: Strand) -> FrameId {
        self.frame(place).strand(strand).finish()
    }

    /// Finishes the DAG with `root` as the top-level frame.
    ///
    /// # Panics
    ///
    /// Panics if `root` was itself spawned by another frame, or is out of
    /// range.
    pub fn build(mut self, root: FrameId) -> Dag {
        assert!(root.0 < self.frames.len(), "root out of range");
        assert!(!self.spawned[root.0], "root must not be spawned by another frame");
        // Fill parent links from spawn edges.
        let mut parents: Vec<Option<FrameId>> = vec![None; self.frames.len()];
        for (i, f) in self.frames.iter().enumerate() {
            for s in &f.steps {
                if let Step::Spawn(c) = s {
                    parents[c.0] = Some(FrameId(i));
                }
            }
        }
        for (f, p) in self.frames.iter_mut().zip(parents) {
            f.parent = p;
        }
        Dag { frames: self.frames, regions: self.regions, root }
    }
}

/// A balanced binary spawn tree of `leaves` leaves of `cycles` each: work
/// `leaves * cycles`, span `cycles` plus the log-depth spawn chain. Every
/// frame spawns its left half, then its right half, then syncs.
pub fn tree(leaves: usize, cycles: u64) -> Dag {
    fn rec(b: &mut DagBuilder, n: usize, cycles: u64) -> FrameId {
        if n == 1 {
            return b.leaf(Place::ANY, Strand::compute(cycles));
        }
        let l = rec(b, n / 2, cycles);
        let r = rec(b, n - n / 2, cycles);
        b.frame(Place::ANY).spawn(l).spawn(r).sync().finish()
    }
    let mut b = DagBuilder::new();
    let root = rec(&mut b, leaves, cycles);
    b.build(root)
}

/// A chain of `len` serial phases, each forking `width` leaves of `cycles`
/// each: a long span with bounded parallelism, which stresses the `O(T∞)`
/// term of the §IV bounds.
pub fn phased(len: usize, width: usize, cycles: u64) -> Dag {
    let mut b = DagBuilder::new();
    let mut phases = Vec::new();
    for _ in 0..len {
        let leaves: Vec<_> =
            (0..width).map(|_| b.leaf(Place::ANY, Strand::compute(cycles))).collect();
        let mut fb = b.frame(Place::ANY);
        for l in leaves {
            fb = fb.spawn(l);
        }
        phases.push(fb.sync().finish());
    }
    let mut fb = b.frame(Place::ANY);
    for p in phases {
        fb = fb.spawn(p).sync();
    }
    let root = fb.finish();
    b.build(root)
}

/// Incremental builder for one frame; returned by [`DagBuilder::frame`].
#[derive(Debug)]
pub struct FrameBuilder<'a> {
    dag: &'a mut DagBuilder,
    place: Place,
    steps: Vec<Step>,
}

impl FrameBuilder<'_> {
    /// Appends a strand.
    pub fn strand(mut self, s: Strand) -> Self {
        self.steps.push(Step::Strand(s));
        self
    }

    /// Appends a compute-only strand.
    pub fn compute(self, cycles: u64) -> Self {
        self.strand(Strand::compute(cycles))
    }

    /// Appends a strand with one memory touch.
    pub fn strand_touching(self, cycles: u64, touch: Touch) -> Self {
        self.strand(Strand { cycles, touches: vec![touch] })
    }

    /// Spawns an already-built child frame.
    ///
    /// # Panics
    ///
    /// [`finish`](Self::finish) panics if the child does not exist yet or
    /// has already been spawned elsewhere (each frame instance runs exactly
    /// once).
    pub fn spawn(mut self, child: FrameId) -> Self {
        self.steps.push(Step::Spawn(child));
        self
    }

    /// Appends a sync.
    pub fn sync(mut self) -> Self {
        self.steps.push(Step::Sync);
        self
    }

    /// Finalizes the frame and returns its id.
    pub fn finish(self) -> FrameId {
        self.dag.push_frame(self.place, self.steps)
    }
}

impl Dag {
    /// Number of frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// The root frame.
    pub fn root(&self) -> FrameId {
        self.root
    }

    /// Frame definition accessor.
    pub fn frame(&self, id: FrameId) -> &FrameDef {
        &self.frames[id.0]
    }

    /// The regions table (consumed by the memory system).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Clones the regions for constructing a memory system.
    pub fn regions_vec(&self) -> Vec<Region> {
        self.regions.clone()
    }

    /// A copy of this DAG with every region's page policy replaced.
    ///
    /// Used by the NUMA-policy ablation: the paper runs vanilla Cilk Plus
    /// under both the first-touch and interleave OS policies and reports
    /// whichever is better (§V), which this makes a one-liner.
    pub fn with_policy(&self, policy: crate::memory::PagePolicy) -> Dag {
        let mut d = self.clone();
        for r in &mut d.regions {
            r.policy = policy.clone();
        }
        d
    }

    /// A copy of this DAG with every frame's hint `p` other than
    /// [`Place::ANY`] replaced by `place(p)`.
    pub fn map_places(&self, place: impl Fn(Place) -> Place) -> Dag {
        let mut d = self.clone();
        for f in &mut d.frames {
            if !f.place.is_any() {
                f.place = place(f.place);
            }
        }
        d
    }

    /// Total strand compute cycles — the `T1` of the ABP model, *excluding*
    /// memory stalls and scheduler costs (both are machine properties, not
    /// DAG properties).
    pub fn work(&self) -> u64 {
        self.reachable_postorder()
            .into_iter()
            .flat_map(|f| &self.frames[f].steps)
            .map(|s| match s {
                Step::Strand(st) => st.cycles,
                _ => 0,
            })
            .sum()
    }

    /// Critical-path compute cycles — the `T∞` of the ABP model.
    pub fn span(&self) -> u64 {
        // Frames are in topological order (children built first), so a
        // single forward pass over reachable frames suffices.
        let mut frame_span = vec![0u64; self.frames.len()];
        for f in self.reachable_postorder() {
            let mut cur = 0u64;
            let mut pending: u64 = 0; // max completion among unsynced children
            for step in &self.frames[f].steps {
                match step {
                    Step::Strand(s) => cur += s.cycles,
                    Step::Spawn(c) => pending = pending.max(cur + frame_span[c.0]),
                    Step::Sync => {
                        cur = cur.max(pending);
                        pending = 0;
                    }
                }
            }
            frame_span[f] = cur.max(pending); // implicit final sync
        }
        frame_span[self.root.0]
    }

    /// Number of spawns in the reachable computation.
    pub fn num_spawns(&self) -> u64 {
        self.reachable_postorder()
            .into_iter()
            .flat_map(|f| &self.frames[f].steps)
            .filter(|s| matches!(s, Step::Spawn(_)))
            .count() as u64
    }

    /// Frames reachable from the root, children before parents.
    fn reachable_postorder(&self) -> Vec<usize> {
        let mut reach = vec![false; self.frames.len()];
        let mut stack = vec![self.root.0];
        reach[self.root.0] = true;
        while let Some(f) = stack.pop() {
            for s in &self.frames[f].steps {
                if let Step::Spawn(c) = s {
                    if !reach[c.0] {
                        reach[c.0] = true;
                        stack.push(c.0);
                    }
                }
            }
        }
        // Builder order is already topological (children first).
        (0..self.frames.len()).filter(|&f| reach[f]).collect()
    }

    /// Checks structural invariants (used by tests and on load): spawns
    /// reference earlier frames, parents are consistent, the root is not
    /// spawned.
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.frames.iter().enumerate() {
            for s in &f.steps {
                if let Step::Spawn(c) = s {
                    if c.0 >= i {
                        return Err(format!("frame {i} spawns non-earlier frame {}", c.0));
                    }
                    if self.frames[c.0].parent != Some(FrameId(i)) {
                        return Err(format!("frame {} has wrong parent link", c.0));
                    }
                }
            }
        }
        if self.frames[self.root.0].parent.is_some() {
            return Err("root has a parent".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(len: usize, cycles: u64) -> Dag {
        // A serial chain: root does `len` strands in sequence.
        let mut b = DagBuilder::new();
        let mut fb = b.frame(Place::ANY);
        for _ in 0..len {
            fb = fb.compute(cycles);
        }
        let root = fb.finish();
        b.build(root)
    }

    #[test]
    fn chain_work_equals_span() {
        let d = chain(10, 7);
        assert_eq!(d.work(), 70);
        assert_eq!(d.span(), 70);
        assert_eq!(d.num_spawns(), 0);
    }

    #[test]
    fn binary_tree_span_is_logarithmic() {
        let d = tree(1 << 4, 100); // 16 leaves
        assert_eq!(d.work(), 1600);
        // All leaves in parallel: span = one leaf.
        assert_eq!(d.span(), 100);
        assert_eq!(d.num_spawns(), 2 * (16 - 1)); // 2 spawns per internal frame
        d.validate().unwrap();
    }

    #[test]
    fn continuation_overlaps_spawned_child() {
        // spawn(child: 100); continuation strand 60; sync → span = 100.
        let mut b = DagBuilder::new();
        let c = b.leaf(Place::ANY, Strand::compute(100));
        let root = b.frame(Place::ANY).spawn(c).compute(60).sync().compute(5).finish();
        let d = b.build(root);
        assert_eq!(d.work(), 165);
        assert_eq!(d.span(), 105);
    }

    #[test]
    fn sync_partitions_children() {
        // Two phases: child A (100) synced, then child B (50) synced:
        // span = 100 + 50.
        let mut b = DagBuilder::new();
        let a = b.leaf(Place::ANY, Strand::compute(100));
        let bb = b.leaf(Place::ANY, Strand::compute(50));
        let root = b.frame(Place::ANY).spawn(a).sync().spawn(bb).sync().finish();
        let d = b.build(root);
        assert_eq!(d.span(), 150);
    }

    #[test]
    fn implicit_final_sync_counts() {
        // Spawn without explicit sync: frame still waits for the child.
        let mut b = DagBuilder::new();
        let c = b.leaf(Place::ANY, Strand::compute(100));
        let root = b.frame(Place::ANY).spawn(c).compute(10).finish();
        let d = b.build(root);
        assert_eq!(d.span(), 100);
    }

    #[test]
    fn parent_links_filled() {
        let d = tree(1 << 2, 1);
        let root = d.root();
        assert_eq!(d.frame(root).parent, None);
        let mut child_count = 0;
        for s in &d.frame(root).steps {
            if let Step::Spawn(c) = s {
                assert_eq!(d.frame(*c).parent, Some(root));
                child_count += 1;
            }
        }
        assert_eq!(child_count, 2);
    }

    #[test]
    fn regions_get_distinct_page_ranges() {
        let mut b = DagBuilder::new();
        let r1 = b.alloc("a", 10, PagePolicy::FirstTouch);
        let r2 = b.alloc("b", 5, PagePolicy::Interleave);
        let root = b.frame(Place::ANY).compute(1).finish();
        let d = b.build(root);
        assert_eq!(d.regions()[r1.0].first_page, 0);
        assert_eq!(d.regions()[r2.0].first_page, 10);
        assert_eq!(d.regions()[r2.0].pages, 5);
    }

    #[test]
    #[should_panic(expected = "spawned twice")]
    fn double_spawn_rejected() {
        let mut b = DagBuilder::new();
        let c = b.leaf(Place::ANY, Strand::compute(1));
        let _root = b.frame(Place::ANY).spawn(c).spawn(c).sync().finish();
    }

    #[test]
    #[should_panic(expected = "root must not be spawned")]
    fn spawned_root_rejected() {
        let mut b = DagBuilder::new();
        let c = b.leaf(Place::ANY, Strand::compute(1));
        let _p = b.frame(Place::ANY).spawn(c).sync().finish();
        let _ = b.build(c);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(tree(1 << 3, 5).validate().is_ok());
    }

    #[test]
    fn parallelism_ratio() {
        let d = tree(1 << 6, 64); // 64 leaves, work 4096, span 64
        assert_eq!(d.work() / d.span(), 64);
    }
}
